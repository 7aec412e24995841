"""The benchmark's workloads: inputs made from a seed, the timed
operation, and the checks on its outputs.

Every operation calls the package through module attributes
(``core.hash_bytes``, ``analysis.avalanche``, ...) at call time, so the
traced run's shims see each call.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from time import perf_counter

from hfhash import analysis, core

CHUNK = 1 << 16                 # `hfhash sum` reads files in 64 KiB chunks
BLOCK = core.BLOCK_BYTES
STREAM_BYTES = 96 * 1024        # one message of ~1,756 blocks
SHORT_MAX = 168                 # 0..168 bytes pad to 1..4 blocks
SHORT_GROUPS = 12
AVALANCHE_INPUTS = 4
AVALANCHE_ORACLE_FLIPS = 2
SHORT_ORACLE_RANDOM = 4
# lengths around every padded-block edge, including the 48..55 (mod 56)
# band where the length field spills into an extra block
SHORT_EDGE_LENGTHS = (0, 47, 48, 55, 56, 103, 104, 111, 112, 159, 160, 167, 168)
SCHEDULE_SET = tuple((r, rule) for r in (32, 48, 64) for rule in ("non-last", "last"))
# the paper's bounds on the minimum schedule weight, non-last rule
DIFFUSION_BOUNDS = {64: (">=", 165), 48: ("<", 75), 32: ("<", 75)}


def padded_blocks(length: int) -> int:
    """Blocks a message of `length` bytes occupies after padding."""
    return (length + 8) // BLOCK + 1


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _report_fingerprint(report) -> bytes:
    return _sha(json.dumps(report.to_dict(), sort_keys=True).encode())


class Workload:
    """One set of inputs and the operation timed on each of them.

    `fingerprint` reduces an output to bytes so that repeats of an input
    can be compared without keeping every output alive; `verify`
    returns the indices of inputs whose output failed a check, with a
    note for each failure.
    """

    name = ""
    seeded = True
    min_ops = 1

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, item, params):
        raise NotImplementedError

    def message_bytes(self, item) -> int:
        raise NotImplementedError

    def blocks(self, item) -> int:
        raise NotImplementedError

    def fingerprint(self, output) -> bytes:
        return output.to_bytes()

    def verify(self, inputs, first, fps, params, oracle, seed, pinned) -> tuple[set, list]:
        raise NotImplementedError

    def kat(self, fps: list[bytes]) -> str:
        """Known-answer value over the outputs of all inputs, in order."""
        return hashlib.sha256(b"".join(fps)).hexdigest()


def _stream(chunks, params):
    h = core.Hasher(params)
    for chunk in chunks:
        h.update(chunk)
    return h.finalize()


class StreamLong(Workload):
    """One long random message streamed through `Hasher` in 64 KiB chunks."""

    name = "stream-long"

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        message = rng.randbytes(STREAM_BYTES + rng.randrange(BLOCK))
        return [tuple(message[i:i + CHUNK] for i in range(0, len(message), CHUNK))]

    def run(self, chunks, params):
        return _stream(chunks, params)

    def message_bytes(self, chunks):
        return sum(map(len, chunks))

    def blocks(self, chunks):
        return padded_blocks(self.message_bytes(chunks))

    def verify(self, inputs, first, fps, params, oracle, seed, pinned):
        message = b"".join(inputs[0])
        notes = []
        if not pinned:
            # no pinned answer for this seed: the one-shot path
            # (pad + parse_blocks) must agree with the streaming one
            if core.hash_bytes(message, params).to_bytes() != fps[0]:
                notes.append("streamed digest differs from one-shot hash_bytes")
        # the oracle is ~8x slower, so it checks a three-block prefix
        prefix = message[:2 * BLOCK + 18]
        if _stream((prefix,), params).words != core.hash_bytes(prefix, oracle).words:
            notes.append("compiled path differs from the term-sum oracle on a prefix")
        return ({0} if notes else set()), notes


class ShortMsgs(Workload):
    """Random messages of 0..168 bytes, each hashed one-shot.

    An operation is a group holding every length once, in seeded order,
    so each operation does the same work and the block-count mix is the
    same for every seed.  Each message's call is timed on its own for
    the per-message latencies.
    """

    name = "short-msgs"
    min_ops = 6         # 1,014 messages: p99 has at least ten samples above it

    def __init__(self):
        self.latencies = array("d")     # seconds per hash_bytes call

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        groups = []
        for _ in range(SHORT_GROUPS):
            lengths = list(range(SHORT_MAX + 1))
            rng.shuffle(lengths)
            groups.append(tuple(rng.randbytes(n) for n in lengths))
        return groups

    def run(self, group, params):
        digests = []
        for message in group:
            t0 = perf_counter()
            digest = core.hash_bytes(message, params)
            self.latencies.append(perf_counter() - t0)
            digests.append(digest)
        return digests

    def message_bytes(self, group):
        return sum(map(len, group))

    def blocks(self, group):
        return sum(padded_blocks(len(m)) for m in group)

    def fingerprint(self, digests):
        return b"".join(d.to_bytes() for d in digests)

    def oracle_sample(self, groups, seed):
        """(group, position) pairs: every edge length, plus a few at random."""
        rng = random.Random(f"{self.name}:oracle:{seed}")
        sample = []
        for n in SHORT_EDGE_LENGTHS:
            g = rng.randrange(len(groups))
            sample.append((g, next(k for k, m in enumerate(groups[g]) if len(m) == n)))
        for _ in range(SHORT_ORACLE_RANDOM):
            g = rng.randrange(len(groups))
            sample.append((g, rng.randrange(len(groups[g]))))
        return sample

    def verify(self, inputs, first, fps, params, oracle, seed, pinned):
        bad, notes = set(), []
        for g, k in self.oracle_sample(inputs, seed):
            message = inputs[g][k]
            if core.hash_bytes(message, oracle).words != first[g][k].words:
                bad.add(g)
                notes.append(f"group {g} message {k} ({len(message)} bytes) "
                             "differs from the oracle")
        return bad, notes


class Avalanche(Workload):
    """Full 448-flip avalanche reports on seeded one-block inputs."""

    name = "avalanche"

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randbytes(BLOCK) for _ in range(AVALANCHE_INPUTS)]

    def run(self, message, params):
        return analysis.avalanche(message, params)

    def message_bytes(self, message):
        return (8 * BLOCK + 1) * BLOCK

    def blocks(self, message):
        return (8 * BLOCK + 1) * padded_blocks(BLOCK)

    def fingerprint(self, report):
        return _report_fingerprint(report)

    def verify(self, inputs, first, fps, params, oracle, seed, pinned):
        bad, notes = set(), []
        rng = random.Random(f"{self.name}:oracle:{seed}")
        for i, message in enumerate(inputs):
            report = first[i]
            base = core.hash_bytes(message, oracle)
            ok = report.base_digest == base.hex()
            for pos in rng.sample(range(8 * BLOCK), AVALANCHE_ORACLE_FLIPS):
                flipped = bytearray(message)
                flipped[pos // 8] ^= 1 << (7 - pos % 8)
                words = core.hash_bytes(bytes(flipped), oracle).words
                expected = tuple(bin(a ^ b).count("1") for a, b in zip(base.words, words))
                ok &= report.flips[pos].word_distances == expected
            if not ok:
                bad.add(i)
                notes.append(f"avalanche report {i} differs from the oracle")
        return bad, notes


class Schedule(Workload):
    """The six schedule-diffusion reports; `p` does no work here.

    The inputs are fixed, so the seed does not change them.
    """

    name = "schedule"
    seeded = False

    def inputs(self, seed):
        return [SCHEDULE_SET]

    def run(self, cases, params):
        return tuple(analysis.diffusion(rounds=r, rule=rule) for r, rule in cases)

    def message_bytes(self, cases):
        return len(cases) * 8 * BLOCK * BLOCK

    def blocks(self, cases):
        return 0

    def fingerprint(self, reports):
        return _sha(b"".join(map(_report_fingerprint, reports)))

    def verify(self, inputs, first, fps, params, oracle, seed, pinned):
        notes = []
        for report in first[0]:
            if report.rule != "non-last":
                continue
            op, bound = DIFFUSION_BOUNDS[report.rounds]
            ok = report.min_weight >= bound if op == ">=" else report.min_weight < bound
            if not ok:
                notes.append(f"diffusion at {report.rounds} rounds: min weight "
                             f"{report.min_weight} breaks {op} {bound}")
        return ({0} if notes else set()), notes


WORKLOADS = {w.name: w for w in (StreamLong, ShortMsgs, Avalanche, Schedule)}
