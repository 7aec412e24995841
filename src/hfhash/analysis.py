"""Measurable properties of the hash: avalanche, diffusion, throughput.

Three experiments, each returning a frozen report with text and dict
serializations:

- ``avalanche``: flip each of the 448 bits of a one-block message and
  tabulate Hamming distances between the original and flipped digests.
- ``diffusion``: propagate a single-bit message difference through the
  schedule recurrence alone and count difference bits; this is a pure
  GF(2)-linear computation, so the result is exact and deterministic.
- ``bench``: wall-clock one-shot hashing against a SHA-256 baseline,
  with both the compiled and the term-sum evaluation paths.

A record whose JSON is its fields serializes as ``dict(vars(record))``,
a fresh shallow dict; the function that makes it computes every field.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, replace

from . import core
from .core import (
    BLOCK_BYTES,
    WORDS_PER_BLOCK,
    HfParams,
    check_rounds,
    default_params,
    hash_bytes,
)
from .evaluator import CompiledSystem, TermSumEvaluator

BLOCK_BITS = 8 * BLOCK_BYTES
BUCKET_RADII = (5, 10, 15, 20)

# random.Random(1).randbytes(56), frozen so reports are reproducible
DEFAULT_AVALANCHE_INPUT = bytes.fromhex(
    "f5b165224a58b791df6af1d8303e61cdc4bb86c3d1c427103c344c4189"
    "eb2f1e7bd5d47e446fcec2a3d811736110e5781bcccea696762e61"
)

# the 14 unit blocks: block m holds a 1 in word m and 0 elsewhere
UNIT_BLOCKS = tuple(tuple(int(j == m) for j in range(WORDS_PER_BLOCK))
                    for m in range(WORDS_PER_BLOCK))

# default benchmark ladder in bytes: 1.4, 4.84, 7.48, 12.94 and 24.3 MB
DEFAULT_BENCH_SIZES = (1_400_000, 4_840_000, 7_480_000, 12_940_000, 24_300_000)

# largest bench input: `random.Random.randbytes` makes at most 2**28 - 1 bytes
MAX_BENCH_SIZE = (1 << 28) - 1

# largest input the pure-Python term-sum path is timed on by default;
# above this it is skipped (roughly 75 s per megabyte)
DEFAULT_ORACLE_CAP = 1 << 20


@dataclass(frozen=True)
class DistanceSummary:
    """Max, min, mode and mean of a distance sample."""

    max: int
    min: int
    mode: int
    mean: float

    @classmethod
    def of(cls, values: list[int]) -> "DistanceSummary":
        # mode ties break toward the smaller distance
        counts = Counter(values)
        mode = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        return cls(max=max(values), min=min(values), mode=mode,
                   mean=sum(values) / len(values))


@dataclass(frozen=True)
class FlipResult:
    """Digest distances induced by flipping one message bit."""

    position: int
    digest_distance: int
    word_distances: tuple[int, ...]


@dataclass(frozen=True)
class Bucket:
    """How many flip distances fell within ``128 +/- radius``, and what
    percent of all flips that is."""

    radius: int
    count: int
    percent: float


@dataclass(frozen=True)
class AvalancheReport:
    message: bytes
    rounds: int
    base_digest: str
    flips: tuple[FlipResult, ...]
    digest_summary: DistanceSummary
    word_summaries: tuple[DistanceSummary, ...]
    buckets: tuple[Bucket, ...]

    def format_text(self) -> str:
        s = self.digest_summary
        lines = [
            f"avalanche over {len(self.flips)} single-bit flips "
            f"({self.rounds} rounds)",
            f"input: {self.message.hex()}",
            f"digest distance: max {s.max}  min {s.min}  mode {s.mode}  "
            f"mean {s.mean:.2f}",
        ]
        for i, ws in enumerate(self.word_summaries):
            lines.append(f"word {i}: max {ws.max:2d}  min {ws.min:2d}  "
                         f"mode {ws.mode:2d}  mean {ws.mean:.2f}")
        for b in self.buckets:
            lines.append(f"within 128+/-{b.radius:2d}: {b.count:3d} "
                         f"({b.percent:.2f}%)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "message": self.message.hex(),
            "rounds": self.rounds,
            "base_digest": self.base_digest,
            "per_flip_distances": [
                {"position": f.position,
                 "digest_distance": f.digest_distance,
                 "word_distances": list(f.word_distances)}
                for f in self.flips
            ],
            "summary": {
                "digest": dict(vars(self.digest_summary)),
                "words": [dict(vars(w)) for w in self.word_summaries],
            },
            "buckets": [dict(vars(b)) for b in self.buckets],
        }


def avalanche(message: bytes = DEFAULT_AVALANCHE_INPUT,
              params: HfParams | None = None) -> AvalancheReport:
    """Hash ``message`` and each of its 448 one-bit variants.

    The message must be exactly one block (56 bytes, counted as
    `hash_bytes` counts them), of any bytes-like type; ``str`` raises
    TypeError.  The report keeps a ``bytes`` copy, so editing the
    caller's buffer later changes no report.  Flip position i (1-based)
    toggles bit ``7 - (i-1) % 8`` of byte ``(i-1) // 8``.
    """
    view = memoryview(message).cast("B")
    if len(view) != BLOCK_BYTES:
        raise ValueError(f"avalanche input must be exactly {BLOCK_BYTES} "
                         f"bytes, got {len(view)}")
    message = bytes(view)
    if params is None:
        params = default_params()
    base = hash_bytes(message, params)
    flips = []
    for i in range(BLOCK_BITS):
        flipped = bytearray(message)
        flipped[i // 8] ^= 1 << (7 - i % 8)
        words = hash_bytes(bytes(flipped), params).words
        per_word = tuple((a ^ b).bit_count()
                         for a, b in zip(base.words, words))
        flips.append(FlipResult(position=i + 1,
                                digest_distance=sum(per_word),
                                word_distances=per_word))
    distances = [f.digest_distance for f in flips]
    counts = [sum(1 for d in distances if abs(d - 128) <= r) for r in BUCKET_RADII]
    buckets = tuple(Bucket(radius=r, count=c, percent=100.0 * c / len(distances))
                    for r, c in zip(BUCKET_RADII, counts))
    word_summaries = tuple(
        DistanceSummary.of([f.word_distances[w] for f in flips])
        for w in range(8))
    return AvalancheReport(
        message=message, rounds=params.rounds, base_digest=base.hex(),
        flips=tuple(flips), digest_summary=DistanceSummary.of(distances),
        word_summaries=word_summaries, buckets=buckets)


@dataclass(frozen=True)
class DiffusionReport:
    rounds: int
    rule: str
    per_position_weights: tuple[int, ...]
    min_weight: int
    max_weight: int

    def format_text(self) -> str:
        return (f"schedule diffusion, {self.rounds} rounds, "
                f"{self.rule} expansion rule: min weight "
                f"{self.min_weight}, max weight {self.max_weight} over "
                f"{len(self.per_position_weights)} bit positions")

    def to_dict(self) -> dict:
        return dict(vars(self))


def diffusion(rounds: int = 64, rule: str = "non-last") -> DiffusionReport:
    """Weight of the schedule difference for each single-bit message flip.

    The schedule recurrence is linear over GF(2), so the difference
    produced by a one-bit message flip is independent of the chaining
    words and of the rest of the message; they are held at zero here.
    Only the first ``rounds`` schedule words are counted, since later
    words never enter a computation with that round count.

    Rotating every input word rotates every schedule word (see
    ``core.expand``) and keeps its weight, so all 32 flips inside one
    message word share a weight: one ``core.expand`` call per message
    word, on the unit block of `UNIT_BLOCKS` holding just a 1 there,
    gives all 448.  Flip i lies in byte ``i // 8``, which is in word
    ``i // 32``.  A schedule's weight is the bit count of the bytes of
    its first ``rounds`` words, sliced from `expand`'s bytes and read as
    one int: one call per schedule, not one per word.
    """
    rounds = check_rounds(rounds)
    if rule not in ("non-last", "last"):
        raise ValueError(f"rule must be 'non-last' or 'last', got {rule!r}")
    size = 4 * rounds
    word_weights = [int.from_bytes(core.expand(unit, (0,) * 8, rule == "last")[:size],
                                   "little").bit_count()
                    for unit in UNIT_BLOCKS]
    weights = []
    for weight in word_weights:
        weights += [weight] * 32
    return DiffusionReport(rounds=rounds, rule=rule, per_position_weights=tuple(weights),
                           min_weight=min(word_weights), max_weight=max(word_weights))


@dataclass(frozen=True)
class BenchEntry:
    """Timings (s) and rates (MB/s) for one input size; ``compile_speedup``
    is oracle over compiled time, ``vs_sha256`` compiled over SHA-256
    time, and the oracle fields are None when the oracle was skipped."""

    size: int
    compiled_seconds: float
    oracle_seconds: float | None
    sha256_seconds: float
    compiled_mbps: float
    oracle_mbps: float | None
    sha256_mbps: float
    compile_speedup: float | None
    vs_sha256: float


@dataclass(frozen=True)
class BenchReport:
    entries: tuple[BenchEntry, ...]

    def format_text(self) -> str:
        lines = ["size (bytes)   compiled        oracle          sha256"]
        for e in self.entries:
            def cell(seconds, mbps):
                if seconds is None:
                    return "skipped       "
                return f"{seconds:8.3f}s {mbps:5.2f}MB/s" if mbps < 100 \
                    else f"{seconds:8.3f}s {mbps:5.0f}MB/s"
            lines.append(f"{e.size:12d}  {cell(e.compiled_seconds, e.compiled_mbps)}"
                         f"  {cell(e.oracle_seconds, e.oracle_mbps)}"
                         f"  {cell(e.sha256_seconds, e.sha256_mbps)}")
            extra = f"{'':12s}  {e.vs_sha256:.0f}x slower than sha256"
            if e.compile_speedup is not None:
                extra += f", compiled {e.compile_speedup:.1f}x faster than oracle"
            lines.append(extra)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"entries": [dict(vars(e)) for e in self.entries]}


def bench(sizes: tuple[int, ...] = DEFAULT_BENCH_SIZES,
          params: HfParams | None = None,
          oracle_cap: int = DEFAULT_ORACLE_CAP) -> BenchReport:
    """Time one-shot hashing of random buffers of each size.

    Three implementations run per size: the compiled evaluation path,
    the term-sum oracle path (skipped above ``oracle_cap`` bytes, or
    entirely when the cap is 0), and hashlib SHA-256 as a baseline.
    The compiled and oracle paths must agree on every buffer they both
    hash; a disagreement is an internal error, not a report entry.  The
    oracle evaluates the system ``params.system`` was compiled from.
    """
    if params is None:
        params = default_params()
    if not isinstance(params.system, CompiledSystem):
        raise TypeError("bench times a CompiledSystem against a term-sum oracle "
                        f"of its source; got {type(params.system).__name__}")
    oracle_params = replace(params, system=TermSumEvaluator(params.system.source))
    entries = []
    for size in sizes:
        data = random.Random(size).randbytes(size)

        t0 = time.perf_counter()
        compiled_digest = hash_bytes(data, params)
        compiled_s = time.perf_counter() - t0

        oracle_s = oracle_mbps = compile_speedup = None
        if 0 < size <= oracle_cap:
            t0 = time.perf_counter()
            oracle_digest = hash_bytes(data, oracle_params)
            oracle_s = time.perf_counter() - t0
            if oracle_digest.words != compiled_digest.words:
                raise AssertionError(
                    f"compiled and oracle paths disagree on {size} bytes")
            oracle_mbps = size / 1e6 / oracle_s
            compile_speedup = oracle_s / compiled_s

        t0 = time.perf_counter()
        hashlib.sha256(data).digest()
        sha_s = time.perf_counter() - t0

        entries.append(BenchEntry(
            size=size, compiled_seconds=compiled_s, oracle_seconds=oracle_s,
            sha256_seconds=sha_s, compiled_mbps=size / 1e6 / compiled_s,
            oracle_mbps=oracle_mbps, sha256_mbps=size / 1e6 / sha_s,
            compile_speedup=compile_speedup, vs_sha256=compiled_s / sha_s))
    return BenchReport(entries=tuple(entries))
