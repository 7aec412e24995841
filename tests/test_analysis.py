import hashlib
import json
import random
import struct
from array import array

import numpy as np
import pytest

from hfhash import core
from hfhash.analysis import (
    BUCKET_RADII,
    DEFAULT_AVALANCHE_INPUT,
    DEFAULT_BENCH_SIZES,
    DistanceSummary,
    avalanche,
    bench,
    diffusion,
)
from hfhash.core import (
    WORDS_PER_BLOCK,
    HfParams,
    expand,
    hash_bytes,
    pad,
    parse_blocks,
)
from hfhash.evaluator import TermSumEvaluator, compile_system
from hfhash.system import load_system
from test_core import schedule_words


def test_default_input_is_one_block():
    assert len(DEFAULT_AVALANCHE_INPUT) == 56


def test_avalanche_rejects_wrong_size():
    with pytest.raises(ValueError, match="56"):
        avalanche(b"short")


@pytest.fixture(scope="module")
def report(params):
    return avalanche(DEFAULT_AVALANCHE_INPUT, params)


def test_avalanche_covers_every_bit(report):
    assert len(report.flips) == 448
    assert [f.position for f in report.flips] == list(range(1, 449))


def test_word_distances_sum_to_digest_distance(report):
    for flip in report.flips:
        assert len(flip.word_distances) == 8
        assert sum(flip.word_distances) == flip.digest_distance
        assert all(0 <= d <= 32 for d in flip.word_distances)
        assert 0 <= flip.digest_distance <= 256


def test_bucket_counts_grow_with_radius(report):
    assert tuple(b.radius for b in report.buckets) == BUCKET_RADII
    counts = [b.count for b in report.buckets]
    assert counts == sorted(counts)
    for b in report.buckets:
        assert b.count == sum(
            1 for f in report.flips if abs(f.digest_distance - 128) <= b.radius)
        assert b.percent == pytest.approx(100 * b.count / 448)


def test_avalanche_summary_consistent(report):
    distances = [f.digest_distance for f in report.flips]
    s = report.digest_summary
    assert (s.max, s.min) == (max(distances), min(distances))
    assert s.mean == pytest.approx(sum(distances) / 448)
    assert distances.count(s.mode) == max(distances.count(d) for d in set(distances))


def test_avalanche_is_deterministic(params):
    assert avalanche(DEFAULT_AVALANCHE_INPUT, params) == avalanche(
        DEFAULT_AVALANCHE_INPUT, params)


def test_double_flip_restores_digest(params):
    base = hash_bytes(DEFAULT_AVALANCHE_INPUT, params)
    buf = bytearray(DEFAULT_AVALANCHE_INPUT)
    buf[17] ^= 1 << 4
    buf[17] ^= 1 << 4
    assert hash_bytes(bytes(buf), params) == base


def test_avalanche_serializations(report):
    d = report.to_dict()
    assert len(d["per_flip_distances"]) == 448
    assert len(d["summary"]["words"]) == 8
    text = report.format_text()
    assert "448 single-bit flips" in text
    assert "within 128+/- 5" in text


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "memoryview"])
def test_avalanche_keeps_no_reference_to_the_callers_buffer(params, report, wrap):
    buffer = wrap(DEFAULT_AVALANCHE_INPUT)
    kept = avalanche(buffer, params)
    before = (kept.to_dict(), kept.format_text())
    buffer[0] ^= 0xFF
    assert kept == report
    assert type(kept.message) is bytes and kept.message == DEFAULT_AVALANCHE_INPUT
    assert (kept.to_dict(), kept.format_text()) == before
    assert hash(kept) == hash(report)


def test_avalanche_and_pad_count_bytes_not_items(params, report):
    # an array("I") of 14 words is the 56 bytes `hash_bytes` hashes
    words = array("I", DEFAULT_AVALANCHE_INPUT)
    assert len(words) == 14
    assert avalanche(words, params) == report
    assert pad(memoryview(b"a")) == pad(array("B", b"a")) == pad(b"a")
    for call in (avalanche, pad):
        with pytest.raises(TypeError):
            call("x" * 56)


def test_mode_ties_break_toward_smaller():
    assert DistanceSummary.of([3, 3, 9, 9, 5]).mode == 3


# --- diffusion ---------------------------------------------------------------

# SHA-256 of json.dumps(report.to_dict(), sort_keys=True), pinned from the
# one-flip-at-a-time implementation
DIFFUSION_REPORT_SHA256 = {
    (32, "non-last"): "639f2221bafb35d60be0e09c0716e9a4cb70aad1907a548b005c8286cbac41a4",
    (32, "last"): "0281ff5a0d3590442c1df467d79c18d877bd4a114ec317a57b924e64bcdfe6cf",
    (48, "non-last"): "2bb88339114c09ce453062a95efb61c7b363c321ad667eca2e7a51ed79c292fd",
    (48, "last"): "06aabdd34854d8be0d32012300aa681bcc5c9b9e3f05064f9c0291338879fb34",
    (64, "non-last"): "d49ccd402561aa578ab900dafbf538aad11a222cd89eeab635564b503f35d29c",
    (64, "last"): "7030f7417032ac8725a85987a7bf6b0fc5307bc05454934d7c3fa10f21bc2b7c",
}


def diffusion_weights_spec(rounds, rule):
    """Per-flip schedule weights, one scalar `expand` call per flip."""
    weights = []
    for i in range(448):
        buf = bytearray(56)
        buf[i // 8] ^= 1 << (7 - i % 8)
        w = schedule_words(expand(struct.unpack("<14I", buf), (0,) * 8, rule == "last"))
        weights.append(sum(bin(x).count("1") for x in w[:rounds]))
    return weights


@pytest.mark.parametrize("rule", ["non-last", "last"])
@pytest.mark.parametrize("rounds", [32, 48, 64])
def test_diffusion_matches_scalar_spec(rounds, rule):
    report = diffusion(rounds=rounds, rule=rule)
    spec = diffusion_weights_spec(rounds, rule)
    assert list(report.per_position_weights) == spec
    assert (report.min_weight, report.max_weight) == (min(spec), max(spec))


@pytest.mark.parametrize("rounds, rule", sorted(DIFFUSION_REPORT_SHA256))
def test_diffusion_reports_pinned(rounds, rule):
    report = diffusion(rounds=rounds, rule=rule)
    assert all(type(w) is int for w in report.per_position_weights)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIFFUSION_REPORT_SHA256[rounds, rule]


def test_diffusion_is_one_expand_call_per_word_through_the_module(monkeypatch):
    # perfbench's shim wraps `core.expand` the same way
    calls = []
    original = core.expand

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(core, "expand", counting)
    diffusion(rounds=48, rule="last")
    assert len(calls) == WORDS_PER_BLOCK

def test_diffusion_frozen_extremes():
    # pure GF(2) computation: these integers are exact, not statistical
    by_rounds = {r: diffusion(rounds=r) for r in (32, 48, 64)}
    assert (by_rounds[64].min_weight, by_rounds[64].max_weight) == (166, 255)
    assert (by_rounds[48].min_weight, by_rounds[48].max_weight) == (74, 127)
    assert (by_rounds[32].min_weight, by_rounds[32].max_weight) == (18, 39)


# a low-weight schedule difference: 8 flipped message bits whose schedule
# difference under the non-last rule is far lighter than any single flip's
LOW_WEIGHT_DIFFERENCE = bytes.fromhex(
    "0000000000000000000000000000000024000000200000002000008000000000"
    "000000800000000000000000000000000400000020000000")


def test_low_weight_schedule_difference():
    # the schedule is linear, so the difference's weight is the same for
    # every chain and base message; 29 bounds the minimum at 64 rounds
    assert sum(bin(b).count("1") for b in LOW_WEIGHT_DIFFERENCE) == 8
    rng = random.Random(41)
    bases = [(bytes(56), (0,) * 8)] + [
        (rng.randbytes(56), tuple(rng.getrandbits(32) for _ in range(8)))
        for _ in range(8)]
    for message, chain in bases:
        flipped = bytes(a ^ b for a, b in zip(message, LOW_WEIGHT_DIFFERENCE))
        base = schedule_words(expand(struct.unpack("<14I", message), chain))
        other = schedule_words(expand(struct.unpack("<14I", flipped), chain))
        weights = [bin(a ^ b).count("1") for a, b in zip(base, other)]
        assert (sum(weights[:32]), sum(weights[:48]), sum(weights)) == (18, 22, 29)


def test_diffusion_weights_constant_within_a_word():
    # rotating the initial difference rotates every schedule word, so all
    # 32 flips inside one message word share a weight
    weights = diffusion(rounds=64).per_position_weights
    assert len(weights) == 448
    for w in range(14):
        group = set(weights[32 * w:32 * (w + 1)])
        assert len(group) == 1


def test_diffusion_last_rule_differs():
    a = diffusion(rounds=64, rule="non-last")
    b = diffusion(rounds=64, rule="last")
    assert a.per_position_weights != b.per_position_weights
    assert b.min_weight == 180


def test_diffusion_validates_arguments():
    with pytest.raises(ValueError, match="rounds"):
        diffusion(rounds=40)
    with pytest.raises(ValueError, match="rule"):
        diffusion(rule="middle")


def test_diffusion_rounds_rule_matches_params():
    # the one rounds check: a float is rejected as for 33, a numpy integer works
    with pytest.raises(ValueError, match=r"rounds must be one of \(32, 48, 64\)"):
        diffusion(rounds=64.0)
    assert diffusion(rounds=np.int64(48)).per_position_weights == \
        diffusion(rounds=48).per_position_weights


def test_diffusion_matches_two_full_expansions():
    # spot check the linear shortcut against two real expansions with
    # random chains and message content
    rng = random.Random(31)
    report = diffusion(rounds=64)
    for _ in range(32):
        position = rng.randrange(448)
        chain = tuple(rng.getrandbits(32) for _ in range(8))
        message = bytearray(rng.randbytes(56))
        flipped = bytearray(message)
        flipped[position // 8] ^= 1 << (7 - position % 8)
        base = schedule_words(expand(parse_blocks(bytes(message))[0], chain))
        other = schedule_words(expand(parse_blocks(bytes(flipped))[0], chain))
        weight = sum(bin(a ^ b).count("1") for a, b in zip(base, other))
        assert weight == report.per_position_weights[position]


def test_diffusion_serializations():
    report = diffusion(rounds=32)
    d = report.to_dict()
    assert d["rounds"] == 32
    assert d["min_weight"] == 18
    assert len(d["per_position_weights"]) == 448
    assert "32 rounds" in report.format_text()


# --- bench ---------------------------------------------------------------------

def test_default_sizes_are_the_reference_ladder():
    assert DEFAULT_BENCH_SIZES == (
        1_400_000, 4_840_000, 7_480_000, 12_940_000, 24_300_000)


def test_bench_smoke(params):
    report = bench(sizes=(600, 2000), params=params)
    assert len(report.entries) == 2
    for entry in report.entries:
        assert entry.compiled_seconds > 0
        assert entry.oracle_seconds > 0
        assert entry.sha256_seconds > 0
        assert entry.compiled_mbps > 0
        assert entry.compile_speedup == pytest.approx(
            entry.oracle_seconds / entry.compiled_seconds)
        assert entry.vs_sha256 > 1
    d = report.to_dict()
    assert [e["size"] for e in d["entries"]] == [600, 2000]
    assert "sha256" in report.format_text()


def _identity_params():
    # y_k = x_k: any system other than the shipped one
    system = load_system("\n".join(f"y_{{{k}}} = x_{{{k}}}" for k in range(1, 33)))
    return HfParams(system=compile_system(system))


def test_bench_oracle_uses_the_compiled_source_system():
    report = bench(sizes=(100,), params=_identity_params())
    assert report.entries[0].oracle_seconds is not None


def test_bench_still_catches_an_oracle_disagreement(monkeypatch):
    original = TermSumEvaluator.eval_word
    monkeypatch.setattr(TermSumEvaluator, "eval_word",
                        lambda self, x: original(self, x) ^ 1)
    with pytest.raises(AssertionError, match="disagree"):
        bench(sizes=(100,), params=_identity_params())


def test_bench_needs_a_compiled_system(system):
    with pytest.raises(TypeError, match="CompiledSystem"):
        bench(sizes=(100,), params=HfParams(system=TermSumEvaluator(system)))


BENCH_ENTRY_KEYS = [
    "size", "compiled_seconds", "oracle_seconds", "sha256_seconds", "compiled_mbps",
    "oracle_mbps", "sha256_mbps", "compile_speedup", "vs_sha256"]


def test_bench_entries_hold_their_rates_from_their_seconds(params):
    report = bench(sizes=(0, 600, 3000), params=params, oracle_cap=1000)
    entries = report.to_dict()["entries"]
    for d in entries:
        assert list(d) == BENCH_ENTRY_KEYS
        size = d["size"]
        assert d["compiled_mbps"] == size / 1e6 / d["compiled_seconds"]
        assert d["sha256_mbps"] == size / 1e6 / d["sha256_seconds"]
        assert d["vs_sha256"] == d["compiled_seconds"] / d["sha256_seconds"]
        if size == 600:
            assert d["oracle_mbps"] == size / 1e6 / d["oracle_seconds"]
            assert d["compile_speedup"] == d["oracle_seconds"] / d["compiled_seconds"]
        else:
            assert d["oracle_seconds"] is d["oracle_mbps"] is d["compile_speedup"] is None
    entries[1]["size"] = entries[1]["compiled_mbps"] = -1
    assert report.entries[1].size == 600 and report.entries[1].compiled_mbps > 0
    assert report.to_dict()["entries"][1]["size"] == 600


def test_editing_a_diffusion_dict_leaves_the_report():
    report = diffusion(rounds=32)
    d = report.to_dict()
    d["min_weight"] = -1
    del d["rounds"]
    assert (report.rounds, report.min_weight) == (32, 18)
    assert report.to_dict()["min_weight"] == 18


def test_bench_oracle_skipped_above_cap(params):
    report = bench(sizes=(3000,), params=params, oracle_cap=1000)
    entry = report.entries[0]
    assert entry.oracle_seconds is None
    assert entry.oracle_mbps is None
    assert entry.compile_speedup is None
    assert "skipped" in report.format_text()
