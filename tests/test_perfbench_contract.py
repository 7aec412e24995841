"""The layered benchmark replaces package attributes by name; they must exist."""

import importlib.util
import random
from dataclasses import replace
from pathlib import Path

import pytest

from hfhash import analysis, core
from hfhash.core import ROUND_CONSTANTS, HfParams, expand, pad, parse_blocks
from hfhash.evaluator import TermSumEvaluator
from hfhash.system import load_default_system
from test_core import empty_interleaved, in_chunks, round_step, schedule_words

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
CHUNK = 1 << 16     # the stream-long workload's chunk size


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_shims_resolve():
    for owner, attr, _ in _load_spans().SHIMS:
        assert callable(getattr(owner, attr, None)), f"{owner!r} has no {attr}"


def test_setup_probe_names_resolve():
    # the cold-start probe wraps these, which default_params looks up at call time
    assert callable(core.load_default_system)
    assert callable(core.compile_system)


def test_default_params_loads_and_compiles_once_through_core(monkeypatch):
    # the probe times each setup layer by replacing it in core; a layer
    # not called through core, or called twice, misreports its time
    loads = _record(monkeypatch, "load_default_system")
    compiles = _record(monkeypatch, "compile_system")
    params = core.default_params.__wrapped__()
    assert loads == [()]
    assert compiles == [(load_default_system(),)]
    assert params.system.eval_word(0) == params.system.constant_word


def test_traced_params_keep_constant_word():
    # the tracer's eval_word proxy copies constant_word from the system
    assert core.default_params().system.constant_word == load_default_system().constant_word


def test_oracle_params_build():
    oracle = core.HfParams(system=TermSumEvaluator(load_default_system()))
    assert callable(oracle.system.eval_word)


def test_report_fields_the_workloads_read_exist(params):
    report = analysis.avalanche(params=params)
    assert isinstance(report.base_digest, str)
    assert len(report.flips[0].word_distances) == 8
    schedule = analysis.diffusion(rounds=64, rule="non-last")
    assert (schedule.rule, schedule.rounds) == ("non-last", 64)
    assert isinstance(schedule.min_weight, int)


# --- the block contract: a traced run checks compress calls == padded blocks

def _record(monkeypatch, name):
    """Replace ``core.<name>`` through the module, as the shims do, and
    collect the arguments of every call."""
    calls = []
    original = getattr(core, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, name, recorded)
    return calls


def test_one_shot_compresses_exactly_the_padded_blocks(params, monkeypatch):
    compressed = _record(monkeypatch, "compress")
    parsed = _record(monkeypatch, "parse_blocks")
    for length in range(169):
        message = random.Random(length).randbytes(length)
        compressed.clear()
        parsed.clear()
        core.hash_bytes(message, params)
        assert [args[1] for args in compressed] == parse_blocks(pad(message))
        assert len(parsed) == 1


@pytest.mark.parametrize("chunking, lengths", [
    (lambda m: in_chunks(m, CHUNK), (CHUNK + 100,)),
    (lambda m: in_chunks(m, 56), (0, 55, 56, 57, 112, 200)),
    (lambda m: in_chunks(m, 1), (0, 55, 56, 57, 112, 200)),
    (empty_interleaved, (0, 55, 56, 57, 112, 200)),
], ids=["64KiB", "56B", "1B", "empty-interleaved"])
def test_streaming_compresses_exactly_the_padded_blocks(
        params, monkeypatch, chunking, lengths):
    compressed = _record(monkeypatch, "compress")
    parsed = _record(monkeypatch, "parse_blocks")
    for length in lengths:
        message = random.Random(length).randbytes(length)
        compressed.clear()
        parsed.clear()
        hasher = core.Hasher(params)
        for chunk in chunking(message):
            hasher.update(chunk)
        assert parsed == []
        hasher.finalize()
        assert [args[1] for args in compressed] == parse_blocks(pad(message))
        assert len(parsed) == 1


# --- the schedule contract: the `schedule` workload's time is `core.expand`'s

@pytest.mark.parametrize("rule", ["non-last", "last"])
def test_each_diffusion_report_expands_the_unit_blocks_through_core(monkeypatch, rule):
    expanded = _record(monkeypatch, "expand")
    for rounds in (32, 48, 64):
        expanded.clear()
        analysis.diffusion(rounds=rounds, rule=rule)
        assert len(expanded) == 14
        assert expanded == [(unit, (0,) * 8, rule == "last") for unit in analysis.UNIT_BLOCKS]



@pytest.mark.parametrize("rounds", [32, 48, 64])
@pytest.mark.parametrize("is_last", [False, True], ids=["non-last", "last"])
def test_compress_expands_each_block_once_through_core(params, monkeypatch, rounds, is_last):
    # the hash path's `core.expand` span sees a block only if `compress`
    # looks `expand` up on the module, once per block
    expanded = _record(monkeypatch, "expand")
    rng = random.Random(rounds)
    chain = tuple(rng.getrandbits(32) for _ in range(8))
    words = tuple(rng.getrandbits(32) for _ in range(14))
    core.compress(chain, words, replace(params, rounds=rounds), is_last)
    assert expanded == [(words, chain, is_last)]

# --- the round contract: a traced run checks eval_word calls == 2 x rounds x compress calls

class _RecordingSystem:
    """Evaluator stub that records each argument and returns a mixed word."""

    def __init__(self):
        self.args = []

    def eval_word(self, x):
        self.args.append(x)
        return (x * 0x9E3779B97F4A7C15 >> 32) & 0xFFFFFFFF


@pytest.mark.parametrize("rounds", [32, 48, 64])
def test_compress_calls_eval_word_twice_per_round_in_order(rounds):
    rng = random.Random(rounds)
    chain = tuple(rng.getrandbits(32) for _ in range(8))
    words = tuple(rng.getrandbits(32) for _ in range(14))
    recorder = _RecordingSystem()
    core.compress(chain, words, HfParams(system=recorder, rounds=rounds))
    expected = []
    state, spec = chain, _RecordingSystem()
    for w, k in zip(schedule_words(expand(words, chain))[:rounds], ROUND_CONSTANTS):
        h0, _, _, h3, _, _, h6, h7 = state
        expected += [h3 << 32 | h0, h7 << 32 | h6]
        state = round_step(state, w, k, spec)
    assert recorder.args == expected
    assert all(type(x) is int and 0 <= x < 1 << 64 for x in recorder.args)
