"""The layered benchmark replaces package attributes by name; they must exist."""

import importlib.util
from pathlib import Path

from hfhash import analysis, core
from hfhash.evaluator import TermSumEvaluator
from hfhash.system import load_default_system

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
