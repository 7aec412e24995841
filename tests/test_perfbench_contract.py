"""The layered benchmark replaces package attributes by name; they must exist."""

import importlib.util
from pathlib import Path

from hfhash import core

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
