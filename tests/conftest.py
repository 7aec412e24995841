import types
from dataclasses import replace

import pytest

from hfhash import evaluator
from hfhash.anf import _vars
from hfhash.core import default_params
from hfhash.evaluator import compile_system
from hfhash.system import load_default_system

from engines import disable_native


def pytest_report_header(config):
    """Which engine the run tests: the loader's note on the native build."""
    return f"hfhash native _pmap: {evaluator._load_pmap()[1]}"


@pytest.fixture(scope="session")
def system():
    return load_default_system()


@pytest.fixture(scope="session")
def compiled(system):
    return compile_system(system)


@pytest.fixture(scope="session")
def params():
    # compiled once per session; hash tests share it
    return default_params()


@pytest.fixture(params=["native", "python"])
def engine_params(request, params, system, monkeypatch):
    """The default params on the production `eval_word`, or on the Python
    closure the evaluator falls back to when the native build fails."""
    if request.param == "native":
        return params
    disable_native(monkeypatch)
    python = replace(params, system=evaluator.compile_system(system))
    assert isinstance(python.system.eval_word, types.FunctionType)
    return python


@pytest.fixture(scope="session")
def canonical_text():
    """Renders a polynomial's term words as its ``y_{k} = ...`` line:
    quadratic terms first, then linear ones, then ``1``, each group in
    ascending order, the order the pinned ``poly`` outputs hash."""
    def render(index, words):
        ordered = sorted(words, key=lambda w: (-len(_vars(w)), w))
        body = " + ".join("".join(f"x_{{{v}}}" for v in _vars(w)) or "1" for w in ordered)
        return f"y_{{{index}}} = {body}"
    return render
