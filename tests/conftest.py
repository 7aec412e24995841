import pytest

from hfhash.anf import _vars
from hfhash.core import default_params
from hfhash.evaluator import compile_system
from hfhash.system import load_default_system


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
