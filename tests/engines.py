"""The tests' one switch that turns the native extension off, their one
skip where no compiler can build it, and the one environment of the
child interpreters they start."""

import os
import shutil
from pathlib import Path

import pytest

import hfhash
from hfhash import evaluator
from hfhash.system import ASSET_ENV_VAR


def disable_native(monkeypatch):
    """Make `_load_pmap` find no extension, so that `expand` and
    `compile_system` run their Python engines while `monkeypatch` lasts."""
    monkeypatch.setattr(evaluator, "_load_pmap", lambda: (None, "disabled by test"))


def need_compiler() -> str:
    """The path of the C compiler, or a skip where there is none."""
    cc = shutil.which(evaluator._COMPILER)
    if cc is None:
        pytest.skip(f"no C compiler ({evaluator._COMPILER}) on PATH: "
                    "nothing native is built, the Python engines run")
    return cc


def native_pmap():
    """The loaded `_pmap` module, or a skip where nothing can be built."""
    need_compiler()
    module, how = evaluator._load_pmap()
    assert module is not None, how
    return module


def child_env(**extra) -> dict:
    """The environment of a child interpreter: this checkout's package
    first on PYTHONPATH, the shipped asset unless `extra` names another,
    then `extra`."""
    src = str(Path(hfhash.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(ASSET_ENV_VAR, None)
    env.update(extra)
    return env
