"""Known-answer corpus: pinned digests over lengths, round counts and layouts.

`tests/data/kat.txt` holds regression values generated once from the
scalar implementation, not published vectors.  Each line is
``rounds length_endian length_half_order pad_bit length digest``; the
message of length n is ``message(n)`` below.
"""

import random
import types
from dataclasses import replace
from pathlib import Path

import pytest

from hfhash import evaluator
from hfhash.core import LayoutConfig, hash_bytes, params_with

KAT_PATH = Path(__file__).parent / "data" / "kat.txt"


def message(n: int) -> bytes:
    return random.Random(n).randbytes(n)


def load_kat():
    entries = []
    for line in KAT_PATH.read_text(encoding="ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        rounds, endian, half_order, pad_bit, length, digest = line.split()
        layout = LayoutConfig(length_endian=endian, length_half_order=half_order,
                              pad_bit=pad_bit)
        entries.append((int(rounds), layout, int(length), digest))
    return entries


def test_kat_corpus_size():
    assert len(load_kat()) == 422


@pytest.fixture(params=["native", "python"])
def engine_params(request, params, system, monkeypatch):
    """The default params on the production `eval_word`, or on the Python
    closure the evaluator falls back to when the native build fails."""
    if request.param == "native":
        return params
    monkeypatch.setattr(evaluator, "_load_pmap", lambda: (None, "disabled by test"))
    python = replace(params, system=evaluator.compile_system(system))
    assert isinstance(python.system.eval_word, types.FunctionType)
    return python


def test_kat_corpus(engine_params):
    mismatches = []
    for rounds, layout, length, digest in load_kat():
        got = hash_bytes(message(length),
                         params_with(rounds, layout, base=engine_params)).hex()
        if got != digest:
            mismatches.append((rounds, layout.describe(), length))
    assert mismatches == []
