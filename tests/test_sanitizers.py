"""`_pmap.c` under AddressSanitizer and UndefinedBehaviorSanitizer.

The extension is built with the production flags plus the sanitizers
into a temporary cache, then a fresh interpreter, with the ASan runtime
preloaded, loads that build and runs the known answers, the corner
inputs of `eval_word` and every error path of `Evaluator` and
`schedule` through it.  Any sanitizer report fails the test.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hfhash
from hfhash import _cache, evaluator

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
            "-fno-omit-frame-pointer", "-g")
KAT_PATH = Path(__file__).parent / "data" / "kat.txt"

# argv: the cache directory, the KAT file, then the build flags
CHILD = """
import random
import sys
from array import array
from dataclasses import replace
from itertools import accumulate, combinations
from pathlib import Path

from hfhash import _cache, core, evaluator
from hfhash.core import LayoutConfig, default_params, hash_bytes

_cache.DIR = Path(sys.argv[1])
evaluator._CFLAGS = tuple(sys.argv[3:])
module, how = evaluator._load_pmap()
assert module is not None and how.startswith("cached"), how
params = default_params()
ev = params.system.eval_word
assert type(ev.__self__) is module.Evaluator


def raises(exc, call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except exc:
        return
    raise AssertionError(f"{call.__name__}{args} did not raise {exc.__name__}")


# the known answers: every length 0-130, so every block edge, and three
# multi-KB messages, under each round count and usable layout
for line in Path(sys.argv[2]).read_text().splitlines():
    if line and not line.startswith("#"):
        rounds, endian, half_order, pad_bit, length, digest = line.split()
        layout = LayoutConfig(length_endian=endian, length_half_order=half_order,
                              pad_bit=pad_bit)
        message = random.Random(int(length)).randbytes(int(length))
        got = hash_bytes(message, replace(params, rounds=int(rounds), layout=layout))
        assert got.hex() == digest, line

# eval_word on the corners: each chunk all ones, alone and in pairs
ends = list(accumulate(module.CHUNK_WIDTHS))
ones = [((1 << w) - 1) << (64 - end) for w, end in zip(module.CHUNK_WIDTHS, ends)]
corners = [0, 2**64 - 1, *ones, *(a | b for a, b in combinations(ones, 2))]
reference = evaluator.TermSumEvaluator(params.system.source).eval_word
assert [ev(x) for x in corners] == [reference(x) for x in corners]
for bad in (-1, 2**64, 2**200, -(2**200)):
    raises(OverflowError, ev, bad)
for bad in (1.0, "1", None, b"\\0" * 8):
    raises(TypeError, ev, bad)

# Evaluator: only a C-contiguous buffer of exactly the table's uint32 words
tables = params.system._tables
words = array("I", tables)
raises(TypeError, module.Evaluator)
raises(TypeError, module.Evaluator, words, words)
raises(TypeError, module.Evaluator, tables=words, extra=1)
raises(TypeError, module.Evaluator, 5)
raises(TypeError, module.Evaluator, "tables")
for bad in (words[:-1], words + array("I", [0]), array("I"), array("i", bytes(words)),
            array("f", bytes(words)), bytes(words), array("H", bytes(words)),
            memoryview(bytes(words)).cast("I", (len(words) // 2, 2))[:1]):
    raises(ValueError, module.Evaluator, bad)
raises(BufferError, module.Evaluator, memoryview(words * 2)[::2])
read_only = module.Evaluator(memoryview(bytes(words)).cast("I"))
assert [read_only.eval_word(x) for x in corners] == [ev(x) for x in corners]
# the evaluator holds its buffer until it is freed
held = bytearray(words.tobytes())
keeper = module.Evaluator(memoryview(held).cast("I"))
raises(BufferError, held.extend, b"\\0")
assert keeper.eval_word(2**64 - 1) == ev(2**64 - 1)
del keeper
held.extend(b"\\0")

# schedule: 14 words and an 8-word chain, of which h0 and h7 are read,
# each an int in [0, 2**32), under either rule
rng = random.Random(0)
block = [rng.getrandbits(32) for _ in range(14)]
chain = [rng.getrandbits(32) for _ in range(8)]
for is_last in (False, True):
    want = core._schedule(block, chain, is_last)
    assert module.schedule(block, chain, is_last) == want
    assert module.schedule(tuple(block), tuple(chain), is_last) == want
    assert module.schedule([0] * 14, [0] * 8, is_last) == bytes(256)
    ones = module.schedule([2**32 - 1] * 14, [2**32 - 1] * 8, is_last)
    assert ones == core._schedule([2**32 - 1] * 14, [2**32 - 1] * 8, is_last)
    assert type(ones) is bytes and len(ones) == 256
    for bad in ([], block[:13], block + [0], [0] * 1000):
        raises(ValueError, module.schedule, bad, chain, is_last)
    for bad in ([], chain[:2], chain[:7], chain + [0]):
        raises(ValueError, module.schedule, block, bad, is_last)
    for bad in (5, None, block[:13] + ["x"], "0123456789abcd", [1.0] * 14):
        raises(TypeError, module.schedule, bad, chain, is_last)
    for bad in (5, None, [None] + chain[1:], chain[:7] + [1.0]):
        raises(TypeError, module.schedule, block, bad, is_last)
    for word in (-1, 2**32, 2**63, 2**64, 2**200, -(2**200)):
        raises(OverflowError, module.schedule, block[:13] + [word], chain, is_last)
        raises(OverflowError, module.schedule, block, [word] + chain[1:], is_last)
        raises(OverflowError, module.schedule, block, chain[:7] + [word], is_last)
raises(TypeError, module.schedule, block, chain)
raises(TypeError, module.schedule, block, chain, False, None)


class Undecided:
    def __bool__(self):
        raise RuntimeError("no truth value")


raises(RuntimeError, module.schedule, block, chain, Undecided())
print("ok")
"""


def _libasan(cc):
    # cc prints the bare name when it has no such library
    found = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                           text=True, timeout=60).stdout.strip()
    return found if os.path.isabs(found) else None


def test_native_code_is_clean_under_address_and_ub_sanitizers(tmp_path, monkeypatch):
    cc = shutil.which(evaluator._COMPILER)
    if cc is None:
        pytest.skip(f"no C compiler ({evaluator._COMPILER}) on PATH: nothing is built")
    libasan = _libasan(cc)
    if libasan is None:
        pytest.skip(f"{evaluator._COMPILER} has no libasan")
    flags = evaluator._CFLAGS + SANITIZE
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(_cache, "DIR", cache)
    monkeypatch.setattr(evaluator, "_CFLAGS", flags)

    def not_here(spec):
        raise ImportError("a sanitized build loads only after its runtime")

    # the loader builds into the temporary cache; only the child loads it
    monkeypatch.setattr(evaluator, "module_from_spec", not_here)
    module, how = evaluator._load_pmap.__wrapped__()
    assert module is None and "after its runtime" in how, how

    src = str(Path(hfhash.__file__).parents[1])
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", CHILD, str(cache), str(KAT_PATH), *flags],
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0 and child.stdout == "ok\n", child.stderr
    assert "Sanitizer" not in child.stderr and "runtime error" not in child.stderr, child.stderr
