"""The hash path, `hfhash sum` and the analysis reports never import
numpy, on either evaluator; `hfhash sum` never imports the analysis
module, and a start that finds the native build cached never imports
`subprocess`.  No command imports click or numpy, and each, with the
term-sum oracle, runs where neither can be imported.  A start that
finds the parsed asset and the tables cached runs every command,
`poly` too, from them.

Each case runs in a fresh interpreter, since this process has numpy
loaded already.
"""

import hashlib
import subprocess
import sys

import pytest

from hfhash import evaluator

from engines import child_env, need_compiler

ABC_DIGEST = "8c6ad071cd652948bb20a1b054e603aa1bb0f6cefb72ed7ec3f60bc86c6e81b7"
A_DIGEST = "36549d60a18cdfeed29aa3fee4953dd333133a41b2ac960b28ad5ec154374c8d"

# the child prints the digest of b"abc", the output of each command, the
# type of the production eval_word and whether numpy, hfhash.analysis,
# subprocess and click were imported
CHILD = """
import sys
import hfhash
from hfhash import cli, evaluator
if sys.argv[1] == "fallback":
    evaluator._load_pmap = lambda: (None, "disabled by test")
print(hfhash.hash_bytes(b"abc").hex())
for args in sys.argv[2:]:
    cli.main(args.split(), standalone_mode=False)
print(type(hfhash.default_params().system.eval_word).__name__)
print("numpy" in sys.modules)
print("hfhash.analysis" in sys.modules)
print("subprocess" in sys.modules)
print("click" in sys.modules)
"""

# makes `import click` fail in the child, as where it is not installed
NO_CLICK = 'import sys\nsys.modules["click"] = None\n'
# the same for numpy; the child then builds the term-sum oracle and
# prints whether it agrees with the reference on 100 inputs
NO_NUMPY = 'import sys\nsys.modules["numpy"] = None\n'
ORACLE = """
import random
system = hfhash.default_params().system.source
oracle = evaluator.TermSumEvaluator(system)
xs = [random.Random(29).getrandbits(64) for _ in range(100)]
print(all(oracle.eval_word(x) == system.eval_reference(x) for x in xs))
"""

# the child runs each command against the cache directory it is given
WARM_START = """
import sys
from pathlib import Path
from hfhash import _cache, cli, evaluator
if sys.argv[1] == "fallback":
    evaluator._load_pmap = lambda: (None, "disabled by test")
evaluator._load_pmap()
_cache.DIR = Path(sys.argv[2])
for args in sys.argv[3:]:
    cli.main(args.split(), standalone_mode=False)
"""

EVAL_WORD_TYPE = {"native": "builtin_function_or_method", "fallback": "function"}
POLY_1 = "y_1: 1041 terms (1007 quadratic, 33 linear, constant 1)"
# SHA-256 of the standard output of `sum` (of b"a"), `selftest`,
# `poly --index 1` and `diffusion --rounds 32`, recorded while the
# command line was built on click
NO_CLICK_OUTPUT_SHA256 = "000cbfbc5850331d613a9eb1b84df53997fa400f7d08d55a58ab92f5f8b5c417"


def _run(script, *args):
    result = subprocess.run([sys.executable, "-c", script, *args],
                            input=b"a", capture_output=True, env=child_env(), timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode().splitlines()


def _run_child(engine, *commands):
    return _run(CHILD, engine, *commands)


@pytest.fixture(params=sorted(EVAL_WORD_TYPE))
def engine(request):
    if request.param == "native":
        need_compiler()
        # the child's start is warm: the build is in the package's cache,
        # whatever cache this process's loader used first
        module, how = evaluator._load_pmap.__wrapped__()
        assert module is not None, how
    return request.param


def test_hash_path_and_sum_never_import_numpy(engine):
    lines = _run_child(engine, "sum")
    assert lines == [ABC_DIGEST, f"{A_DIGEST}  -", EVAL_WORD_TYPE[engine],
                     "False", "False", "False", "False"]


def test_avalanche_never_imports_numpy(engine):
    lines = _run_child(engine, "avalanche --rounds 32")
    assert lines[0] == ABC_DIGEST
    assert lines[1].startswith("avalanche")
    assert lines[-5:] == [EVAL_WORD_TYPE[engine], "False", "True", "False", "False"]


def test_diffusion_never_imports_numpy(engine):
    lines = _run_child(engine, "diffusion --rounds 48")
    assert lines[0] == ABC_DIGEST
    assert lines[1].startswith("schedule diffusion, 48 rounds")
    assert lines[-5:] == [EVAL_WORD_TYPE[engine], "False", "True", "False", "False"]


def test_commands_run_where_click_cannot_be_imported(engine):
    lines = _run(NO_CLICK + CHILD, engine, "sum", "selftest", "poly --index 1",
                 "diffusion --rounds 32")
    assert lines[0] == ABC_DIGEST
    output = "".join(f"{line}\n" for line in lines[1:-5])
    assert hashlib.sha256(output.encode()).hexdigest() == NO_CLICK_OUTPUT_SHA256
    # the last line sees the None entry that blocks the import
    assert lines[-5:] == [EVAL_WORD_TYPE[engine], "False", "True", "False", "True"]


def test_commands_run_where_numpy_cannot_be_imported(engine):
    lines = _run(NO_NUMPY + CHILD + ORACLE, engine, "sum", "selftest", "poly --index 1",
                 "diffusion --rounds 32", "avalanche --rounds 32", "bench --sizes 200")
    assert lines[0] == ABC_DIGEST
    cut = lines.index("avalanche over 448 single-bit flips (32 rounds)")
    output = "".join(f"{line}\n" for line in lines[1:cut])
    assert hashlib.sha256(output.encode()).hexdigest() == NO_CLICK_OUTPUT_SHA256
    # bench hashed 200 bytes on both paths, which agreed
    assert any(line.split()[:1] == ["200"] for line in lines[cut:-6])
    # the None entry that blocks the import, then the oracle's verdict
    assert lines[-6:] == [EVAL_WORD_TYPE[engine], "True", "True", "False", "False", "True"]


def test_warm_sum_decodes_nothing_and_poly_decodes_once(engine, tmp_path):
    cache = tmp_path / "__pycache__"
    # the first start parses and fills the cache
    assert _run(WARM_START, engine, str(cache), "sum") == [f"{A_DIGEST}  -"]
    lines = _run(WARM_START, engine, str(cache), "sum", "selftest", "avalanche --rounds 32",
                 "diffusion --rounds 32", "poly --index 1")
    assert lines[0] == f"{A_DIGEST}  -"
    assert lines[-1] == POLY_1
    # each report ran: selftest exits 1 with its honest 0/3
    assert {"0/3 vectors pass", "avalanche over 448 single-bit flips (32 rounds)"} <= set(lines)
    assert any(line.startswith("schedule diffusion, 32 rounds") for line in lines)
