import hashlib
import logging
import random
import shutil
import subprocess
import sys
import threading
import types
from array import array
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfhash import _cache, evaluator
from hfhash.anf import _word
from hfhash.core import default_params
from hfhash.evaluator import (
    CompiledSystem,
    TermSumEvaluator,
    compile_system,
    eval_batch_bitsliced,
)
from hfhash.system import PolynomialSystem, load_system

inputs = st.integers(0, 2**64 - 1)
EDGE_INPUTS = [0, 2**64 - 1] + [1 << i for i in range(64)]


def _synthetic(body_for_k):
    lines = "\n".join(f"y_{{{k}}} = {body_for_k(k)}" for k in range(1, 33))
    return load_system(lines)


def test_all_constant_system_returns_all_ones():
    system = _synthetic(lambda k: "1")
    compiled = compile_system(system)
    for x in (0, 1, 2**64 - 1, 0xDEADBEEFCAFEF00D):
        assert compiled.eval_word(x) == 0xFFFFFFFF
        assert TermSumEvaluator(system).eval_word(x) == 0xFFFFFFFF


def test_identity_system_extracts_top_word():
    # y_k = x_k, so the output word is the top half of the input
    system = _synthetic(lambda k: f"x_{{{k}}}")
    compiled = compile_system(system)
    term_sum = TermSumEvaluator(system)
    rng = random.Random(5)
    xs = [rng.getrandbits(64) for _ in range(50)]
    for x in xs:
        assert compiled.eval_word(x) == x >> 32
        assert term_sum.eval_word(x) == x >> 32
    assert eval_batch_bitsliced(system, xs) == [x >> 32 for x in xs]


def test_eval_at_zero_is_constant_word(system, compiled):
    want = system.constant_word
    assert compiled.eval_word(0) == want
    assert TermSumEvaluator(system).eval_word(0) == want
    assert eval_batch_bitsliced(system, [0]) == [want]


def test_constant_word_agrees_on_a_mixed_system():
    # y_1 = 1 has no variable term; every evaluator's constant_word is p(0)
    system = _synthetic(lambda k: "1" if k == 1 else f"x_{{{k}}}")
    compiled, term_sum = compile_system(system), TermSumEvaluator(system)
    assert system.constant_word == 0x80000000
    assert compiled.constant_word == term_sum.constant_word == 0x80000000
    assert compiled.eval_word(0) == term_sum.eval_word(0) == 0x80000000
    assert eval_batch_bitsliced(system, [0]) == [0x80000000]


def _edge_system():
    """Every fourth polynomial is zero; the others are constant-only,
    linear-only, or quadratic, linear and constant terms mixed.  A zero
    polynomial has no text form, so the words are built directly."""
    rng = random.Random(23)

    def terms(k):
        kind = k % 4
        if kind == 0:
            return set()
        if kind == 1:
            return {_word(())}
        linear = {_word((v,)) for v in rng.sample(range(1, 65), 5)}
        if kind == 2:
            return linear
        quadratic = {_word(tuple(sorted(rng.sample(range(1, 65), 2))))
                     for _ in range(20)}
        return quadratic | linear | {_word(())}

    polys = [sorted(terms(k)) for k in range(1, 33)]
    counts = array("H", map(len, polys))
    return PolynomialSystem((counts + array("H", sum(polys, []))).tobytes())


def test_every_evaluator_agrees_on_an_edge_system(monkeypatch):
    system = _edge_system()
    native = compile_system(system)
    monkeypatch.setattr(evaluator, "_load_pmap", lambda: (None, "disabled by test"))
    fallback = compile_system(system)
    assert isinstance(fallback.eval_word, types.FunctionType)
    term_sum = TermSumEvaluator(system)
    rng = random.Random(29)
    xs = EDGE_INPUTS + [rng.getrandbits(64) for _ in range(200)]
    want = [system.eval_reference(x) for x in xs]
    assert eval_batch_bitsliced(system, xs) == want
    for ev in (native.eval_word, fallback.eval_word, term_sum.eval_word):
        assert [ev(x) for x in xs] == want


# every term word but the constant's
NONCONSTANT_WORDS = [_word((i,)) for i in range(1, 65)] + [
    _word(pair) for pair in combinations(range(1, 65), 2)]


@st.composite
def span_systems(draw):
    """Systems of 0-20 terms per polynomial, the constant among them at
    random, so that the term-sum oracle's byte-aligned spans of 7, 8, 9,
    16 and 17 terms occur; the last polynomial is never empty, so its
    span ends the oracle's buffer."""
    polys = []
    for k in range(1, 33):
        size = draw(st.integers(1 if k == 32 else 0, 20))
        constant = draw(st.booleans()) and size > 0
        terms = draw(st.sets(st.sampled_from(NONCONSTANT_WORDS),
                             min_size=size - constant, max_size=size - constant))
        polys.append(sorted(terms | {0} if constant else terms))
    counts = array("H", map(len, polys))
    return PolynomialSystem((counts + array("H", sum(polys, []))).tobytes())


@settings(max_examples=60, deadline=None)
@given(system=span_systems(), xs=st.lists(inputs, max_size=20))
def test_term_sum_matches_reference_on_span_edges(system, xs):
    term_sum = TermSumEvaluator(system)
    for x in EDGE_INPUTS + xs:
        assert term_sum.eval_word(x) == system.eval_reference(x)


def test_compiled_matches_reference(system, compiled):
    rng = random.Random(11)
    for _ in range(60):
        x = rng.getrandbits(64)
        assert compiled.eval_word(x) == system.eval_reference(x)


def test_term_sum_matches_reference(system):
    evaluator = TermSumEvaluator(system)
    rng = random.Random(12)
    for _ in range(60):
        x = rng.getrandbits(64)
        assert evaluator.eval_word(x) == system.eval_reference(x)


def test_bitsliced_matches_compiled(system, compiled):
    rng = random.Random(13)
    xs = [rng.getrandbits(64) for _ in range(500)]
    assert eval_batch_bitsliced(system, xs) == [compiled.eval_word(x) for x in xs]


_term_sum_cache = {}


def _cached_term_sum(system):
    # TermSumEvaluator construction walks all 33k terms; build once
    if id(system) not in _term_sum_cache:
        _term_sum_cache[id(system)] = TermSumEvaluator(system)
    return _term_sum_cache[id(system)]


@settings(max_examples=40)
@given(x=inputs)
def test_three_paths_agree(system, compiled, x):
    r = system.eval_reference(x)
    assert compiled.eval_word(x) == r
    assert _cached_term_sum(system).eval_word(x) == r


def test_compile_is_deterministic(system):
    a = compile_system(system)
    b = compile_system(system)
    rng = random.Random(17)
    for _ in range(100):
        x = rng.getrandbits(64)
        assert a.eval_word(x) == b.eval_word(x)


def test_compiled_keeps_source_system(system, compiled):
    # analysis.bench builds its term-sum oracle from it
    assert compiled.source is system


def test_outputs_are_32_bit(compiled):
    rng = random.Random(19)
    for _ in range(50):
        x = rng.getrandbits(64)
        assert 0 <= compiled.eval_word(x) <= 0xFFFFFFFF


# The native evaluator reads chunk-pair tables, the Python closure byte-pair
# tables built from the same masks: two independent layouts, and the
# closure is the oracle the native path is held to.

@lru_cache(maxsize=None)
def _closure(compiled):
    masks = evaluator._collect_masks(compiled.source)
    return CompiledSystem._bind(evaluator._pair_tables(
        masks, compiled.source.constant_word, evaluator._BYTE_WIDTHS))


def test_default_params_use_native_eval_word():
    if shutil.which(evaluator._COMPILER) is None:
        pytest.skip(f"no C compiler ({evaluator._COMPILER}) on PATH: "
                    "the Python closure is the production evaluator here")
    ev = default_params().system.eval_word
    assert isinstance(ev, types.BuiltinMethodType)
    assert type(ev.__self__).__name__ == "Evaluator"


@settings(max_examples=300)
@given(x=inputs)
def test_native_matches_closure(compiled, x):
    assert compiled.eval_word(x) == _closure(compiled)(x)


def test_native_matches_closure_and_term_sum_on_edges(system, compiled):
    closure, term_sum = _closure(compiled), _cached_term_sum(system)
    for x in EDGE_INPUTS:
        assert compiled.eval_word(x) == closure(x) == term_sum.eval_word(x)


def test_native_matches_closure_and_term_sum_on_table_corners(system, compiled):
    # each chunk all ones, then each pair of chunks all ones, every other
    # bit zero: a pair input indexes the last word of its pair's table
    _need_compiler()
    module, how = evaluator._load_pmap()
    assert module is not None, how
    ends = list(accumulate(module.CHUNK_WIDTHS))
    ones = [((1 << w) - 1) << (64 - end) for w, end in zip(module.CHUNK_WIDTHS, ends)]
    corners = ones + [a | b for a, b in combinations(ones, 2)]
    assert len(corners) == 11 + 55
    closure, term_sum = _closure(compiled), _cached_term_sum(system)
    for x in corners:
        assert compiled.eval_word(x) == closure(x) == term_sum.eval_word(x), hex(x)


def test_native_reads_any_int_below_2_64(compiled):
    _need_compiler()
    assert isinstance(compiled.eval_word, types.BuiltinMethodType)
    for x in (2**63, 2**64 - 1, True):
        assert compiled.eval_word(x) == _closure(compiled)(x)
    for x in (1.0, np.uint64(5)):
        with pytest.raises(TypeError, match="takes an int"):
            compiled.eval_word(x)


@pytest.mark.parametrize("x", [-1, 2**64])
def test_out_of_range_input_overflows_on_both_paths(system, compiled, x):
    for ev in (compiled.eval_word, _closure(compiled), _cached_term_sum(system).eval_word,
               lambda v: eval_batch_bitsliced(system, [v])):
        with pytest.raises(OverflowError):
            ev(x)


def _need_compiler():
    if shutil.which(evaluator._COMPILER) is None:
        pytest.skip(f"no C compiler ({evaluator._COMPILER}) on PATH: nothing is built")


NATIVE_TABLE_BYTES = 778_240   # 55 chunk-pair tables: 45 of 6x6 bits, 10 of 6x4
BYTE_TABLE_BYTES = 28 * 256 * 256 * 4


@pytest.mark.parametrize("dtype, count", [
    (np.uint32, NATIVE_TABLE_BYTES // 4 - 1),
    (np.uint32, NATIVE_TABLE_BYTES // 4 + 1),
    (np.float32, NATIVE_TABLE_BYTES // 4),
    (np.float64, NATIVE_TABLE_BYTES // 8),
    (np.uint64, NATIVE_TABLE_BYTES // 8),
], ids=["short", "long", "float32", "float64", "uint64"])
def test_native_evaluator_rejects_a_wrong_buffer(dtype, count):
    _need_compiler()
    module, how = evaluator._load_pmap()
    assert module is not None, how
    with pytest.raises(ValueError, match="uint32"):
        module.Evaluator(np.zeros(count, dtype=dtype))


@pytest.fixture()
def built_widths(monkeypatch, tmp_path):
    """The chunk widths of every table buffer built while the test runs,
    from an empty cache."""
    monkeypatch.setattr(_cache, "DIR", tmp_path / "__pycache__")
    widths = []

    def spy(masks, const, chunk_widths):
        widths.append(tuple(chunk_widths))
        return pair_tables(masks, const, chunk_widths)

    pair_tables = evaluator._pair_tables
    monkeypatch.setattr(evaluator, "_pair_tables", spy)
    return widths


def test_native_tables_stay_small(system, built_widths):
    _need_compiler()
    module, how = evaluator._load_pmap()
    assert module is not None, how
    native = compile_system(system)
    assert native._tables.nbytes == NATIVE_TABLE_BYTES
    # the byte-pair tables are the fallback's alone
    assert built_widths == [module.CHUNK_WIDTHS]


def test_only_the_fallback_builds_byte_pair_tables(system, monkeypatch, built_widths):
    monkeypatch.setattr(evaluator, "_load_pmap", lambda: (None, "disabled by test"))
    fallback = compile_system(system)
    assert built_widths == [(8,) * 8]
    assert fallback._tables.nbytes == BYTE_TABLE_BYTES


# SHA-256 of the shipped system's table buffers, words read little-endian,
# recorded from the numpy builder the pure-Python one replaced
TABLE_SHA256 = {
    "native": (NATIVE_TABLE_BYTES,
               "ac92db88f216c34760e287af2a55e17f1c91d98bc680de5585fe5eda38e6d6d3"),
    "byte-pairs": (BYTE_TABLE_BYTES,
                   "ec8ba95670f5a67f4aaf4842ed4edadc9cfec785ca582c32cdeafa255ea84733"),
}


def _table_sha256(tables):
    words = array("I")
    words.frombytes(memoryview(tables).cast("B"))
    if sys.byteorder == "big":
        words.byteswap()
    return words.itemsize * len(words), hashlib.sha256(words).hexdigest()


@pytest.mark.parametrize("layout, cached", [
    ("byte-pairs", False), ("native", False), ("byte-pairs", True), ("native", True),
], ids=["byte-pairs", "native", "byte-pairs-cached", "native-cached"])
def test_table_bytes_are_pinned(system, layout, cached, tmp_path, monkeypatch):
    if layout == "native":
        _need_compiler()
        module, how = evaluator._load_pmap()
        assert module is not None, how
        widths = module.CHUNK_WIDTHS
    else:
        widths = evaluator._BYTE_WIDTHS
    if not cached:
        tables = evaluator._pair_tables(evaluator._collect_masks(system),
                                        system.constant_word, widths)
        assert _table_sha256(tables) == TABLE_SHA256[layout]
        return
    # the production buffer, built and stored on a miss, then read back
    if layout == "byte-pairs":
        monkeypatch.setattr(evaluator, "_load_pmap", lambda: (None, "disabled by test"))
    monkeypatch.setattr(_cache, "DIR", tmp_path / "__pycache__")
    for path in ("miss", "hit"):
        tables = default_params.__wrapped__().system._tables
        assert isinstance(tables.obj, bytes if path == "hit" else bytearray), path
        assert _table_sha256(tables) == TABLE_SHA256[layout], path


def test_native_source_compiles_without_warnings(tmp_path, monkeypatch):
    # the production build, so that warnings only the optimizer raises
    # (on unrolled code, say) are seen too
    _need_compiler()
    monkeypatch.setattr(evaluator, "_CFLAGS",
                        evaluator._CFLAGS + ("-Wall", "-Wextra", "-Werror"))
    target = tmp_path / "_pmap.so"
    try:
        evaluator._compile(target)
    except OSError as exc:
        stderr = getattr(exc.__cause__, "stderr", None)
        pytest.fail(stderr.decode() if stderr else str(exc))
    assert target.stat().st_size > 0


@pytest.fixture()
def fresh_loader():
    # the loader caches its one result per process; start and end clean
    evaluator._load_pmap.cache_clear()
    yield
    evaluator._load_pmap.cache_clear()


@pytest.mark.parametrize("broken", ["no_compiler", "unwritable_cache"])
def test_native_build_failure_falls_back_to_closure(
        system, compiled, tmp_path, monkeypatch, caplog, fresh_loader, broken):
    if broken == "no_compiler":
        monkeypatch.setattr(evaluator, "_COMPILER", str(tmp_path / "no-such-cc"))
        # an empty cache, so that the loader has to build
        monkeypatch.setattr(_cache, "DIR", tmp_path / "__pycache__")
    else:
        (tmp_path / "file").write_bytes(b"")
        monkeypatch.setattr(_cache, "DIR", tmp_path / "file" / "__pycache__")
    caplog.set_level(logging.DEBUG, logger=evaluator.__name__)
    fallback = compile_system(system)
    records = [r for r in caplog.records if r.name == evaluator.__name__]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    assert "python closure" in records[0].getMessage()
    assert isinstance(fallback.eval_word, types.FunctionType)
    for x in EDGE_INPUTS:
        assert fallback.eval_word(x) == compiled.eval_word(x)


def test_new_build_prunes_stale_builds(tmp_path, monkeypatch, fresh_loader):
    _need_compiler()
    suffix = evaluator.EXTENSION_SUFFIXES[0]
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / f"_pmap-0000000000000000{suffix}").write_bytes(b"stale")
    monkeypatch.setattr(_cache, "DIR", cache)
    module, how = evaluator._load_pmap()
    assert module is not None, how
    assert how.startswith("built ")
    assert [p.name for p in cache.iterdir()] == [how.split()[1]]


def test_build_name_covers_the_compiler_and_its_flags(tmp_path, monkeypatch):
    # a stand-in compiler, whose output the loader stores and fails to load
    monkeypatch.setattr(evaluator, "_compile", lambda target: target.write_bytes(b"no ELF"))
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(_cache, "DIR", cache)
    cc, flags = evaluator._COMPILER, evaluator._CFLAGS
    names = []
    for compiler, cflags in [(cc, flags), (cc, flags + ("-g",)), ("clang", flags), (cc, flags)]:
        monkeypatch.setattr(evaluator, "_COMPILER", compiler)
        monkeypatch.setattr(evaluator, "_CFLAGS", cflags)
        module, how = evaluator._load_pmap.__wrapped__()
        assert module is None, how
        [build] = cache.iterdir()
        names.append(build.name)
    assert len(set(names)) == 3 and names[-1] == names[0]


class _SpyLock:
    """A lock that reports a second acquirer, which then blocks."""

    def __init__(self, contended):
        self._lock = threading.Lock()
        self._contended = contended

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self._contended.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()


def test_two_threads_building_at_once_both_load_the_module(
        tmp_path, monkeypatch, fresh_loader):
    _need_compiler()
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(_cache, "DIR", cache)
    # The first build is held open, its output written, until the second
    # thread has either started a build of its own (the two then publish
    # the same entry) or is waiting for the first to finish.
    second = threading.Event()
    first_built = threading.Event()
    second_built = threading.Event()
    builds = []
    real_run = subprocess.run

    def held_run(*args, **kwargs):
        builds.append(args)
        if len(builds) == 1:
            result = real_run(*args, **kwargs)
            first_built.set()
            assert second.wait(60), "the second thread never arrived"
            if len(builds) > 1:
                assert second_built.wait(60), "the second build never finished"
            return result
        second.set()
        assert first_built.wait(60), "the first build never finished"
        result = real_run(*args, **kwargs)
        second_built.set()
        return result

    monkeypatch.setattr(subprocess, "run", held_run)
    monkeypatch.setattr(evaluator, "_BUILD_LOCK", _SpyLock(second), raising=False)
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = [f.result() for f in
                   [pool.submit(evaluator._load_pmap) for _ in range(2)]]
    for module, how in results:
        assert module is not None, how
    assert len(builds) == 1
    assert [p.name for p in cache.iterdir()] == [results[0][1].split()[1]]
