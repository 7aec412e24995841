import random

from hypothesis import given, settings, strategies as st

from hfhash.evaluator import TermSumEvaluator, compile_system, eval_batch_bitsliced
from hfhash.system import load_system

inputs = st.integers(0, 2**64 - 1)


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


def test_compiled_keeps_source_term_counts(system, compiled):
    assert compiled.source_term_counts == tuple(p.term_count for p in system.polys)


def test_outputs_are_32_bit(compiled):
    rng = random.Random(19)
    for _ in range(50):
        x = rng.getrandbits(64)
        assert 0 <= compiled.eval_word(x) <= 0xFFFFFFFF
