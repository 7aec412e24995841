from array import array

import pytest
from hypothesis import given, strategies as st

from hfhash.anf import (
    NUM_VARS,
    SYSTEM_SIZE,
    PolynomialSyntaxError,
    _vars,
    _word,
    parse_words,
)
from hfhash.system import PolynomialSystem


def _value(words, x):
    """The value at ``x`` of the polynomial whose term words are ``words``,
    from the ANF reference of a system whose other polynomials are zero."""
    counts = array("H", [len(words)] + [0] * (SYSTEM_SIZE - 1))
    system = PolynomialSystem((counts + array("H", sorted(words))).tobytes())
    return system.eval_reference(x) >> (SYSTEM_SIZE - 1)


def test_parse_minimal_line():
    assert parse_words("y_{99} = x_{1}x_{2} + x_{1}", {}) == (99, [1 << 8, 1 << 8 | 2])


def test_parse_with_constant():
    # the constant, then x_{5}x_{9}, then x_{64}: ascending words
    assert parse_words("y_{3} = x_{5}x_{9} + x_{64} + 1", {}) == (3, [0, 5 << 8 | 9, 64 << 8])


def test_parse_tolerates_spacing():
    a = parse_words("y_{2}=x_{1}x_{3}+x_{2}+1", {})
    b = parse_words("y_{2} =  x_{1}x_{3}  +  x_{2} +  1", {})
    assert a == b


def test_variable_above_64_rejected():
    with pytest.raises(PolynomialSyntaxError, match="index 65"):
        parse_words("y_{1} = x_{1}x_{65}", {})
    with pytest.raises(PolynomialSyntaxError, match="index 65"):
        parse_words("y_{1} = x_{65}", {})


def test_missing_prefix_rejected():
    with pytest.raises(PolynomialSyntaxError, match="prefix"):
        parse_words("x_{1} + x_{2}", {})


def test_duplicate_term_rejected():
    with pytest.raises(PolynomialSyntaxError, match="duplicate"):
        parse_words("y_{1} = x_{4} + x_{4}", {})


def test_degree_three_rejected():
    with pytest.raises(PolynomialSyntaxError, match="degree"):
        parse_words("y_{1} = x_{1}x_{2}x_{3}", {})


def test_malformed_term_rejected():
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_words("y_{1} = x_{2} + banana", {})
    assert exc_info.value.position == 16


def test_repeated_variable_in_quadratic_rejected():
    with pytest.raises(PolynomialSyntaxError, match="repeated"):
        parse_words("y_{1} = x_{3}x_{3}", {})


def test_overlong_variable_index_is_a_syntax_error():
    # int() refuses more than 4300 digits; that ValueError is reported at the term
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_words("y_{1} = x_{2} + x_{" + "1" * 5000 + "}", {})
    assert exc_info.value.position == 16


def test_overlong_polynomial_index_is_a_syntax_error():
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_words("y_{" + "1" * 5000 + "} = x_{1}", {})
    assert exc_info.value.position == 2
    assert str(exc_info.value) == "col 3: polynomial index of 5000 digits is too long"


@pytest.mark.parametrize("line", [
    "y_{\u0663} = x_{\u0661}x_{\u0662} + x_{\u0663}",
    "y_{3} = x_{\u0661}x_{\u0662} + x_{3}",
    "y_{3} = x_{1}x_{2} + x_{\u0663}",
    "y_{3} = x_{1}x_{2} + x_{\uff13}",
], ids=["arabic-all", "arabic-quadratic", "arabic-linear", "fullwidth-linear"])
def test_non_ascii_digits_rejected(line):
    # only 0-9 are digits of the grammar; \d would read these as 1, 2, 3
    with pytest.raises(PolynomialSyntaxError):
        parse_words(line, {})


def test_error_carries_position_and_formats():
    err = PolynomialSyntaxError("bad", 7, line=4)
    assert str(err) == "line 4, col 8: bad"
    assert PolynomialSyntaxError("bad", 7).position == 7


def test_monomial_validation():
    assert [_word(()), _word((5,)), _word((5, 9))] == [0, 5 << 8, 5 << 8 | 9]
    with pytest.raises(ValueError):
        _word((2, 1))
    with pytest.raises(ValueError):
        _word((0,))
    with pytest.raises(ValueError):
        _word((1, 65))


# each kind of bad term, spelled as the text that is the only way in
@pytest.mark.parametrize("term, message", [
    ("x_{3}x_{3}", "repeated variable in term 'x_{3}x_{3}'"),
    ("x_{2}x_{1}", "unordered quadratic term 'x_{2}x_{1}'"),
    ("x_{0}", "variable index 0 outside 1..64"),
    ("x_{65}", "variable index 65 outside 1..64"),
    ("x_{1}x_{2}x_{3}", "term 'x_{1}x_{2}x_{3}' has degree > 2"),
    ("x_{1.0}", "malformed term 'x_{1.0}'"),
    ("x_{True}x_{2}", "malformed term 'x_{True}x_{2}'"),
    ("x_{[1, 2]}", "malformed term 'x_{[1, 2]}'"),
], ids=["repeated", "unordered", "zero", "above-64", "cubic", "float", "bool", "list"])
def test_monomial_messages(term, message):
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_words(f"y_{{1}} = {term}", {})
    assert str(exc_info.value) == f"col 9: {message}"


# full message and 0-based column of each rejected body, pinned from the
# parser as it was when the term rules were checked in two places
PINNED_PARSE_ERRORS = [
    ("x_{1}x_{65}", "col 9: variable index 65 outside 1..64", 8),
    ("x_{65}", "col 9: variable index 65 outside 1..64", 8),
    ("x_{0}", "col 9: variable index 0 outside 1..64", 8),
    ("x_{70}x_{70}", "col 9: variable index 70 outside 1..64", 8),
    ("x_{3}x_{3}", "col 9: repeated variable in term 'x_{3}x_{3}'", 8),
    ("x_{3}x_{2}", "col 9: unordered quadratic term 'x_{3}x_{2}'", 8),
    ("x_{1}x_{2}x_{3}", "col 9: term 'x_{1}x_{2}x_{3}' has degree > 2", 8),
    ("x_{2} + banana", "col 17: malformed term 'banana'", 16),
    ("x_{4} + x_{4}", "col 17: duplicate term 'x_{4}'", 16),
    ("x_{5} +  x_{9}x_{9}", "col 18: repeated variable in term 'x_{9}x_{9}'", 17),
]


@pytest.mark.parametrize("body, message, position", PINNED_PARSE_ERRORS,
                         ids=[body for body, _, _ in PINNED_PARSE_ERRORS])
def test_parse_error_messages_pinned(body, message, position):
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_words(f"y_{{1}} = {body}", {})
    assert str(exc_info.value) == message
    assert exc_info.value.position == position


def test_x1_is_most_significant_bit():
    assert _value({1 << 8}, 1 << 63) == 1
    assert _value({1 << 8}, (1 << 63) - 1) == 0
    assert _value({64 << 8}, 1) == 1
    assert _value({64 << 8}, ~1 & (2**64 - 1)) == 0


def test_constant_monomial_is_always_one():
    assert _value({0}, 0) == 1
    assert _value({0}, 2**64 - 1) == 1


def test_quadratic_needs_both_bits():
    term = 1 << 8 | 64
    assert _value({term}, (1 << 63) | 1) == 1
    assert _value({term}, 1 << 63) == 0
    assert _value({term}, 1) == 0


monomials = st.one_of(
    st.just(0),
    st.integers(1, NUM_VARS).map(lambda i: i << 8),
    st.tuples(st.integers(1, NUM_VARS), st.integers(1, NUM_VARS))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: min(t) << 8 | max(t)),
)

term_sets = st.frozensets(monomials, min_size=1, max_size=12)
inputs = st.integers(0, 2**64 - 1)


@given(term_sets, term_sets, inputs)
def test_symmetric_difference_is_gf2_addition(a, b, x):
    # XOR of polynomial values equals the value of the term-set symmetric
    # difference: shared terms cancel over GF(2)
    assert _value(a, x) ^ _value(b, x) == _value(a ^ b, x)


@given(term_sets)
def test_canonical_text_round_trips(canonical_text, terms):
    assert parse_words(canonical_text(7, terms), {}) == (7, sorted(terms))


@given(term_sets, inputs)
def test_degree_at_most_two(terms, x):
    # a word names at most two variables, which give the word back
    assert all(len(_vars(w)) <= 2 and _word(_vars(w)) == w for w in terms)
    assert _value(terms, x) in (0, 1)


def test_zero_polynomial_has_no_text_form():
    for line in ["y_{1} =", "y_{1} =   "]:
        with pytest.raises(PolynomialSyntaxError, match="empty polynomial body"):
            parse_words(line, {})
