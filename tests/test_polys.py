import pytest
from hypothesis import given, strategies as st

from hfhash.anf import (
    NUM_VARS,
    ONE,
    BooleanPolynomial,
    Monomial,
    PolynomialSyntaxError,
    parse_polynomial,
)


def test_parse_minimal_line():
    poly = parse_polynomial("y_{99} = x_{1}x_{2} + x_{1}")
    assert poly.index == 99
    assert poly.terms == frozenset({Monomial((1, 2)), Monomial((1,))})


def test_parse_with_constant():
    poly = parse_polynomial("y_{3} = x_{5}x_{9} + x_{64} + 1")
    assert poly.has_constant
    assert poly.quadratic_count == 1
    assert poly.linear_count == 1
    assert poly.term_count == 3


def test_parse_tolerates_spacing():
    a = parse_polynomial("y_{2}=x_{1}x_{3}+x_{2}+1")
    b = parse_polynomial("y_{2} =  x_{1}x_{3}  +  x_{2} +  1")
    assert a == b


def test_variable_above_64_rejected():
    with pytest.raises(PolynomialSyntaxError, match="index 65"):
        parse_polynomial("y_{1} = x_{1}x_{65}")
    with pytest.raises(PolynomialSyntaxError, match="index 65"):
        parse_polynomial("y_{1} = x_{65}")


def test_missing_prefix_rejected():
    with pytest.raises(PolynomialSyntaxError, match="prefix"):
        parse_polynomial("x_{1} + x_{2}")


def test_duplicate_term_rejected():
    with pytest.raises(PolynomialSyntaxError, match="duplicate"):
        parse_polynomial("y_{1} = x_{4} + x_{4}")


def test_degree_three_rejected():
    with pytest.raises(PolynomialSyntaxError, match="degree"):
        parse_polynomial("y_{1} = x_{1}x_{2}x_{3}")


def test_malformed_term_rejected():
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_polynomial("y_{1} = x_{2} + banana")
    assert exc_info.value.position == 16


def test_repeated_variable_in_quadratic_rejected():
    with pytest.raises(PolynomialSyntaxError, match="repeated"):
        parse_polynomial("y_{1} = x_{3}x_{3}")


def test_overlong_variable_index_is_a_syntax_error():
    # int() refuses more than 4300 digits; that ValueError is reported at the term
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_polynomial("y_{1} = x_{2} + x_{" + "1" * 5000 + "}")
    assert exc_info.value.position == 16


def test_overlong_polynomial_index_is_a_syntax_error():
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        parse_polynomial("y_{" + "1" * 5000 + "} = x_{1}")
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
        parse_polynomial(line)


def test_error_carries_position_and_formats():
    err = PolynomialSyntaxError("bad", 7, line=4)
    assert str(err) == "line 4, col 8: bad"
    assert PolynomialSyntaxError("bad", 7).position == 7


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial((2, 1))
    with pytest.raises(ValueError):
        Monomial((0,))
    with pytest.raises(ValueError):
        Monomial((1, 2, 3))
    for vars_ in [(1.0,), (True, 2), [1, 2]]:
        with pytest.raises(ValueError):
            Monomial(vars_)


@pytest.mark.parametrize("vars_, message", [
    ((3, 3), "repeated variable in term 'x_{3}x_{3}'"),
    ((2, 1), "unordered quadratic term 'x_{2}x_{1}'"),
    ((0,), "variable index 0 outside 1..64"),
    ((65,), "variable index 65 outside 1..64"),
    ((1, 2, 3), "monomial degree 3 exceeds 2"),
    ((1.0,), "variable index 1.0 is not an int"),
    ((True, 2), "variable index True is not an int"),
    ([1, 2], "monomial variables must be a tuple, not list"),
], ids=["repeated", "unordered", "zero", "above-64", "cubic", "float", "bool", "list"])
def test_monomial_messages(vars_, message):
    with pytest.raises(ValueError) as exc_info:
        Monomial(vars_)
    assert str(exc_info.value) == message


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
        parse_polynomial(f"y_{{1}} = {body}")
    assert str(exc_info.value) == message
    assert exc_info.value.position == position


def test_x1_is_most_significant_bit():
    assert Monomial((1,)).evaluate(1 << 63) == 1
    assert Monomial((1,)).evaluate((1 << 63) - 1) == 0
    assert Monomial((64,)).evaluate(1) == 1
    assert Monomial((64,)).evaluate(~1 & (2**64 - 1)) == 0


def test_constant_monomial_is_always_one():
    assert ONE.evaluate(0) == 1
    assert ONE.evaluate(2**64 - 1) == 1


def test_quadratic_needs_both_bits():
    m = Monomial((1, 64))
    assert m.evaluate((1 << 63) | 1) == 1
    assert m.evaluate(1 << 63) == 0
    assert m.evaluate(1) == 0


monomials = st.one_of(
    st.just(()),
    st.integers(1, NUM_VARS).map(lambda i: (i,)),
    st.tuples(st.integers(1, NUM_VARS), st.integers(1, NUM_VARS))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: tuple(sorted(t))),
).map(Monomial)

term_sets = st.frozensets(monomials, min_size=1, max_size=12)
inputs = st.integers(0, 2**64 - 1)


@given(term_sets, term_sets, inputs)
def test_symmetric_difference_is_gf2_addition(a, b, x):
    # XOR of polynomial values equals the value of the term-set symmetric
    # difference: shared terms cancel over GF(2)
    pa = BooleanPolynomial(index=1, terms=a)
    pb = BooleanPolynomial(index=1, terms=b)
    pc = BooleanPolynomial(index=1, terms=a ^ b) if a ^ b else None
    combined = pc.evaluate(x) if pc else 0
    assert pa.evaluate(x) ^ pb.evaluate(x) == combined


@given(term_sets)
def test_canonical_text_round_trips(terms):
    poly = BooleanPolynomial(index=7, terms=terms)
    again = parse_polynomial(poly.canonical_str())
    assert again == poly


@given(term_sets, inputs)
def test_degree_at_most_two(terms, x):
    poly = BooleanPolynomial(index=1, terms=terms)
    assert all(m.degree <= 2 for m in poly.terms)
    assert poly.evaluate(x) in (0, 1)


def test_zero_polynomial_has_no_text_form():
    poly = BooleanPolynomial(index=1, terms=frozenset())
    with pytest.raises(ValueError):
        poly.canonical_str()
