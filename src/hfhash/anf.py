"""Boolean polynomials in algebraic normal form over x_1 .. x_64.

The compression map of HF-hash is built from 32 quadratic GF(2)
polynomials.  This module knows how to parse them from their text form,
validate them, and evaluate them term by term.  `Monomial` is the one
validator of a term (variable range, repeats, order); the parser only
splits the text, reports its errors at the term's column and shares
one `Monomial` object per distinct term across all lines.  The
term-by-term evaluator here is deliberately simple: it is the
correctness oracle that the optimized evaluator (see `evaluator`) is
checked against.

Bit convention: for a 64-bit input word x, variable x_1 is the MOST
significant bit and x_64 the least significant one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

NUM_VARS = 64
SYSTEM_SIZE = 32

# [0-9], not \d: an index in any other script's digits is malformed
_PREFIX_RE = re.compile(r"^y_\{([0-9]+)\}\s*=\s*")
_TERM_RE = re.compile(r"x_\{([0-9]+)\}(?:x_\{([0-9]+)\})?")
_FACTOR_RE = re.compile(r"x_\{([0-9]+)\}")
_VARS = attrgetter("vars")


class PolynomialSyntaxError(ValueError):
    """A polynomial line that does not match the expected grammar.

    `position` is the character offset into the offending line; `line`
    is filled in when parsing a multi-line asset.
    """

    def __init__(self, message: str, position: int, line: int | None = None):
        super().__init__(message)
        self.position = position
        self.line = line

    def __str__(self) -> str:
        # column shown 1-based, matching the 1-based line number
        where = f"line {self.line}, " if self.line is not None else ""
        return f"{where}col {self.position + 1}: {self.args[0]}"


@dataclass(frozen=True, order=True)
class Monomial:
    """One ANF term: (), (i,) or (i, j) with i < j, meaning 1, x_i or x_i*x_j."""

    vars: tuple[int, ...]

    def __post_init__(self):
        if len(self.vars) > 2:
            raise ValueError(f"monomial degree {len(self.vars)} exceeds 2")
        for v in self.vars:
            if not 1 <= v <= NUM_VARS:
                raise ValueError(f"variable index {v} outside 1..{NUM_VARS}")
        if len(self.vars) == 2:
            i, j = self.vars
            if i == j:
                raise ValueError(f"repeated variable in term {str(self)!r}")
            if i > j:
                raise ValueError(f"unordered quadratic term {str(self)!r}")

    @property
    def degree(self) -> int:
        return len(self.vars)

    def evaluate(self, x: int) -> int:
        """Value of this term at a 64-bit input (x_1 = MSB)."""
        r = 1
        for v in self.vars:
            r &= x >> (NUM_VARS - v)
        return r & 1

    def __str__(self) -> str:
        if not self.vars:
            return "1"
        return "".join(f"x_{{{v}}}" for v in self.vars)


ONE = Monomial(())


@dataclass(frozen=True)
class BooleanPolynomial:
    """A set of distinct ANF terms, summed over GF(2)."""

    index: int
    terms: frozenset[Monomial]

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def quadratic_count(self) -> int:
        return sum(1 for t in self.terms if t.degree == 2)

    @property
    def linear_count(self) -> int:
        return sum(1 for t in self.terms if t.degree == 1)

    @property
    def has_constant(self) -> bool:
        return ONE in self.terms

    def evaluate(self, x: int) -> int:
        """Term-by-term GF(2) sum at a 64-bit input.  The reference oracle."""
        acc = 0
        for t in self.terms:
            acc ^= t.evaluate(x)
        return acc

    def canonical_str(self) -> str:
        """Render with terms sorted by (degree, indices); parses back to self."""
        if not self.terms:
            raise ValueError("the zero polynomial has no text form")
        ordered = sorted(self.terms, key=lambda t: (-t.degree, t.vars))
        body = " + ".join(str(t) for t in ordered)
        return f"y_{{{self.index}}} = {body}"

    def __str__(self) -> str:
        return self.canonical_str()


@lru_cache(maxsize=None)
def _monomial(vars: tuple[int, ...]) -> Monomial:
    """The one shared `Monomial` of ``vars``.  A 32-polynomial system
    repeats each term about 16 times; only the 2,081 valid terms are ever
    cached, since an invalid one raises."""
    return Monomial(vars)


def _parse_term(text: str, position: int) -> Monomial:
    if text == "1":
        return ONE
    m = _TERM_RE.fullmatch(text)
    if m is None:
        if len(_FACTOR_RE.findall(text)) > 2:
            raise PolynomialSyntaxError(f"term {text!r} has degree > 2", position)
        raise PolynomialSyntaxError(f"malformed term {text!r}", position)
    try:
        return _monomial(tuple(int(v) for v in m.groups() if v is not None))
    except ValueError as exc:
        raise PolynomialSyntaxError(str(exc), position) from exc


def parse_polynomial(line: str) -> BooleanPolynomial:
    """Parse one `y_{k} = term + term + ...` definition line.

    Whitespace around `+` is tolerated.  Rejects malformed terms,
    variable indices outside 1..64, duplicate terms and terms of degree
    above two, reporting the column where the problem starts.
    """
    m = _PREFIX_RE.match(line)
    if not m:
        raise PolynomialSyntaxError("expected 'y_{k} =' prefix", 0)
    try:
        index = int(m.group(1))
    except ValueError as exc:  # int() refuses more than 4300 digits
        raise PolynomialSyntaxError(
            f"polynomial index of {len(m.group(1))} digits is too long", 2) from exc
    if index < 1:
        raise PolynomialSyntaxError(f"polynomial index {index} must be positive", 2)

    terms: set[Monomial] = set()
    pos = m.end()
    body = line[pos:]
    if not body.strip():
        raise PolynomialSyntaxError("empty polynomial body", pos)
    offset = 0
    for chunk in body.split("+"):
        stripped = chunk.strip()
        start = pos + offset + (len(chunk) - len(chunk.lstrip()))
        if not stripped:
            raise PolynomialSyntaxError("empty term", start)
        term = _parse_term(stripped, start)
        if term in terms:
            raise PolynomialSyntaxError(f"duplicate term {stripped!r}", start)
        terms.add(term)
        offset += len(chunk) + 1
    # built in term order, as ``system._from_words`` builds it, so that a
    # polynomial iterates (and prints) the same however it was loaded
    return BooleanPolynomial(index=index, terms=frozenset(sorted(terms, key=_VARS)))
