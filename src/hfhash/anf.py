"""Boolean polynomials in algebraic normal form over x_1 .. x_64, as term words.

The compression map of HF-hash is built from 32 quadratic GF(2)
polynomials.  A term, ``x_i x_j`` (i < j), ``x_i`` or ``1``, is one
16-bit term word, ``i << 8 | j``, ``i << 8`` or 0, and a polynomial is
its set of term words: ``parse_words`` turns a line of the text form
straight into its ascending words, all that a `system.PolynomialSystem`
holds.  `_word` is the one check of a term (variable range, repeats,
order), and `_vars` the inverse that the oracles of ``evaluator`` read.

Bit convention: for a 64-bit input word x, variable x_1 is the MOST
significant bit and x_64 the least significant one.
"""

from __future__ import annotations

import re

NUM_VARS = 64
SYSTEM_SIZE = 32

# [0-9], not \d: an index in any other script's digits is malformed
_PREFIX_RE = re.compile(r"^y_\{([0-9]+)\}\s*=\s*")
_TERM_RE = re.compile(r"x_\{([0-9]+)\}(?:x_\{([0-9]+)\})?")
_FACTOR_RE = re.compile(r"x_\{([0-9]+)\}")


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


def _word(vars: tuple[int, ...]) -> int:
    """The term word of the term ``vars``: (), (i,) or (i, j) with i < j,
    each index in 1..64.  Raises ValueError for an index out of range or
    a pair out of order."""
    for v in vars:
        if not 1 <= v <= NUM_VARS:
            raise ValueError(f"variable index {v} outside 1..{NUM_VARS}")
    i, j = (*vars, 0, 0)[:2]
    if j and i >= j:
        what = "repeated variable in" if i == j else "unordered quadratic"
        raise ValueError(f"{what} term 'x_{{{i}}}x_{{{j}}}'")
    return i << 8 | j


def _vars(word: int) -> tuple[int, ...]:
    """The variables of the term ``word``: the inverse of ``_word``."""
    i, j = word >> 8, word & 0xFF
    return (i, j) if j else (i,) if i else ()


def _parse_term(text: str, position: int) -> int:
    if not text:
        raise PolynomialSyntaxError("empty term", position)
    m = _TERM_RE.fullmatch(text)
    if m is None and text != "1":
        if len(_FACTOR_RE.findall(text)) > 2:
            raise PolynomialSyntaxError(f"term {text!r} has degree > 2", position)
        raise PolynomialSyntaxError(f"malformed term {text!r}", position)
    try:
        return _word(tuple(int(v) for v in m.groups() if v is not None) if m else ())
    except ValueError as exc:
        raise PolynomialSyntaxError(str(exc), position) from exc


def parse_words(line: str, known: dict[str, int]) -> tuple[int, list[int]]:
    """The index and the ascending term words of one `y_{k} = term + ...`
    line.  Whitespace around `+` is tolerated.  Rejects malformed terms,
    variable indices outside 1..64, duplicate terms and terms of degree
    above two, reporting the column where the problem starts.  ``known``
    maps the term texts already checked to their words and gains this
    line's, so that the lines of one asset, sharing it, check each
    distinct spelling of a term once.
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

    offset = m.end()
    if not line[offset:].strip():
        raise PolynomialSyntaxError("empty polynomial body", offset)
    words: set[int] = set()
    for chunk in line[offset:].split("+"):
        text = chunk.strip()
        word = known.get(text)
        if word is None or word in words:
            start = offset + len(chunk) - len(chunk.lstrip())
            if word is None:
                word = known[text] = _parse_term(text, start)
            if word in words:
                raise PolynomialSyntaxError(f"duplicate term {text!r}", start)
        words.add(word)
        offset += len(chunk) + 1
    return index, sorted(words)

