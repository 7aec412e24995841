"""The ordered 32-polynomial system behind the 64->32 bit compression map.

The polynomial definitions ship as a text asset (`data/polynomials.txt`)
rather than as code literals, so the parser stays the single source of
truth and the asset can be audited by independent text splitting.  The
environment variable ``HFHASH_POLYNOMIALS`` may point at an alternate
asset file for research use.

A system is its term words (see ``anf``): the tables, the oracles,
the ANF reference and ``hfhash poly`` read nothing else, and
``load_default_system`` keeps them in the package's cache (see
``_cache``), so that a later start of the same asset does not parse it.
"""

from __future__ import annotations

import hashlib
import logging
import os
from array import array
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

from . import _cache
from .anf import (
    NUM_VARS,
    SYSTEM_SIZE,
    PolynomialSyntaxError,
    parse_words,
)

log = logging.getLogger(__name__)

ASSET_ENV_VAR = "HFHASH_POLYNOMIALS"
_SHIPPED_ASSET = Path(__file__).with_name("data") / "polynomials.txt"
# the most characters an asset may hold; the shipped one has 485,759
MAX_ASSET_CHARS = 4 << 20


class SystemFormatError(ValueError):
    """The asset does not describe a valid 32-polynomial system."""


class AssetError(ValueError):
    """The polynomial asset, shipped or the ``HFHASH_POLYNOMIALS``
    override, could not be read or parsed.

    The message is ``<path>: <reason>``; the original error, if any, is
    the exception's ``__cause__``.
    """


def _check_indices(indices) -> None:
    """Exactly 32 polynomials, position k holding index k."""
    if len(indices) != SYSTEM_SIZE:
        raise SystemFormatError(f"expected {SYSTEM_SIZE} polynomials, got {len(indices)}")
    for k, index in enumerate(indices, start=1):
        if index != k:
            raise SystemFormatError(f"position {k} holds polynomial index {index}")


class PolynomialSystem:
    """Exactly 32 polynomials; position k-1 holds index k.

    ``PolynomialSystem(words)`` is the system whose state is ``words``,
    any contiguous buffer of native uint16 (bytes, ``array("H")``, a
    memoryview of either): the 32 term counts, then each polynomial's
    term words in ascending order.  It is stored as its bytes, copied
    from any buffer but ``bytes``, so that editing the buffer later
    changes no system.  Only the counts
    are checked: words that do not hold the terms they count raise
    SystemFormatError.  The words are the system's whole identity:
    equality, hashing, ``repr``, pickling, copying and the key of its
    cached tables come from them alone.
    """

    __slots__ = ("words",)

    def __init__(self, words: bytes):
        data = memoryview(words).cast("B")
        head = data[:2 * SYSTEM_SIZE]
        if len(head) < 2 * SYSTEM_SIZE or len(data) != 2 * (SYSTEM_SIZE + sum(head.cast("H"))):
            raise SystemFormatError(f"{len(data)} bytes do not hold the terms they count")
        self.words = bytes(words)

    @property
    def term_words(self) -> list[memoryview]:
        """Each polynomial's term words, in order."""
        words = memoryview(self.words).cast("H")
        ends = list(accumulate(words[:SYSTEM_SIZE], initial=SYSTEM_SIZE))
        return [words[a:b] for a, b in zip(ends, ends[1:])]

    def __eq__(self, other):
        return self.words == other.words if type(other) is PolynomialSystem else NotImplemented

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        return f"<PolynomialSystem, words sha256 {hashlib.sha256(self.words).hexdigest()[:16]}>"

    def __reduce__(self):
        return PolynomialSystem, (self.words,)

    def eval_reference(self, x: int) -> int:
        """32-bit output word, summed term by term from the term words.

        Output bit 31 (MSB) is polynomial 1, bit 0 is polynomial 32.  A
        term's value is the product of the values at its word's two bytes,
        where byte 0 (no variable) reads as 1.
        """
        values = [1] + [x >> (NUM_VARS - v) & 1 for v in range(1, NUM_VARS + 1)]
        word = 0
        for k, terms in enumerate(self.term_words, start=1):
            bit = 0
            for w in terms:
                bit ^= values[w >> 8] & values[w & 0xFF]
            word |= bit << (SYSTEM_SIZE - k)
        return word

    @property
    def constant_word(self) -> int:
        """eval at x=0: the 32 constant terms packed MSB-first."""
        return sum(1 << (SYSTEM_SIZE - k)
                   for k, terms in enumerate(self.term_words, start=1) if 0 in terms)


def load_system(text: str) -> PolynomialSystem:
    """Parse a polynomial asset: 32 definition lines, `#` comments ignored.

    Raises SystemFormatError for a wrong polynomial count or out-of-order
    indices, and PolynomialSyntaxError (annotated with the line number)
    for any bad definition line.
    """
    indices, counts, terms = [], array("H"), array("H")
    known: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            index, words = parse_words(line, known)
        except PolynomialSyntaxError as exc:
            exc.line = lineno
            raise
        indices.append(index)
        counts.append(len(words))
        terms.extend(words)
    _check_indices(indices)
    log.debug("parsed %d polynomials, %d terms", len(counts), len(terms))
    return PolynomialSystem((counts + terms).tobytes())


@lru_cache(maxsize=None)
def load_default_system() -> PolynomialSystem:
    """The shipped system (or the ``HFHASH_POLYNOMIALS`` override), cached.

    An asset that cannot be read or parsed, or holds more than
    ``MAX_ASSET_CHARS`` characters, raises AssetError; no more than one
    character past the cap is read.  A text parsed before, by this
    version of the package, is read from its cache entry, keyed by the
    text's bytes, instead; the entry's checksum is verified and its term
    words are the system.  An entry that is missing, corrupted or cannot
    be written only costs a parse, here.
    """
    path = os.environ.get(ASSET_ENV_VAR) or _SHIPPED_ASSET
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read(MAX_ASSET_CHARS + 1)
    except OSError as exc:
        raise AssetError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise AssetError(f"{path}: {exc}") from exc
    if len(text) > MAX_ASSET_CHARS:
        raise AssetError(f"{path}: more than {MAX_ASSET_CHARS} characters")

    try:
        words, note = _cache.cached("system", text.encode(), lambda: load_system(text).words,
                                    bytes)
        system = PolynomialSystem(words)
    except (PolynomialSyntaxError, SystemFormatError) as exc:
        raise AssetError(f"{path}: {exc}") from exc
    log.debug("%s", note)
    return system
