"""The ordered 32-polynomial system behind the 64->32 bit compression map.

The polynomial definitions ship as a text asset (`data/polynomials.txt`)
rather than as code literals, so the parser stays the single source of
truth and the asset can be audited by independent text splitting.  The
environment variable ``HFHASH_POLYNOMIALS`` may point at an alternate
asset file for research use.

``load_default_system`` keeps each system it parses in the package's
cache (see ``_cache``), keyed by the SHA-256 of the asset text and of
the package sources, as a list of 16-bit term words; a later load of the
same text verifies that list and holds it instead of parsing, and the
system carries the text's SHA-256, which keys its compiled tables.  Such
a system builds its polynomials from the words only when ``polys`` is
first read, so a start that finds the compiled tables cached as well
never builds them.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from time import perf_counter

from . import _cache
from .anf import (
    SYSTEM_SIZE,
    BooleanPolynomial,
    Monomial,
    PolynomialSyntaxError,
    parse_polynomial,
)

log = logging.getLogger(__name__)

ASSET_ENV_VAR = "HFHASH_POLYNOMIALS"
_SHIPPED_ASSET = Path(__file__).with_name("data") / "polynomials.txt"
# the most characters an asset may hold; the shipped one has 485,759
MAX_ASSET_CHARS = 4 << 20
# a system read from the cache decodes its term words once per process
_DECODE_LOCK = threading.Lock()


class SystemFormatError(ValueError):
    """The asset does not describe a valid 32-polynomial system."""


class AssetError(ValueError):
    """The polynomial asset, shipped or the ``HFHASH_POLYNOMIALS``
    override, could not be read or parsed.

    The message is ``<path>: <reason>``; the original error, if any, is
    the exception's ``__cause__``.
    """


@dataclass(frozen=True)
class PolynomialSystem:
    """Exactly 32 polynomials; position k-1 holds index k.

    ``asset_sha256`` is the SHA-256 of the asset text the system was
    loaded from by ``load_default_system``, which keys its cached tables;
    it is None for a system made any other way, and takes no part in
    equality.  A system that ``load_default_system`` read from the cache
    holds the checksum-verified term words instead of ``polys`` and
    decodes them on the first read of ``polys``, or of anything derived
    from it (``constant_word``, ``eval_reference``, ``==``, ``hash``,
    ``repr``); it then behaves as the parsed system in every way.
    """

    polys: tuple[BooleanPolynomial, ...]
    asset_sha256: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.polys) != SYSTEM_SIZE:
            raise SystemFormatError(
                f"expected {SYSTEM_SIZE} polynomials, got {len(self.polys)}"
            )
        for k, poly in enumerate(self.polys, start=1):
            if poly.index != k:
                raise SystemFormatError(
                    f"position {k} holds polynomial index {poly.index}"
                )

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the ``polys``
        # of a system whose term words are still pending, or that another
        # thread has decoded since this one looked
        state = vars(self)
        if name == "polys" and ("_words" in state or "polys" in state):
            with _DECODE_LOCK:
                if "polys" not in state:
                    t0 = perf_counter()
                    state["polys"] = _from_words(state["_words"])
                    del state["_words"]
                    log.debug("decoded %d polynomials in %.1f ms",
                              SYSTEM_SIZE, (perf_counter() - t0) * 1e3)
            return state["polys"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def eval_reference(self, x: int) -> int:
        """32-bit output word assembled from the term-by-term oracle.

        Output bit 31 (MSB) is polynomial 1, bit 0 is polynomial 32.
        """
        word = 0
        for k, poly in enumerate(self.polys, start=1):
            word |= poly.evaluate(x) << (SYSTEM_SIZE - k)
        return word

    @property
    def constant_word(self) -> int:
        """eval at x=0: the 32 constant terms packed MSB-first."""
        word = 0
        for k, poly in enumerate(self.polys, start=1):
            if poly.has_constant:
                word |= 1 << (SYSTEM_SIZE - k)
        return word


def load_system(text: str) -> PolynomialSystem:
    """Parse a polynomial asset: 32 definition lines, `#` comments ignored.

    Raises SystemFormatError for a wrong polynomial count or out-of-order
    indices, and PolynomialSyntaxError (annotated with the line number)
    for any bad definition line.
    """
    polys = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            polys.append(parse_polynomial(line))
        except PolynomialSyntaxError as exc:
            exc.line = lineno
            raise
    system = PolynomialSystem(polys=tuple(polys))
    log.debug("parsed %d polynomials, %d terms",
              len(system.polys), sum(p.term_count for p in system.polys))
    return system


def _term_word(term: Monomial) -> int:
    """``i << 8 | j`` for x_i x_j, ``i << 8`` for x_i, 0 for the constant."""
    i, j = (*term.vars, 0, 0)[:2]
    return i << 8 | j


def _to_words(system: PolynomialSystem) -> array:
    """The system as native uint16 words: the 32 term counts, then every
    polynomial's terms as ``_term_word``s, in the parser's term order."""
    words = array("H", [poly.term_count for poly in system.polys])
    for poly in system.polys:
        words.extend(sorted(map(_term_word, poly.terms)))
    return words


def _deferred(payload: memoryview, asset_sha256: str) -> PolynomialSystem:
    """The system that ``_to_words`` wrote as the bytes ``payload``,
    decoded when its ``polys`` is first read (see ``PolynomialSystem``).

    It holds a copy of the words, so that it pickles and copies as a
    parsed system does.
    """
    words = array("H")
    words.frombytes(payload)
    system = object.__new__(PolynomialSystem)
    vars(system).update(_words=words, asset_sha256=asset_sha256)
    return system


def _from_words(words: array) -> tuple[BooleanPolynomial, ...]:
    """The polynomials that ``_to_words`` wrote, one `Monomial` per
    distinct term."""
    terms = {w: Monomial(tuple(v for v in (w >> 8, w & 0xFF) if v))
             for w in set(words[SYSTEM_SIZE:])}
    polys = []
    start = SYSTEM_SIZE
    for k, count in enumerate(words[:SYSTEM_SIZE], start=1):
        polys.append(BooleanPolynomial(
            k, frozenset(map(terms.__getitem__, words[start:start + count]))))
        start += count
    return tuple(polys)


@lru_cache(maxsize=None)
def load_default_system() -> PolynomialSystem:
    """The shipped system (or the ``HFHASH_POLYNOMIALS`` override), cached.

    An asset that cannot be read or parsed, or holds more than
    ``MAX_ASSET_CHARS`` characters, raises AssetError; no more than one
    character past the cap is read.  A text parsed before, by this
    version of the package, is read from its cache entry instead, whose
    checksum is verified here; the system holds the entry's term words
    and decodes them into polynomials when ``polys`` is first read.  An
    entry that is missing, corrupted or cannot be written only costs a
    parse, here.
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

    sha = hashlib.sha256(text.encode()).hexdigest()
    try:
        system, note = _cache.cached(
            "system", sha,
            build=lambda: replace(load_system(text), asset_sha256=sha),
            decode=lambda payload: _deferred(payload, sha),
            encode=_to_words)
    except (PolynomialSyntaxError, SystemFormatError) as exc:
        raise AssetError(f"{path}: {exc}") from exc
    log.debug("%s%s", note, ", decoding deferred" if "_words" in vars(system) else "")
    return system
