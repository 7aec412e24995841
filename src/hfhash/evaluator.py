"""Fast evaluation paths for the 64->32 bit polynomial map.

Three routes with the semantics of ``PolynomialSystem.eval_reference``:

* ``CompiledSystem`` -- chunk-pair lookup tables, the production path.
  Every monomial has degree at most 2, so once the 64-bit input is cut
  into chunks, each term touches at most two of them and the whole map
  folds into one bilinear table per chunk pair, built by one routine,
  ``_pair_tables``, into one flat buffer of native uint32 words: a table
  row is one int of 32-bit lanes, so each doubling step of the build is
  one big-int XOR.  The native ``_pmap`` extension (built from
  ``_pmap.c`` on first use, holding one view on the buffer) owns the
  chunk widths, ``CHUNK_WIDTHS``: ten chunks of 6 bits and one of 4, so
  an evaluation is 55 lookups XORed together in 778,240 bytes of
  tables, which stay in L2.  When the extension cannot be built, a
  Python closure evaluates 28 byte-pair tables (widths
  ``_BYTE_WIDTHS``, 7.3 MB), which only this fallback builds: fewer
  lookups suit Python better than a smaller buffer.  Every compiled
  system's buffer is stored in the package's cache (see ``_cache``),
  one entry per chunk widths, keyed by the system's term words and the
  package sources, and later compiles of the same words read it back
  instead of building it.
* ``TermSumEvaluator`` -- term-by-term summation on plain ints, straight
  off the system's term words (one bit per term, one int per variable
  marking the terms it occurs in).  Slower, but its data layout is a
  transcription of the polynomial text, which makes it the cross-check
  of the tables and the baseline of their speed.
* ``eval_batch_bitsliced`` -- pure-python bitsliced term summation
  across a whole batch of inputs at once, used to sweep the two paths
  above against each other over large random samples.

All routes honour the same conventions: input bit 63 (MSB) is x_1;
output bit 31 (MSB) is polynomial 1.
"""

from __future__ import annotations

import hashlib
import logging
import sys
import threading
from array import array
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from itertools import accumulate, pairwise
from pathlib import Path
from time import perf_counter

from . import _cache
from .anf import NUM_VARS, SYSTEM_SIZE, _vars
from .system import PolynomialSystem

log = logging.getLogger(__name__)

# the chunks of the Python fallback: 8 bytes, so 28 byte-pair tables
_BYTE_WIDTHS = (8,) * (NUM_VARS // 8)

_PMAP_SOURCE = Path(__file__).with_name("_pmap.c")
_COMPILER = "cc"
# how ``_compile`` builds the extension; the tests build with these too
_CFLAGS = ("-O2", "-shared", "-fPIC")
# one build per process: the threads that miss wait for the first one's
_BUILD_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _load_pmap():
    """The native ``_pmap`` module and how it was found, or None and why not.

    The extension is built once per source, compiler and flags into the
    package's cache (see ``_cache``) as ``_pmap-<key><suffix>``, the key
    hashing ``_pmap.c``, ``_COMPILER`` and ``_CFLAGS``.  A build is
    renamed into place, so concurrent first uses cannot load a partial
    file, and removes the other builds for this interpreter; a process
    that has one loaded keeps its mapping.  ``lru_cache`` lets every
    thread that misses run the body, so the threads of one process take
    turns: the first builds, the rest find its build.  Never raises:
    without a compiler, a writable cache directory or a successful build,
    the caller falls back to the Python evaluator.
    """
    with _BUILD_LOCK:
        try:
            how_built = "\0".join(("", _COMPILER, *_CFLAGS)).encode()
            digest = hashlib.sha256(_PMAP_SOURCE.read_bytes() + how_built).hexdigest()[:16]
            suffix = EXTENSION_SUFFIXES[0]
            target = _cache.path("_pmap", digest, suffix)
            if target.exists():
                how = f"cached {target.name}"
            else:
                t0 = perf_counter()
                _cache.publish("_pmap", digest, _compile, suffix)
                how = f"built {target.name} in {perf_counter() - t0:.2f} s"
            loader = ExtensionFileLoader("hfhash._pmap", str(target))
            module = module_from_spec(spec_from_loader(loader.name, loader))
            loader.exec_module(module)
        except (OSError, ImportError) as exc:
            return None, f"native build unavailable: {exc}"
        return module, how


def _compile(target) -> None:
    """Compile ``_pmap.c`` into the shared library ``target``; a compiler
    that fails or hangs is an OSError.  Its modules are imported here, so
    a start that finds the build cached never loads them."""
    import subprocess
    import sysconfig

    try:
        subprocess.run(
            [_COMPILER, *_CFLAGS, "-I" + sysconfig.get_paths()["include"],
             str(_PMAP_SOURCE), "-o", str(target)],
            check=True, capture_output=True, timeout=120)
    except subprocess.SubprocessError as exc:
        raise OSError(exc) from exc


def _collect_masks(system: PolynomialSystem) -> list[list[int]]:
    """Merge the 32 term-word lists into one 64x64 matrix of 32-bit output
    masks: ``x_i x_j`` (i < j) lands in ``m[i-1][j-1]`` and ``x_i`` in
    ``m[i-1][i-1]``; the constant terms are ``system.constant_word``.
    """
    m = [[0] * NUM_VARS for _ in range(NUM_VARS)]
    for k, terms in enumerate(system.term_words, start=1):
        out_bit = 1 << (SYSTEM_SIZE - k)
        for w in terms:
            i, j = w >> 8, w & 0xFF
            if i:
                m[i - 1][(j or i) - 1] ^= out_bit
    return m


def _lanes(words) -> int:
    """``words`` as one int of 32-bit lanes, which ``to_bytes(4 * len(words),
    sys.byteorder)`` turns back into native uint32 words in order."""
    return int.from_bytes(array("I", words), sys.byteorder)


def _linear(coeffs: list[int]) -> list[int]:
    """The ``2**len(coeffs)`` words whose word b is the XOR of ``coeffs[r]``
    over the set bits r of ``b``, slot 0 being its most significant bit."""
    words = [0]
    for c in reversed(coeffs):
        words += [v ^ c for v in words]
    return words


def _bilinear(block: list[list[int]], base: int = 0) -> list[int]:
    """The rows of the table ``f[a, b]`` of an ``h x w`` mask block, each
    one int of ``2**w`` lanes (see ``_lanes``): ``base`` XOR ``block[s][r]``
    over the set bits s of ``a`` and r of ``b``, slot 0 being a chunk's
    most significant bit.

    Built by doubling over the bits of ``a``, one big-int XOR per row.
    """
    rows = [base]
    for coeffs in reversed(block):
        g = _lanes(_linear(coeffs))
        rows += [f ^ g for f in rows]
    return rows


def _pair_tables(masks: list[list[int]], const: int, widths: tuple[int, ...]) -> memoryview:
    """One flat buffer of native uint32 chunk-pair tables for ``p``, read-only.

    The input is cut into chunks of ``widths`` bits, most significant
    first.  The table of chunk pair (t, u), t < u, is the bilinear form
    of their mask block, indexed by ``chunk_t << widths[u] | chunk_u``;
    the tables follow each other in (t, u) order.
    """
    n = len(widths)
    edges = list(accumulate(widths, initial=0))
    pairs = [(t, u) for t in range(n) for u in range(t + 1, n)]

    def block(t, u):
        return [row[edges[u]:edges[u + 1]] for row in masks[edges[t]:edges[t + 1]]]

    def diagonal(t):
        # word a of row a of the chunk's own bilinear table
        row_bytes = 4 << widths[t]
        table = b"".join(f.to_bytes(row_bytes, sys.byteorder) for f in _bilinear(block(t, t)))
        return memoryview(table).cast("I")[::(1 << widths[t]) + 1].tolist()

    # a chunk's own table (within-chunk pairs and linear terms) is the
    # diagonal of its bilinear table; it folds into a neighbouring pair
    # table, and the constant into the first, so that an evaluation is
    # nothing but the pair lookups
    selfs = [diagonal(t) for t in range(n)]
    buf = bytearray(4 * sum(1 << (widths[t] + widths[u]) for t, u in pairs))
    start = 0
    for t, u in pairs:
        row_bytes = 4 << widths[u]
        ones = _lanes([1] * (1 << widths[u]))  # times a word: that word in every lane
        base = const * ones if start == 0 else 0
        if (t, u) == pairs[-1]:
            base ^= _lanes(selfs[u])
        rows = _bilinear(block(t, u), base)
        if u == t + 1:
            rows = [f ^ s * ones for f, s in zip(rows, selfs[t])]
        for f in rows:
            buf[start:start + row_bytes] = f.to_bytes(row_bytes, sys.byteorder)
            start += row_bytes
    return memoryview(buf).cast("I").toreadonly()


class CompiledSystem:
    """Chunk-pair table evaluator, oracle-equivalent to its source system.

    ``eval_word`` is the native ``_pmap`` method when the extension loads,
    over the 55 tables of its ``CHUNK_WIDTHS`` (778,240 bytes); otherwise
    it is the ``_bind`` closure over 28 byte-pair tables (7.3 MB), which
    only this fallback builds.  ``_tables`` is the one flat buffer the
    chosen evaluator reads.  ``source`` is the system the tables were
    compiled from, so that an oracle of the same map can be built, and
    ``constant_word`` is ``eval_word(0)``, which is ``p``'s constant by
    definition: compiling a system whose tables come from the cache reads
    nothing of its terms.
    Immutable after construction; evaluation is pure, so instances can be
    shared freely across threads.
    """

    def __init__(self, tables: memoryview, eval_word, source: PolynomialSystem):
        self._tables = tables
        self.eval_word = eval_word
        self.source = source
        self.constant_word = eval_word(0)

    @staticmethod
    def _bind(tables):
        """The Python ``eval_word`` over the byte-pair tables, widths ``_BYTE_WIDTHS``."""
        (c01, c02, c03, c04, c05, c06, c07,
         c12, c13, c14, c15, c16, c17,
         c23, c24, c25, c26, c27,
         c34, c35, c36, c37,
         c45, c46, c47,
         c56, c57,
         c67) = (tables[k << 16:(k + 1) << 16] for k in range(28))

        def eval_word(x: int) -> int:
            b = x.to_bytes(8, "big")
            b1 = b[1]; b2 = b[2]; b3 = b[3]; b4 = b[4]; b5 = b[5]; b6 = b[6]; b7 = b[7]
            i0 = b[0] << 8; i1 = b1 << 8; i2 = b2 << 8; i3 = b3 << 8
            i4 = b4 << 8; i5 = b5 << 8; i6 = b6 << 8
            return (c01[i0 | b1] ^ c02[i0 | b2] ^ c03[i0 | b3] ^ c04[i0 | b4]
                    ^ c05[i0 | b5] ^ c06[i0 | b6] ^ c07[i0 | b7]
                    ^ c12[i1 | b2] ^ c13[i1 | b3] ^ c14[i1 | b4] ^ c15[i1 | b5]
                    ^ c16[i1 | b6] ^ c17[i1 | b7]
                    ^ c23[i2 | b3] ^ c24[i2 | b4] ^ c25[i2 | b5] ^ c26[i2 | b6]
                    ^ c27[i2 | b7]
                    ^ c34[i3 | b4] ^ c35[i3 | b5] ^ c36[i3 | b6] ^ c37[i3 | b7]
                    ^ c45[i4 | b5] ^ c46[i4 | b6] ^ c47[i4 | b7]
                    ^ c56[i5 | b6] ^ c57[i5 | b7]
                    ^ c67[i6 | b7])

        return eval_word


def compile_system(system: PolynomialSystem) -> CompiledSystem:
    """Precompute the pair tables of the evaluator that loads, or read
    them from the cache entry keyed by the system's words.  Deterministic
    in the system."""
    pmap, how = _load_pmap()
    widths, bind, kind = (
        (_BYTE_WIDTHS, CompiledSystem._bind, "python closure") if pmap is None else
        (pmap.CHUNK_WIDTHS, lambda t: pmap.Evaluator(t).eval_word, "native _pmap evaluator"))
    tables, note = _cache.cached(
        "tables-" + "_".join(map(str, widths)), system.words,
        lambda: _pair_tables(_collect_masks(system), system.constant_word, widths),
        decode=lambda payload: payload.cast("I"))
    log.debug("eval_word: %s (%s); %s", kind, how, note)
    return CompiledSystem(tables, bind(tables), system)


class TermSumEvaluator:
    """Term-by-term evaluation straight off the term words, on plain ints.

    Each term is one bit of a big int, each polynomial's terms a span of
    whole bytes, and ``_live`` has all the terms' bits.  A variable's int
    marks its terms: a term is satisfied unless one of its variables is
    0, so the constant, with none, always is, and a polynomial's bit is
    the parity of its satisfied terms.  ``_zeros[i][b]`` holds the marks
    of the variables that are 0 where input byte i (x_1 first) is b.
    """

    def __init__(self, system: PolynomialSystem):
        spans = []  # per polynomial: its live bits, then the marks of x_1 .. x_64
        for terms in system.term_words:
            marks = [(1 << len(terms)) - 1] + [0] * NUM_VARS
            for bit, w in enumerate(terms):
                for v in _vars(w):
                    marks[v] |= 1 << bit
            spans.append([m.to_bytes(-(-len(terms) // 8), "little") for m in marks])
        self._live, *marks = (int.from_bytes(b"".join(c), "little") for c in zip(*spans))
        self._spans = list(pairwise(accumulate((len(span[0]) for span in spans), initial=0)))
        self._zeros = [[tuple(marks[8 * i + s] for s in range(8) if not b >> 7 - s & 1)
                        for b in range(256)] for i in range(NUM_VARS // 8)]
        self.constant_word = system.constant_word

    def eval_word(self, x: int) -> int:
        dead = 0
        for zeros, b in zip(self._zeros, x.to_bytes(8, "big")):
            for m in zeros[b]:
                dead |= m
        view = memoryview((self._live & ~dead).to_bytes(self._spans[-1][1], "little"))
        word = 0
        for start, end in self._spans:
            word = word << 1 | int.from_bytes(view[start:end], "little").bit_count() & 1
        return word


def eval_batch_bitsliced(system: PolynomialSystem, inputs: list[int]) -> list[int]:
    """Term-sum evaluation of many inputs at once via bitslicing.

    Transposes the inputs into one big integer per variable, then XORs
    term products across the whole batch in single big-int operations.
    Returns one assembled 32-bit word per input; an input outside
    ``[0, 2**64)`` raises OverflowError, as on the other paths.
    """
    n = len(inputs)
    cols = [0] * NUM_VARS
    for pos, x in enumerate(inputs):
        if not 0 <= x < 1 << NUM_VARS:
            raise OverflowError(f"input {x} outside [0, 2**{NUM_VARS})")
        bit = 1 << pos
        v = NUM_VARS
        while x:
            if x & 1:
                cols[v - 1] |= bit
            x >>= 1
            v -= 1
    ones = (1 << n) - 1

    # a linear term's first and last variable are the same
    streams = []
    for terms in system.term_words:
        acc = 0
        for term in map(_vars, terms):
            acc ^= cols[term[0] - 1] & cols[term[-1] - 1] if term else ones
        streams.append(acc)

    words = []
    for pos in range(n):
        word = 0
        for k in range(SYSTEM_SIZE):
            word |= ((streams[k] >> pos) & 1) << (SYSTEM_SIZE - 1 - k)
        words.append(word)
    return words
