"""The HF-hash function: a 256-bit iterated hash over 448-bit blocks.

One compression step expands a 14-word message block (plus two chaining
words) into a 64-word schedule with a rotate-XOR recurrence, then runs
64 rounds, each injecting the 64->32 bit polynomial map twice.  There is
no feed-forward: the state after the last round IS the next chaining
value.

Encoding choices the original description leaves open (byte order of
the length field, order of its two halves, the last-block word mapping,
and where the padding 1-bit lands inside its byte) are captured in
``LayoutConfig``; ``CANONICAL_LAYOUT`` is the frozen default.  See
``reconcile`` for the sweep over all candidate layouts.
"""

from __future__ import annotations

import copy
import numbers
import operator
import struct
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

from . import evaluator
from .evaluator import compile_system
from .system import load_default_system

MASK32 = 0xFFFFFFFF
BLOCK_BYTES = 56
WORDS_PER_BLOCK = 14
_BLOCK = struct.Struct("<14I")     # one block: 14 little-endian words
SCHEDULE_LEN = 64
VALID_ROUNDS = (32, 48, 64)
# the native uint32 words a round count consumes, from a schedule's front
_ROUND_WORDS = {rounds: struct.Struct(f"={rounds}I") for rounds in VALID_ROUNDS}

# allowed values of each LayoutConfig field, in field order
LAYOUT_CHOICES = {
    "length_endian": ("little", "big"),
    "length_half_order": ("low-first", "high-first"),
    "last_block_map": ("shifted", "literal"),
    "pad_bit": ("msb", "lsb"),
}

# initial chaining value: first 256 fractional bits of pi
IV = (
    0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344,
    0xA4093822, 0x299F31D0, 0x082EFA98, 0xEC4E6C89,
)

# the 64 round constants
ROUND_CONSTANTS = (
    0xAC211BEC, 0x5FEFE110, 0x112276F8, 0x8AE122A4,
    0x18B3488B, 0x00921A36, 0x40C045F8, 0xC8C0A3DA,
    0xC4ABF676, 0x6A68C750, 0xA37AFE0F, 0x732806F3,
    0x25722CB7, 0x3FF43825, 0xACDF96D7, 0x9B53BCD3,
    0xE34950DE, 0xD9780CCB, 0x8B5F9BB7, 0x3D1182ED,
    0x1921B44A, 0x7003F30D, 0x42657E31, 0x231E7B55,
    0x91E3A28E, 0x95CD4AB0, 0x0A0AC2E3, 0xFCDEBE5E,
    0xFCF1E321, 0x1D136560, 0x2974BF63, 0x70963992,
    0x4F5B5107, 0x0072C0C1, 0xC99F3C1D, 0xC56598D9,
    0x77A1D027, 0x36675FB6, 0xA40C34E8, 0x46764EAD,
    0xF8823861, 0x19F66E64, 0x87E10299, 0x4311C8C2,
    0x07C102B9, 0x9F4EC8CE, 0x29D81EBA, 0x992744F9,
    0x4CDA6790, 0x13DA5357, 0xBA6D7772, 0x80673F08,
    0xB049EE4C, 0x839F8647, 0x736F658B, 0xEBE90F9B,
    0xFA6DC4D1, 0xE951630E, 0xAFC453E4, 0x159B7483,
    0x45EABF9D, 0x4292A60E, 0x17AA0ABD, 0x94E81C30,
)

# reference digests for the inputs "a", "ab", "abc"
TEST_VECTORS = (
    (b"a", "04eaf5f6b215d974b827fcc25eca45c3031524e8472617d1c14d9c856acd1dc3"),
    (b"ab", "f2dd83c834e96291e39040b9bcd3e624ba01846e0d5e5083492dc4bfc0720235"),
    (b"abc", "e9582019216033aa346e8d4611d131a7d0635a5e92d5b13d2dc481b8836774b6"),
)


class LayoutError(ValueError):
    """A layout choice that cannot be executed (not merely non-canonical)."""


@dataclass(frozen=True)
class LayoutConfig:
    """Resolutions of the under-specified encoding details.

    length_endian     byte order inside each 32-bit half of the length field
    length_half_order which 32-bit half of the bit length comes first
    last_block_map    where the 14 message words land in the last block's
                      schedule: "shifted" puts them at W_2..W_15; "literal"
                      would need a fifteenth message word and cannot run
    pad_bit           position of the appended 1-bit inside its byte
    """

    length_endian: str = "little"
    length_half_order: str = "low-first"
    last_block_map: str = "shifted"
    pad_bit: str = "msb"

    def __post_init__(self):
        for name, allowed in LAYOUT_CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")

    def describe(self) -> str:
        return (f"length_endian={self.length_endian} half_order={self.length_half_order} "
                f"last_block_map={self.last_block_map} pad_bit={self.pad_bit}")


# frozen by the layout sweep in `reconcile`; see README for the sweep output
CANONICAL_LAYOUT = LayoutConfig()


@dataclass(frozen=True)
class HfParams:
    """Everything a hash computation depends on.

    `system` is any evaluator exposing ``eval_word(x: int) -> int`` for
    64-bit inputs (CompiledSystem or TermSumEvaluator).  Instances are
    immutable and shareable.
    """

    system: object
    rounds: int = 64
    layout: LayoutConfig = field(default_factory=lambda: CANONICAL_LAYOUT)

    def __post_init__(self):
        object.__setattr__(self, "rounds", check_rounds(self.rounds))
        if not isinstance(self.layout, LayoutConfig):
            raise TypeError(f"layout must be a LayoutConfig, got {type(self.layout).__name__}")


def check_rounds(rounds) -> int:
    """The round count as a plain int; one outside VALID_ROUNDS raises
    ValueError, and 64.0 is not an integer."""
    if not isinstance(rounds, numbers.Integral) or rounds not in VALID_ROUNDS:
        raise ValueError(f"rounds must be one of {VALID_ROUNDS}")
    return operator.index(rounds)


@lru_cache(maxsize=None)
def default_params() -> HfParams:
    """Canonical parameters with the shipped, compiled polynomial system."""
    return HfParams(system=compile_system(load_default_system()))


@dataclass(frozen=True)
class Digest:
    """The 256-bit result, eight 32-bit words rendered MSB-first."""

    words: tuple[int, ...]

    def hex(self) -> str:
        return "".join(f"{w:08x}" for w in self.words)

    def formatted(self, upper: bool = False, grouped: bool = False) -> str:
        text = self.hex()
        if upper:
            text = text.upper()
        if grouped:
            text = " ".join(text[i:i + 8] for i in range(0, 64, 8))
        return text

    def to_bytes(self) -> bytes:
        return struct.pack(">8I", *self.words)

    def __str__(self) -> str:
        return self.hex()


def _encode_length(bits: int, layout: LayoutConfig) -> bytes:
    fmt = "<I" if layout.length_endian == "little" else ">I"
    halves = (bits & MASK32, bits >> 32)
    if layout.length_half_order == "high-first":
        halves = (halves[1], halves[0])
    return struct.pack(fmt, halves[0]) + struct.pack(fmt, halves[1])


def decode_length_field(data: bytes, layout: LayoutConfig = CANONICAL_LAYOUT) -> int:
    """Inverse of the length encoding; `data` is the final 8 padded bytes,
    and a field of any other length raises ValueError."""
    if len(data) != 8:
        raise ValueError(f"a length field holds exactly 8 bytes, got {len(data)}")
    fmt = "<I" if layout.length_endian == "little" else ">I"
    first, second = struct.unpack(fmt, data[:4])[0], struct.unpack(fmt, data[4:])[0]
    lo, hi = (first, second) if layout.length_half_order == "low-first" else (second, first)
    return (hi << 32) | lo


def pad(message, layout: LayoutConfig = CANONICAL_LAYOUT) -> bytes:
    """Append the 1-bit, k zero bits and the 64-bit length to the bytes
    of a bytes-like message; ``str`` raises TypeError.

    k is the least nonnegative solution of k + l = 383 (mod 448); for
    byte-aligned messages k = 7 (mod 8), so the appended bits always
    form whole bytes and the result length is a multiple of 56 bytes.
    """
    view = memoryview(message).cast("B")
    return bytes(view) + _pad_tail(8 * len(view), layout)


def _pad_tail(bit_length: int, layout: LayoutConfig) -> bytes:
    if bit_length >= 1 << 64:
        raise ValueError("message length must be below 2**64 bits")
    k = (383 - bit_length) % 448
    marker = 0x80 if layout.pad_bit == "msb" else 0x01
    return bytes([marker]) + b"\x00" * ((k - 7) // 8) + _encode_length(bit_length, layout)


def parse_blocks(padded: bytes) -> list[tuple[int, ...]]:
    """Split padded bytes into blocks; the checked list form of `_read_blocks`."""
    if len(padded) % BLOCK_BYTES:
        raise ValueError(f"padded length {len(padded)} is not a multiple of {BLOCK_BYTES} bytes")
    return list(_read_blocks(padded))


def _read_blocks(data):
    """Lazily read the whole 56-byte blocks of `data`, each as the tuple
    of its 14 little-endian words, through a view; a partial tail is
    left unread."""
    view = memoryview(data)
    return _BLOCK.iter_unpack(view[:len(view) - len(view) % BLOCK_BYTES])


def expand(words: tuple[int, ...], chain: tuple[int, ...], is_last: bool = False) -> bytes:
    """Build the 64-word schedule for the 14 message words of one block,
    as the 256 bytes of its 64 native uint32 words.  A caller reads the
    words it needs from them in one step, as `compress` does with one
    ``struct`` unpack and `analysis.diffusion` with one bit count.

    The schedule runs in the native ``_pmap.schedule`` when the extension
    loads (looked up on every call, so a test that disables it runs
    Python) and the input is what every caller in the package passes: a
    tuple of 14 ints and a tuple of 8, each in ``[0, 2**32)``, and a
    bool.  It returns None for anything else, and then, as where the
    extension cannot be built, `_schedule` runs: the spec, which says how
    the prefix is laid out, what a block and a chain are and what a bad
    one raises.  So both engines give the same 256 bytes and raise the
    same errors, and a list or numpy ints run at Python speed.  The
    recurrence is XOR and one fixed rotation, so rotating every input
    word by p rotates every schedule word by p; `analysis.diffusion`
    relies on that.
    """
    pmap = evaluator._load_pmap()[0]
    w = None if pmap is None else pmap.schedule(words, chain, is_last)
    return _schedule(words, chain, is_last) if w is None else w


def _schedule(words: tuple[int, ...], chain: tuple[int, ...], is_last: bool) -> bytes:
    """The 64 schedule words of one block, in Python, as the same 256
    bytes of native uint32 words that ``_pmap.schedule`` returns and
    `expand` hands out; the one place that checks a block and a chain.

    Ordinary blocks interleave the chain as W_0 and W_15 around the
    message words; the final padded block (`is_last`) moves both chain
    words to the front so the encoded message length stays at the very
    end of the 16-word prefix.  That is the "shifted" last-block map,
    the only one that runs; `Hasher` refuses the "literal" one before
    any block.  Then W_j = rotl3(W_{j-16} ^ W_{j-14} ^ W_{j-8} ^ W_{j-1}).

    A block of other than 14 words, or a chain of other than 8, raises
    ValueError.  Only h0 and h7 of the chain are read; they and then the
    message words must be ints in ``[0, 2**32)``: TypeError for one that
    is not an int, OverflowError for one outside the range.
    """
    try:
        words, chain = tuple(words), tuple(chain)
    except TypeError:
        raise TypeError("schedule() takes sequences of ints") from None
    if len(words) != WORDS_PER_BLOCK:
        raise ValueError(f"a block holds exactly {WORDS_PER_BLOCK} words, got {len(words)}")
    if len(chain) != len(IV):
        raise ValueError(f"a chain holds exactly {len(IV)} words, got {len(chain)}")
    h0, h7, *m = map(_schedule_word, (chain[0], chain[7], *words))
    w = [h0, h7, *m] if is_last else [h0, *m, h7]
    for j in range(16, SCHEDULE_LEN):
        x = w[j - 16] ^ w[j - 14] ^ w[j - 8] ^ w[j - 1]
        w.append(((x << 3) | (x >> 29)) & MASK32)
    return array("I", w).tobytes()


def _schedule_word(x) -> int:
    v = operator.index(x)
    if not 0 <= v <= MASK32:
        raise OverflowError(f"schedule word {x!r} outside [0, 2**32)")
    return v


def compress(chain: tuple[int, ...], words: tuple[int, ...], params: HfParams,
             is_last: bool = False) -> tuple[int, ...]:
    """Expand the 14 words of one block, the final padded block if
    `is_last`, and fold them into the chaining value (no feed-forward):
    `_rounds` runs one round per schedule word of the round count, which
    become ints in one precompiled ``struct`` unpack of the front of
    `expand`'s bytes.
    """
    w = _ROUND_WORDS[params.rounds].unpack_from(expand(words, chain, is_last))
    return _rounds(chain, w, params.system.eval_word)


def _rounds(chain: tuple[int, ...], round_words, eval_word) -> tuple[int, ...]:
    """The state after one round per word of `round_words`, from `chain`:
    round j pairs W_j with K_j.  It takes 0 to 64 words, so it also runs
    the reduced rounds that `HfParams` does not allow; more than 64 is a
    ValueError, where the 64 constants would cut them off.

    Round j, all sums mod 2**32:
        T1 = H1 + H2 + p(H3 || H0) + K_j
        T2 = H4 + H5 + p(H7 || H6) + W_j
        (H0..H7) <- (T1 + T2, H0, H1, H2, (H3 + T1) <<< 5, H4, H5, H6)
    """
    if len(round_words) > SCHEDULE_LEN:
        raise ValueError(f"at most {SCHEDULE_LEN} round words, got {len(round_words)}")
    h0, h1, h2, h3, h4, h5, h6, h7 = chain
    for wj, kj in zip(round_words, ROUND_CONSTANTS):
        # T1 and T2 stay unreduced: every later use of them is taken mod
        # 2**32, so only the two new words are reduced.  The state shifts
        # three words at a time, which CPython does without a tuple.
        t1 = h1 + h2 + eval_word((h3 << 32) | h0) + kj
        t2 = h4 + h5 + eval_word((h7 << 32) | h6) + wj
        x = (h3 + t1) & MASK32
        h1, h2, h3 = h0, h1, h2
        h5, h6, h7 = h4, h5, h6
        h0 = (t1 + t2) & MASK32
        h4 = ((x << 5) | (x >> 27)) & MASK32
    return (h0, h1, h2, h3, h4, h5, h6, h7)


def hash_bytes(message, params: HfParams | None = None) -> Digest:
    """One-shot digest of a bytes-like message; ``str`` raises TypeError."""
    return Hasher(params).update(message).finalize()


class Hasher:
    """Streaming interface and the one block loop; `hash_bytes` runs on it.

    Any chunking of a message yields the digest of the whole message.
    Like a hashlib object, it can be copied, and `digest` and
    `hexdigest` leave it open to updates; `finalize` closes it.  A
    layout that cannot run raises `LayoutError` here, before any block.
    """

    name = "hfhash"
    digest_size = 32
    block_size = BLOCK_BYTES

    def __init__(self, params: HfParams | None = None):
        self.params = params if params is not None else default_params()
        if self.params.layout.last_block_map == "literal":
            raise LayoutError(
                "literal last-block word map needs message words M_2..M_15, "
                "but a block carries M_1..M_14")
        self._chain = IV
        self._total_bits = 0
        self._tail = b""        # the bytes after the last whole block; None once finalized

    def copy(self) -> "Hasher":
        """An independent hasher in the same state; no part of the state
        changes in place, so a shallow copy is one."""
        return copy.copy(self)

    def _absorb(self, chain, blocks) -> tuple[int, ...]:
        params = self.params
        for words in blocks:
            chain = compress(chain, words, params)
        return chain

    def update(self, data) -> "Hasher":
        """Absorb a bytes-like chunk; ``str`` raises TypeError."""
        if self._tail is None:
            raise ValueError("update after finalize")
        view = memoryview(data).cast("B")
        self._total_bits += 8 * len(view)
        data = self._tail + view
        self._chain = self._absorb(self._chain, _read_blocks(data))
        self._tail = data[len(data) - len(data) % BLOCK_BYTES:]
        return self

    def _digest(self) -> Digest:
        """The digest of what was absorbed; the state is left as it is.
        The final block of the padded tail is the one last block."""
        if self._tail is None:
            raise ValueError("hasher already finalized")
        *blocks, last = parse_blocks(self._tail + _pad_tail(self._total_bits, self.params.layout))
        return Digest(words=compress(self._absorb(self._chain, blocks), last, self.params, True))

    def digest(self) -> bytes:
        return self._digest().to_bytes()

    def hexdigest(self) -> str:
        return self._digest().hex()

    def finalize(self) -> Digest:
        digest = self._digest()
        self._tail = None
        return digest


@dataclass(frozen=True)
class VectorCheck:
    message: bytes
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class SelfTestReport:
    checks: tuple[VectorCheck, ...]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def all_ok(self) -> bool:
        return self.passed == len(self.checks)

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "MISMATCH"
            lines.append(f"{c.message.decode('ascii')!r}: {status}")
            if not c.ok:
                lines.append(f"  expected {c.expected}")
                lines.append(f"  actual   {c.actual}")
        lines.append(f"{self.passed}/{len(self.checks)} vectors pass")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "checks": [
                {"message": c.message.decode("ascii"), "expected": c.expected,
                 "actual": c.actual, "ok": c.ok}
                for c in self.checks
            ],
            "passed": self.passed,
            "total": len(self.checks),
        }


def self_test(params: HfParams | None = None) -> SelfTestReport:
    """Recompute the reference digests, the one check of them; a mismatch
    is a report entry, and a layout that cannot run raises `LayoutError`."""
    return SelfTestReport(checks=tuple(
        VectorCheck(message=m, expected=e, actual=hash_bytes(m, params).hex())
        for m, e in TEST_VECTORS))

