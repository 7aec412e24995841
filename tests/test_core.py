import random
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hfhash import core
from hfhash.core import (
    BLOCK_BYTES,
    CANONICAL_LAYOUT,
    IV,
    ROUND_CONSTANTS,
    TEST_VECTORS,
    Digest,
    Hasher,
    HfParams,
    LayoutConfig,
    LayoutError,
    compress,
    decode_length_field,
    expand,
    hash_bytes,
    pad,
    parse_blocks,
    self_test,
)

from engines import disable_native, native_pmap

# regression pins: this implementation's output under the canonical layout.
# These are NOT the published reference digests; no candidate layout
# reproduces those (see the reconcile module and README).
CANONICAL_DIGESTS = {
    b"": "b3bbe9b3470b091357cc0115d21f1ab90d060f03fba017edbe2f52a3179bf0ac",
    b"a": "36549d60a18cdfeed29aa3fee4953dd333133a41b2ac960b28ad5ec154374c8d",
    b"ab": "5ee6ac8617075ab5183ac44c4acd3d7474b5e55bcd8c1b154d74c31cfcecd06a",
    b"abc": "8c6ad071cd652948bb20a1b054e603aa1bb0f6cefb72ed7ec3f60bc86c6e81b7",
}

MASK32 = 0xFFFFFFFF


class ZeroSystem:
    """Evaluator stub: p(x) = 0 for every input."""

    @staticmethod
    def eval_word(x):
        return 0


class OnesSystem:
    """Evaluator stub: p(x) = 2**32 - 1, the largest word, for every input."""

    @staticmethod
    def eval_word(x):
        return MASK32


def rotl32(x, n):
    return ((x << n) | (x >> (32 - n))) & MASK32


def schedule_words(schedule):
    """`expand`'s 256 bytes read as the list of its 64 native uint32 words."""
    return list(struct.unpack("=64I", schedule))


def round_step(state, w, k, system):
    """The paper's round, transcribed: the spec `compress` is checked against."""
    h0, h1, h2, h3, h4, h5, h6, h7 = state
    t1 = (h1 + h2 + system.eval_word((h3 << 32) | h0) + k) & MASK32
    t2 = (h4 + h5 + system.eval_word((h7 << 32) | h6) + w) & MASK32
    return ((t1 + t2) & MASK32, h0, h1, h2,
            rotl32((h3 + t1) & MASK32, 5), h4, h5, h6)


# --- padding ---------------------------------------------------------------

@pytest.mark.parametrize("size,padded_bits", [
    (0, 448), (1, 448), (47, 448),
    (48, 896), (56, 896),
    (449, 4032), (8192, 65856),
])
def test_padded_length(size, padded_bits):
    assert len(pad(bytes(size))) * 8 == padded_bits


def test_pad_keeps_message_prefix():
    msg = b"fourteen bytes"
    padded = pad(msg)
    assert padded[:len(msg)] == msg
    assert padded[len(msg)] == 0x80
    assert set(padded[len(msg) + 1:-8]) <= {0}


def test_pad_bit_position_follows_layout():
    assert pad(b"")[0] == 0x80
    assert pad(b"", LayoutConfig(pad_bit="lsb"))[0] == 0x01


@pytest.mark.parametrize("layout", [
    LayoutConfig(length_endian=le, length_half_order=ho)
    for le in ("little", "big") for ho in ("low-first", "high-first")
])
@pytest.mark.parametrize("size", [0, 1, 47, 48, 56, 449, 8192])
def test_length_field_round_trips(layout, size):
    padded = pad(bytes(size), layout)
    assert decode_length_field(padded[-8:], layout) == 8 * size


def test_length_field_is_8_bytes():
    for size in (0, 4, 7, 9, 16):
        for layout in (CANONICAL_LAYOUT, LayoutConfig(length_endian="big")):
            with pytest.raises(ValueError, match=f"exactly 8 bytes, got {size}"):
                decode_length_field(bytes(size), layout)


def test_length_encodings_differ():
    tails = {
        (le, ho): pad(b"x", LayoutConfig(length_endian=le,
                                          length_half_order=ho))[-8:]
        for le in ("little", "big") for ho in ("low-first", "high-first")
    }
    assert len(set(tails.values())) == 4


@given(st.binary(max_size=300))
def test_padding_invariants(message):
    padded = pad(message)
    assert len(padded) * 8 % 448 == 0
    assert padded.startswith(message)
    assert decode_length_field(padded[-8:]) == 8 * len(message)


# --- block parsing ---------------------------------------------------------

def test_words_read_little_endian():
    raw = b"abcd" + bytes(52)
    blocks = parse_blocks(raw)
    assert blocks[0][0] == 0x64636261
    assert blocks[0][1] == 0


def in_chunks(message, size):
    return [message[i:i + size] for i in range(0, len(message), size)]


def empty_interleaved(message):
    # uneven cuts, with empty chunks before, between and after them
    cuts = [0, 1, 20, 77, 133, len(message)]
    parts = [b""]
    for lo, hi in zip(cuts, cuts[1:]):
        parts += [message[lo:hi], b""]
    return parts


def test_only_final_block_is_last(params, monkeypatch):
    # the final block of the padded tail is marked, and no other block
    marks = []
    original = core.compress

    def recorded(chain, words, params, is_last=False):
        marks.append(is_last)
        return original(chain, words, params, is_last)

    def expected(message):
        return [False] * (len(pad(message)) // BLOCK_BYTES - 1) + [True]

    monkeypatch.setattr(core, "compress", recorded)
    for message in map(random.Random(1).randbytes, range(169)):
        marks.clear()
        hash_bytes(message, params)
        assert marks == expected(message)
    short = list(map(random.Random(2).randbytes, (0, 55, 56, 57, 112, 200)))
    streamed = [in_chunks(random.Random(3).randbytes((1 << 16) + 100), 1 << 16)]
    streamed += [chunking(m) for m in short for chunking in
                 (lambda m: in_chunks(m, 56), lambda m: in_chunks(m, 1), empty_interleaved)]
    for chunks in streamed:
        marks.clear()
        hasher = Hasher(params)
        for chunk in chunks:
            hasher.update(chunk)
        hasher.finalize()
        assert marks == expected(b"".join(chunks))


def test_parse_rejects_partial_block():
    with pytest.raises(ValueError, match="multiple"):
        parse_blocks(bytes(57))


# --- schedule expansion ----------------------------------------------------

def test_zero_everything_expands_to_zero():
    assert schedule_words(expand((0,) * 14, (0,) * 8)) == [0] * 64


def test_non_last_prefix_layout():
    rng = random.Random(1)
    words = tuple(rng.getrandbits(32) for _ in range(14))
    chain = tuple(rng.getrandbits(32) for _ in range(8))
    w = schedule_words(expand(words, chain))
    assert w[0] == chain[0]
    assert tuple(w[1:15]) == words
    assert w[15] == chain[7]


def test_last_block_prefix_is_shifted():
    rng = random.Random(2)
    words = tuple(rng.getrandbits(32) for _ in range(14))
    chain = tuple(rng.getrandbits(32) for _ in range(8))
    w = schedule_words(expand(words, chain, True))
    assert w[0] == chain[0]
    assert w[1] == chain[7]
    assert tuple(w[2:16]) == words


LITERAL_ERROR = ("literal last-block word map needs message words M_2..M_15, "
                 "but a block carries M_1..M_14")


def test_literal_last_block_map_cannot_run(params):
    with pytest.raises(LayoutError):
        Hasher(replace(params, layout=LayoutConfig(last_block_map="literal")))


def test_unrunnable_layout_is_refused_before_any_block(params, monkeypatch):
    calls = []
    original = core.compress

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, "compress", counting)
    literal = replace(params, layout=LayoutConfig(last_block_map="literal"))
    with pytest.raises(LayoutError) as err:
        hash_bytes(bytes(10_000), literal)
    assert str(err.value) == LITERAL_ERROR
    assert calls == []


def test_recurrence_holds_throughout():
    rng = random.Random(3)
    words = tuple(rng.getrandbits(32) for _ in range(14))
    chain = tuple(rng.getrandbits(32) for _ in range(8))
    w = schedule_words(expand(words, chain))
    for j in range(16, 64):
        assert w[j] == rotl32(w[j - 16] ^ w[j - 14] ^ w[j - 8] ^ w[j - 1], 3)


def test_schedule_difference_ignores_context():
    # the recurrence is linear over GF(2): a one-bit message difference
    # yields the same schedule difference whatever the chain and message
    rng = random.Random(4)
    reference = None
    flip_word, flip_bit = 6, 21
    for _ in range(20):
        words = [rng.getrandbits(32) for _ in range(14)]
        chain = tuple(rng.getrandbits(32) for _ in range(8))
        flipped = list(words)
        flipped[flip_word] ^= 1 << flip_bit
        a = schedule_words(expand(tuple(words), chain))
        b = schedule_words(expand(tuple(flipped), chain))
        diff = tuple(x ^ y for x, y in zip(a, b))
        if reference is None:
            reference = diff
        assert diff == reference


@pytest.mark.parametrize("is_last", [False, True])
def test_rotating_every_input_word_rotates_the_schedule(is_last):
    # XOR and a fixed rotation commute with rotation; `analysis.diffusion`
    # computes one word's 32 flip weights from one expansion on this basis
    rng = random.Random(5)
    for _ in range(100):
        words = tuple(rng.getrandbits(32) for _ in range(14))
        chain = tuple(rng.getrandbits(32) for _ in range(8))
        p = rng.randrange(1, 32)
        w = schedule_words(expand(words, chain, is_last))
        rotated = schedule_words(expand(tuple(rotl32(x, p) for x in words),
                                        tuple(rotl32(x, p) for x in chain), is_last))
        assert len(rotated) == 64
        assert rotated == [rotl32(x, p) for x in w]


@pytest.fixture(params=["native", "python"])
def schedule_engine(request, monkeypatch):
    """`expand` runs on `_pmap.schedule`, or on `core._schedule` with the
    extension disabled."""
    if request.param == "native":
        native_pmap()
    else:
        disable_native(monkeypatch)
    return request.param


@pytest.mark.parametrize("word", [2**32, -1, 2**64], ids=["2**32", "-1", "2**64"])
def test_out_of_range_words_overflow_on_both_engines(schedule_engine, word):
    outside = r"schedule word -?\d+ outside \[0, 2\*\*32\)"
    with pytest.raises(OverflowError, match=outside):
        expand((word,) + (0,) * 13, IV)
    with pytest.raises(OverflowError, match=outside):
        expand((0,) * 14, IV[:7] + (word,), True)


def test_block_needs_14_words(monkeypatch):
    # a 13-word block would fail inside the Python spec with IndexError,
    # a 15-word one would yield 65 words, and a chain of other than 8
    # words has no h7 or an ignored tail, so `expand` checks both counts on
    # either engine
    zero = HfParams(system=ZeroSystem())
    for disabled in (False, True):
        if disabled:
            disable_native(monkeypatch)
        for is_last in (False, True):
            for n in (0, 13, 15, 16):
                with pytest.raises(ValueError, match=f"exactly 14 words, got {n}"):
                    expand((0,) * n, IV, is_last)
            for n in (0, 2, 7, 9):
                with pytest.raises(ValueError, match=f"a chain holds exactly 8 words, got {n}"):
                    expand((0,) * 14, (0,) * n, is_last)
                with pytest.raises(ValueError, match=f"a chain holds exactly 8 words, got {n}"):
                    compress((0,) * n, (0,) * 14, zero, is_last)


words32 = st.one_of(st.sampled_from([0, MASK32]), st.integers(0, MASK32))
outside32 = st.one_of(st.integers(max_value=-1), st.integers(min_value=MASK32 + 1))


def _raised(call, *args):
    """The type and message of the error `call(*args)` raises."""
    try:
        call(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{call.__name__}{args} raised nothing")


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[words32] * 14), st.tuples(*[words32] * 8), st.booleans(),
       st.integers(0, 13), st.sampled_from([1.0, "1", None, b"\0"]), outside32)
def test_native_schedule_matches_python(words, chain, is_last, at, not_int, outside):
    schedule = native_pmap().schedule
    want = core._schedule(words, chain, is_last)
    ints = schedule_words(want)
    h0, h7 = chain[0], chain[7]
    assert len(ints) == 64
    assert ints[:16] == ([h0, h7, *words] if is_last else [h0, *words, h7])
    assert schedule(words, chain, is_last) == want
    # the native schedule declines what is not two tuples of in-range
    # ints and a bool, and `expand` gives the spec's bytes for it
    other_forms = [
        (list(words), list(chain), is_last),
        (tuple(map(np.uint32, words)), chain, is_last),
        (words, tuple(map(np.int64, chain)), is_last),
        (words, chain, int(is_last)),
    ]
    for args in other_forms:
        assert schedule(*args) is None
        assert expand(*args) == want
    # `expand` raises what the spec raises, with the same message
    def put(seq, i, x):
        return seq[:i] + (x,) + seq[i + 1:]

    bad = [
        (put(words, at, not_int), chain), (words, put(chain, 7 * (at % 2), not_int)),
        (None, chain), (words, 5),
        (words[:at], chain), (words + (0,), chain), (words, chain[:at % 8]),
        (words, chain + (0,)),
        (put(words, at, outside), chain), (words, put(chain, 7 * (at % 2), outside)),
    ]
    for args in bad:
        assert schedule(*args, is_last) is None
        got = _raised(expand, *args, is_last)
        assert got == _raised(core._schedule, *args, is_last)
        if got[0] is OverflowError:
            assert got[1] == f"schedule word {outside!r} outside [0, 2**32)"


@pytest.mark.parametrize("engine", ["native", "python"])
@settings(max_examples=200, deadline=None)
@given(st.tuples(*[words32] * 14), st.tuples(*[words32] * 8), st.booleans())
def test_expand_is_the_256_bytes_of_the_native_words(engine, words, chain, is_last):
    with pytest.MonkeyPatch.context() as m:
        if engine == "native":
            native_pmap()
        else:
            disable_native(m)
        w = expand(words, chain, is_last)
    assert type(w) is bytes and len(w) == 256
    assert w == core._schedule(words, chain, is_last)
    ints = schedule_words(w)
    for j in range(16, 64):
        assert ints[j] == rotl32(ints[j - 16] ^ ints[j - 14] ^ ints[j - 8] ^ ints[j - 1], 3)
    # `analysis.diffusion` weighs a schedule as one int
    for r in (32, 48, 64):
        assert (int.from_bytes(w[:4 * r], "little").bit_count()
                == sum(x.bit_count() for x in ints[:r]))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[words32] * 14), st.tuples(*[words32] * 8), st.booleans())
def test_expand_is_the_same_with_the_extension_disabled(words, chain, is_last):
    native_pmap()
    native = expand(words, chain, is_last)
    with pytest.MonkeyPatch.context() as m:
        disable_native(m)
        assert expand(words, chain, is_last) == native


# --- round function ---------------------------------------------------------

def test_round_on_zero_system_keeps_zero_state():
    state = (0,) * 8
    assert round_step(state, 0, 0, ZeroSystem()) == state


def test_round_constant_injection():
    # k=1 feeds T1=1; H0 picks up T1+T2 and H4 the 5-bit rotation of T1
    out = round_step((0,) * 8, 0, 1, ZeroSystem())
    assert out == (1, 0, 0, 0, 0x20, 0, 0, 0)


def test_round_shifts_state_rightward():
    state = (11, 22, 33, 44, 55, 66, 77, 88)
    out = round_step(state, 0, 0, ZeroSystem())
    assert out[1:4] == (11, 22, 33)
    assert out[5:] == (55, 66, 77)


def test_round_matches_hand_stepped_trace(system, compiled):
    # first round from the initial chaining value with w = IV word 0;
    # p evaluated through the term-by-term oracle, arithmetic done inline
    h = IV
    t1 = (h[1] + h[2] + system.eval_reference((h[3] << 32) | h[0])
          + ROUND_CONSTANTS[0]) & MASK32
    t2 = (h[4] + h[5] + system.eval_reference((h[7] << 32) | h[6])
          + IV[0]) & MASK32
    expected = ((t1 + t2) & MASK32, h[0], h[1], h[2],
                rotl32((h[3] + t1) & MASK32, 5), h[4], h[5], h[6])
    assert round_step(IV, IV[0], ROUND_CONSTANTS[0], compiled) == expected
    # same state frozen as literals, guarding oracle and production alike
    assert expected == (0x58DDF40D, 0x243F6A88, 0x85A308D3, 0x13198A2E,
                        0xDA94E784, 0xA4093822, 0x299F31D0, 0x082EFA98)


@pytest.mark.parametrize("rounds", [32, 48, 64])
@pytest.mark.parametrize("is_last", [False, True])
def test_compress_is_the_spec_rounds(params, rounds, is_last):
    rng = random.Random(rounds + is_last)
    cases = [(params.system, tuple(rng.getrandbits(32) for _ in range(8)),
              tuple(rng.getrandbits(32) for _ in range(14))) for _ in range(3)]
    # all-ones p, chain and message make every unreduced sum of the round
    # as large as it gets, so each carry past bit 31 must be dropped
    cases.append((OnesSystem(), (MASK32,) * 8, (MASK32,) * 14))
    for system, chain, words in cases:
        p = HfParams(system=system, rounds=rounds)
        state = chain
        for w, k in zip(schedule_words(expand(words, chain, is_last))[:rounds],
                        ROUND_CONSTANTS):
            state = round_step(state, w, k, system)
        out = compress(chain, words, p, is_last)
        assert out == state
        assert all(0 <= h <= MASK32 for h in out)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chain=st.tuples(*[st.integers(0, MASK32)] * 8),
       words=st.tuples(*[st.integers(0, MASK32)] * 14), is_last=st.booleans())
def test_rounds_runs_every_prefix_of_the_schedule(engine_params, chain, words, is_last):
    system = engine_params.system
    w = schedule_words(expand(words, chain, is_last))
    assert core._rounds(chain, [], system.eval_word) == chain
    state = chain
    for r, k in enumerate(ROUND_CONSTANTS, start=1):
        state = round_step(state, w[r - 1], k, system)
        assert core._rounds(chain, w[:r], system.eval_word) == state
    with pytest.raises(ValueError, match="got 65"):
        core._rounds(chain, w + [0], system.eval_word)


# --- compression and hashing -------------------------------------------------

def test_two_block_hash_composes(params):
    message = bytes(range(64))
    padded = pad(message)
    blocks = parse_blocks(padded)
    assert len(blocks) == 2
    chain = compress(IV, blocks[0], params)
    chain = compress(chain, blocks[1], params, True)
    assert Digest(words=chain) == hash_bytes(message, params)


def test_hash_is_deterministic(params):
    assert hash_bytes(b"determinism", params) == hash_bytes(b"determinism", params)


def test_round_count_changes_digest(params):
    msg = b"round count"
    assert hash_bytes(msg, replace(params, rounds=32)) != hash_bytes(msg, params)
    assert hash_bytes(msg, replace(params, rounds=48)) != hash_bytes(msg, params)


def test_canonical_digests_frozen(params):
    for message, expected in CANONICAL_DIGESTS.items():
        assert hash_bytes(message, params).hex() == expected


def test_digest_formatting(params):
    digest = hash_bytes(b"abc", params)
    plain = digest.hex()
    assert len(plain) == 64
    assert plain == CANONICAL_DIGESTS[b"abc"]
    assert digest.formatted(upper=True) == plain.upper()
    grouped = digest.formatted(grouped=True)
    assert grouped.split(" ") == [plain[i:i + 8] for i in range(0, 64, 8)]
    assert str(digest) == plain
    assert digest.to_bytes() == bytes.fromhex(plain)
    assert digest.to_bytes() == struct.pack(">8I", *digest.words)


def test_params_validation(compiled):
    with pytest.raises(ValueError, match="rounds"):
        HfParams(system=compiled, rounds=33)
    # a layout of another type would fail only at the first hash
    for layout, name in (("shifted", "str"), (None, "NoneType"), ({}, "dict")):
        with pytest.raises(TypeError, match=f"layout must be a LayoutConfig, got {name}"):
            HfParams(system=compiled, layout=layout)


@pytest.mark.parametrize("rounds", [64.0, 48.0], ids=repr)
def test_params_reject_non_integer_rounds(compiled, rounds):
    # 64.0 == 64, but a float round count cannot slice the schedule
    with pytest.raises(ValueError, match=r"rounds must be one of \(32, 48, 64\)"):
        HfParams(system=compiled, rounds=rounds)


def test_params_accept_numpy_integer_rounds(params):
    numpy_rounds = HfParams(system=params.system, rounds=np.int64(48))
    assert hash_bytes(b"abc", numpy_rounds) == hash_bytes(b"abc", replace(params, rounds=48))


def test_layout_validation():
    with pytest.raises(ValueError, match="length_endian"):
        LayoutConfig(length_endian="middle")
    with pytest.raises(ValueError, match="pad_bit"):
        LayoutConfig(pad_bit="both")


def test_canonical_layout_is_documented_default():
    assert CANONICAL_LAYOUT == LayoutConfig(
        length_endian="little", length_half_order="low-first",
        last_block_map="shifted", pad_bit="msb")


# --- self test ----------------------------------------------------------------

def test_self_test_reports_honest_mismatch(params):
    # the published reference digests are not reproduced by any candidate
    # layout, so the self test must say so rather than pass vacuously
    report = self_test(params)
    assert len(report.checks) == len(TEST_VECTORS)
    assert report.passed == 0
    assert not report.all_ok
    assert "0/3 vectors pass" in report.format_text()
    assert {c.actual for c in report.checks} == {
        CANONICAL_DIGESTS[b"a"], CANONICAL_DIGESTS[b"ab"],
        CANONICAL_DIGESTS[b"abc"]}


def test_self_test_flipped_endianness_also_mismatches(params):
    report = self_test(replace(params, layout=LayoutConfig(length_endian="big")))
    assert report.passed == 0


def test_self_test_raises_on_a_layout_that_cannot_run(params):
    literal = replace(params, layout=LayoutConfig(last_block_map="literal"))
    with pytest.raises(LayoutError) as err:
        self_test(literal)
    assert str(err.value) == LITERAL_ERROR


def test_self_test_dict_shape(params):
    d = self_test(params).to_dict()
    assert d["total"] == 3
    assert d["passed"] == 0
    assert all(set(c) == {"message", "expected", "actual", "ok"}
               for c in d["checks"])
