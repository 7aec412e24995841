import random

import pytest
from hypothesis import given, settings, strategies as st

from hfhash.core import Hasher, hash_bytes


def _chunked(message, cuts):
    parts = []
    prev = 0
    for cut in sorted(cuts):
        parts.append(message[prev:cut])
        prev = cut
    parts.append(message[prev:])
    return parts


def test_one_shot_equals_streaming(params):
    hasher = Hasher(params)
    hasher.update(b"a").update(b"bc")
    assert hasher.finalize() == hash_bytes(b"abc", params)


def test_empty_updates_are_no_ops(params):
    hasher = Hasher(params)
    for _ in range(5):
        hasher.update(b"")
    assert hasher.finalize() == hash_bytes(b"", params)


def test_update_after_finalize_rejected(params):
    hasher = Hasher(params)
    hasher.update(b"x")
    hasher.finalize()
    with pytest.raises(ValueError, match="finalize"):
        hasher.update(b"y")
    with pytest.raises(ValueError, match="finalized"):
        hasher.finalize()


def test_block_boundary_chunks(params):
    # 56-byte chunks land exactly on block boundaries; the final padded
    # block must still be the only one treated as last
    message = bytes(range(256)) * 2
    hasher = Hasher(params)
    for i in range(0, len(message), 56):
        hasher.update(message[i:i + 56])
    assert hasher.finalize() == hash_bytes(message, params)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chunking_never_changes_digest(params, data):
    message = data.draw(st.binary(max_size=200))
    cuts = data.draw(st.lists(
        st.integers(0, len(message)), max_size=6))
    hasher = Hasher(params)
    for part in _chunked(message, cuts):
        hasher.update(part)
    assert hasher.finalize() == hash_bytes(message, params)


def test_many_random_chunkings(params):
    rng = random.Random(99)
    for _ in range(20):
        size = rng.randrange(0, 180)
        message = rng.randbytes(size)
        want = hash_bytes(message, params)
        for _ in range(3):
            cuts = sorted(rng.randrange(0, size + 1)
                          for _ in range(rng.randrange(0, 5)))
            hasher = Hasher(params)
            for part in _chunked(message, cuts):
                hasher.update(part)
            assert hasher.finalize() == want


def test_str_input_rejected(params):
    with pytest.raises(TypeError, match="bytes-like"):
        hash_bytes("abc", params)
    with pytest.raises(TypeError, match="bytes-like"):
        Hasher(params).update("abc")


def test_bytes_like_inputs_agree(params):
    message = bytes(range(130))
    want = hash_bytes(message, params)
    assert hash_bytes(bytearray(message), params) == want
    assert hash_bytes(memoryview(message), params) == want
    hasher = Hasher(params)
    hasher.update(memoryview(message)[:60]).update(bytearray(message[60:]))
    assert hasher.finalize() == want


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "memoryview"])
def test_a_hasher_keeps_no_reference_to_the_callers_buffer(params, wrap):
    message = bytes(range(130))
    held = wrap(message[:60])       # one whole block and 4 bytes of the next
    hasher = Hasher(params).update(held)
    held[:] = bytes(60)
    hasher.update(message[60:])
    assert hasher.finalize() == hash_bytes(message, params)


def test_hashlib_attributes(params):
    hasher = Hasher(params)
    assert (hasher.name, hasher.digest_size, hasher.block_size) == ("hfhash", 32, 56)


def test_copy_and_original_diverge(params):
    original = Hasher(params).update(bytes(range(70)))
    copied = original.copy()
    original.update(b"left")
    copied.update(b"right")
    assert original.finalize() == hash_bytes(bytes(range(70)) + b"left", params)
    assert copied.finalize() == hash_bytes(bytes(range(70)) + b"right", params)


def test_digest_leaves_the_hasher_open(params):
    message = bytes(range(100))
    hasher = Hasher(params).update(message)
    want = hasher.copy().finalize().to_bytes()
    assert hasher.digest() == want
    assert hasher.digest() == want
    assert hasher.hexdigest() == want.hex()
    hasher.update(b"more")
    assert hasher.finalize() == hash_bytes(message + b"more", params)


def test_a_copy_of_a_finalized_hasher_is_finalized(params):
    hasher = Hasher(params)
    hasher.finalize()
    copied = hasher.copy()
    with pytest.raises(ValueError, match="finalize"):
        copied.update(b"y")
    with pytest.raises(ValueError, match="finalized"):
        copied.digest()
