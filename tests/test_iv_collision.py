"""A collision of 17-round HF-hash from the fixed IV.

The two 56-byte messages differ in the top bit of their seventh word,
which the first block's schedule puts at W_7, and in their ninth to
fourteenth words, W_9..W_14, which cancel that difference: it enters
the state in round 7 and is gone after round 14, so the states after
15, 16 and 17 rounds are equal, and the padding block, the same for
both, keeps them equal.  W_17 reads W_9, so the eighteenth round lets
a difference back in.  The two conditions on p that absorb it are
linear over GF(2) for a top-bit difference.  It reaches 17 of 64
rounds; `HfParams` allows 32, 48 and 64, where the digests differ.
"""

from dataclasses import replace

import pytest

from hfhash.core import IV, Digest, _rounds, expand, hash_bytes, pad, parse_blocks
from hfhash.evaluator import TermSumEvaluator
from test_core import schedule_words

M = bytes.fromhex("6a21e5e8 12175688 35d497fb c0243610 9e656acf 0641169a 6c64b6a5 "
                  "29439f25 d9d4654f aaa28fe2 fb40d6ba b2c8e012 1c441ae6 14a7b8d9")
M_PRIME = bytes.fromhex("6a21e5e8 12175688 35d497fb c0243610 9e656acf 0641169a 6c64b625 "
                        "29439f25 d9d465cf baa28f62 fb40d63a 7d6509fa ca3f44d9 716a6adc")
DIGEST_17 = "24f4aa9b2cbb8aede58de0e0ad9309b067b02013164fff1f71ba700f8137b0b4"


def reduced_digest(message, rounds, eval_word):
    """The digest of `message` with each block cut to its first `rounds` rounds."""
    blocks = parse_blocks(pad(message))
    chain = IV
    for k, block in enumerate(blocks):
        schedule = schedule_words(expand(block, chain, k == len(blocks) - 1))
        chain = _rounds(chain, schedule[:rounds], eval_word)
    return Digest(words=chain).hex()


@pytest.fixture(params=["engine", "term-sum"])
def eval_word(request, engine_params, system):
    """Each engine's `eval_word`, and the term-sum oracle beside each
    (a few milliseconds here)."""
    if request.param == "engine":
        return engine_params.system.eval_word
    return TermSumEvaluator(system).eval_word


def test_the_pair_collides_at_17_rounds(eval_word):
    assert len(M) == len(M_PRIME) == 56
    assert reduced_digest(M, 17, eval_word) == reduced_digest(M_PRIME, 17, eval_word) == DIGEST_17


def test_the_local_collision_spans_rounds_8_to_14(eval_word):
    first, first_prime = parse_blocks(pad(M))[0], parse_blocks(pad(M_PRIME))[0]
    w, w_prime = schedule_words(expand(first, IV)), schedule_words(expand(first_prime, IV))
    after = {r: (_rounds(IV, w[:r], eval_word), _rounds(IV, w_prime[:r], eval_word))
             for r in range(8, 19)}
    assert all(a != b for a, b in (after[r] for r in range(8, 15)))
    assert all(a == b for a, b in (after[r] for r in (15, 16, 17)))
    a, b = after[18]
    assert [x ^ y for x, y in zip(a, b)] == [0x1C, 0, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("rounds", [32, 48, 64])
def test_the_pair_does_not_collide_at_allowed_rounds(engine_params, rounds):
    params = replace(engine_params, rounds=rounds)
    digest = hash_bytes(M, params).hex()
    # the reduced-round helper is the hash at an allowed count
    assert reduced_digest(M, rounds, params.system.eval_word) == digest
    assert hash_bytes(M_PRIME, params).hex() != digest
