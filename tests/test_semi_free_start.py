"""A semi-free-start collision of the compression function.

The chaining values ``C`` and ``C_PRIME`` share h0, h1, h4, h5 and h7
and differ in h2, h3 and h6, and ``compress`` maps them to the same
output for every block, at 32, 48 and 64 rounds.  The schedule reads
only h0 and h7, so both get the same 64 schedule words.  A round keeps
six old words and forgets old h3 and h7 except through h3 + T1 and
T1 + T2, so the two states, different after round 0, are equal after
round 1, and with no feed-forward every later round keeps them equal.
This is not a collision of the hash: it needs a chosen chaining value,
and none is known for the IV.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hfhash.core import MASK32, _rounds, compress, expand
from hfhash.evaluator import TermSumEvaluator
from test_core import schedule_words

C = (0xFC046219, 0xB17BA776, 0x2128174D, 0x000559C3,
     0xB7F34A69, 0x91B7584A, 0x000151F9, 0x0026BA4B)
C_PRIME = (0xFC046219, 0xB17BA776, 0x2B20ED94, 0x000DF8B7,
           0xB7F34A69, 0x91B7584A, 0x0002582F, 0x0026BA4B)

BLOCKS = [tuple(random.Random(seed).getrandbits(32) for _ in range(14)) for seed in range(3)]

words = st.integers(0, MASK32)
blocks = st.tuples(*[words] * 14)


@pytest.mark.parametrize("rounds", [32, 48, 64])
def test_the_pair_collides_under_compress(engine_params, rounds):
    params = replace(engine_params, rounds=rounds)
    for block in BLOCKS:
        for is_last in (False, True):
            assert compress(C, block, params, is_last) == compress(C_PRIME, block, params, is_last)


def test_the_states_meet_after_round_one(engine_params):
    ev = engine_params.system.eval_word
    for block in BLOCKS:
        for is_last in (False, True):
            # the chains share h0 and h7, so they share the schedule
            w = schedule_words(expand(block, C, is_last))
            assert _rounds(C, w[:1], ev) != _rounds(C_PRIME, w[:1], ev)
            assert _rounds(C, w[:2], ev) == _rounds(C_PRIME, w[:2], ev)


def test_the_pair_collides_with_the_term_sum_oracle(params, system):
    oracle = replace(params, system=TermSumEvaluator(system), rounds=32)
    for is_last in (False, True):
        assert compress(C, BLOCKS[0], oracle, is_last) == compress(C_PRIME, BLOCKS[0], oracle,
                                                                   is_last)


@settings(max_examples=50, deadline=None)
@given(run=st.lists(blocks, min_size=1, max_size=4), rounds=st.sampled_from([32, 48, 64]),
       last=st.booleans())
def test_a_run_of_blocks_from_the_pair_ends_in_one_state(params, run, rounds, last):
    params = replace(params, rounds=rounds)
    ends = []
    for chain in (C, C_PRIME):
        for k, block in enumerate(run):
            chain = compress(chain, block, params, last and k == len(run) - 1)
        ends.append(chain)
    assert ends[0] == ends[1]
