"""The one-pass substream keys against numpy's SeedSequence, and re-keying."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitstat.rng import Substreams, substream, substream_keys

# 2**32 and 2**64 + 3 take two and three uint32 words of SeedSequence entropy
SEEDS = (0, 2**31 - 2, 2**32 - 1, 2**32, 2**64 + 3)
INDICES = (0, 2**32 - 1)
ROLES = (0, 1)


def _seed_sequence_key(seed, j, role):
    return np.random.SeedSequence((seed, j, role)).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_pass_keys_are_the_seed_sequence_keys(seed):
    keys = substream_keys(seed, INDICES, ROLES)
    assert keys.shape == (len(INDICES), len(ROLES), 2) and keys.dtype == np.uint64
    for i, j in enumerate(INDICES):
        for r, role in enumerate(ROLES):
            np.testing.assert_array_equal(keys[i, r], _seed_sequence_key(seed, j, role))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**300), indices=st.lists(st.integers(0, 2**32 - 1), max_size=5),
       roles=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
def test_one_pass_keys_match_seed_sequence_on_any_key(seed, indices, roles):
    keys = substream_keys(seed, indices, roles)
    expect = [[_seed_sequence_key(seed, j, role) for role in roles] for j in indices]
    np.testing.assert_array_equal(keys, np.array(expect, dtype=np.uint64).reshape(keys.shape))


def test_an_empty_part_has_no_keys():
    assert substream_keys(5, [], ROLES).shape == (0, len(ROLES), 2)


@pytest.mark.parametrize("seed, indices, roles", [(-1, [0], ROLES), (1, [-1], ROLES),
                                                 (1, [2**32], ROLES), (1, [0], (-1,))])
def test_a_key_outside_the_seed_sequence_range_is_rejected(seed, indices, roles):
    with pytest.raises(ValueError):
        substream_keys(seed, indices, roles)


def test_a_rekeyed_generator_draws_as_a_fresh_substream():
    streams = Substreams(11, [3, 8], ROLES)
    streams.open(1, 1).random(3)  # leaves a Philox block part-used
    np.testing.assert_array_equal(streams.open(0, 0).random(9), substream(11, 3, 0).random(9))
    streams.open(0, 1).integers(0, 2**32, dtype=np.uint32)  # leaves half a word held
    fresh = substream(11, 8, 1)
    rekeyed = streams.open(1, 1)
    np.testing.assert_array_equal(rekeyed.integers(0, 2**32, size=5, dtype=np.uint32),
                                  fresh.integers(0, 2**32, size=5, dtype=np.uint32))
    np.testing.assert_array_equal(rekeyed.random(7), fresh.random(7))
