"""Keyed streams: the batch derivation reproduces numpy's SeedSequence and PCG64."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttfedsim.streams import TAG_CHANNEL, exponentials, pcg64_states, substream
from ttfedsim.wireless import draw_fading

# 0, small seeds, and seeds of two and of three or more 32-bit words
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**160 + 3]),
    st.integers(0, 2**16),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**200),
)
WORDS = st.one_of(st.just(0), st.integers(1, 64), st.integers(0, 2**32 - 1))


def numpy_state(seed: int, *key: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)).state


@given(
    seed=SEEDS,
    tag=WORDS,
    keys=st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=6),
)
@example(seed=0, tag=TAG_CHANNEL, keys=[(0, 0), (0, 1), (1, 0)])
@example(seed=7, tag=0, keys=[(0, 0), (2**32 - 1, 2**32 - 1)])
@example(seed=2**32 + 5, tag=TAG_CHANNEL, keys=[(0, 0), (3, 9)])
@example(seed=2**64 + 11, tag=TAG_CHANNEL, keys=[(0, 0), (999, 40)])
@settings(max_examples=150, deadline=None)
def test_states_and_draws_match_numpy(seed, tag, keys):
    users = [u for u, _ in keys]
    events = [k for _, k in keys]
    states = list(pcg64_states(seed, tag, users, events))
    draws = exponentials(seed, tag, users, events)
    assert len(states) == len(draws) == len(keys)
    for (u, k), state, value in zip(keys, states, draws):
        assert state == numpy_state(seed, tag, u, k)
        assert value == substream(seed, tag, u, k).exponential(1.0)


@pytest.mark.parametrize("seed", [0, 12, 2**32 + 1, 2**64 + 1])
def test_keys_of_other_lengths_and_broadcast_scalars(seed):
    assert list(pcg64_states(seed, 3)) == [numpy_state(seed, 3)]
    assert list(pcg64_states(seed, [0, 8])) == [numpy_state(seed, 0), numpy_state(seed, 8)]
    many = list(pcg64_states(seed, TAG_CHANNEL, 4, [0, 1, 2], 6))
    assert many == [numpy_state(seed, TAG_CHANNEL, 4, k, 6) for k in range(3)]
    assert exponentials(seed, TAG_CHANNEL, [], []).shape == (0,)


def test_channel_draws_are_the_channel_substreams():
    users, events = [0, 5, 5, 999], [1, 1, 2, 0]
    fading = draw_fading(31, users, events)
    expected = [substream(31, TAG_CHANNEL, u, k).exponential(1.0) for u, k in zip(users, events)]
    assert fading.tolist() == expected


class TestKeyWords:
    """SeedSequence splits an int >= 2**32 into words; the batch derivation refuses it."""

    @pytest.mark.parametrize("position, key", [(1, (2**32, 0)), (2, (0, 2**32)), (1, (2**70, 0))])
    def test_a_word_too_wide_is_named(self, position, key):
        with pytest.raises(ValueError, match=f"spawn key position {position} .*2\\*\\*32-1"):
            pcg64_states(1, TAG_CHANNEL, [0, key[0]], [0, key[1]])

    def test_negative_words_and_seeds_raise(self):
        with pytest.raises(ValueError, match="spawn key position 0"):
            pcg64_states(1, -1, [0], [0])
        with pytest.raises(ValueError, match="master seed"):
            pcg64_states(-1, TAG_CHANNEL, [0], [0])
