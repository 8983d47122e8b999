import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence

from queuemc.streams import _VECTOR_MIN, _child_state_words, spawn_generators


def reference(seed, n):
    return [Generator(PCG64(s)) for s in SeedSequence(seed).spawn(n)]


def assert_same_streams(fast, ref):
    assert len(fast) == len(ref)
    for a, b in zip(fast, ref):
        assert a.bit_generator.state == b.bit_generator.state
        assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()
        assert a.random() == b.random()


# One to five 32-bit entropy words, at the edges of each.
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**96 - 1,
                                  2**128, 2**128 + 7, 3**100])
def test_spawn_generators_match_numpy_spawn(seed):
    assert_same_streams(spawn_generators(seed, 37), reference(seed, 37))


@pytest.mark.parametrize("n", [0, 1, _VECTOR_MIN - 1, _VECTOR_MIN, 2 * _VECTOR_MIN])
def test_spawn_generators_match_numpy_spawn_at_every_size(n):
    assert_same_streams(spawn_generators(11, n), reference(11, n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200), n=st.integers(0, 20))
def test_child_state_words_match_numpy_spawn(seed, n):
    words = _child_state_words(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    for row, child in zip(words, SeedSequence(seed).spawn(n)):
        assert np.array_equal(row, child.generate_state(4, np.uint64))


def test_other_state_requests_go_to_the_real_child():
    fast = spawn_generators(5, 3)[2].bit_generator.seed_seq
    child = SeedSequence(5).spawn(3)[2]
    assert np.array_equal(fast.generate_state(8), child.generate_state(8))
    assert np.array_equal(fast.generate_state(4, np.uint64), child.generate_state(4, np.uint64))


@pytest.mark.parametrize("seed,n", [(-1, 2), (0, -1), (0, 2**32)])
def test_out_of_range_is_rejected(seed, n):
    with pytest.raises(ValueError):
        spawn_generators(seed, n)
