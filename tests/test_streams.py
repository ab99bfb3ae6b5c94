import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldcc.data import generate_synthetic
from ldcc.model import ThemeModel, TrainConfig
from ldcc.streams import (
    TASK_STREAM, _words, set_key, stream, task_keys, task_stream,
)

seeds = st.integers(0, 2**64 - 1)
keys = st.lists(st.integers(0, 2**32 - 1), max_size=3)


def state(rng):
    return repr(rng.bit_generator.state)


class TestRekey:
    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, tag=st.integers(1, 5), key=keys, other=seeds, used=st.integers(0, 9),
           odd=st.booleans())
    def test_equals_a_new_stream(self, seed, tag, key, other, used, odd):
        # A generator part-way through another stream, with a buffered
        # 32-bit half or not, re-keyed: the state of a new stream, then its
        # values, and again the same state.
        rng = stream(other, 4, 7)
        rng.random(used)
        if odd:
            rng.integers(0, 2**32, dtype=np.uint32)
        want = stream(seed, tag, *key)
        philox_key = np.random.SeedSequence(_words(seed, tag, key)).generate_state(2, np.uint64)
        assert set_key(rng, philox_key) is rng
        assert state(rng) == state(want)
        for draw in (lambda g: g.standard_gamma(100.0, 5), lambda g: g.random(3),
                     lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                     lambda g: g.standard_normal(4)):
            assert np.array_equal(draw(rng), draw(want))
        assert state(rng) == state(want)

    def test_named_streams(self):
        # gen sets the derived keys of its named stream.
        rng = set_key(task_stream(3, 0), task_keys(3, 41, 42)[0])
        assert state(rng) == state(task_stream(3, 41))


class TestTaskKeys:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, start=st.integers(0, 2**33), count=st.integers(1, 64))
    @example(seed=2**64 - 1, start=2**32 - 3, count=6)  # the index wraps to 32 bits
    def test_equal_seed_sequence(self, seed, start, count):
        # Each derived key is SeedSequence's, task by task.
        keys = task_keys(seed, start, start + count)
        assert keys.dtype == np.uint64 and keys.shape == (count, 2)
        for d, key in enumerate(keys, start):
            want = np.random.SeedSequence(_words(seed, TASK_STREAM, (d,))).generate_state(2, np.uint64)
            assert key.tobytes() == want.tobytes()

    def test_empty_range(self):
        assert task_keys(5, 7, 7).shape == (0, 2)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**64 + 1, 1.5, 1.0, True, np.True_])
    def test_out_of_range_raises(self, seed):
        with pytest.raises(ValueError, match=r"integer in \[0, 2\^64\)"):
            stream(seed, TASK_STREAM, 0)
        with pytest.raises(ValueError, match=r"integer in \[0, 2\^64\)"):
            task_keys(seed, 0, 1)
        with pytest.raises(ValueError, match=r"integer in \[0, 2\^64\)"):
            TrainConfig(seed=seed)

    def test_ends_name_distinct_streams(self):
        # 0 and 2^64 - 1 work and differ from each other and from 1, which
        # 2^64 + 1 used to alias.
        states = {state(stream(seed, TASK_STREAM, 0)) for seed in (0, 1, 2**64 - 1)}
        assert len(states) == 3
        assert state(stream(np.uint64(2**64 - 1), 1)) == state(stream(2**64 - 1, 1))

    def test_generate_synthetic_rejects(self):
        model = ThemeModel(np.zeros((1, 1)), np.ones((1, 1, 1)), np.ones((1, 1)), np.ones(1))
        with pytest.raises(ValueError, match=r"integer in \[0, 2\^64\)"):
            generate_synthetic(model, 1, 1, 1, seed=2**64 + 1)
        top, _ = generate_synthetic(model, 2, 1, 1, seed=2**64 - 1)
        one, _ = generate_synthetic(model, 2, 1, 1, seed=1)
        assert top != one
