import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic import streams
from memlogic.analysis import _bucket_streams
from memlogic.streams import trial_streams

# Prefix ints at word boundaries (0, 2**32 - 1, 2**32, 2**64 + k) next to
# arbitrary ones up to 130 bits, so a prefix value spans 1 to 5 words.
KEY_INTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 16).map(lambda k: 2**64 + k),
    st.integers(0, 2**130))
PREFIXES = st.lists(KEY_INTS, min_size=1, max_size=4).map(tuple)
# Grid values are one word each: [0, 2**32), with both ends drawn often.
WORD = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
GRIDS = st.integers(0, 4).flatmap(lambda width: st.lists(
    st.lists(WORD, min_size=width, max_size=width).map(tuple), min_size=1, max_size=6))
GRID_DTYPES = st.sampled_from([np.int64, np.uint32, np.uint64])


def reference(key):
    return np.random.default_rng(np.random.SeedSequence(key))


def as_grid(rows, dtype=np.int64):
    return np.array(rows, dtype=dtype).reshape(len(rows), -1)


@settings(max_examples=60, deadline=None)
@given(prefix=PREFIXES, rows=GRIDS, dtype=GRID_DTYPES)
def test_derived_streams_equal_seed_sequence(prefix, rows, dtype):
    derived = trial_streams(prefix, as_grid(rows, dtype))
    for row, rng in zip(rows, derived, strict=True):
        expected = reference(prefix + row)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(rng.random(3), expected.random(3))
        assert rng.normal() == expected.normal()
        assert rng.integers(0, 2**63) == expected.integers(0, 2**63)


def test_harness_key_shapes_equal_seed_sequence():
    # The bucket and cycle keys the harness builds, at a one-word and a
    # multi-word seed: gate pairs, scouting classes and characterized cells.
    for seed in (7, 2**32 + 3, 2**64 + 5):
        for prefix, buckets, cycles in (((seed, 10), [(3, 1, 0), (0, 0, 1)], 40),
                                        ((seed, 20), [(2, 0b01), (3, 0b110)], 20),
                                        ((seed, 32), [(9,)], 40)):
            keys = [(*prefix, *bucket, cycle) for bucket in buckets
                    for cycle in range(cycles)]
            derived = _bucket_streams(prefix, buckets, cycles)
            for key, rng in zip(keys, derived, strict=True):
                assert rng.bit_generator.state == reference(key).bit_generator.state


@pytest.mark.parametrize("key", [((-1,), [[0]]), ((3, 10), [[-2, 0]]),
                                 ((-(2**64),), [[1, 2]])])
def test_negative_key_value_raises(key):
    prefix, rows = key
    with pytest.raises(ValueError, match=str(min(min(prefix), min(map(min, rows))))):
        trial_streams(prefix, as_grid(rows))


@settings(max_examples=60, deadline=None)
@given(bad=st.one_of(st.integers(-(2**63), -1), st.integers(2**32, 2**63 - 1)),
       rows=GRIDS.filter(lambda rows: rows[0]), data=st.data())
def test_grid_values_outside_one_word_raise_by_value(bad, rows, data):
    grid = as_grid(rows)
    grid[data.draw(st.integers(0, len(rows) - 1)),
         data.draw(st.integers(0, grid.shape[1] - 1))] = bad
    with pytest.raises(ValueError, match=rf"\[0, 2\*\*32\), got {bad}$"):
        trial_streams((7, 10), grid)


def test_non_integer_key_value_raises():
    with pytest.raises(TypeError):
        trial_streams((1.5,), as_grid([(0,)]))
    for grid in (np.array([[1.0, 2.0]]), np.array([[True]]), np.array([1, 2]),
                 np.array([[2**70]], dtype=object)):
        with pytest.raises(TypeError, match="2-D integer array"):
            trial_streams((7, 10), grid)


def test_streams_span_several_derivation_passes(monkeypatch):
    monkeypatch.setattr(streams, "PASS_KEYS", 3)
    for prefix, rows in (((7, 20), [(2, cls, cycle) for cls in range(4) for cycle in range(3)]),
                         ((2**64 + 5, 32), [(cycle,) for cycle in range(4)])):
        derived = trial_streams(prefix, as_grid(rows))
        for row, rng in zip(rows, derived, strict=True):
            assert rng.bit_generator.state == reference(prefix + row).bit_generator.state


def test_empty_key_list_gives_no_streams():
    assert list(trial_streams((7, 10), np.zeros((0, 3), dtype=np.int64))) == []
    assert list(_bucket_streams((7, 10), [], 5)) == []
    assert list(_bucket_streams((7, 32), [(0,), (1,)], 0)) == []
