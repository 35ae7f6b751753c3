import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic import streams
from memlogic.streams import pcg64_states, trial_streams

# Word-boundary values (0, 2**32 - 1, 2**32, 2**64 + k) next to arbitrary ones
# up to 130 bits, so keys span 1 to 5 words per int.
KEY_INTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 16).map(lambda k: 2**64 + k),
    st.integers(0, 2**130))
KEYS = st.lists(st.lists(KEY_INTS, min_size=1, max_size=8).map(tuple),
                min_size=1, max_size=6)


def reference(key):
    return np.random.default_rng(np.random.SeedSequence(key))


@settings(max_examples=60, deadline=None)
@given(keys=KEYS)
def test_derived_streams_equal_seed_sequence(keys):
    assert pcg64_states(keys) == [reference(k).bit_generator.state for k in keys]
    for key, rng in zip(keys, trial_streams(keys), strict=True):
        expected = reference(key)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(rng.random(3), expected.random(3))
        assert rng.normal() == expected.normal()
        assert rng.integers(0, 2**63) == expected.integers(0, 2**63)


def test_harness_key_shapes_equal_seed_sequence():
    # The trial keys the harness builds, at a one-word and a multi-word seed.
    for seed in (7, 2**32 + 3, 2**64 + 5):
        keys = [(seed, 10, 3, 1, 0, cycle) for cycle in range(40)]
        keys += [(seed, 32, 9, cycle) for cycle in range(40)]
        assert pcg64_states(keys) == [reference(k).bit_generator.state for k in keys]


@pytest.mark.parametrize("key", [(-1,), (3, 10, -2, 0), (-(2**64),)])
def test_negative_key_value_raises(key):
    with pytest.raises(ValueError, match=">= 0"):
        pcg64_states([(1, 2), key])
    with pytest.raises(ValueError):
        trial_streams([key])


def test_non_integer_key_value_raises():
    with pytest.raises(TypeError):
        pcg64_states([(1.5,)])
    # A float equal to a value already split into words is still rejected.
    with pytest.raises(TypeError):
        pcg64_states([(1, 2), (1.0, 2)])


def test_streams_span_several_derivation_passes(monkeypatch):
    monkeypatch.setattr(streams, "PASS_KEYS", 3)
    keys = [(7, 20, 2, cls, cycle) for cls in range(4) for cycle in range(3)]
    keys += [(2**64 + 5, 32, cycle) for cycle in range(4)]
    derived = trial_streams(iter(keys))
    for key, rng in zip(keys, derived, strict=True):
        assert rng.bit_generator.state == reference(key).bit_generator.state


def test_empty_key_list_gives_no_streams():
    assert pcg64_states([]) == []
    assert list(trial_streams([])) == []
