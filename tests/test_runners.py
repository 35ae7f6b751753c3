"""Each bucket runner equals its one-trial calls, trial for trial.

``execute_gate_bucket`` must give what ``execute_gate`` gives once per
generator, and ``scout_class`` what ``write_inputs`` then ``scout_current``
give once per generator: the same traces or currents, the same errors at the
same trials, the same cells afterwards and every generator left in the same
state.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic.array import ArrayTopology, CellAddress, CellArray, TopologyKind
from memlogic.device import TransistorModel, VariabilityParams
from memlogic.logic1t1r import (
    INPUT_PAIRS,
    InitFailureError,
    builtin_mapping,
    execute_gate,
    execute_gate_bucket,
)
from memlogic.scouting import scout_class, scout_current, write_inputs

PARAMS = VariabilityParams()
#: A 21 kOhm access transistor lifts LRS reads to the 22 kOhm boundary, and
#: wide LRS and read spreads make a verified write of 1 give up now and then:
#: an ``InitFailureError`` lands in the middle of a bucket.
STRESSED = (PARAMS.replace(lrs_sigma_c2c=1.0, read_noise_lrs=0.5, read_noise_hrs=0.5),
            TransistorModel(r_on=21e3))


def twin_arrays(kind, stressed, seed, addrs):
    """Two identical 4x4 arrays, stressed or not, with ``addrs`` formed."""
    params, transistor = STRESSED if stressed else (PARAMS, None)
    arrays = [CellArray(ArrayTopology(kind, 4, 4), params, transistor, seed=seed)
              for _ in range(2)]
    for array in arrays:
        for addr in addrs:
            array.form(addr)
    return arrays


def twin_generators(key, count):
    """Two lists of ``count`` generators, seeded ``(*key, k)``."""
    return [[np.random.default_rng((*key, k)) for k in range(count)] for _ in range(2)]


def states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def outcome(result):
    """A trial's result, with an error compared by its type and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return result


def gate_trials(array, addr, mapping, p, q, rngs):
    """``execute_gate`` once per generator, an ``InitFailureError`` kept in place."""
    traces = []
    for rng in rngs:
        try:
            traces.append(execute_gate(array, addr, mapping, p, q, rng))
        except InitFailureError as exc:
            traces.append(exc)
    return traces


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(TopologyKind)),
       gate=st.sampled_from(["OR", "AND", "NIMP", "XOR", "NOTP"]),
       rotate_cells=st.booleans(), stressed=st.booleans(),
       col=st.integers(0, 3), cycles=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_gate_bucket_equals_its_one_trial_calls(kind, gate, rotate_cells, stressed, col,
                                                cycles, seed):
    # One array per gate, one bucket per input pair, as the harness runs them:
    # cascaded on one cell, or on a fresh row per pair with ``rotate_cells``.
    mapping = builtin_mapping(gate)
    addrs = [CellAddress(k if rotate_cells else 0, col) for k in range(len(INPUT_PAIRS))]
    bucket_array, trial_array = twin_arrays(kind, stressed, seed, set(addrs))
    for addr, (p, q) in zip(addrs, INPUT_PAIRS):
        bucket_rngs, trial_rngs = twin_generators((seed, p, q), cycles)
        traces = execute_gate_bucket(bucket_array, addr, mapping, p, q, iter(bucket_rngs))
        expected = gate_trials(trial_array, addr, mapping, p, q, trial_rngs)
        assert list(map(outcome, traces)) == list(map(outcome, expected))
        assert states(bucket_rngs) == states(trial_rngs)
        assert bucket_array.cells == trial_array.cells


def test_an_init_failure_costs_its_trial_only():
    bucket_array, trial_array = twin_arrays(TopologyKind.STANDARD_1T1R, True, 1,
                                            [CellAddress(0, 0)])
    bucket_rngs, trial_rngs = twin_generators((4,), 10)
    mapping = builtin_mapping("OR")
    traces = execute_gate_bucket(bucket_array, (0, 0), mapping, 1, 0, bucket_rngs)
    failed = [isinstance(trace, InitFailureError) for trace in traces]
    assert True in failed[1:-1] and not all(failed)  # mid-bucket, trials go on
    expected = gate_trials(trial_array, (0, 0), mapping, 1, 0, trial_rngs)
    assert list(map(outcome, traces)) == list(map(outcome, expected))
    assert states(bucket_rngs) == states(trial_rngs)


def scout_trials(array, addrs, bits, rngs, refresh, verify):
    """``write_inputs`` then ``scout_current`` once per generator, up to the
    first ``InitFailureError``, which ends the list."""
    currents = []
    try:
        for rng in rngs:
            write_inputs(array, addrs, bits, rng, refresh, verify)
            currents.append(scout_current(array, addrs, rng))
    except InitFailureError as exc:
        currents.append(exc)
    return currents


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(TopologyKind)), stressed=st.booleans(),
       refresh=st.booleans(), verify=st.booleans(),
       classes=st.lists(st.text("01", min_size=1, max_size=3), min_size=1, max_size=3),
       line=st.integers(0, 3), cycles=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_scout_class_equals_its_one_cycle_calls(kind, stressed, refresh, verify, classes,
                                                line, cycles, seed):
    # The inputs share one BL: a column in the standard array, a row in the
    # pseudo-crossbar.  Classes of several widths follow one another on one
    # array, as the one-cell READ classes follow the n-cell ones.
    def cells(n):
        if kind == TopologyKind.PSEUDO_CROSSBAR:
            return [CellAddress(line, c) for c in range(n)]
        return [CellAddress(r, line) for r in range(n)]

    bucket_array, trial_array = twin_arrays(kind, stressed, seed, cells(3))
    for k, bits in enumerate(classes):
        bucket_rngs, trial_rngs = twin_generators((seed, k), cycles)
        addrs = cells(len(bits))
        expected = scout_trials(trial_array, addrs, bits, trial_rngs, refresh, verify)
        try:
            currents = scout_class(bucket_array, addrs, bits, iter(bucket_rngs), refresh,
                                   verify)
        except InitFailureError as exc:  # the class ends at the trial it failed
            assert outcome(exc) == outcome(expected[-1])
            currents, expected = [], []
        assert currents == expected
        assert states(bucket_rngs) == states(trial_rngs)
        assert bucket_array.cells == trial_array.cells


def test_a_scouting_init_failure_stops_the_class_where_the_cycles_stop():
    bucket_array, trial_array = twin_arrays(TopologyKind.STANDARD_1T1R, True, 0,
                                            [CellAddress(0, 0), CellAddress(1, 0)])
    bucket_rngs, trial_rngs = twin_generators((2,), 40)
    addrs = [CellAddress(0, 0), CellAddress(1, 0)]
    expected = scout_trials(trial_array, addrs, "10", trial_rngs, True, True)
    assert isinstance(expected[-1], InitFailureError) and len(expected) > 1
    with pytest.raises(InitFailureError, match=re.escape(str(expected[-1]))):
        scout_class(bucket_array, addrs, "10", iter(bucket_rngs), True, True)
    assert states(bucket_rngs) == states(trial_rngs)
    assert bucket_array.cells == trial_array.cells
