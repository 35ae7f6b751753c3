"""The bucket runners' contract, and the harness's per-bucket streams.

``execute_gate_bucket`` and ``scout_class`` over N cycles must give what the
same runner gives called N times for one cycle on the same two generators:
the same rows or currents, the same failed cycles, the same cells afterwards
and both generators left in the same state.  A bucket of an
experiment whose cells are its own (a gate bucket under ``rotate_cells``, a
scouting class, a characterized cell) replays alone, on a fresh array, from
its documented keys.  The harness serves each of those streams in blocks,
and a served stream gives, bit for bit, its generator's scalar draws.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic.analysis import (
    STREAM_BLOCK,
    STREAM_KINDS,
    ExperimentConfig,
    _stream,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sample_scouting_currents,
)
from memlogic.array import STREAM_KINDS as ARRAY_STREAM_KINDS
from memlogic.array import (
    RESET_BITS,
    SET_BITS,
    ArrayTopology,
    CellAddress,
    CellArray,
    TopologyKind,
    replay,
)
from memlogic.device import VariabilityParams, form_by_ramp, read_resistance, sample_fresh_cell
from memlogic.logic1t1r import (
    INPUT_PAIRS,
    InitFailureError,
    builtin_mapping,
    execute_gate_bucket,
)
from memlogic.scouting import scout_class

PARAMS = VariabilityParams()
#: A 21 kOhm access transistor (``r_on``) lifts LRS reads to the 22 kOhm
#: boundary, and wide LRS and read spreads make a verified write of 1 give up
#: now and then: an ``InitFailureError`` lands in the middle of a bucket.
STRESSED = PARAMS.replace(lrs_sigma_c2c=1.0, read_noise_lrs=0.5, read_noise_hrs=0.5,
                          r_on=21e3)


def twin_arrays(kind, stressed, seed, addrs):
    """Two identical 4x4 arrays, stressed or not, with ``addrs`` formed."""
    params = STRESSED if stressed else PARAMS
    arrays = [CellArray(ArrayTopology(kind, 4, 4), params, seed=seed)
              for _ in range(2)]
    for array in arrays:
        for addr in addrs:
            array.form(addr)
    return arrays


def twin_generators(key):
    """Two (switching, read-noise) generator pairs, seeded ``(*key, purpose)``."""
    return [[np.random.default_rng((*key, purpose)) for purpose in (0, 1)] for _ in range(2)]


def states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def gate_trials(array, addr, mapping, p, q, cycles, rng, read_rng):
    """One-cycle gate buckets, ``cycles`` of them, the k-th call's row as cycle k;
    a call whose initialization failed gives no row."""
    return [row._replace(cycle=cycle) for cycle in range(cycles)
            for row in execute_gate_bucket(array, addr, mapping, p, q, 1, rng, read_rng)]


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
        bucket_rngs, trial_rngs = twin_generators((seed, p, q))
        rows = execute_gate_bucket(bucket_array, addr, mapping, p, q, cycles, *bucket_rngs)
        assert rows == gate_trials(trial_array, addr, mapping, p, q, cycles, *trial_rngs)
        assert states(bucket_rngs) == states(trial_rngs)
        assert bucket_array.cells == trial_array.cells


def test_an_init_failure_costs_its_trial_only():
    bucket_array, trial_array = twin_arrays(TopologyKind.STANDARD_1T1R, True, 1,
                                            [CellAddress(0, 0)])
    bucket_rngs, trial_rngs = twin_generators((4,))
    mapping = builtin_mapping("OR")
    rows = execute_gate_bucket(bucket_array, (0, 0), mapping, 1, 0, 10, *bucket_rngs)
    missing = set(range(10)) - {row.cycle for row in rows}
    assert missing & set(range(1, 9)) and rows  # mid-bucket, trials go on
    assert rows == gate_trials(trial_array, (0, 0), mapping, 1, 0, 10, *trial_rngs)
    assert states(bucket_rngs) == states(trial_rngs)


def scout_trials(array, addrs, bits, cycles, rng, read_rng, verify):
    """One-cycle scouting buckets, ``cycles`` of them, up to the first
    ``InitFailureError``, which ends the list."""
    currents = []
    try:
        for _ in range(cycles):
            currents += scout_class(array, addrs, bits, 1, rng, read_rng, verify)
    except InitFailureError as exc:
        currents.append(exc)
    return currents


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(TopologyKind)), stressed=st.booleans(), verify=st.booleans(),
       classes=st.lists(st.text("01", min_size=1, max_size=3), min_size=1, max_size=3),
       line=st.integers(0, 3), cycles=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_scout_class_equals_its_one_cycle_calls(kind, stressed, verify, classes, line,
                                                cycles, seed):
    # The inputs share one BL: a column in the standard array, a row in the
    # pseudo-crossbar.  Classes of several widths follow one another on one
    # array, as the one-cell READ classes follow the n-cell ones.
    def cells(n):
        if kind == TopologyKind.PSEUDO_CROSSBAR:
            return [CellAddress(line, c) for c in range(n)]
        return [CellAddress(r, line) for r in range(n)]

    bucket_array, trial_array = twin_arrays(kind, stressed, seed, cells(3))
    for k, bits in enumerate(classes):
        bucket_rngs, trial_rngs = twin_generators((seed, k))
        addrs = cells(len(bits))
        expected = scout_trials(trial_array, addrs, bits, cycles, *trial_rngs, verify)
        try:
            currents = scout_class(bucket_array, addrs, bits, cycles, *bucket_rngs, verify)
        except InitFailureError as exc:  # the class ends at the trial it failed
            assert (type(exc), str(exc)) == (type(expected[-1]), str(expected[-1]))
            currents, expected = [], []
        assert currents == expected
        assert states(bucket_rngs) == states(trial_rngs)
        assert bucket_array.cells == trial_array.cells


def test_a_scouting_init_failure_stops_the_class_where_the_cycles_stop():
    bucket_array, trial_array = twin_arrays(TopologyKind.STANDARD_1T1R, True, 0,
                                            [CellAddress(0, 0), CellAddress(1, 0)])
    bucket_rngs, trial_rngs = twin_generators((2,))
    addrs = [CellAddress(0, 0), CellAddress(1, 0)]
    expected = scout_trials(trial_array, addrs, "10", 40, *trial_rngs, True)
    assert isinstance(expected[-1], InitFailureError) and len(expected) > 1
    with pytest.raises(InitFailureError, match=re.escape(str(expected[-1]))) as info:
        scout_class(bucket_array, addrs, "10", 40, *bucket_rngs, True)
    assert info.value.cycle == len(expected) - 1  # the cycle it failed in
    assert states(bucket_rngs) == states(trial_rngs)
    assert bucket_array.cells == trial_array.cells


def bucket_stream(*key):
    """The documented per-bucket generators: purposes 0 (switching) and 1
    (read noise) of ``SeedSequence((*key, purpose))``."""
    return [np.random.default_rng(np.random.SeedSequence((*key, purpose)))
            for purpose in (0, 1)]


@pytest.mark.parametrize("purpose, method, other", [(0, "random", "standard_normal"),
                                                    (1, "standard_normal", "random")])
def test_a_served_stream_gives_its_generators_scalar_draws(purpose, method, other):
    served = _stream(3, "scouting", 2, 1)[purpose]
    generator = bucket_stream(3, STREAM_KINDS["scouting"], 2, 1)[purpose]
    count = 2 * STREAM_BLOCK + 3
    draws = [getattr(served, method)() for _ in range(count)]
    assert all(type(draw) is float for draw in draws)
    assert ([draw.hex() for draw in draws]
            == [getattr(generator, method)().hex() for _ in range(count)])
    with pytest.raises(AttributeError):
        getattr(served, other)()


def test_one_table_keys_every_seeded_stream():
    """The harness's bucket streams and the array's cell streams take their
    words from one table, and no two kinds share a word: a cell is sampled
    and formed from ``(seed, kind, row, col)``."""
    assert STREAM_KINDS is ARRAY_STREAM_KINDS
    assert len(set(STREAM_KINDS.values())) == len(STREAM_KINDS) == 5
    params = VariabilityParams()
    array = CellArray(ArrayTopology(), params, seed=4)
    array.form((1, 2))
    sample, form = (np.random.default_rng(np.random.SeedSequence((4, STREAM_KINDS[kind], 1, 2)))
                    for kind in ("sample", "form"))
    cell = sample_fresh_cell(params, sample, cell_id="cell (1, 2)")
    form_by_ramp(cell, form)
    assert array.cell((1, 2)) == cell


def replayed_gate_bucket(cycles, gate, p, q):
    """One gate bucket of a run with rotated cells, where every input pair has
    a cell of its own: its rows replayed alone, on a fresh array, from its
    documented keys, and its rows in the harness's run."""
    config = ExperimentConfig(seed=3, cycles=cycles, rotate_cells=True)
    gate_idx = config.gates.index(gate)
    addr = CellAddress(INPUT_PAIRS.index((p, q)), gate_idx)
    array = CellArray(config.topology, config.device, seed=config.seed)
    array.form(addr)
    rows = execute_gate_bucket(array, addr, builtin_mapping(gate), p, q, config.cycles,
                               *bucket_stream(config.seed, 10, gate_idx, p, q))
    return rows, [row for row in run_1t1r_experiment(config).rows
                  if (row.gate, row.p, row.q) == (gate, p, q)]


def test_a_gate_bucket_replays_alone():
    # XOR/10, the third bucket of the fourth gate, needs nothing that ran before it.
    rows, harness_rows = replayed_gate_bucket(20, "XOR", 1, 0)
    assert rows == harness_rows
    assert len(rows) == 20


def test_a_gate_bucket_replays_alone_over_several_blocks():
    # Over 300 cycles XOR/11 draws 599 switching and 899 read-noise values,
    # so the harness serves each of its streams in several blocks.
    rows, harness_rows = replayed_gate_bucket(300, "XOR", 1, 1)
    assert rows == harness_rows
    assert len(rows) == 300


def replayed_scouting_class(cycles, input_class):
    """One scouting class's currents replayed alone, on a fresh array, from
    its documented keys; the sampler's currents; and its currents in the
    experiment, whose classes all start from copies of one formed array."""
    config = ExperimentConfig(seed=3, cycles=cycles)
    addrs = [CellAddress(row, 0) for row in range(len(input_class))]
    array = CellArray(config.topology, config.device, seed=config.seed)
    for addr in addrs:
        array.form(addr)
    currents = scout_class(array, addrs, input_class, config.cycles,
                           *bucket_stream(config.seed, 20, len(input_class),
                                          int(input_class, 2)))
    return (currents, sample_scouting_currents(config, include_single=True)[input_class],
            run_scouting_experiment(config).currents[input_class])


@pytest.mark.parametrize("input_class", ["01", "1"])
def test_a_scouting_class_replays_alone(input_class):
    currents, sampled, run = replayed_scouting_class(20, input_class)
    assert currents == sampled == run
    assert len(currents) == 20


def test_a_scouting_class_replays_alone_over_several_blocks():
    # Over 300 cycles class 01 draws 900 switching and 1,200 read-noise
    # values, so the harness serves each of its streams in several blocks;
    # class 1 draws more than a block of read noise.
    for input_class in ("01", "1"):
        currents, sampled, run = replayed_scouting_class(300, input_class)
        assert currents == sampled == run, input_class
        assert len(currents) == 300


def test_a_characterized_cell_replays_alone():
    # Cell 2 of a three-cell characterization, on a fresh array where it is
    # the only formed cell: its SET/RESET cycles and reads need nothing else.
    seed, cycles = 3, 20
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, rows=1, cols=3), PARAMS,
                      seed=seed)
    addr = CellAddress(0, 2)
    array.form(addr)
    cell = array.cell(addr)
    rng, read_rng = bucket_stream(seed, 32, 2)
    reads = []
    for cycle in range(cycles):
        row = [2, cycle]
        for bits in (SET_BITS, RESET_BITS):
            replay(array.drive(addr, bits), rng)
            row.append(read_resistance(cell, read_rng))
        reads.append(tuple(row))
    config = ExperimentConfig(seed=seed, cycles=cycles, device=PARAMS)
    result = run_characterization(config, cells=3)
    assert reads == [row for row in result.rows if row[0] == 2]
