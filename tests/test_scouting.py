import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic import array as array_module
from memlogic.array import ArrayTopology, CellAddress, CellArray, TopologyError, TopologyKind
from memlogic.device import VariabilityParams, binarize, default_boundary
from memlogic.scouting import (
    PAPER_REFS,
    SCOUTING_OPS,
    CurrentSample,
    OverlapError,
    ReferenceLevels,
    classify,
    classify_bucket,
    expected_bit,
    input_patterns,
    place_references,
    reference_preset,
    scout_current,
    scouting_gate,
    write_inputs,
)

NOISE_FREE = VariabilityParams(
    lrs_sigma_c2c=0.0, lrs_sigma_d2d=0.0, hrs_sigma_c2c=0.0, hrs_sigma_d2d=0.0,
    v_set_th_sigma=0.0, v_reset_th_sigma=0.0, v_form_th_sigma=0.0,
    read_noise_lrs=0.0, read_noise_hrs=0.0)

# Closed-form parallel-conductance oracle at 0.1 V with 5 kOhm / 97 kOhm:
# I = v_read * sum(1/r_i).  Frozen expected values:
I_HRS = 0.1 / 97e3               # 1.0309e-06 A, single cell in HRS
I_LRS = 0.1 / 5e3                # 2.0000e-05 A, single cell in LRS
I_00 = 2 * I_HRS                 # 2.0619e-06 A
I_01 = I_LRS + I_HRS             # 2.1031e-05 A
I_11 = 2 * I_LRS                 # 4.0000e-05 A


def column_array(params=NOISE_FREE, n=2, seed=0):
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, rows=max(n, 2), cols=2),
                      params, seed=seed)
    addrs = [CellAddress(r, 0) for r in range(n)]
    for addr in addrs:
        array.form(addr)
    return array, addrs


def test_noise_free_class_currents_match_oracle():
    array, addrs = column_array()
    rng = np.random.default_rng(0)
    expected = {"00": I_00, "01": I_01, "10": I_01, "11": I_11}
    for bits, value in expected.items():
        write_inputs(array, addrs, bits, rng)
        current = scout_current(array, addrs, rng)
        assert current == pytest.approx(value, rel=1e-3)


def test_single_hrs_cell_reads_zero():
    array, addrs = column_array(n=1)
    rng = np.random.default_rng(1)
    write_inputs(array, addrs[:1], "0", rng)
    current = scout_current(array, addrs[:1], rng)
    assert current == pytest.approx(I_HRS, rel=1e-3)
    assert current < PAPER_REFS.i_read
    assert classify(current, PAPER_REFS, "read") == 0


def test_scout_requires_parallel_selectable_addresses():
    array, _ = column_array()
    rng = np.random.default_rng(3)
    with pytest.raises(TopologyError):
        scout_current(array, [CellAddress(0, 0), CellAddress(0, 1)], rng)


def test_an_invalid_selection_raises_on_every_call(monkeypatch):
    validated = []
    real = array_module.validate_parallel_selection
    monkeypatch.setattr(array_module, "validate_parallel_selection",
                        lambda topology, addrs: validated.append(addrs) or real(topology, addrs))
    array, addrs = column_array()
    rng = np.random.default_rng(3)
    for _ in range(3):
        with pytest.raises(TopologyError):
            scout_current(array, [CellAddress(0, 0), CellAddress(0, 1)], rng)
        scout_current(array, [tuple(a) for a in addrs], rng)  # plain tuples are wrapped
    assert len(validated) == 4
    assert validated[1] == tuple(addrs) and type(validated[1][0]) is CellAddress


def test_scout_read_is_non_destructive():
    array, addrs = column_array(params=VariabilityParams(), seed=4)
    rng = np.random.default_rng(4)
    write_inputs(array, addrs, "10", rng)
    before = [(array.cell(a).state, array.cell(a).resistance) for a in addrs]
    for _ in range(50):
        scout_current(array, addrs, rng)
    after = [(array.cell(a).state, array.cell(a).resistance) for a in addrs]
    assert before == after


def test_write_inputs_states():
    array, addrs = column_array(params=VariabilityParams(), seed=5)
    rng = np.random.default_rng(5)
    boundary = default_boundary(VariabilityParams())
    write_inputs(array, addrs, "11", rng)
    assert [array.cell(a).state for a in addrs] == ["lrs", "lrs"]
    write_inputs(array, addrs, "00", rng)
    assert [array.cell(a).state for a in addrs] == ["hrs", "hrs"]
    write_inputs(array, addrs, "10", rng)
    assert [array.cell(a).state for a in addrs] == ["lrs", "hrs"]
    write_inputs(array, addrs, "01", rng)
    assert [array.cell(a).state for a in addrs] == ["hrs", "lrs"]
    assert binarize(array.cell(addrs[1]).resistance, boundary) == 1


def test_write_inputs_refresh_draws_fresh_values():
    array, addrs = column_array(params=VariabilityParams(), seed=6)
    rng = np.random.default_rng(6)
    values = set()
    for _ in range(10):
        write_inputs(array, addrs, "01", rng, refresh=True)
        values.add((array.cell(addrs[0]).resistance, array.cell(addrs[1]).resistance))
    assert len(values) == 10


def test_write_inputs_length_mismatch():
    array, addrs = column_array()
    with pytest.raises(ValueError):
        write_inputs(array, addrs, "011", np.random.default_rng(0))


@pytest.mark.parametrize("bits", ["12", [0, 2], ["1", "x"], [1, None], [0, 0.5]])
def test_write_inputs_rejects_non_bits_before_any_pulse(bits):
    array, addrs = column_array(params=VariabilityParams(), seed=11)
    rng = np.random.default_rng(11)
    write_inputs(array, addrs, "10", rng)
    cells = {a: (c.state, c.resistance, c.cycle_count) for a, c in array.cells.items()}
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="input bits must be 0 or 1"):
        write_inputs(array, [(0, 0), (1, 0)], bits, rng)
    assert {a: (c.state, c.resistance, c.cycle_count) for a, c in array.cells.items()} == cells
    assert rng.bit_generator.state == state


def test_current_sample_rejects_a_negative_current_and_is_immutable():
    with pytest.raises(ValueError, match="current must be >= 0"):
        CurrentSample("01", -1e-12, cycle=2)
    sample = CurrentSample("01", 2e-5, 3)
    assert sample == CurrentSample(input_class="01", current=2e-5, cycle=3)
    assert CurrentSample("11", 0.0).cycle == 0
    for name in ("current", "input_class", "cycle", "extra"):
        with pytest.raises(AttributeError):
            setattr(sample, name, 1.0)
    assert sample.current == 2e-5
    with pytest.raises(ValueError, match="current must be >= 0"):
        sample._replace(current=-1.0)
    assert sample._replace(cycle=4) == ("01", 2e-5, 4)


# ------------------------------------------------------------- references

def test_reference_set_validation():
    with pytest.raises(ValueError):
        ReferenceLevels(levels=(1e-6, 2e-6), i_read=0.0)
    with pytest.raises(ValueError):
        ReferenceLevels(levels=(3e-6, 2e-6), i_read=1e-6)
    with pytest.raises(ValueError):
        ReferenceLevels(levels=(), i_read=1e-6)
    refs = ReferenceLevels(levels=(2e-6, 3e-6, 5e-6), i_read=1e-6)
    assert (refs.n, refs.i_or, refs.i_and) == (3, 2e-6, 5e-6)


@pytest.mark.parametrize("levels, i_read, name", [
    ((float("nan"), 1e-5), float("nan"), "i_read"),
    ((1e-6, 2e-6), float("inf"), "i_read"),
    ((float("nan"), 1e-5), 1e-6, "levels"),
    ((1e-6, float("inf")), 1e-6, "levels"),
    ((-float("inf"), 1e-6), 1e-6, "levels"),
])
def test_reference_levels_reject_non_finite_values(levels, i_read, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ReferenceLevels(levels=levels, i_read=i_read)


def test_paper_reference_preset_values():
    assert PAPER_REFS.i_read == 7.25e-6
    assert PAPER_REFS.i_or == 11.55e-6
    assert PAPER_REFS.i_and == 32.74e-6
    assert PAPER_REFS.n == 2
    assert reference_preset("paper-refs") == PAPER_REFS
    for name in ("paper", "nope"):
        with pytest.raises(KeyError):
            reference_preset(name)


def noise_free_pair_samples():
    return [CurrentSample("00", I_00), CurrentSample("01", I_01),
            CurrentSample("10", I_01), CurrentSample("11", I_11)]


def test_place_references_noise_free_midpoints():
    refs = place_references(noise_free_pair_samples())
    assert refs.i_or == pytest.approx(1.15464e-5, rel=1e-4)
    assert refs.i_and == pytest.approx(3.05155e-5, rel=1e-4)
    assert refs.i_read == pytest.approx(refs.i_or / 2)


def test_place_references_with_single_cell_classes():
    samples = noise_free_pair_samples() + [CurrentSample("0", I_HRS),
                                           CurrentSample("1", I_LRS)]
    refs = place_references(samples)
    assert refs.i_read == pytest.approx(0.5 * (I_HRS + I_LRS), rel=1e-6)


def test_place_references_simple_midpoints():
    samples = [CurrentSample("00", 2e-6), CurrentSample("01", 20e-6),
               CurrentSample("10", 20e-6), CurrentSample("11", 40e-6)]
    refs = place_references(samples)
    assert refs.i_or == pytest.approx(11e-6)
    assert refs.i_and == pytest.approx(30e-6)


def test_place_references_missing_class():
    with pytest.raises(ValueError):
        place_references([CurrentSample("00", 1e-6), CurrentSample("11", 4e-5)])


def test_place_references_overlap_error():
    samples = [CurrentSample("00", 25e-6), CurrentSample("01", 20e-6),
               CurrentSample("10", 21e-6), CurrentSample("11", 40e-6)]
    with pytest.raises(OverlapError) as info:
        place_references(samples)
    assert info.value.lower_class == "00"


# ----------------------------------------------------------- classification

def test_classify_examples():
    assert classify(21e-6, PAPER_REFS, "or") == 1
    assert classify(21e-6, PAPER_REFS, "and") == 0
    assert classify(40e-6, PAPER_REFS, "xor") == 0  # above the window
    assert classify(21e-6, PAPER_REFS, "xor") == 1
    assert classify(2e-6, PAPER_REFS, "read") == 0
    assert classify(20e-6, PAPER_REFS, "read") == 1


def test_classify_boundary_ties_map_to_zero():
    assert classify(PAPER_REFS.i_read, PAPER_REFS, "read") == 0
    assert classify(PAPER_REFS.i_or, PAPER_REFS, "or") == 0
    assert classify(PAPER_REFS.i_and, PAPER_REFS, "and") == 0
    assert classify(PAPER_REFS.i_or, PAPER_REFS, "xor") == 0
    assert classify(PAPER_REFS.i_and, PAPER_REFS, "xor") == 0
    with pytest.raises(ValueError):
        classify(1e-6, PAPER_REFS, "nand")


# The Boolean function of each op on a stored bit pattern, written out
# independently of the popcount table.
BOOLEAN_OPS = {
    "read": lambda bits: int(bits == "1"),
    "or": lambda bits: int(any(b == "1" for b in bits)),
    "and": lambda bits: int(all(b == "1" for b in bits)),
    "xor": lambda bits: functools.reduce(operator.xor, (int(b) for b in bits)),
}


def popcount_rule(current, refs, op):
    """The classification written out per current: a tie with a level is 0,
    otherwise the op of the number of levels strictly below the current."""
    levels = [refs.i_read] if op == "read" else list(refs.levels)
    if any(current == level for level in levels):
        return 0
    return expected_bit(op, "1" * sum(level < current for level in levels)
                        + "0" * sum(level >= current for level in levels))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.sets(st.floats(1e-7, 1e-4), min_size=n, max_size=n), st.floats(1e-8, 1e-4))),
    st.data())
def test_bucket_classification_equals_classify(levels_and_read, data):
    levels, i_read = levels_and_read
    refs = ReferenceLevels(levels=tuple(sorted(levels)), i_read=i_read)
    ties = st.sampled_from(refs.levels + (refs.i_read,))
    currents = data.draw(st.lists(st.floats(0.0, 2e-4) | ties, max_size=20))
    currents += [*refs.levels, refs.i_read]  # an exact tie at every level and at i_read
    for op in SCOUTING_OPS:
        bits = classify_bucket(currents, refs, op.upper())
        assert bits == [classify(c, refs, op) for c in currents], op
        assert bits == [popcount_rule(c, refs, op) for c in currents], op


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_matches_op_table_noise_free(n):
    array, addrs = column_array(n=n)
    rng = np.random.default_rng(n)
    samples = []
    for bits in input_patterns(n) + ["0", "1"]:
        cells = addrs[:len(bits)]
        write_inputs(array, cells, bits, rng)
        samples.append(CurrentSample(bits, scout_current(array, cells, rng)))
    refs = place_references(samples)
    assert refs.n == n
    for op in SCOUTING_OPS:
        for s in samples:
            if (op == "read") == (len(s.input_class) == 1):
                bit = expected_bit(op, s.input_class)
                assert bit == BOOLEAN_OPS[op](s.input_class), (op, s.input_class)
                assert classify(s.current, refs, op) == bit, (op, s.input_class)


def test_scouting_gate_composition():
    array, addrs = column_array(params=VariabilityParams(), seed=7)
    rng = np.random.default_rng(7)
    assert scouting_gate(array, addrs, "11", "and", PAPER_REFS, rng) == 1
    assert scouting_gate(array, addrs, "00", "or", PAPER_REFS, rng) == 0
    assert scouting_gate(array, addrs, "10", "xor", PAPER_REFS, rng) == 1
    assert scouting_gate(array, addrs, "01", "xor", PAPER_REFS, rng) == 1
    assert scouting_gate(array, addrs, "11", "xor", PAPER_REFS, rng) == 0


@pytest.mark.parametrize("op, n", [("read", 2), ("READ", 3), ("and", 1), ("or", 3),
                                   ("xor", 1)])
def test_scouting_gate_rejects_a_selection_of_another_width(op, n):
    # READ reads one cell, every other op refs.n cells: a two-cell READ would
    # answer as OR, and a one-cell AND at the paper's references as 0.
    array, addrs = column_array(params=VariabilityParams(), n=3, seed=7)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    width = 1 if op.lower() == "read" else PAPER_REFS.n
    with pytest.raises(ValueError, match=f"^scouting op {op!r} reads {width} input "
                                         f"cells, got {n}$"):
        scouting_gate(array, addrs[:n], "1" * n, op, PAPER_REFS, rng)
    assert rng.bit_generator.state == state  # rejected before any pulse
    bits = "1" * width
    assert scouting_gate(array, addrs[:width], bits, op, PAPER_REFS, rng) == expected_bit(
        op.lower(), bits)


# ------------------------------------------------------------ n-input form

def n3_samples():
    pc = {0: 3 * I_HRS, 1: I_LRS + 2 * I_HRS, 2: 2 * I_LRS + I_HRS, 3: 3 * I_LRS}
    patterns = ["000", "001", "010", "100", "011", "101", "110", "111"]
    return [CurrentSample(p, pc[p.count("1")]) for p in patterns]


def test_extend_three_inputs_noise_free():
    refs = place_references(n3_samples())
    assert refs.levels == pytest.approx(
        (1.257732e-5, 3.154639e-5, 5.051546e-5), rel=1e-4)
    assert refs.i_read == pytest.approx(refs.i_or / 2)


def test_extend_two_inputs_matches_place_references():
    # The pair placement is the n = 2 case: one level per popcount gap.
    refs = place_references(noise_free_pair_samples())
    assert refs.levels == (refs.i_or, refs.i_and)
    assert refs.levels == pytest.approx((0.5 * (I_00 + I_01), 0.5 * (I_01 + I_11)))


def test_extend_overlap_names_lowest_pair():
    samples = n3_samples() + [CurrentSample("000", 23e-6)]
    with pytest.raises(OverlapError) as info:
        place_references(samples)
    assert info.value.lower_class == "000"
    assert info.value.upper_class == "001|010|100"


def test_extend_validates_input():
    with pytest.raises(ValueError):
        place_references([])
    with pytest.raises(ValueError):
        place_references([CurrentSample("01", 1e-6)])  # missing classes
    with pytest.raises(ValueError):
        place_references(noise_free_pair_samples() + [CurrentSample("011", 1e-6)])
    with pytest.raises(ValueError):
        place_references(noise_free_pair_samples() + [CurrentSample("2", 1e-6)])


# ------------------------------------------------------------- properties

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1e3, 1e6), min_size=1, max_size=5),
       st.floats(1e3, 1e5))
def test_adding_a_cell_never_decreases_current(resistances, extra):
    # Conductances add, so the summed current is monotone in the selection.
    base = 0.1 * sum(1.0 / r for r in resistances)
    extended = base + 0.1 / extra
    assert extended >= base


def test_monotonicity_on_arrays():
    array, addrs = column_array(n=4)
    rng = np.random.default_rng(9)
    write_inputs(array, addrs, "1100", rng)
    currents = [scout_current(array, addrs[:k], rng) for k in range(1, 5)]
    assert currents[1] >= currents[0]
    assert currents[2] >= currents[1]
    assert currents[3] >= currents[2]


def test_class_ordering_with_variability():
    array, addrs = column_array(params=VariabilityParams(), seed=10)
    rng = np.random.default_rng(10)
    means = {}
    for bits in ("00", "01", "10", "11"):
        vals = []
        for _ in range(30):
            write_inputs(array, addrs, bits, rng, refresh=True)
            vals.append(scout_current(array, addrs, rng))
        means[bits] = sum(vals) / len(vals)
    assert means["00"] < means["01"] < means["11"]
    assert means["00"] < means["10"] < means["11"]
    # Device-to-device spread separates the two mixed classes.
    assert means["01"] != means["10"]
