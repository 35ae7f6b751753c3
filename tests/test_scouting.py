import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic.array import ArrayTopology, CellAddress, CellArray, TopologyError, TopologyKind
from memlogic.device import VariabilityParams, binarize, default_boundary
from memlogic.scouting import (
    PAPER_REFS,
    SCOUTING_OPS,
    CurrentSample,
    OverlapError,
    ReferenceLevels,
    classify,
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
