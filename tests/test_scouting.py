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
    OverlapError,
    ReferenceLevels,
    class_gaps,
    classify_bucket,
    expected_bit,
    input_patterns,
    reference_preset,
    references_in,
    scout_class,
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


def classify_one(current, refs, op):
    """``classify_bucket`` of one current."""
    [bit] = classify_bucket([current], refs, op)
    return bit


def cell_states(array):
    return {a: (c.state, c.resistance, c.cycle_count) for a, c in array.cells.items()}


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
        [current] = scout_class(array, addrs, bits, 1, rng, rng)
        assert current == pytest.approx(value, rel=1e-3)


def test_single_hrs_cell_reads_zero():
    array, addrs = column_array(n=1)
    rng = np.random.default_rng(1)
    [current] = scout_class(array, addrs[:1], "0", 1, rng, rng)
    assert current == pytest.approx(I_HRS, rel=1e-3)
    assert current < PAPER_REFS.i_read
    assert classify_one(current, PAPER_REFS, "read") == 0


def test_scout_requires_parallel_selectable_addresses():
    array, _ = column_array()
    rng = np.random.default_rng(3)
    with pytest.raises(TopologyError):
        scout_class(array, [CellAddress(0, 0), CellAddress(0, 1)], "11", 1, rng, rng)


def test_an_invalid_selection_raises_on_every_call(monkeypatch):
    validated = []
    real = array_module.validate_parallel_selection
    monkeypatch.setattr(array_module, "validate_parallel_selection",
                        lambda topology, addrs: validated.append(addrs) or real(topology, addrs))
    array, addrs = column_array()
    rng = np.random.default_rng(3)
    for _ in range(3):
        cells, state = cell_states(array), rng.bit_generator.state
        with pytest.raises(TopologyError):
            scout_class(array, [CellAddress(0, 0), CellAddress(0, 1)], "11", 1, rng, rng)
        assert (cell_states(array), rng.bit_generator.state) == (cells, state)  # no pulse
        scout_class(array, [tuple(a) for a in addrs], "10", 1, rng, rng)  # plain tuples are wrapped
    assert len(validated) == 6
    assert validated[1] == tuple(addrs) and type(validated[1][0]) is CellAddress


def test_scout_read_is_non_destructive(monkeypatch):
    # Every read of a bucket, verifying a write or scouting the class, leaves
    # every cell as it found it and draws nothing from the switching generator.
    array, addrs = column_array(params=VariabilityParams(), seed=4)
    rng, read_rng = np.random.default_rng(4), np.random.default_rng(5)
    real_read, reads = array.read_cell, []

    def read_cell(addr, noise_rng):
        before = cell_states(array), rng.bit_generator.state
        reads.append(real_read(addr, noise_rng))
        assert (cell_states(array), rng.bit_generator.state) == before
        return reads[-1]

    monkeypatch.setattr(array, "read_cell", read_cell)
    currents = scout_class(array, addrs, "10", 50, rng, read_rng)
    assert len(reads) >= 2 * 50  # at least the two scouting reads of every cycle
    assert len(set(currents)) == 50  # each cycle's read draws its own noise


def test_write_inputs_states():
    array, addrs = column_array(params=VariabilityParams(), seed=5)
    rng = np.random.default_rng(5)
    boundary = default_boundary(VariabilityParams())
    scout_class(array, addrs, "11", 1, rng, rng)
    assert [array.cell(a).state for a in addrs] == ["lrs", "lrs"]
    scout_class(array, addrs, "00", 1, rng, rng)
    assert [array.cell(a).state for a in addrs] == ["hrs", "hrs"]
    scout_class(array, addrs, [1, 0], 1, rng, rng)
    assert [array.cell(a).state for a in addrs] == ["lrs", "hrs"]
    scout_class(array, addrs, "01", 1, rng, rng)
    assert [array.cell(a).state for a in addrs] == ["hrs", "lrs"]
    assert binarize(array.cell(addrs[1]).resistance, boundary) == 1


def test_write_inputs_refresh_draws_fresh_values():
    array, addrs = column_array(params=VariabilityParams(), seed=6)
    rng = np.random.default_rng(6)
    values = set()
    for _ in range(10):
        scout_class(array, addrs, "01", 1, rng, rng)
        values.add((array.cell(addrs[0]).resistance, array.cell(addrs[1]).resistance))
    assert len(values) == 10


def test_write_inputs_length_mismatch():
    array, addrs = column_array()
    with pytest.raises(ValueError, match="one bit per address"):
        scout_class(array, addrs, "011", 1, np.random.default_rng(0),
                    np.random.default_rng(1))


@pytest.mark.parametrize("bits", ["12", [0, 2], ["1", "x"], [1, None], [0, 0.5]])
def test_write_inputs_rejects_non_bits_before_any_pulse(bits):
    array, addrs = column_array(params=VariabilityParams(), seed=11)
    rng = np.random.default_rng(11)
    scout_class(array, addrs, "10", 1, rng, rng)
    cells, state = cell_states(array), rng.bit_generator.state
    with pytest.raises(ValueError, match="input bits must be 0 or 1"):
        scout_class(array, [(0, 0), (1, 0)], bits, 1, rng, rng)
    assert cell_states(array) == cells
    assert rng.bit_generator.state == state


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


PAIR_CURRENTS = {"00": [I_00], "01": [I_01], "10": [I_01], "11": [I_11]}


def test_place_references_noise_free_midpoints():
    refs = references_in(*class_gaps(PAIR_CURRENTS))
    assert refs.i_or == pytest.approx(1.15464e-5, rel=1e-4)
    assert refs.i_and == pytest.approx(3.05155e-5, rel=1e-4)
    assert refs.i_read == pytest.approx(refs.i_or / 2)


def test_place_references_with_single_cell_classes():
    currents = {**PAIR_CURRENTS, "0": [I_HRS], "1": [I_LRS]}
    refs = references_in(*class_gaps(currents))
    assert refs.i_read == pytest.approx(0.5 * (I_HRS + I_LRS), rel=1e-6)


def test_place_references_overlap_error():
    currents = {"00": [25e-6], "01": [20e-6], "10": [21e-6], "11": [40e-6]}
    with pytest.raises(OverlapError) as info:
        references_in(*class_gaps(currents))
    assert info.value.lower_class == "00"


# ----------------------------------------------------------- classification

def test_classify_examples():
    assert classify_one(21e-6, PAPER_REFS, "or") == 1
    assert classify_one(21e-6, PAPER_REFS, "and") == 0
    assert classify_one(40e-6, PAPER_REFS, "xor") == 0  # above the window
    assert classify_one(21e-6, PAPER_REFS, "xor") == 1
    assert classify_one(2e-6, PAPER_REFS, "read") == 0
    assert classify_one(20e-6, PAPER_REFS, "read") == 1


def test_classify_boundary_ties_map_to_zero():
    # A tie with any level maps to 0, whatever the op gives on either side.
    assert classify_one(PAPER_REFS.i_read, PAPER_REFS, "read") == 0
    assert classify_one(PAPER_REFS.i_or, PAPER_REFS, "or") == 0
    assert classify_one(PAPER_REFS.i_and, PAPER_REFS, "and") == 0
    assert classify_one(PAPER_REFS.i_or, PAPER_REFS, "xor") == 0
    assert classify_one(PAPER_REFS.i_and, PAPER_REFS, "xor") == 0
    with pytest.raises(ValueError):
        classify_one(1e-6, PAPER_REFS, "nand")


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
        assert bits == [classify_one(c, refs, op) for c in currents], op  # one at a time
        assert bits == [popcount_rule(c, refs, op) for c in currents], op


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_matches_op_table_noise_free(n):
    array, addrs = column_array(n=n)
    rng = np.random.default_rng(n)
    currents = {bits: scout_class(array, addrs[:len(bits)], bits, 1, rng, rng)
                for bits in input_patterns(n) + ["0", "1"]}
    refs = references_in(*class_gaps(currents))
    assert refs.n == n
    for op in SCOUTING_OPS:
        for input_class, [current] in currents.items():
            if (op == "read") == (len(input_class) == 1):
                bit = expected_bit(op, input_class)
                assert bit == BOOLEAN_OPS[op](input_class), (op, input_class)
                assert classify_one(current, refs, op) == bit, (op, input_class)


def test_scouting_gate_composition():
    # Write, scout and classify one cycle against the published references.
    array, addrs = column_array(params=VariabilityParams(), seed=7)
    rng = np.random.default_rng(7)
    for bits, op, out in [("11", "and", 1), ("00", "or", 0), ("10", "xor", 1),
                          ("01", "xor", 1), ("11", "xor", 0)]:
        assert classify_bucket(scout_class(array, addrs, bits, 1, rng, rng), PAPER_REFS, op) == [out]


# ------------------------------------------------------------ n-input form

POPCOUNT_CURRENTS_3 = (3 * I_HRS, I_LRS + 2 * I_HRS, 2 * I_LRS + I_HRS, 3 * I_LRS)
N3_CURRENTS = {p: [POPCOUNT_CURRENTS_3[p.count("1")]] for p in input_patterns(3)}


def test_extend_three_inputs_noise_free():
    refs = references_in(*class_gaps(N3_CURRENTS))
    assert refs.levels == pytest.approx((1.257732e-5, 3.154639e-5, 5.051546e-5), rel=1e-4)
    assert refs.i_read == pytest.approx(refs.i_or / 2)


def test_extend_overlap_names_lowest_pair():
    with pytest.raises(OverlapError) as info:
        references_in(*class_gaps({**N3_CURRENTS, "000": [3 * I_HRS, 23e-6]}))
    assert info.value.lower_class == "000"
    assert info.value.upper_class == "001|010|100"


def test_extend_validates_input():
    with pytest.raises(ValueError):
        class_gaps({})
    with pytest.raises(ValueError):
        class_gaps({"01": [1e-6]})  # missing classes
    with pytest.raises(ValueError):
        class_gaps({**PAIR_CURRENTS, "011": [1e-6]})
    with pytest.raises(ValueError):
        class_gaps({**PAIR_CURRENTS, "2": [1e-6]})


@pytest.mark.parametrize("currents, name", [
    ({**PAIR_CURRENTS, "00": []}, "00"),  # a level class
    ({**PAIR_CURRENTS, "0": [], "1": [I_LRS]}, "0"),  # the READ class
])
def test_class_gaps_names_an_empty_class(currents, name):
    with pytest.raises(ValueError, match=rf"^no currents for classes \['{name}'\]$"):
        class_gaps(currents)


# ------------------------------------------------------------- properties

def test_monotonicity_on_arrays():
    array, addrs = column_array(n=4)
    rng = np.random.default_rng(9)
    scout_class(array, addrs, "1100", 1, rng, rng)
    currents = [scout_class(array, addrs[:k], "1100"[:k], 1, rng, rng)[0] for k in range(1, 5)]
    assert currents[1] >= currents[0]
    assert currents[2] >= currents[1]
    assert currents[3] >= currents[2]


def test_class_ordering_with_variability():
    array, addrs = column_array(params=VariabilityParams(), seed=10)
    rng = np.random.default_rng(10)
    means = {}
    for bits in ("00", "01", "10", "11"):
        vals = scout_class(array, addrs, bits, 30, rng, rng)
        means[bits] = sum(vals) / len(vals)
    assert means["00"] < means["01"] < means["11"]
    assert means["00"] < means["10"] < means["11"]
    # Device-to-device spread separates the two mixed classes.
    assert means["01"] != means["10"]
