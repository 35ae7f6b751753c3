import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memlogic.array import (
    ArrayTopology,
    CellAddress,
    CellArray,
    LineDrive,
    TopologyError,
    TopologyKind,
    check_parallel_distinct_voltages,
    validate_parallel_selection,
)
from memlogic.device import (
    Pulse,
    SwitchEvent,
    VariabilityParams,
    apply_pulse,
    sample_fresh_cell,
)

STD = ArrayTopology(TopologyKind.STANDARD_1T1R, rows=4, cols=4)
PSEUDO = ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, rows=4, cols=4)
PARAMS = VariabilityParams()

SET_PULSE = Pulse(1.3, 0.0, 1.3, 1e-6)
RESET_PULSE = Pulse(0.0, 1.6, 3.0, 1e-6)


def resolve_drives(topology, drive):
    """Every cell's pulse under ``drive``, row-major, the inert cells included:
    the oracle the skipping drive path is checked against."""
    resolved = []
    for row in range(topology.rows):
        v_g = drive.wl.get(row, 0.0)
        for col in range(topology.cols):
            addr = CellAddress(row, col)
            v_te = drive.sl.get(col, 0.0)
            v_be = drive.bl.get(topology.bl_of(addr), 0.0)
            resolved.append((addr, Pulse(v_te, v_be, v_g, drive.width)))
    return resolved


def every_cell(array):
    """Every rows x cols address mapped through ``array.cell``, row-major."""
    return {addr: array.cell(addr) for addr in (
        CellAddress(row, col) for row in range(array.topology.rows)
        for col in range(array.topology.cols))}


def pulses_by_addr(topology, drive):
    return dict(resolve_drives(topology, drive))


def test_read_drive_resolution():
    drive = LineDrive(wl={0: 3.0}, sl={0: 0.1}, bl={0: 0.0})
    pulse = pulses_by_addr(STD, drive)[CellAddress(0, 0)]
    assert (pulse.v_te, pulse.v_be, pulse.v_g) == (0.1, 0.0, 3.0)


def test_idle_drive_resolves_to_zero_pulses():
    resolved = resolve_drives(STD, LineDrive())
    assert len(resolved) == 16
    for _, pulse in resolved:
        assert (pulse.v_te, pulse.v_be, pulse.v_g) == (0.0, 0.0, 0.0)


def test_parallel_selection_sees_identical_pulses():
    drive = LineDrive(wl={0: 3.0, 1: 3.0}, sl={0: 0.1}, bl={0: 0.0})
    pulses = pulses_by_addr(STD, drive)
    assert pulses[CellAddress(0, 0)] == pulses[CellAddress(1, 0)]


def test_unselected_rows_have_gate_grounded():
    drive = LineDrive(wl={0: 3.0}, sl={1: 1.3})
    pulses = pulses_by_addr(STD, drive)
    assert pulses[CellAddress(2, 1)].v_g == 0.0
    assert pulses[CellAddress(2, 1)].v_te == 1.3  # still reported for disturb analysis


def test_address_bijectivity():
    resolved = resolve_drives(STD, LineDrive(wl={0: 3.0}))
    addrs = [addr for addr, _ in resolved]
    assert len(addrs) == len(set(addrs)) == STD.rows * STD.cols


def test_standard_same_column_structural_invariant():
    drive = LineDrive(wl={0: 3.0, 2: 1.3}, sl={1: 1.3, 2: 0.5}, bl={1: 0.0})
    by_col = {}
    for addr, pulse in resolve_drives(STD, drive):
        by_col.setdefault(addr.col, set()).add((pulse.v_te, pulse.v_be))
    for col, electrode_pairs in by_col.items():
        assert len(electrode_pairs) == 1


def test_pseudo_crossbar_row_bl():
    drive = LineDrive(wl={0: 3.0}, sl={0: 1.3, 1: 0.5}, bl={0: 0.2})
    pulses = pulses_by_addr(PSEUDO, drive)
    # Same row: shared BL and WL, per-column SL -> distinct TE voltages.
    assert pulses[CellAddress(0, 0)].v_te == 1.3
    assert pulses[CellAddress(0, 1)].v_te == 0.5
    assert pulses[CellAddress(0, 0)].v_be == pulses[CellAddress(0, 1)].v_be == 0.2


@pytest.mark.parametrize("line", ["wl", "sl", "bl"])
@pytest.mark.parametrize("volts", [math.nan, math.inf, -math.inf])
def test_line_drive_rejects_non_finite_voltage(line, volts):
    with pytest.raises(ValueError, match="finite"):
        LineDrive(**{line: {0: 1.0, 1: volts}})


def test_line_drive_rejects_bad_width():
    for width in (math.nan, math.inf, 0.0, -1e-6):
        with pytest.raises(ValueError):
            LineDrive(width=width)


LINES = st.dictionaries(st.integers(0, 3), st.sampled_from([0.0, 0.1, 1.3, 1.6, 3.0]),
                        max_size=4)


@settings(max_examples=40, deadline=None)
@given(wl=LINES, sl=LINES, bl=LINES, extra=st.integers(0, 3))
def test_line_drive_lines_cannot_change_after_it_is_built(wl, sl, bl, extra):
    """A drive keeps the content it was built with, so its key never goes stale."""
    drive = LineDrive(wl=wl, sl=sl, bl=bl)
    key = (tuple(wl.items()), tuple(sl.items()), tuple(bl.items()), drive.width)
    assert drive.key == key
    for name, source in (("wl", wl), ("sl", sl), ("bl", bl)):
        lines = getattr(drive, name)
        source[extra] = 9.9  # the caller's dict is not the drive's
        with pytest.raises(TypeError):
            lines[extra] = 9.9
        with pytest.raises(TypeError):
            del lines[next(iter(lines), extra)]
        with pytest.raises(AttributeError):
            setattr(drive, name, {extra: 9.9})
    assert drive.key == key
    assert (dict(drive.wl), dict(drive.sl), dict(drive.bl)) == tuple(
        dict(items) for items in key[:3])


def test_line_bounds_checked():
    array, rng = CellArray(STD, PARAMS), np.random.default_rng(0)
    with pytest.raises(ValueError, match="WL index 9"):
        array.apply_drive(LineDrive(wl={9: 3.0}), rng)
    with pytest.raises(ValueError, match="SL index -1"):
        array.apply_drive(LineDrive(sl={-1: 1.0}), rng)


def test_parallel_distinct_voltages_standard_violation():
    verdict = check_parallel_distinct_voltages(
        STD, CellAddress(0, 0), CellAddress(1, 0), SET_PULSE, RESET_PULSE)
    assert verdict is not None and "impossible" in verdict


def test_parallel_identical_pulses_ok():
    verdict = check_parallel_distinct_voltages(
        STD, CellAddress(0, 0), CellAddress(1, 0), SET_PULSE, SET_PULSE)
    assert verdict is None


def test_parallel_distinct_voltages_pseudo_ok():
    a = Pulse(1.3, 0.0, 3.0, 1e-6)
    b = Pulse(0.5, 0.0, 3.0, 1e-6)
    verdict = check_parallel_distinct_voltages(
        PSEUDO, CellAddress(0, 0), CellAddress(0, 1), a, b)
    assert verdict is None


def test_parallel_same_cell_rejected():
    with pytest.raises(ValueError):
        check_parallel_distinct_voltages(STD, CellAddress(0, 0), CellAddress(0, 0),
                                         SET_PULSE, SET_PULSE)


def test_validate_parallel_selection():
    validate_parallel_selection(STD, [CellAddress(0, 0), CellAddress(1, 0)])
    with pytest.raises(TopologyError):
        validate_parallel_selection(STD, [CellAddress(0, 0), CellAddress(0, 1)])
    validate_parallel_selection(PSEUDO, [CellAddress(0, 0), CellAddress(0, 1)])
    with pytest.raises(TopologyError):
        validate_parallel_selection(PSEUDO, [CellAddress(0, 0), CellAddress(1, 0)])
    with pytest.raises(TopologyError):
        validate_parallel_selection(STD, [])


def test_parallel_checks_reject_addresses_outside_the_array():
    topology = ArrayTopology(rows=4, cols=4)
    for addrs, bad in [([(99, 0), (100, 0)], (99, 0)),
                       ([CellAddress(0, 0), CellAddress(0, 4)], (0, 4))]:
        with pytest.raises(ValueError, match=f"^address {re.escape(str(bad))} out of bounds$"):
            validate_parallel_selection(topology, addrs)
    for cell_a, cell_b, bad in [((99, 7), (-5, 7), (99, 7)), ((1, 3), (1, -1), (1, -1))]:
        with pytest.raises(ValueError, match=f"^address {re.escape(str(bad))} out of bounds$"):
            check_parallel_distinct_voltages(topology, CellAddress(*cell_a),
                                             CellAddress(*cell_b), SET_PULSE, RESET_PULSE)
    # In-bounds requests keep their verdicts.
    assert "share the SL/BL pair of column 3" in check_parallel_distinct_voltages(
        topology, CellAddress(0, 3), CellAddress(3, 3), SET_PULSE, RESET_PULSE)


def make_array(seed=0):
    array = CellArray(STD, PARAMS, seed=seed)
    array.form(CellAddress(0, 0))
    return array


def test_apply_drive_single_set_event():
    array = make_array()
    rng = np.random.default_rng(1)
    array.apply_drive(LineDrive(wl={0: 3.0}, bl={0: 1.6}), rng)  # to HRS
    events = dict(array.apply_drive(LineDrive(wl={0: 1.3}, sl={0: 1.3}), rng))
    assert events[CellAddress(0, 0)] == SwitchEvent.SET
    others = [ev for addr, ev in events.items() if addr != CellAddress(0, 0)]
    assert all(ev == SwitchEvent.NONE for ev in others)


def test_apply_drive_reports_only_pulsed_cells():
    array = make_array()
    rng = np.random.default_rng(1)
    events = array.apply_drive(LineDrive(wl={0: 3.0, 2: 0.0}, bl={0: 1.6}), rng)
    assert events == [(CellAddress(0, 0), SwitchEvent.RESET)]
    with pytest.raises(ValueError):
        array.apply_drive(LineDrive(wl={0: 3.0}, bl={4: 1.6}), rng)


def pulse_every_cell(array, drive, rng):
    """Reference drive path: pulse all cells with their resolved voltages."""
    for addr, pulse in resolve_drives(array.topology, drive):
        apply_pulse(array.cell(addr), pulse, array.transistor, rng)


LINE_VOLTS = st.sampled_from([0.0, 0.1, 1.3, 1.6])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(TopologyKind)), seed=st.integers(0, 20),
       formed=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2))),
       drives=st.lists(st.tuples(
           st.dictionaries(st.integers(0, 2), st.sampled_from([0.0, 0.5, 1.3, 3.0])),
           st.dictionaries(st.integers(0, 2), LINE_VOLTS),
           st.dictionaries(st.integers(0, 2), LINE_VOLTS)), min_size=1, max_size=4))
def test_apply_drive_matches_pulsing_every_cell(kind, seed, formed, drives):
    topology = ArrayTopology(kind, rows=3, cols=3)
    fast, full = (CellArray(topology, PARAMS, seed=seed) for _ in range(2))
    for addr in formed:
        fast.form(addr)
        full.form(addr)
    rng_fast, rng_full = np.random.default_rng(seed), np.random.default_rng(seed)
    for wl, sl, bl in drives:
        drive = LineDrive(wl=wl, sl=sl, bl=bl)
        fast.apply_drive(drive, rng_fast)
        pulse_every_cell(full, drive, rng_full)
    assert every_cell(fast) == every_cell(full)
    assert rng_fast.bit_generator.state == rng_full.bit_generator.state


def single_cell_line_drive(topology, kind, addr):
    """A SET or RESET drive of one cell, built anew on every call."""
    if kind == "set":
        return LineDrive(wl={addr.row: 1.3}, sl={addr.col: 1.3},
                         bl={topology.bl_of(addr): 0.0})
    return LineDrive(wl={addr.row: 3.0}, sl={addr.col: 0.0}, bl={topology.bl_of(addr): 1.6})


def cell_states(array):
    return {addr: (c.state, c.resistance, c.last_lrs, c.last_hrs, c.cycle_count)
            for addr, c in every_cell(array).items()}


ADDRS = st.builds(CellAddress, st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(TopologyKind)), seed=st.integers(0, 20),
       formed=st.sets(ADDRS),
       steps=st.lists(st.tuples(st.sampled_from(["set", "reset"]), ADDRS),
                      min_size=1, max_size=12))
# A pseudo-crossbar RESET drives the shared row BL, so it resolves to every
# formed cell of the row and resets or disturbs the neighbours too.
@example(kind=TopologyKind.PSEUDO_CROSSBAR, seed=3,
         formed={CellAddress(0, c) for c in range(3)} | {CellAddress(1, 1)},
         steps=[("reset", CellAddress(0, 0)), ("set", CellAddress(0, 1)),
                ("reset", CellAddress(0, 0)), ("reset", CellAddress(1, 1)),
                ("reset", CellAddress(0, 0))])
def test_replaying_a_drive_equals_building_it_anew(kind, seed, formed, steps):
    topology = ArrayTopology(kind, rows=3, cols=3)
    replayed, rebuilt = (CellArray(topology, PARAMS, seed=seed) for _ in range(2))
    for addr in formed:
        replayed.form(addr)
        rebuilt.form(addr)
    built = {}  # one drive object per (kind, cell), applied again and again
    rng_replayed, rng_rebuilt = np.random.default_rng(seed), np.random.default_rng(seed)
    for kind_name, addr in steps:
        drive = built.setdefault((kind_name, addr),
                                 single_cell_line_drive(topology, kind_name, addr))
        assert (replayed.apply_drive(drive, rng_replayed)
                == rebuilt.apply_drive(single_cell_line_drive(topology, kind_name, addr),
                                       rng_rebuilt))
    assert cell_states(replayed) == cell_states(rebuilt)
    assert every_cell(replayed) == every_cell(rebuilt)
    assert rng_replayed.bit_generator.state == rng_rebuilt.bit_generator.state


def test_pseudo_crossbar_reset_replays_onto_its_row_neighbours():
    array = CellArray(ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, rows=3, cols=3), PARAMS,
                      seed=1)
    for col in range(3):
        array.form((0, col))
    rng = np.random.default_rng(1)
    reset = single_cell_line_drive(array.topology, "reset", CellAddress(0, 0))
    row = [CellAddress(0, col) for col in range(3)]
    assert array.apply_drive(reset, rng) == [(addr, SwitchEvent.RESET) for addr in row]
    array.apply_drive(single_cell_line_drive(array.topology, "set", row[1]), rng)
    assert array.apply_drive(reset, rng) == [(row[0], SwitchEvent.HRS_DISTURB),
                                             (row[1], SwitchEvent.RESET),
                                             (row[2], SwitchEvent.HRS_DISTURB)]


def test_apply_drive_idle_is_identity():
    array = make_array()
    rng = np.random.default_rng(2)
    before = {addr: (c.state, c.resistance) for addr, c in every_cell(array).items()}
    events = array.apply_drive(LineDrive(), rng)
    assert all(ev == SwitchEvent.NONE for _, ev in events)
    after = {addr: (c.state, c.resistance) for addr, c in every_cell(array).items()}
    assert before == after


def test_two_wl_read_drive():
    array = make_array()
    array.form(CellAddress(1, 0))
    rng = np.random.default_rng(3)
    drive = LineDrive(wl={0: 3.0, 1: 3.0}, sl={0: 0.1}, bl={0: 0.0})
    events = dict(array.apply_drive(drive, rng))
    assert all(ev == SwitchEvent.NONE for ev in events.values())
    for row in (0, 1):
        r = array.read_cell(CellAddress(row, 0), rng)
        assert 0 < r < float("inf")


def test_unselected_cells_never_flip():
    array = make_array()
    for addr in every_cell(array):
        array.form(addr)
    rng = np.random.default_rng(4)
    before = cell_states(array)
    # Hammer row 0 with SET/RESET; all other rows have their WL grounded.
    for _ in range(20):
        array.apply_drive(LineDrive(wl={0: 3.0}, bl={0: 1.6, 1: 1.6}), rng)
        array.apply_drive(LineDrive(wl={0: 1.3}, sl={0: 1.3, 1: 1.3}), rng)
    after = cell_states(array)
    assert after[CellAddress(0, 0)] != before[CellAddress(0, 0)]
    # An unselected cell is not even disturbed: its state and resistance stay.
    assert {a: s for a, s in after.items() if a.row != 0} == {
        a: s for a, s in before.items() if a.row != 0}


def test_sampling_is_per_address_deterministic():
    a = CellArray(STD, PARAMS, seed=5)
    b = CellArray(STD, PARAMS, seed=5)
    a_cells = every_cell(a)
    for addr in reversed(list(a_cells)):  # b is sampled last to first
        rng = np.random.default_rng(np.random.SeedSequence((5, 0, *addr)))
        assert (b.cell(addr) == a_cells[addr]
                == sample_fresh_cell(PARAMS, rng, cell_id=a_cells[addr].cell_id))


def test_topology_validation():
    with pytest.raises(ValueError):
        ArrayTopology(rows=0, cols=4)
    array = make_array()
    with pytest.raises(ValueError):
        array.cell(CellAddress(9, 9))


def cell_params(cell):
    return (cell.lrs_median_cell, cell.hrs_median_cell, cell.v_set_th,
            cell.v_reset_th, cell.v_form_th, cell.resistance)


def test_cells_sampled_in_any_order_match_row_major():
    row_major = CellArray(STD, PARAMS, seed=8)
    expected = {addr: cell_params(cell) for addr, cell in every_cell(row_major).items()}
    addrs = list(expected)
    rng = np.random.default_rng(0)
    for order in (addrs[::-1], list(rng.permutation(addrs))):
        array = CellArray(STD, PARAMS, seed=8)
        for row, col in order:
            assert cell_params(array.cell((int(row), int(col)))) == expected[(row, col)]
        assert every_cell(array) == every_cell(row_major)


def test_untouched_cells_are_never_sampled(monkeypatch):
    import memlogic.array as array_module

    sampled = []
    real = array_module.sample_fresh_cell

    def counting(params, rng, cell_id="cell"):
        sampled.append(cell_id)
        return real(params, rng, cell_id=cell_id)

    monkeypatch.setattr(array_module, "sample_fresh_cell", counting)
    array = CellArray(STD, PARAMS, seed=9)
    assert sampled == []
    array.form((1, 2))
    rng = np.random.default_rng(5)
    array.apply_drive(LineDrive(wl={1: 1.3}, sl={2: 1.3}), rng)
    array.read_cell((1, 2), rng)
    assert sampled == ["r1c2"]
    assert list(array.cells) == [CellAddress(1, 2)]


def test_cell_rejects_foreign_addresses():
    array = make_array()
    for addr in [(4, 0), (0, -1), (0.5, 0), "r0c0", (0, 0, 0), [0], 7]:
        with pytest.raises((TypeError, ValueError)):
            array.cell(addr)
    cell = array.cell((np.int64(1), np.int64(2)))
    assert cell is array.cell(CellAddress(1, 2)) is array.cell([1, 2])
    assert cell.cell_id == "r1c2"
    assert list(array.cells) == [CellAddress(0, 0), CellAddress(1, 2)]


@pytest.mark.parametrize("topology, drive, row, expected", [
    (STD, LineDrive(wl={0: 3.0}, sl={2: 1.3}, bl={0: 1.6, 3: 0.0}), 0, [0, 2]),
    (STD, LineDrive(wl={1: 3.0}), 1, []),
    (PSEUDO, LineDrive(wl={0: 3.0}, sl={3: 1.3}, bl={1: 1.6}), 0, [3]),
    (PSEUDO, LineDrive(wl={1: 3.0}, sl={3: 1.3}, bl={1: 1.6}), 1, [0, 1, 2, 3]),
    (PSEUDO, LineDrive(wl={1: 3.0}, sl={0: -0.0}, bl={1: 0.0}), 1, []),
])
def test_live_cols_follow_the_wiring(topology, drive, row, expected):
    events = CellArray(topology, PARAMS).apply_drive(drive, np.random.default_rng(0))
    assert [addr.col for addr, _ in events if addr.row == row] == expected
    pulses = pulses_by_addr(topology, drive)
    assert expected == [col for col in range(topology.cols)
                        if (pulses[CellAddress(row, col)].v_te,
                            pulses[CellAddress(row, col)].v_be) != (0.0, 0.0)]


@pytest.mark.parametrize("rows, cols", [(2.5, 4), (4, 2.0), (True, 4), (4, False),
                                        ("4", 4), (0, 4), (4, -1)])
def test_topology_rejects_non_integer_or_small_sizes(rows, cols):
    with pytest.raises(ValueError, match="rows|cols"):
        ArrayTopology(rows=rows, cols=cols)
