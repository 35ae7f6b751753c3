import enum
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memlogic import analysis as analysis_module
from memlogic import array as array_module
from memlogic.analysis import ExperimentConfig, _stream, sample_scouting_currents
from memlogic.array import (
    RESET_BITS,
    SET_BITS,
    ArrayTopology,
    CellAddress,
    CellArray,
    TopologyError,
    TopologyKind,
    check_parallel,
    logic_pulse_voltages,
    replay,
    resolve_drives,
)
from memlogic.device import (
    V_BE_RESET,
    V_G_ON,
    V_TE_SET,
    Pulse,
    SwitchEvent,
    VariabilityParams,
    apply_pulse,
    read_resistance,
    sample_fresh_cell,
)
from memlogic.logic1t1r import builtin_mapping, execute_gate_bucket
from memlogic.scouting import input_patterns, scout_class

STD = ArrayTopology(TopologyKind.STANDARD_1T1R, rows=4, cols=4)
PSEUDO = ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, rows=4, cols=4)
PARAMS = VariabilityParams()

SET_PULSE = Pulse(1.3, 0.0, 1.3)
RESET_PULSE = Pulse(0.0, 1.6, 3.0)

#: Every resolved (g, te, be), the ones no gate reaches included.
ALL_BITS = list(itertools.product((0, 1), repeat=3))


def every_cell_pulse(topology, addr, bits):
    """Every cell's pulse under the logic pulse of ``bits`` on the cell at
    ``addr``, row-major, the inert cells included: the oracle the skipping
    drive path is checked against.  The pulse drives the cell's WL, its column
    SL and the BL its BE hangs on; every other line is held at 0 V."""
    v_te, v_be, v_g = logic_pulse_voltages(*bits)
    wl, sl, bl = {addr.row: v_g}, {addr.col: v_te}, {topology.bl_of(addr): v_be}
    resolved = []
    for row in range(topology.rows):
        for col in range(topology.cols):
            other = CellAddress(row, col)
            resolved.append((other, Pulse(sl.get(col, 0.0), bl.get(topology.bl_of(other), 0.0),
                                          wl.get(row, 0.0))))
    return resolved


def every_cell(array):
    """Every rows x cols address mapped through ``array.cell``, row-major."""
    return {addr: array.cell(addr) for addr in (
        CellAddress(row, col) for row in range(array.topology.rows)
        for col in range(array.topology.cols))}


def pulses_by_addr(topology, addr, bits):
    return dict(every_cell_pulse(topology, addr, bits))


def replay_events(resolved, rng):
    """``replay`` a resolution, which returns nothing; the event of each pulse
    it applies, in order, recorded from ``apply_pulse``."""
    events = []

    def recording(cell, pulse, rng):
        events.append(apply_pulse(cell, pulse, rng))
        return events[-1]

    with mock.patch.object(array_module, "apply_pulse", recording):
        assert replay(resolved, rng) is None
    return events


def address_of(array, cell):
    """The address ``array`` sampled ``cell`` at."""
    [addr] = [addr for addr, other in array.cells.items() if other is cell]
    return addr


def drive_events(array, addr, bits, rng):
    """Replay a fresh resolution of the cell's drive by ``bits`` on ``array``;
    each pulsed cell's address with its event, in address order."""
    resolved = resolve_drives(array, addr, bits)
    events = replay_events(resolved, rng)
    assert len(events) == len(resolved)
    return [(address_of(array, cell), event) for (cell, _), event in zip(resolved, events)]


def read(array, addr, rng):
    """The cell's noisy read at the operating point."""
    return read_resistance(array.cell(addr), rng)


def test_idle_drive_resolves_to_zero_pulses():
    array = CellArray(STD, PARAMS)
    for addr in every_cell(array):
        resolved = every_cell_pulse(STD, addr, (0, 0, 0))
        assert len(resolved) == 16
        for _, pulse in resolved:
            assert (pulse.v_te, pulse.v_be, pulse.v_g) == (0.0, 0.0, 0.0)
        assert resolve_drives(array, addr, (0, 0, 0)) == []


def test_unselected_rows_have_gate_grounded():
    pulses = pulses_by_addr(STD, CellAddress(0, 1), SET_BITS)
    assert pulses[CellAddress(2, 1)].v_g == 0.0
    # Still reported for disturb analysis.
    assert pulses[CellAddress(2, 1)].v_te == V_TE_SET


def test_address_bijectivity():
    resolved = every_cell_pulse(STD, CellAddress(0, 0), SET_BITS)
    addrs = [addr for addr, _ in resolved]
    assert len(addrs) == len(set(addrs)) == STD.rows * STD.cols


def test_standard_same_column_structural_invariant():
    for addr, bits in itertools.product(every_cell(CellArray(STD, PARAMS)), ALL_BITS):
        by_col = {}
        for other, pulse in every_cell_pulse(STD, addr, bits):
            by_col.setdefault(other.col, set()).add((pulse.v_te, pulse.v_be))
        for col, electrode_pairs in by_col.items():
            assert len(electrode_pairs) == 1


def test_pseudo_crossbar_row_bl():
    pulses = pulses_by_addr(PSEUDO, CellAddress(0, 0), (1, 1, 1))
    # Same row: shared BL and WL, per-column SL -> distinct TE voltages.
    assert pulses[CellAddress(0, 0)].v_te == V_TE_SET
    assert pulses[CellAddress(0, 1)].v_te == 0.0
    assert pulses[CellAddress(0, 0)].v_be == pulses[CellAddress(0, 1)].v_be == V_BE_RESET


@pytest.mark.parametrize("kind", list(TopologyKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("bits", ALL_BITS, ids=lambda bits: "".join(map(str, bits)))
def test_every_logic_pulse_resolves_to_the_cells_it_can_switch(kind, bits):
    topology = ArrayTopology(kind, rows=3, cols=4)
    array = CellArray(topology, PARAMS)
    for addr in every_cell(array):
        expected = [(array.cell(other), pulse)
                    for other, pulse in every_cell_pulse(topology, addr, bits)
                    if pulse.v_g >= V_G_ON and (pulse.v_te, pulse.v_be) != (0.0, 0.0)]
        assert resolve_drives(array, addr, bits) == expected


@pytest.mark.parametrize("kind", [TopologyKind.PSEUDO_CROSSBAR, "pseudo-crossbar",
                                  "Pseudo-Crossbar"], ids=["enum", "value", "mixed-case"])
def test_topology_stores_its_kind_as_the_enum(kind):
    topology = ArrayTopology(kind=kind)
    assert topology.kind is TopologyKind.PSEUDO_CROSSBAR
    assert topology == ArrayTopology(TopologyKind.PSEUDO_CROSSBAR)


@pytest.mark.parametrize("kind", ["pseudo_crossbar", "hexagon", 1, None])
def test_topology_rejects_an_unknown_kind_naming_the_accepted_values(kind):
    with pytest.raises(ValueError, match=(r"^array kind must be one of \['standard', "
                                          r"'pseudo-crossbar'\], in any case, got ")):
        ArrayTopology(kind=kind)


@pytest.mark.parametrize("kind", [TopologyKind.PSEUDO_CROSSBAR, "Pseudo-Crossbar"],
                         ids=["enum", "mixed-case"])
def test_scouting_on_the_pseudo_crossbar_raises_in_any_spelling(kind):
    # Scouting stores its inputs in one column, which no pseudo-crossbar BL holds.
    config = ExperimentConfig(cycles=4, topology=ArrayTopology(kind=kind))
    with pytest.raises(TopologyError, match="pseudo-crossbar parallel selection requires"):
        analysis_module.run_scouting_experiment(config)


#: Each wiring's lines of the cell at (row, col), written out: its (SL, BL, WL).
LINES = {TopologyKind.STANDARD_1T1R: lambda row, col: (f"SL {col}", f"BL {col}", f"WL {row}"),
         TopologyKind.PSEUDO_CROSSBAR: lambda row, col: (f"SL {col}", f"BL {row}", f"WL {row}")}
HALF_SET = Pulse(0.5, 0.0, 1.3)  # SET_PULSE at a lower TE voltage
#: Pulse pairs: alike, then differing in the TE, the BE or the gate voltage alone.
PULSE_PAIRS = {"alike": (SET_PULSE, SET_PULSE), "te": (SET_PULSE, HALF_SET),
               "be": (RESET_PULSE, Pulse(0.0, 0.8, 3.0)), "g": (SET_PULSE, Pulse(1.3, 0.0, 3.0))}
STD_READ, PSEUDO_READ = ("standard array parallel selection requires one column, got [0, 1]",
                         "pseudo-crossbar parallel selection requires one row, got [0, 1]")

#: Selections beside the oracle's pairs, each a test by its name: rows of the wiring, the
#: addresses, the pulses (None for a parallel read) and the error's message (None: wirable).
PARALLEL_TESTS = {
    "test_parallel_distinct_voltages_standard_violation": [
        (STD, [(0, 0), (1, 0)], [SET_PULSE, RESET_PULSE],
         "cells (0, 0) and (1, 0) share SL 0, which cannot carry 1.3 V and 0.0 V at once")],
    "test_parallel_identical_pulses_ok": [(STD, [(0, 0), (1, 0)], [SET_PULSE] * 2, None)],
    "test_parallel_distinct_voltages_pseudo_ok": [
        (PSEUDO, [(0, 0), (0, 1)], [SET_PULSE, HALF_SET], None),
        (PSEUDO, [(2, 0), (2, 1), (2, 3)], [SET_PULSE, HALF_SET, Pulse(1.3, 0.0, 3.0)],
         "cells (2, 0) and (2, 3) share WL 2, which cannot carry 1.3 V and 3.0 V at once")],
    "test_parallel_same_cell_rejected": [
        (STD, [(0, 0), CellAddress(0, 0)], [SET_PULSE] * 2,
         "duplicate addresses in parallel selection"),
        (PSEUDO, [(1, 1), (1, 1)], None, "duplicate addresses in parallel selection")],
    "test_parallel_check_takes_one_pulse_per_address": [
        (STD, [(0, 0), (1, 0)], [SET_PULSE], "need exactly one pulse per address")],
    "test_validate_parallel_selection": [
        (STD, [(0, 0), (1, 0), (3, 0)], None, None), (PSEUDO, [(0, 0), (0, 1)], None, None),
        (STD, [(0, 0), (0, 1)], None, STD_READ), (PSEUDO, [(0, 0), (1, 0)], None, PSEUDO_READ),
        (STD, [], None, "empty selection"), (PSEUDO, [], [], "empty selection")],
    "test_parallel_checks_reject_addresses_outside_the_array": [
        (STD, [(99, 0), (100, 0)], None, "address (99, 0) out of bounds"),
        (PSEUDO, [(1, 3), (1, -1)], [SET_PULSE, RESET_PULSE], "address (1, -1) out of bounds")],
}


def check_rows(rows):
    # An error is a TopologyError unless it is about an address or the pulse count.
    for topology, addrs, pulses, message in rows:
        if message is None:
            assert check_parallel(topology, addrs, pulses) is None
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            check_parallel(topology, addrs, pulses)
        assert isinstance(caught.value, TopologyError) != message.startswith(("address", "need"))


globals().update((name, lambda rows=rows: check_rows(rows))
                 for name, rows in PARALLEL_TESTS.items())


@pytest.mark.parametrize("kind", list(TopologyKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("pair", PULSE_PAIRS.values(), ids=PULSE_PAIRS)
def test_parallel_check_agrees_with_the_line_oracle(kind, pair):
    # A pair is wirable exactly when each line the two cells share carries one voltage.
    topology, volts = ArrayTopology(kind, rows=4, cols=4), [(p.v_te, p.v_be, p.v_g) for p in pair]
    for a, b in itertools.permutations(itertools.product(range(4), repeat=2), 2):
        conflicts = [f"cells {a} and {b} share {line}, which cannot carry {v} V and {w} V at once"
                     for line, other, v, w in zip(LINES[kind](*a), LINES[kind](*b), *volts)
                     if line == other and v != w]
        check_rows([(topology, [a, b], pair, conflicts[0] if conflicts else None)])


@pytest.mark.parametrize("topology", [STD, PSEUDO], ids=["standard", "pseudo-crossbar"])
def test_parallel_checks_take_plain_tuples(topology):
    # Each row of the wiring gives one verdict for tuples, CellAddresses and
    # [row, col] lists.
    rows = [row for rows in PARALLEL_TESTS.values() for row in rows if row[0] is topology]
    for form in (tuple, lambda a: CellAddress(*a), list):
        check_rows([(topology, [form(a) for a in addrs], *rest) for _, addrs, *rest in rows])


def test_a_cell_drive_is_resolved_once_and_replays_on_its_cell_alone(monkeypatch, rebind):
    array, rng = CellArray(STD, PARAMS), np.random.default_rng(0)
    built, resolutions, pulsed = [], [], []
    real_post_init = Pulse.__post_init__
    monkeypatch.setattr(Pulse, "__post_init__", lambda pulse: (built.append(pulse),
                                                                 real_post_init(pulse)))

    def resolving(array, addr, bits):
        resolutions.append(resolve_drives(array, addr, bits))
        return resolutions[-1]

    rebind(resolve_drives, resolving)
    rebind(apply_pulse, lambda cell, *args: pulsed.append(cell) or apply_pulse(cell, *args))
    addr = CellAddress(0, 0)
    own = array.drive(addr, SET_BITS)  # resolved on first use
    assert len(resolutions) == len(built) == 1 and resolutions[0] is own
    for _ in range(3):  # looked up and replayed
        assert array.drive(addr, SET_BITS) is own
        replay(own, rng)
    assert len(resolutions) == len(built) == 1
    # Only its own cell was pulsed, once per replay.
    assert len(pulsed) == 3 and all(cell is array.cell(addr) for cell in pulsed)


def make_array(seed=0):
    array = CellArray(STD, PARAMS, seed=seed)
    array.form(CellAddress(0, 0))
    return array


def test_replay_of_a_set_drive_sets_its_cell_alone():
    array = make_array()
    rng = np.random.default_rng(1)
    replay(resolve_drives(array, CellAddress(0, 0), RESET_BITS), rng)  # to HRS
    events = dict(drive_events(array, CellAddress(0, 0), SET_BITS, rng))
    assert events[CellAddress(0, 0)] == SwitchEvent.SET
    others = [ev for addr, ev in events.items() if addr != CellAddress(0, 0)]
    assert all(ev == SwitchEvent.NONE for ev in others)


def test_resolve_drives_lists_only_the_cells_a_drive_pulses():
    array = make_array()
    rng = np.random.default_rng(1)
    assert drive_events(array, CellAddress(2, 0), (0, 0, 1), rng) == []  # gate off
    events = drive_events(array, CellAddress(0, 0), RESET_BITS, rng)
    assert events == [(CellAddress(0, 0), SwitchEvent.RESET)]
    with pytest.raises(ValueError):
        replay(resolve_drives(array, CellAddress(0, 4), RESET_BITS), rng)


def pulse_every_cell(array, addr, bits, rng):
    """Reference drive path: pulse all cells with their resolved voltages."""
    for other, pulse in every_cell_pulse(array.topology, addr, bits):
        apply_pulse(array.cell(other), pulse, rng)


ADDRS = st.builds(CellAddress, st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(TopologyKind)), seed=st.integers(0, 20),
       formed=st.sets(ADDRS),
       drives=st.lists(st.tuples(ADDRS, st.sampled_from(ALL_BITS)), min_size=1, max_size=4))
def test_replay_matches_pulsing_every_cell(kind, seed, formed, drives):
    topology = ArrayTopology(kind, rows=3, cols=3)
    fast, full = (CellArray(topology, PARAMS, seed=seed) for _ in range(2))
    for addr in formed:
        fast.form(addr)
        full.form(addr)
    rng_fast, rng_full = np.random.default_rng(seed), np.random.default_rng(seed)
    for addr, bits in drives:
        replay(resolve_drives(fast, addr, bits), rng_fast)
        pulse_every_cell(full, addr, bits, rng_full)
    assert every_cell(fast) == every_cell(full)
    assert rng_fast.bit_generator.state == rng_full.bit_generator.state


def cell_states(array):
    return {addr: (c.state, c.resistance, c.last_lrs, c.last_hrs)
            for addr, c in every_cell(array).items()}


WRITE_BITS = {"set": SET_BITS, "reset": RESET_BITS}


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
    rng_replayed, rng_rebuilt = np.random.default_rng(seed), np.random.default_rng(seed)
    for kind_name, addr in steps:
        # The cell's cached drive, replayed again and again, against one built anew.
        cached = replayed.drive(addr, WRITE_BITS[kind_name])
        fresh = resolve_drives(rebuilt, addr, WRITE_BITS[kind_name])
        assert ([(cell.cell_id, pulse) for cell, pulse in cached]
                == [(cell.cell_id, pulse) for cell, pulse in fresh])
        assert replay_events(cached, rng_replayed) == replay_events(fresh, rng_rebuilt)
    assert cell_states(replayed) == cell_states(rebuilt)
    assert every_cell(replayed) == every_cell(rebuilt)
    assert rng_replayed.bit_generator.state == rng_rebuilt.bit_generator.state


def test_pseudo_crossbar_reset_replays_onto_its_row_neighbours():
    array = CellArray(ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, rows=3, cols=3), PARAMS,
                      seed=1)
    for col in range(3):
        array.form((0, col))
    rng = np.random.default_rng(1)
    row = [CellAddress(0, col) for col in range(3)]
    assert drive_events(array, row[0], RESET_BITS, rng) == [
        (addr, SwitchEvent.RESET) for addr in row]
    drive_events(array, row[1], SET_BITS, rng)
    assert drive_events(array, row[0], RESET_BITS, rng) == [
        (row[0], SwitchEvent.HRS_DISTURB), (row[1], SwitchEvent.RESET),
        (row[2], SwitchEvent.HRS_DISTURB)]


def test_replay_of_an_idle_drive_is_identity():
    array = make_array()
    rng = np.random.default_rng(2)
    before = {addr: (c.state, c.resistance) for addr, c in every_cell(array).items()}
    for addr, bits in itertools.product(before, [bits for bits in ALL_BITS if not bits[0]]):
        assert drive_events(array, addr, bits, rng) == []
    after = {addr: (c.state, c.resistance) for addr, c in every_cell(array).items()}
    assert before == after


def test_unselected_cells_never_flip():
    array = make_array()
    for addr in every_cell(array):
        array.form(addr)
    rng = np.random.default_rng(4)
    before = cell_states(array)
    # Hammer row 0 with SET/RESET; all other rows have their WL grounded.
    for _ in range(20):
        for bits, col in itertools.product((RESET_BITS, SET_BITS), (0, 1)):
            replay(resolve_drives(array, CellAddress(0, col), bits), rng)
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
    replay(resolve_drives(array, CellAddress(1, 2), SET_BITS), rng)
    read(array, (1, 2), rng)
    assert sampled == ["cell (1, 2)"]
    assert list(array.cells) == [CellAddress(1, 2)]


class Lane(enum.IntEnum):
    ONE, TWO = 1, 2


def test_cell_rejects_foreign_addresses():
    array = make_array()
    for addr in [(4, 0), (0, -1), (0.5, 0), "r0c0", (0, 0, 0), [0], 7]:
        with pytest.raises((TypeError, ValueError)):
            array.cell(addr)
    cell = array.cell((np.int64(1), np.int64(2)))
    # An int subclass that is not a bool is an integer too, keyed as plain ints.
    assert cell is array.cell(CellAddress(1, 2)) is array.cell([1, 2]) is array.cell(
        (Lane.ONE, Lane.TWO))
    assert cell.cell_id == "cell (1, 2)"
    assert list(array.cells) == [CellAddress(0, 0), CellAddress(1, 2)]


def test_an_address_is_two_integers_even_once_its_cell_is_sampled():
    array = make_array()
    array.cell((1, 2)), array.cell((1, 0)), array.drive((0, 2), SET_BITS)  # sampled, cached
    for lookup, addr in [(array.cell, (1.0, 2)), (array.cell, (True, 0)),
                         (lambda addr: array.drive(addr, SET_BITS), (0, 2.0))]:
        with pytest.raises(ValueError, match=f"^address {re.escape(str(addr))} must be two "
                                             "integers$"):
            lookup(addr)
    assert array.cell((np.int64(1), np.int64(2))) is array.cell((1, 2))


def test_cell_drives_takes_the_addresses_cell_takes():
    array = make_array()

    def outcome(lookup, addr):
        try:
            lookup(addr)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    def drive(addr):
        return array.drive(addr, SET_BITS)

    for addr in [(4, 0), (0, -1), (0.5, 0), "r0c0", (0, 0, 0), [0], 7]:
        assert outcome(drive, addr) == outcome(array.cell, addr) is not None
    resolved = drive((np.int64(1), np.int64(2)))
    assert resolved is drive([1, 2]) is drive(CellAddress(1, 2))
    # Keyed, and its cell sampled and named, by a plain-int address.
    assert resolved == [(array.cell((1, 2)), SET_PULSE)]
    assert array.cell((1, 2)).cell_id == "cell (1, 2)"


#: Bits that are not three values, each 0 or 1: the drive of none resolves.
BAD_BITS = [(2, 1, 0), (1, -1, 0), (0.5, 1, 0), (1, 1), (1, 1, 0, 0), (), "110", None, 6]


@pytest.mark.parametrize("bits", BAD_BITS, ids=repr)
def test_a_drive_rejects_bits_that_are_not_three_of_0_or_1(bits):
    array = make_array()
    cells = dict(array.cells)
    for resolve in (array.drive, lambda addr, bits: resolve_drives(array, addr, bits)):
        with pytest.raises(ValueError, match=f"^bits {re.escape(repr(bits))} must be three "
                                             r"values \(g, te, be\), each 0 or 1$"):
            resolve((0, 1), bits)
    assert array.cells == cells  # rejected before any cell is sampled


def test_a_drive_is_keyed_by_its_bits_as_a_tuple():
    array = make_array()
    assert array.drive((0, 1), [1, 1, 0]) is array.drive((0, 1), (1, 1, 0))


#: Every way an address enters, each called with one address on a formed 4 x 4 array.
ADDRESS_TAKERS = {
    "cell": lambda array, addr, rng: array.cell(addr),
    "form": lambda array, addr, rng: array.form(addr),
    "drive": lambda array, addr, rng: array.drive(addr, SET_BITS),
    "execute_gate_bucket": lambda array, addr, rng: execute_gate_bucket(
        array, addr, builtin_mapping("OR"), 0, 1, 1, rng, rng),
    "scout_class": lambda array, addr, rng: scout_class(array, [addr], "1", 1, rng, rng),
    "check_parallel": lambda array, addr, rng: check_parallel(array.topology, [addr]),
}


@pytest.mark.parametrize("taker", ADDRESS_TAKERS)
@pytest.mark.parametrize("addr, message", [
    ((1, 2, 3), "must be two integers"), ((0,), "must be two integers"),
    ((True, 0), "must be two integers"), ((0, 1.0), "must be two integers"),
    ((4, 0), "out of bounds"), ((0, -1), "out of bounds"),
    (7, "must be two integers"), (None, "must be two integers")], ids=str)
def test_every_address_taker_rejects_a_foreign_address_alike(taker, addr, message):
    # One check, before any cell is sampled or any draw is taken.
    array, rng = make_array(), np.random.default_rng(0)
    cells, state = dict(array.cells), rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^address {re.escape(str(addr))} {message}$"):
        ADDRESS_TAKERS[taker](array, addr, rng)
    assert (array.cells, rng.bit_generator.state) == (cells, state)


@pytest.mark.parametrize("topology, drive, row, expected", [
    (STD, (2, RESET_BITS), 0, [2]),
    (STD, (0, (0, 1, 1)), 1, []),
    (PSEUDO, (3, SET_BITS), 0, [3]),
    (PSEUDO, (3, RESET_BITS), 1, [0, 1, 2, 3]),
    (PSEUDO, (0, (1, 0, 0)), 1, []),
    (STD, (1, (1, 1, 1)), 3, [1]),
])
def test_resolve_drives_follows_the_wiring(topology, drive, row, expected):
    """``drive`` is the column and bits of the driven cell on ``row``."""
    col, bits = drive
    addr = CellAddress(row, col)
    events = drive_events(CellArray(topology, PARAMS), addr, bits, np.random.default_rng(0))
    assert [other for other, _ in events] == [CellAddress(row, c) for c in expected]
    pulses = pulses_by_addr(topology, addr, bits)
    assert expected == [col for col in range(topology.cols)
                        if pulses[CellAddress(row, col)].v_g >= V_G_ON
                        and (pulses[CellAddress(row, col)].v_te,
                             pulses[CellAddress(row, col)].v_be) != (0.0, 0.0)]


@pytest.mark.parametrize("rows, cols", [(2.5, 4), (4, 2.0), (True, 4), (4, False),
                                        ("4", 4), (0, 4), (4, -1)])
def test_topology_rejects_non_integer_or_small_sizes(rows, cols):
    with pytest.raises(ValueError, match="rows|cols"):
        ArrayTopology(rows=rows, cols=cols)


#: State spreads wide enough that each draw's truncation at the other state's
#: last value (``last_lrs``, ``last_hrs``) shows in the currents.
WIDE = PARAMS.replace(lrs_sigma_c2c=1.0, hrs_sigma_c2c=2.0)


@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize("n", [2, 3])
def test_each_scouting_class_runs_as_on_a_fresh_array(monkeypatch, n, verify):
    # The sampler runs every class on one array, restored to its formed input
    # cells: each class equals that class scouted alone on a freshly formed
    # column, and running the classes in reverse order changes none of them.
    config = ExperimentConfig(seed=5, cycles=30, n_inputs=n, topology=STD, device=WIDE)
    sampled = sample_scouting_currents(config, include_single=True, verify=verify)
    assert list(sampled) == input_patterns(n) + ["0", "1"]
    for bits, currents in sampled.items():
        fresh = CellArray(STD, WIDE, seed=config.seed)
        addrs = [CellAddress(row, 0) for row in range(len(bits))]
        for addr in addrs:
            fresh.form(addr)
        alone = scout_class(fresh, addrs, bits, config.cycles,
                            *_stream(config.seed, "scouting", len(bits), int(bits, 2)), verify)
        assert currents == alone and len(currents) == 30
    monkeypatch.setattr(analysis_module, "input_patterns", lambda k: input_patterns(k)[::-1])
    reversed_run = sample_scouting_currents(config, include_single=True, verify=verify)
    assert list(reversed_run) == input_patterns(n)[::-1] + input_patterns(1)[::-1]
    assert reversed_run == sampled
