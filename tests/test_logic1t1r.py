import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from memlogic import logic1t1r as logic_module
from memlogic.analysis import ExperimentConfig, run_characterization, write_exports
from memlogic.array import (
    RESET_BITS,
    SET_BITS,
    ArrayTopology,
    CellAddress,
    CellArray,
    TopologyKind,
    logic_pulse_voltages,
    replay,
    resolve_drives,
)
from memlogic.device import (
    V_BE_RESET,
    InvalidDriveError,
    NotFormedError,
    VariabilityParams,
    binarize,
    default_boundary,
)
from memlogic.logic1t1r import (
    BUILTIN_MAPPINGS,
    CASE_TABLE,
    INIT_RETRIES,
    LIBRARY_COLUMNS,
    TERM_ORDER,
    InitFailureError,
    ParamMapping,
    Term,
    builtin_mapping,
    classify_case,
    default_gate_library,
    evaluate_mapping,
    execute_gate_bucket,
    load_gate_library,
    synthesize_mapping,
    truth_table_of,
    write_bit,
)
from memlogic.scouting import scout_class

PARAMS = VariabilityParams()
BOUNDARY = default_boundary(PARAMS)
NOISE_FREE = PARAMS.replace(
    lrs_sigma_c2c=0.0, lrs_sigma_d2d=0.0, hrs_sigma_c2c=0.0, hrs_sigma_d2d=0.0,
    v_set_th_sigma=0.0, v_reset_th_sigma=0.0, v_form_th_sigma=0.0,
    read_noise_lrs=0.0, read_noise_hrs=0.0)


# Known-good copy of the 16-row input case table:
# (case, g, te, be, i, te-be, process, possible)
CASE_ORACLE = [
    (1, 1, 1, 1, 1, 0, None, False),
    (2, 1, 1, 1, 0, 0, None, False),
    (3, 1, 1, 0, 1, +1, "set", False),
    (4, 1, 1, 0, 0, +1, "set", True),
    (5, 1, 0, 1, 1, -1, "reset", True),
    (6, 1, 0, 1, 0, -1, "reset", False),
    (7, 1, 0, 0, 1, 0, None, False),
    (8, 1, 0, 0, 0, 0, None, False),
    (9, 0, 1, 1, 1, 0, None, False),
    (10, 0, 1, 1, 0, 0, None, False),
    (11, 0, 1, 0, 1, +1, "set", False),
    (12, 0, 1, 0, 0, +1, "set", False),
    (13, 0, 0, 1, 1, -1, "reset", False),
    (14, 0, 0, 1, 0, -1, "reset", False),
    (15, 0, 0, 0, 1, 0, None, False),
    (16, 0, 0, 0, 0, 0, None, False),
]

# Expected (case, output) routing for the five named gates over
# (p,q) = 00, 01, 10, 11.
GATE_ROUTING = {
    "OR": [(8, 0), (4, 1), (7, 1), (3, 1)],
    "AND": [(16, 0), (12, 0), (8, 0), (4, 1)],
    "NIMP": [(8, 0), (7, 1), (6, 0), (5, 0)],
    "XOR": [(12, 0), (4, 1), (13, 1), (5, 0)],
    "NOTP": [(15, 1), (13, 1), (16, 0), (14, 0)],
}

INPUTS = list(itertools.product((0, 1), repeat=2))


def test_case_table_matches_oracle():
    for case_id, g, te, be, i, tmb, process, possible in CASE_ORACLE:
        case = classify_case(g, te, be, i)
        assert case.case_id == case_id
        assert case.te_minus_be == tmb
        assert case.process == process
        assert case.possible == possible
    assert [c.case_id for c in CASE_TABLE] == list(range(1, 17))


def test_classify_rejects_non_bits():
    with pytest.raises(ValueError):
        classify_case(2, 0, 0, 0)


def test_expected_output_rules():
    assert classify_case(1, 1, 0, 0).output == 1  # case 4
    assert classify_case(1, 0, 1, 1).output == 0  # case 5
    assert classify_case(0, 0, 1, 1).output == 1  # case 13 -> i
    assert classify_case(0, 0, 0, 0).output == 0  # case 16 -> i
    assert [c.case_id for c in CASE_TABLE if c.output != c.i] == [4, 5]


def test_builtin_mapping_terms():
    assert builtin_mapping("OR").terms() == (Term.CONST1, Term.Q, Term.CONST0, Term.P)
    assert builtin_mapping("AND").terms() == (Term.P, Term.Q, Term.CONST0, Term.CONST0)
    assert builtin_mapping("NIMP").terms() == (Term.CONST1, Term.CONST0, Term.P, Term.Q)
    assert builtin_mapping("XOR").terms() == (Term.Q, Term.NOT_P, Term.P, Term.P)
    assert builtin_mapping("notp").terms() == (Term.CONST0, Term.CONST0, Term.Q, Term.NOT_P)
    with pytest.raises(KeyError):
        builtin_mapping("NOPE")


def test_gate_case_routing_and_truth_tables():
    pure = {
        "OR": lambda p, q: p | q,
        "AND": lambda p, q: p & q,
        "NIMP": lambda p, q: int(p == 0 and q == 1),
        "XOR": lambda p, q: p ^ q,
        "NOTP": lambda p, q: 1 - p,
    }
    for name, routing in GATE_ROUTING.items():
        mapping = builtin_mapping(name)
        for (p, q), (case_id, out) in zip(INPUTS, routing):
            ev = evaluate_mapping(mapping, p, q)
            assert (ev.case_id, ev.output) == (case_id, out)
            assert ev.output == pure[name](p, q)


def test_synthesize_or_is_valid():
    mapping = synthesize_mapping("0111")
    assert truth_table_of(mapping) == "0111"


def test_synthesize_constants():
    zero = synthesize_mapping("0000")
    one = synthesize_mapping([1, 1, 1, 1])
    assert truth_table_of(zero) == "0000"
    assert truth_table_of(one) == "1111"


def test_synthesize_all_16_fast_and_deterministic():
    start = time.monotonic()
    first = {n: synthesize_mapping(format(n, "04b")) for n in range(16)}
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    for n, mapping in first.items():
        assert truth_table_of(mapping) == format(n, "04b")
    second = {n: synthesize_mapping(format(n, "04b")) for n in range(16)}
    assert first == second


def test_synthesize_validates_input():
    with pytest.raises(ValueError):
        synthesize_mapping("011")
    with pytest.raises(ValueError):
        synthesize_mapping("01x1")
    # An entry is a bit, not a number that truncates to one.
    for table in ([1.9, 0, 0, 0], [0.5, 0, 0, 1], [-0.7, 0, 0, 0]):
        with pytest.raises(ValueError, match="truth table must be 4 bits"):
            synthesize_mapping(table)


def test_default_library():
    library = default_gate_library()
    assert len(library) == 21  # 5 named + 16 synthesized
    assert truth_table_of(library["F0111"]) == truth_table_of(library["OR"])


def test_default_library_is_the_synthesizer_output():
    library = default_gate_library()
    assert list(library)[:5] == list(BUILTIN_MAPPINGS)
    for n in range(16):
        bits = format(n, "04b")
        assert library[f"F{bits}"] == synthesize_mapping(bits)


def test_default_library_is_new_on_every_call():
    """Mutating one returned library changes neither the next one nor the
    synthesizer: both still equal what a fresh process builds."""
    script = ("from memlogic.logic1t1r import default_gate_library, synthesize_mapping\n"
              "print(repr((default_gate_library(),"
              " [synthesize_mapping(format(n, '04b')) for n in range(16)])))")
    env = dict(os.environ, PYTHONPATH=str(Path(logic_module.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env, timeout=120, check=True).stdout.strip()
    library = default_gate_library()
    library.update({"MYOR": library["OR"]})
    library["OR"] = BUILTIN_MAPPINGS["AND"]
    del library["F0110"]
    again = default_gate_library()
    assert "MYOR" not in again and again["OR"] == BUILTIN_MAPPINGS["OR"]
    assert repr((again, [synthesize_mapping(format(n, "04b")) for n in range(16)])) == fresh


# Known-good resolution of every term, and the switching rule of the case
# table: case 4 (g, te, !be, !i) SETs to 1, case 5 (g, !te, be, i) RESETs to 0.
TERM_ORACLE = {Term.CONST0: lambda p, q: 0, Term.CONST1: lambda p, q: 1,
               Term.P: lambda p, q: p, Term.NOT_P: lambda p, q: 1 - p,
               Term.Q: lambda p, q: q, Term.NOT_Q: lambda p, q: 1 - q}


def oracle_output(g, te, be, i):
    return {(1, 1, 0, 0): 1, (1, 0, 1, 1): 0}.get((g, te, be, i), i)


def test_truth_table_matches_the_case_algebra_for_every_mapping():
    for terms in itertools.product(TERM_ORDER, repeat=4):
        expected = "".join(str(oracle_output(*(TERM_ORACLE[t](p, q) for t in terms)))
                           for p, q in INPUTS)
        assert truth_table_of(ParamMapping("m", *terms)) == expected, terms
    for term in Term:
        assert [term.resolve(p, q) for p, q in INPUTS] == [TERM_ORACLE[term](p, q)
                                                            for p, q in INPUTS]


def test_evaluation_table_is_the_case_algebra():
    for mapping in BUILTIN_MAPPINGS.values():
        for p, q in INPUTS:
            g, te, be, i = (term.resolve(p, q) for term in mapping.terms())
            case = classify_case(g, te, be, i)
            assert evaluate_mapping(mapping, p, q) is case
        # The table is not a field: equality and hashing ignore it.
        fresh = ParamMapping(mapping.name, *mapping.terms())
        assert fresh == mapping and hash(fresh) == hash(mapping)
    with pytest.raises(ValueError, match="inputs must be 0 or 1"):
        evaluate_mapping(BUILTIN_MAPPINGS["OR"], 2, 0)


def test_term_resolve_rejects_non_bits():
    assert [Term.NOT_Q.resolve(p, q) for p, q in INPUTS] == [1, 0, 1, 0]
    with pytest.raises(ValueError):
        Term.CONST1.resolve(2, 0)


def test_library_roundtrip(tmp_path):
    # A library file is the ``LIBRARY_COLUMNS`` table that ``memlogic synthesize`` writes.
    [path] = write_exports([("gates", LIBRARY_COLUMNS,
                             [(m.name, *(t.value for t in m.terms()))
                              for m in BUILTIN_MAPPINGS.values()])], tmp_path)
    loaded = load_gate_library(path)
    assert loaded == BUILTIN_MAPPINGS
    bad = tmp_path / "bad.csv"
    bad.write_text("X,1,q,0\n")
    with pytest.raises(ValueError):
        load_gate_library(bad)
    bad.write_text("X,1,q,0,z\n")
    with pytest.raises(ValueError):
        load_gate_library(bad)


def test_library_names_that_csv_quotes_round_trip(tmp_path):
    # Written as ``cmd_synthesize`` writes its table, read back as ``--library`` reads it.
    mappings = {name: ParamMapping(name, Term.CONST1, Term.Q, Term.CONST0, Term.P)
                for name in ("A,B", 'Q"R', '"quoted"')}
    [path] = write_exports([("gates", LIBRARY_COLUMNS,
                             [(m.name, *(t.value for t in m.terms()))
                              for m in mappings.values()])], tmp_path)
    assert path.read_text().splitlines()[1:] == [
        '"A,B",1,q,0,p', '"Q""R",1,q,0,p', '"""quoted""",1,q,0,p']
    assert load_gate_library(path) == mappings


def test_logic_pulse_voltage_mapping():
    assert logic_pulse_voltages(1, 1, 0) == (1.3, 0.0, 1.3)   # SET operating point
    assert logic_pulse_voltages(1, 0, 1) == (0.0, 1.6, 3.0)   # RESET operating point
    assert logic_pulse_voltages(0, 1, 0) == (1.3, 0.0, 0.0)   # gate held closed
    assert logic_pulse_voltages(1, 0, 0) == (0.0, 0.0, 3.0)


def one_trial(array, addr, mapping, p, q, rng):
    """One trial: ``execute_gate_bucket`` of one cycle, pulses and reads on ``rng``."""
    [row] = execute_gate_bucket(array, addr, mapping, p, q, 1, rng, rng)
    return row


def counting_writes(rebind):
    """A ``one_trial`` that returns ``(row, writes)``: ``writes`` counts the
    ``write_bit`` calls of the trial's verified write."""
    real, calls = logic_module.write_bit, []
    rebind(real, lambda *args: calls.append(args) or real(*args))

    def trial(*args):
        calls.clear()
        return one_trial(*args), len(calls)

    return trial


def formed_array(seed=0, rows=4, cols=4):
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, rows, cols),
                      PARAMS, seed=seed)
    array.form(CellAddress(0, 0))
    return array


def test_execute_gate_or_01():
    array = formed_array()
    rng = np.random.default_rng(1)
    row = one_trial(array, (0, 0), builtin_mapping("OR"), 0, 1, rng)
    assert row.case_id == 4
    assert binarize(row.r_init_ohm, BOUNDARY) == 0  # initialized to i=p=0
    assert row.out_bit == 1 == row.expected_bit


def test_execute_gate_xor_11():
    array = formed_array()
    rng = np.random.default_rng(2)
    row = one_trial(array, (0, 0), builtin_mapping("XOR"), 1, 1, rng)
    assert row.case_id == 5
    assert binarize(row.r_init_ohm, BOUNDARY) == 1  # initialized to i=p=1
    assert row.out_bit == 0 == row.expected_bit


def test_zero_differential_mapping_keeps_initial_bit():
    # te and be resolve identically, so the final binary state must equal i.
    mapping = ParamMapping("SAME", Term.CONST1, Term.Q, Term.Q, Term.P)
    array = formed_array()
    rng = np.random.default_rng(3)
    for p, q in INPUTS:
        row = one_trial(array, (0, 0), mapping, p, q, rng)
        assert row.out_bit == evaluate_mapping(mapping, p, q).i == p


def test_execute_gate_requires_formed_cell():
    array = formed_array()
    rng = np.random.default_rng(4)
    with pytest.raises(NotFormedError):
        one_trial(array, (1, 1), builtin_mapping("OR"), 0, 0, rng)


def test_init_failure_raises():
    # A RESET threshold above the 1.6 V RESET drive leaves the formed LRS cell stuck.
    params = PARAMS.replace(v_reset_th_median=2.0, v_reset_th_sigma=0.0)
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, 4, 4), params, seed=0)
    array.form(CellAddress(0, 0))
    rng = np.random.default_rng(5)
    cell, writes = array.cell((0, 0)), 0
    reset, set_ = array.drive((0, 0), RESET_BITS), array.drive((0, 0), SET_BITS)
    with pytest.raises(InitFailureError, match=f"to 0 after {INIT_RETRIES} retries"):
        while True:
            writes = write_bit(cell, 0, reset, set_, rng, writes)
    assert writes == 1 + INIT_RETRIES and cell.state == "lrs"
    # So every cycle of a gate whose I is 0 gives up: no row.
    assert execute_gate_bucket(array, (0, 0), builtin_mapping("AND"), 0, 0, 3, rng, rng) == []


@pytest.mark.parametrize("writer, cycles", [
    pytest.param("execute_gate_bucket", 1, id="execute_gate_bucket-1"),
    pytest.param("execute_gate_bucket", 2, id="execute_gate_bucket-2"),
    pytest.param("scout_class", 1, id="scout_class"),
])
def test_a_verified_write_gives_up_after_four_writes(rebind, writer, cycles):
    # At a 1 GOhm access transistor no read binarizes to 1, so every write of a 1
    # to the formed (LRS) cell is a RESET and a SET: 1 + INIT_RETRIES = 4 writes,
    # 8 replays, then the error, for the read-first and the refresh write alike.
    # A gate bucket skips the cycle that gave up, and the next cycle counts its
    # writes from 0 again: 8 replays per cycle and no row, no logic pulse.
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, 4, 4),
                      PARAMS.replace(r_on=1e9), seed=0)
    array.form(CellAddress(0, 0))
    rng, replays = np.random.default_rng(5), []
    rebind(replay, lambda resolved, rng: replays.append(resolved) or replay(resolved, rng))
    if writer == "execute_gate_bucket":  # OR at p = 1 needs I = 1
        assert execute_gate_bucket(array, (0, 0), builtin_mapping("OR"), 1, 0, cycles,
                                   rng, rng) == []
    else:
        with pytest.raises(InitFailureError, match=f"to 1 after {INIT_RETRIES} retries"):
            scout_class(array, [CellAddress(0, 0)], "1", cycles, rng, rng)
    drives = [array.drive((0, 0), RESET_BITS), array.drive((0, 0), SET_BITS)]
    assert replays == drives * (1 + INIT_RETRIES) * cycles
    assert len(replays) == 8 * cycles


@pytest.mark.parametrize("p", [0, 1])
def test_a_pulse_error_names_its_cell(p):
    # At q = 1 the SAME gate drives 1.3 V on the TE and 1.6 V on the BE, above
    # both thresholds once the RESET threshold is 0.2 V; the writes stay valid.
    params = PARAMS.replace(v_reset_th_median=0.2, v_reset_th_sigma=0.0)
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, 4, 4), params, seed=0)
    array.form(CellAddress(0, 0))
    mapping = ParamMapping("SAME", Term.CONST1, Term.Q, Term.Q, Term.P)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidDriveError) as info:
        execute_gate_bucket(array, (0, 0), mapping, p, 1, 3, rng, rng)
    assert str(info.value) == "ambiguous drive on cell (0, 0): v_te=1.3, v_be=1.6"


#: Each cell error, raised on the cell at (2, 1) of a 4 x 4 array: the device
#: parameters that cause it, whether the cell is formed first, the call that
#: raises it and its message.  Every one names the cell as ``cell (2, 1)``, but
#: characterization's, on the first cell of its own 1 x cells array: ``cell (0, 0)``.
SAME = ParamMapping("SAME", Term.CONST1, Term.Q, Term.Q, Term.P)
CELL_ERRORS = {
    "ambiguous drive": (
        {"v_reset_th_median": 0.2, "v_reset_th_sigma": 0.0}, True,
        lambda array, rng: execute_gate_bucket(array, (2, 1), SAME, 0, 1, 1, rng, rng),
        InvalidDriveError, "ambiguous drive on cell (2, 1): v_te=1.3, v_be=1.6"),
    "forming give-up": (
        {"v_form_th_median": 6.0}, False, lambda array, rng: array.form((2, 1)),
        NotFormedError, "cell (2, 1) did not form up to 4.8 V (pulses at a 1.1 V gate)"),
    "not formed, gate": (
        {}, False,
        lambda array, rng: execute_gate_bucket(array, (2, 1), SAME, 0, 1, 1, rng, rng),
        NotFormedError, "cell (2, 1) is pristine; form it first"),
    "not formed, scouting": (
        {}, False, lambda array, rng: scout_class(array, [(2, 1)], "1", 1, rng, rng),
        NotFormedError, "cell (2, 1) is pristine; form it first"),
    "init give-up": (
        {"r_on": 1e9}, True, lambda array, rng: scout_class(array, [(2, 1)], "1", 1, rng, rng),
        InitFailureError, f"cell (2, 1) failed to initialize to 1 after {INIT_RETRIES} retries"),
    "read disturb": (
        {"v_set_th_median": 0.05, "v_set_th_sigma": 0.0}, True,
        lambda array, rng: execute_gate_bucket(array, (2, 1), SAME, 0, 1, 1, rng, rng),
        ValueError, "v_read=0.1 is not disturb-free for cell (2, 1)"),
    "characterization, cannot set": (
        {"v_set_th_median": 2.0}, False,
        lambda array, rng: run_characterization(
            ExperimentConfig(device=array.params, cycles=3, seed=array.seed), cells=1),
        ValueError, "cell (0, 0) is HRS after the 1.3 V SET pulse of cycle 1: its drawn "
                    "v_set_th = 2.0869749443382966, with device.v_set_th_median = 2.0 and "
                    "device.v_set_th_sigma = 0.05"),
}


@pytest.mark.parametrize("error", CELL_ERRORS)
def test_every_cell_error_names_its_cell_one_way(error):
    changes, formed, call, kind, message = CELL_ERRORS[error]
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, 4, 4),
                      PARAMS.replace(**changes), seed=0)
    if formed:
        array.form((2, 1))
    with pytest.raises(kind) as info:
        call(array, np.random.default_rng(0))
    assert str(info.value) == message


def test_cascade_reuses_matching_state(rebind):
    array = formed_array()
    rng = np.random.default_rng(6)
    trial = counting_writes(rebind)
    rows, writes = zip(*(trial(array, (0, 0), builtin_mapping(name), 1, 1, rng)
                         for name in ("OR", "NIMP")))
    # OR(1,1) leaves LRS; NIMP(1,1) needs i=q=1, so no re-initialization.
    assert len(writes) == 2 and writes[1] == 0
    assert [row.out_bit for row in rows] == [1, 0]


def test_reset_drive_uses_the_cell_bl():
    addr = CellAddress(2, 1)
    # The standard BL is the cell's column, the pseudo-crossbar's its whole row.
    for kind, bl, cols in ((TopologyKind.STANDARD_1T1R, 1, [1]),
                           (TopologyKind.PSEUDO_CROSSBAR, 2, [0, 1, 2, 3])):
        topology = ArrayTopology(kind, 4, 4)
        array = CellArray(topology, NOISE_FREE)
        resolved = resolve_drives(array, addr, RESET_BITS)
        address = {id(cell): a for a, cell in array.cells.items()}
        assert [(a, topology.bl_of(a), pulse.v_be)
                for a, pulse in ((address[id(cell)], pulse) for cell, pulse in resolved)] == [
            (CellAddress(2, col), bl, V_BE_RESET) for col in cols]


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("case", CASE_TABLE, ids=lambda case: f"case{case.case_id}")
def test_every_case_pulse_leaves_the_case_output(case, kind):
    # The one switching rule holds against the device model for all 16 cases,
    # including those no shipped gate reaches: a mapping of constants resolves
    # to the case on every input pair.
    array = CellArray(ArrayTopology(kind, 4, 4), NOISE_FREE, seed=1)
    addr = CellAddress(2, 1)
    array.form(addr)
    rng = np.random.default_rng(case.case_id)
    const = (Term.CONST0, Term.CONST1)
    mapping = ParamMapping("CASE", const[case.g], const[case.te], const[case.be],
                           const[case.i])
    row = one_trial(array, addr, mapping, 0, 0, rng)
    assert row.case_id == case.case_id and row.expected_bit == case.output
    assert binarize(row.r_final_ohm, array.boundary) == case.output


def test_pseudo_crossbar_gates_switch_both_ways(rebind):
    array = CellArray(ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, 4, 4), PARAMS, seed=3)
    array.form(CellAddress(2, 1))
    rng = np.random.default_rng(4)
    trial, writes = counting_writes(rebind), []
    for mapping, p, q in [(builtin_mapping("XOR"), 1, 1), (builtin_mapping("OR"), 0, 1),
                          (builtin_mapping("NIMP"), 1, 0)] * 5:
        row, count = trial(array, (2, 1), mapping, p, q, rng)
        writes.append(count)
        assert row.out_bit == row.expected_bit
    assert len(writes) == 15 and max(writes) <= 1


def test_hundred_cycle_repetition_without_failures():
    array = formed_array()
    rng = np.random.default_rng(7)
    rows = execute_gate_bucket(array, (0, 0), builtin_mapping("XOR"), 1, 0, 100, rng, rng)
    assert [row.cycle for row in rows] == list(range(100))
    assert all(row.out_bit == row.expected_bit == 1 for row in rows)


def test_simulated_truth_tables_all_gates():
    # One short seeded sweep per gate and input; outputs must match the pure
    # evaluation everywhere.
    for name in ("OR", "AND", "NIMP", "XOR", "NOTP"):
        mapping = builtin_mapping(name)
        array = formed_array(seed=11)
        rng = np.random.default_rng(8)
        for p, q in INPUTS:
            for _ in range(5):
                row = one_trial(array, (0, 0), mapping, p, q, rng)
                assert row.out_bit == row.expected_bit
