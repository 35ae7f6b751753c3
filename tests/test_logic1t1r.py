import itertools
import time

import numpy as np
import pytest

from memlogic.array import ArrayTopology, CellAddress, CellArray, TopologyKind
from memlogic.device import (
    NotFormedError,
    VariabilityParams,
    binarize,
    default_boundary,
)
from memlogic.logic1t1r import (
    BUILTIN_MAPPINGS,
    CASE_TABLE,
    DEFAULT_VOLTAGES,
    INIT_RETRIES,
    RESET_BITS,
    TERM_ORDER,
    InitFailureError,
    ParamMapping,
    Term,
    builtin_mapping,
    classify_case,
    default_gate_library,
    evaluate_mapping,
    execute_gate,
    initialize_cell,
    load_gate_library,
    logic_drive,
    logic_pulse_voltages,
    save_gate_library,
    synthesize_mapping,
    truth_table_of,
    truth_vector,
)

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


# Known-good resolution of every term, and the switching rule of the case
# table: case 4 (g, te, !be, !i) SETs to 1, case 5 (g, !te, be, i) RESETs to 0.
TERM_ORACLE = {Term.CONST0: lambda p, q: 0, Term.CONST1: lambda p, q: 1,
               Term.P: lambda p, q: p, Term.NOT_P: lambda p, q: 1 - p,
               Term.Q: lambda p, q: q, Term.NOT_Q: lambda p, q: 1 - q}


def oracle_output(g, te, be, i):
    return {(1, 1, 0, 0): 1, (1, 0, 1, 1): 0}.get((g, te, be, i), i)


def test_truth_vector_matches_the_case_algebra_for_every_mapping():
    for terms in itertools.product(TERM_ORDER, repeat=4):
        expected = "".join(str(oracle_output(*(TERM_ORACLE[t](p, q) for t in terms)))
                           for p, q in INPUTS)
        assert format(truth_vector(*terms), "04b") == expected, terms
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
    path = tmp_path / "gates.csv"
    save_gate_library(BUILTIN_MAPPINGS.values(), path)
    loaded = load_gate_library(path)
    assert loaded == BUILTIN_MAPPINGS
    bad = tmp_path / "bad.csv"
    bad.write_text("X,1,q,0\n")
    with pytest.raises(ValueError):
        load_gate_library(bad)
    bad.write_text("X,1,q,0,z\n")
    with pytest.raises(ValueError):
        load_gate_library(bad)


def test_logic_pulse_voltage_mapping():
    assert logic_pulse_voltages(1, 1, 0) == (1.3, 0.0, 1.3)   # SET operating point
    assert logic_pulse_voltages(1, 0, 1) == (0.0, 1.6, 3.0)   # RESET operating point
    assert logic_pulse_voltages(0, 1, 0) == (1.3, 0.0, 0.0)   # gate held closed
    assert logic_pulse_voltages(1, 0, 0) == (0.0, 0.0, 3.0)


def formed_array(seed=0, rows=4, cols=4):
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, rows, cols),
                      PARAMS, seed=seed)
    array.form(CellAddress(0, 0))
    return array


def test_execute_gate_or_01():
    array = formed_array()
    rng = np.random.default_rng(1)
    trace = execute_gate(array, (0, 0), builtin_mapping("OR"), 0, 1, rng)
    assert trace.case_id == 4
    assert binarize(trace.init_resistance, BOUNDARY) == 0  # initialized to i=p=0
    assert trace.output_bit == 1 == trace.expected_bit


def test_execute_gate_xor_11():
    array = formed_array()
    rng = np.random.default_rng(2)
    trace = execute_gate(array, (0, 0), builtin_mapping("XOR"), 1, 1, rng)
    assert trace.case_id == 5
    assert binarize(trace.init_resistance, BOUNDARY) == 1  # initialized to i=p=1
    assert trace.output_bit == 0 == trace.expected_bit


def test_zero_differential_mapping_keeps_initial_bit():
    # te and be resolve identically, so the final binary state must equal i.
    mapping = ParamMapping("SAME", Term.CONST1, Term.Q, Term.Q, Term.P)
    array = formed_array()
    rng = np.random.default_rng(3)
    for p, q in INPUTS:
        trace = execute_gate(array, (0, 0), mapping, p, q, rng)
        assert trace.output_bit == evaluate_mapping(mapping, p, q).i == p


def test_execute_gate_requires_formed_cell():
    array = formed_array()
    rng = np.random.default_rng(4)
    with pytest.raises(NotFormedError):
        execute_gate(array, (1, 1), builtin_mapping("OR"), 0, 0, rng)


def test_init_failure_raises():
    # A RESET threshold above the 1.6 V RESET drive leaves the formed LRS cell stuck.
    params = PARAMS.replace(v_reset_th_median=2.0, v_reset_th_sigma=0.0)
    array = CellArray(ArrayTopology(TopologyKind.STANDARD_1T1R, 4, 4), params, seed=0)
    array.form(CellAddress(0, 0))
    rng = np.random.default_rng(5)
    with pytest.raises(InitFailureError, match=f"after {INIT_RETRIES} retries"):
        initialize_cell(array, (0, 0), 0, rng)


def test_cascade_reuses_matching_state():
    array = formed_array()
    rng = np.random.default_rng(6)
    traces = [execute_gate(array, (0, 0), builtin_mapping(name), 1, 1, rng)
              for name in ("OR", "NIMP")]
    # OR(1,1) leaves LRS; NIMP(1,1) needs i=q=1, so no re-initialization.
    assert traces[1].init_retries == 0
    assert [t.output_bit for t in traces] == [1, 0]


def test_reset_drive_uses_the_cell_bl():
    addr = CellAddress(2, 1)
    volts = DEFAULT_VOLTAGES
    standard = ArrayTopology(TopologyKind.STANDARD_1T1R, 4, 4)
    pseudo = ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, 4, 4)
    assert logic_drive(standard, addr, *RESET_BITS).bl == {1: volts.v_be_reset}
    assert logic_drive(pseudo, addr, *RESET_BITS).bl == {2: volts.v_be_reset}


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("case", CASE_TABLE, ids=lambda case: f"case{case.case_id}")
def test_every_case_pulse_leaves_the_case_output(case, kind):
    # The one switching rule holds against the device model for all 16 cases,
    # including those no shipped gate reaches.
    array = CellArray(ArrayTopology(kind, 4, 4), NOISE_FREE, seed=1)
    addr = CellAddress(2, 1)
    array.form(addr)
    rng = np.random.default_rng(case.case_id)
    initialize_cell(array, addr, case.i, rng)
    array.apply_drive(array.cell_drives(addr)[case.g, case.te, case.be], rng)
    assert binarize(array.read_cell(addr, rng), array.boundary) == case.output


def test_pseudo_crossbar_gates_switch_both_ways():
    array = CellArray(ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, 4, 4), PARAMS, seed=3)
    array.form(CellAddress(2, 1))
    rng = np.random.default_rng(4)
    for mapping, p, q in [(builtin_mapping("XOR"), 1, 1), (builtin_mapping("OR"), 0, 1),
                          (builtin_mapping("NIMP"), 1, 0)] * 5:
        trace = execute_gate(array, (2, 1), mapping, p, q, rng)
        assert trace.output_bit == trace.expected_bit
        assert trace.init_retries <= 1


def test_hundred_cycle_repetition_without_failures():
    array = formed_array()
    rng = np.random.default_rng(7)
    traces = [execute_gate(array, (0, 0), builtin_mapping("XOR"), 1, 0, rng)
              for _ in range(100)]
    assert len(traces) == 100
    assert all(t.output_bit == t.expected_bit == 1 for t in traces)


def test_simulated_truth_tables_all_gates():
    # One short seeded sweep per gate and input; outputs must match the pure
    # evaluation everywhere.
    for name in ("OR", "AND", "NIMP", "XOR", "NOTP"):
        mapping = builtin_mapping(name)
        array = formed_array(seed=11)
        rng = np.random.default_rng(8)
        for p, q in INPUTS:
            for _ in range(5):
                trace = execute_gate(array, (0, 0), mapping, p, q, rng)
                assert trace.output_bit == trace.expected_bit
