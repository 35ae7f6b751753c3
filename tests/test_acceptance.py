"""Acceptance suite: one test per release criterion, each printing a verdict
line (run with ``pytest -v -s tests/test_acceptance.py`` to see them).

The statistical criteria run on fixed seeds, so the whole suite is
deterministic; tolerances are stated inline next to each assertion.
"""

import itertools
import json
import time

import numpy as np
import pytest

from memlogic.analysis import (
    ExperimentConfig,
    find_overlap_sigma,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sample_scouting_currents,
    write_exports,
)
from memlogic.array import ArrayTopology, CellAddress, TopologyError, TopologyKind, check_parallel
from memlogic.cli import main
from memlogic.device import V_G_SET, V_TE_SET, Pulse, VariabilityParams, binarize, default_boundary
from memlogic.logic1t1r import (
    builtin_mapping,
    classify_case,
    evaluate_mapping,
    synthesize_mapping,
    truth_table_of,
)
from memlogic.scouting import OverlapError, class_gaps, references_in

PARAMS = VariabilityParams()
BOUNDARY = default_boundary(PARAMS)
INPUTS = list(itertools.product((0, 1), repeat=2))

NOISE_FREE = PARAMS.replace(
    lrs_sigma_c2c=0.0, lrs_sigma_d2d=0.0, hrs_sigma_c2c=0.0, hrs_sigma_d2d=0.0,
    v_set_th_sigma=0.0, v_reset_th_sigma=0.0, v_form_th_sigma=0.0,
    read_noise_lrs=0.0, read_noise_hrs=0.0)


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS  ({detail})")


@pytest.fixture(scope="module")
def ten_seed_runs():
    return [run_1t1r_experiment(ExperimentConfig(seed=seed, cycles=100))
            for seed in range(10)]


@pytest.fixture(scope="module")
def noisy_scouting_currents():
    cfg = ExperimentConfig(seed=11, cycles=100, split="insample")
    return sample_scouting_currents(cfg, include_single=True)


def test_c01_case_table_oracle():
    # All 16 (g, te, be, i) combinations, exact; switching possible only in
    # cases 4 and 5.
    oracle = [
        (1, 1, 1, 1, 1, 0, None, False), (2, 1, 1, 1, 0, 0, None, False),
        (3, 1, 1, 0, 1, 1, "set", False), (4, 1, 1, 0, 0, 1, "set", True),
        (5, 1, 0, 1, 1, -1, "reset", True), (6, 1, 0, 1, 0, -1, "reset", False),
        (7, 1, 0, 0, 1, 0, None, False), (8, 1, 0, 0, 0, 0, None, False),
        (9, 0, 1, 1, 1, 0, None, False), (10, 0, 1, 1, 0, 0, None, False),
        (11, 0, 1, 0, 1, 1, "set", False), (12, 0, 1, 0, 0, 1, "set", False),
        (13, 0, 0, 1, 1, -1, "reset", False), (14, 0, 0, 1, 0, -1, "reset", False),
        (15, 0, 0, 0, 1, 0, None, False), (16, 0, 0, 0, 0, 0, None, False),
    ]
    for case_id, g, te, be, i, tmb, process, possible in oracle:
        case = classify_case(g, te, be, i)
        assert (case.case_id, case.te_minus_be, case.process, case.possible) == \
            (case_id, tmb, process, possible)
    report("criterion 1 (case table)", "16/16 rows exact, possible = {4, 5}")


def test_c02_pure_truth_tables():
    routing = {
        "OR": [(8, 0), (4, 1), (7, 1), (3, 1)],
        "AND": [(16, 0), (12, 0), (8, 0), (4, 1)],
        "NIMP": [(8, 0), (7, 1), (6, 0), (5, 0)],
        "XOR": [(12, 0), (4, 1), (13, 1), (5, 0)],
        "NOTP": [(15, 1), (13, 1), (16, 0), (14, 0)],
    }
    for name, expected in routing.items():
        mapping = builtin_mapping(name)
        got = [(evaluate_mapping(mapping, p, q).case_id,
                evaluate_mapping(mapping, p, q).output) for p, q in INPUTS]
        assert got == expected, name
    report("criterion 2 (pure truth tables)",
           "OR/AND/NIMP/XOR/NOTP outputs and case routing exact")


def test_c03_functional_completeness():
    start = time.monotonic()
    for n in range(16):
        bits = format(n, "04b")
        assert truth_table_of(synthesize_mapping(bits)) == bits
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion 3 (functional completeness)",
           f"16/16 truth tables synthesized and validated in {elapsed:.2f} s")


def test_c04_simulated_experiment_failure_free(ten_seed_runs):
    failures = sum(r.report.failures for r in ten_seed_runs)
    errors = sum(r.report.errors for r in ten_seed_runs)
    binary_changes = 0
    trials = 0
    for result in ten_seed_runs:
        trials += result.report.trials
        for row in result.rows:
            if row.case_id not in (4, 5):
                before = binarize(row.r_init_ohm, BOUNDARY)
                after = binarize(row.r_final_ohm, BOUNDARY)
                binary_changes += int(before != after)
    assert failures == 0
    assert errors == 0
    assert binary_changes == 0
    report("criterion 4 (simulated 1T1R experiment)",
           f"{trials} executions over 10 seeds: 0 failures, 0 errors, "
           "0 non-switching binary changes")


def test_c05_device_ratio():
    result = run_characterization(ExperimentConfig(seed=0, cycles=100, device=PARAMS), cells=10)
    assert 19.4 * 0.8 <= result.hrs_lrs_ratio <= 19.4 * 1.2
    report("criterion 5 (device ratio)",
           f"mean HRS/LRS = {result.hrs_lrs_ratio:.2f} within 19.4 +/- 20%")


def test_c06_hrs_spread(ten_seed_runs):
    # Freshly reset HRS outputs (the switching cases) span about one decade
    # per run; the resident low-state spread is far narrower in log space.
    pooled_hrs = []
    per_seed = []
    lrs_pool = []
    for result in ten_seed_runs:
        hrs = [row.r_final_ohm for row in result.rows if row.case_id in (5, 6)]
        lrs_pool.extend(row.r_final_ohm for row in result.rows if row.out_bit == 1)
        pooled_hrs.extend(hrs)
        per_seed.append(max(hrs) / min(hrs))
    assert all(5.0 <= s <= 20.0 for s in per_seed)
    assert 5.0 <= max(pooled_hrs) / min(pooled_hrs) <= 20.0
    hrs_sigma = float(np.std(np.log(pooled_hrs)))
    lrs_sigma = float(np.std(np.log(lrs_pool)))
    assert lrs_sigma < hrs_sigma
    report("criterion 6 (HRS spread)",
           f"per-seed max/min in [{min(per_seed):.1f}, {max(per_seed):.1f}], "
           f"log spread lrs {lrs_sigma:.3f} < hrs {hrs_sigma:.3f}")


def test_c07_scouting_gaps(noisy_scouting_currents):
    # Closed-form oracle at the 0.1 V read with 5 kOhm / 97 kOhm states.
    i_hrs, i_lrs = 0.1 / 97e3, 0.1 / 5e3
    oracle = {"00": 2 * i_hrs, "01": i_lrs + i_hrs, "10": i_lrs + i_hrs,
              "11": 2 * i_lrs}
    cfg = ExperimentConfig(seed=1, cycles=1, device=NOISE_FREE, split="insample")
    clean = sample_scouting_currents(cfg)
    for cls, expected in oracle.items():
        assert min(clean[cls]) == pytest.approx(expected, rel=1e-3)

    ext = noisy_scouting_currents
    mixed_min = min(ext["01"] + ext["10"])
    mixed_max = max(ext["01"] + ext["10"])
    assert max(ext["0"]) < 7.25e-6 < min(ext["1"])
    assert max(ext["00"]) < 11.55e-6 < mixed_min
    assert mixed_max < 32.74e-6 < min(ext["11"])
    report("criterion 7 (scouting gaps)",
           "noise-free currents match the conductance oracle to 0.1%; "
           "7.25/11.55/32.74 uA all strictly inside their 100-cycle gaps")


def test_c08_scouting_truth_tables():
    for refs in ("placed", "paper-refs"):
        result = run_scouting_experiment(
            ExperimentConfig(seed=11, cycles=100, refs=refs))
        assert result.overlap is None, refs
        assert result.report.failures == 0, refs
        assert result.report.trials > 0
    report("criterion 8 (scouting truth tables)",
           "READ/OR/AND/XOR over 100 cycles: 0 failures with placed and "
           "published references")


def test_c09_overlap_detection():
    cfg = ExperimentConfig(seed=5, cycles=60)
    collapsed = sample_scouting_currents(
        cfg.replace(device=PARAMS.replace(hrs_sigma_c2c=2.0)), verify=False)
    with pytest.raises(OverlapError):
        references_in(*class_gaps(collapsed))
    sigma2 = find_overlap_sigma(cfg, 2)
    sigma3 = find_overlap_sigma(cfg, 3)
    assert sigma3 < sigma2
    report("criterion 9 (overlap detection)",
           f"collapse detected; critical sigma n=3 {sigma3:.3f} < n=2 {sigma2:.3f}")


def test_c10_topology_constraint():
    # Distinct TE voltages at one gate voltage: the cells of a standard
    # column share one SL, those of a pseudo-crossbar row each keep their own.
    set_pulse, other = Pulse(V_TE_SET, 0.0, V_G_SET), Pulse(0.5, 0.0, V_G_SET)
    standard = ArrayTopology(TopologyKind.STANDARD_1T1R, 8, 8)
    pseudo = ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, 8, 8)
    row, column = [CellAddress(0, 0), CellAddress(0, 1)], [CellAddress(0, 0), CellAddress(1, 0)]
    with pytest.raises(TopologyError, match="share SL 0, which cannot carry 1.3 V and 0.5 V"):
        check_parallel(standard, column, [set_pulse, other])
    assert check_parallel(pseudo, row, [set_pulse, other]) is None
    # The cells of a row share one WL in both wirings: one gate voltage.
    with pytest.raises(TopologyError, match="share WL 0, which cannot carry 1.3 V and 3.0 V"):
        check_parallel(pseudo, row, [set_pulse, Pulse(0.5, 0.0, 3.0)])
    report("criterion 10 (topology constraint)",
           "distinct parallel TE voltages rejected on a standard column, "
           "allowed on a pseudo-crossbar row at one gate voltage")


def test_c11_reproducibility(tmp_path):
    cfg = ExperimentConfig(seed=7, cycles=30)
    for sub in ("a", "b"):
        write_exports(run_1t1r_experiment(cfg).tables(), tmp_path / sub, "csv")
        write_exports(run_scouting_experiment(cfg).tables(), tmp_path / sub, "csv")
    for name in ("traces.csv", "summary.csv", "non_switching.csv",
                 "currents.csv", "refs.csv", "margins.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    report("criterion 11 (reproducibility)", "byte-identical exports")


def test_c12_pseudo_crossbar_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "pseudo.cfg"
    cfg.write_text("array.kind = pseudo-crossbar\n")
    out = tmp_path / "out"
    assert main([str(cfg), "gate", "OR", "AND", "NIMP", "XOR", "--cycles", "20",
                 "-o", str(out)]) == 0
    gate_report = json.loads((out / "report.json").read_text())
    assert gate_report["trials"] == 320
    assert gate_report["failures"] == gate_report["errors"] == 0
    capsys.readouterr()
    # Scouting stores its inputs in one column, which the pseudo-crossbar
    # cannot read in parallel: rejected with one line, not a traceback.
    assert main([str(cfg), "scouting", "--cycles", "4", "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "pseudo-crossbar parallel selection requires one row" in err
    assert len(err.splitlines()) == 1
    report("criterion 12 (pseudo-crossbar)",
           "gates run failure-free over 320 trials; one-column scouting is "
           "rejected with exit 2")
