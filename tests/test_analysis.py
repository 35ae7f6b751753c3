import csv
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic.analysis import (
    DistributionSummary,
    ExperimentConfig,
    TraceRow,
    export_characterization,
    export_logic_result,
    export_scouting_result,
    export_sweep,
    export_table,
    non_switching_report,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sweep_parameter,
)
from memlogic import analysis as analysis_module
from memlogic import array as array_module
from memlogic import device as device_module
from memlogic import logic1t1r as logic_module
from memlogic import scouting as scouting_module
from memlogic.array import CellArray, LineDrive
from memlogic.device import Pulse, VariabilityParams, default_boundary

NOISE_FREE = VariabilityParams(
    lrs_sigma_c2c=0.0, lrs_sigma_d2d=0.0, hrs_sigma_c2c=0.0, hrs_sigma_d2d=0.0,
    v_set_th_sigma=0.0, v_reset_th_sigma=0.0, v_form_th_sigma=0.0,
    read_noise_lrs=0.0, read_noise_hrs=0.0)


# ------------------------------------------------------------- summaries

def nearest_rank_oracle(samples, pct):
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_quantiles_match_sort_oracle(samples):
    summary = DistributionSummary.from_samples("x", samples)
    assert summary.count == len(samples)
    assert summary.min == min(samples)
    assert summary.max == max(samples)
    for field, pct in (("p1", 1), ("p25", 25), ("median", 50), ("p75", 75), ("p99", 99)):
        assert getattr(summary, field) == nearest_rank_oracle(samples, pct)
    assert summary.p1 <= summary.p25 <= summary.median <= summary.p75 <= summary.p99


def test_summary_single_sample():
    s = DistributionSummary.from_samples("one", [42.0])
    assert s.count == 1
    assert s.min == s.p1 == s.median == s.p99 == s.max == s.mean == 42.0


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        DistributionSummary.from_samples("none", [])


# ------------------------------------------------------- logic experiment

def test_single_cycle_accounting():
    result = run_1t1r_experiment(ExperimentConfig(seed=1, cycles=1))
    assert len(result.rows) == 16  # 4 gates x 4 input pairs
    assert all(s.count == 1 for s in result.summaries)
    assert result.report.trials == 16
    for bucket in result.report.buckets:
        assert bucket.trials == bucket.successes + bucket.failures + bucket.errors


def test_defaults_run_failure_free():
    result = run_1t1r_experiment(ExperimentConfig(seed=2, cycles=60))
    assert result.report.failures == 0
    assert result.report.errors == 0
    assert result.report.first_failure is None


def test_inflated_hrs_sigma_causes_failures():
    # Stress test: at four times the default HRS spread, fresh HRS draws land
    # below the binarization boundary often enough to flip outputs.
    device = VariabilityParams().replace(hrs_sigma_c2c=4 * 0.32)
    result = run_1t1r_experiment(ExperimentConfig(seed=3, cycles=60, device=device))
    assert result.report.failures > 0
    assert result.report.first_failure is not None
    # Oracle cross-check: failures happen exactly where the recorded read
    # disagrees with the boundary decision.
    boundary = default_boundary(device)
    recomputed = sum(1 for row in result.rows
                     if (row.r_final_ohm < boundary) != bool(row.expected_bit))
    assert recomputed == result.report.failures


def test_rotate_cells_mode():
    result = run_1t1r_experiment(ExperimentConfig(seed=4, cycles=5, rotate_cells=True))
    assert result.report.failures == 0


def test_unknown_gate_raises():
    with pytest.raises(KeyError):
        run_1t1r_experiment(ExperimentConfig(gates=("NOPE",), cycles=1))


@pytest.mark.parametrize("run, field, names, err", [
    (run_1t1r_experiment, "gates", ("OR", "AND", "or"), "gate 'or' repeats 'OR'"),
    (run_1t1r_experiment, "gates", ("F0111", "OR", "F0111"), "gate 'F0111' repeats 'F0111'"),
    (run_scouting_experiment, "scouting_ops", ("read", "and", "AND"),
     "scouting op 'AND' repeats 'and'"),
])
def test_a_repeated_gate_or_op_is_rejected(run, field, names, err):
    with pytest.raises(ValueError, match=err):
        run(ExperimentConfig(cycles=2, **{field: names}))


def test_distinct_mappings_of_one_truth_table_both_run():
    result = run_1t1r_experiment(ExperimentConfig(cycles=2, gates=("OR", "F0111")))
    assert [b.trials for b in result.report.buckets] == [2] * 8


# ------------------------------------------------------ non-switching cases

def test_non_switching_exact_when_noise_free():
    result = run_1t1r_experiment(ExperimentConfig(seed=5, cycles=10, device=NOISE_FREE))
    boundary = default_boundary(NOISE_FREE)
    reports = {r.case_id: r for r in non_switching_report(result.rows, boundary)}
    assert all(r.binary_changes == 0 for r in reports.values())
    # Without read noise the resident state reads back bit-identically in
    # every non-switching case that applies no reset-polarity stress (case 6
    # re-draws, but a zero-sigma draw lands on the same median).
    for row in result.rows:
        if row.case_id in (3, 7, 8, 12, 13, 16):
            assert row.r_final_ohm == row.r_init_ohm


def test_case6_has_largest_variation():
    result = run_1t1r_experiment(ExperimentConfig(seed=6, cycles=60))
    boundary = default_boundary(VariabilityParams())
    reports = {r.case_id: r for r in non_switching_report(result.rows, boundary)}
    assert set(reports) == {3, 6, 7, 8, 12, 13, 16}
    assert all(r.binary_changes == 0 for r in reports.values())
    case6 = reports[6].log_variation
    assert all(case6 > r.log_variation for cid, r in reports.items() if cid != 6)
    # The blocked SET polarity on an already-set cell leaves read jitter only,
    # visible but far below the HRS instability of case 6.
    assert 0 < reports[3].log_variation < case6


# ---------------------------------------------------- scouting experiment

def test_scouting_defaults_failure_free_both_reference_modes():
    for refs in ("placed", "paper-refs"):
        result = run_scouting_experiment(ExperimentConfig(seed=7, cycles=40, refs=refs))
        assert result.report.failures == 0, refs
        assert result.overlap is None
        assert result.refs is not None
    assert all(m.margin > 0 for m in result.margins)


def test_scouting_single_cycle():
    result = run_scouting_experiment(ExperimentConfig(seed=8, cycles=1, split="insample"))
    assert result.refs is not None
    counts = {s.label: s.count for s in result.summaries}
    assert counts == {"0": 1, "1": 1, "00": 1, "01": 1, "10": 1, "11": 1}


def test_scouting_overlap_recorded_as_total_failure():
    device = VariabilityParams().replace(hrs_sigma_c2c=2.5)
    cfg = ExperimentConfig(seed=9, cycles=30, device=device,
                           scouting_ops=("or", "and", "xor"))
    result = run_scouting_experiment(cfg)
    if result.overlap is not None:
        assert result.refs is None
        for bucket in result.report.buckets:
            assert bucket.failures == bucket.trials


def test_scouting_three_inputs():
    cfg = ExperimentConfig(seed=10, cycles=20, n_inputs=3,
                           scouting_ops=("or", "and"))
    result = run_scouting_experiment(cfg)
    assert result.refs is not None
    assert len(result.refs.levels) == 3
    assert result.report.failures == 0


def test_scouting_split_halves():
    cfg = ExperimentConfig(seed=11, cycles=10, scouting_ops=("or",))
    result = run_scouting_experiment(cfg)
    bucket = result.report.buckets[0]
    assert bucket.trials == 5  # classification on the held-out half


# -------------------------------------------------------- characterization

def test_characterization_statistics():
    result = run_characterization(VariabilityParams(), cells=10, cycles=100, seed=12)
    assert len(result.rows) == 1000
    assert 19.4 * 0.8 <= result.hrs_lrs_ratio <= 19.4 * 1.2
    assert result.lrs_log_spread < result.hrs_log_spread
    hrs = [r[3] for r in result.rows]
    assert 5.0 <= max(hrs) / min(hrs) <= 20.0


def test_characterization_single_cycle_rows():
    result = run_characterization(VariabilityParams(), cells=10, cycles=1, seed=13)
    assert len(result.rows) == 10


@pytest.mark.parametrize("kwargs, name", [({"cells": 0}, "cells"), ({"cells": 2.5}, "cells"),
                                          ({"cycles": 0}, "cycles"), ({"seed": -1}, "seed")])
def test_characterization_rejects_bad_counts_by_name(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_characterization(VariabilityParams(), **{"cells": 2, "cycles": 2, **kwargs})


@pytest.mark.parametrize("seed", [-1, -(2**64)])
def test_config_rejects_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ExperimentConfig(seed=seed)


# ----------------------------------------------------------------- exports

def test_export_empty_results_headers_only(tmp_path):
    path = export_table("traces", TraceRow._fields, [], tmp_path, "csv")
    content = path.read_text()
    assert content == ("gate,p,q,case_id,cycle,r_init_ohm,r_final_ohm,"
                       "out_bit,expected_bit\n")
    path = export_table("refs", ("i_read_a", "i_or_a", "i_and_a"), [], tmp_path, "json")
    assert json.loads(path.read_text()) == []


def test_scouting_row_accounting(tmp_path):
    # 100 cycles over the four pair classes: 400 current rows, 1 reference row.
    cfg = ExperimentConfig(seed=14, cycles=100, scouting_ops=("or", "and", "xor"))
    result = run_scouting_experiment(cfg)
    paths = export_scouting_result(result, tmp_path, "csv")
    currents = (tmp_path / "currents.csv").read_text().splitlines()
    refs = (tmp_path / "refs.csv").read_text().splitlines()
    assert len(currents) == 1 + 400
    assert len(refs) == 1 + 1


def read_summaries(path):
    """Parse a summary table back into ``DistributionSummary`` rows."""
    if path.suffix == ".json":
        records = json.loads(path.read_text())
    else:
        with open(path, newline="") as handle:
            records = list(csv.DictReader(handle))
    return [DistributionSummary(str(rec["label"]), int(rec["count"]),
                                *(float(rec[c]) for c in DistributionSummary._fields[2:]))
            for rec in records]


def test_summary_roundtrip(tmp_path):
    result = run_1t1r_experiment(ExperimentConfig(seed=15, cycles=5))
    for fmt in ("csv", "json"):
        path = export_table("summary", DistributionSummary._fields, result.summaries,
                            tmp_path, fmt)
        assert read_summaries(path) == result.summaries


def test_json_tables_write_non_finite_floats_as_null(tmp_path):
    nan, inf = float("nan"), float("inf")
    path = export_table("t", ("a", "b", "c"), [(nan, -inf, 1.5), ("x", 2, inf)],
                        tmp_path, "json")
    assert json.loads(path.read_text()) == [{"a": None, "b": None, "c": 1.5},
                                            {"a": "x", "b": 2, "c": None}]
    csv_text = export_table("t", ("a", "b"), [(nan, inf)], tmp_path, "csv").read_text()
    assert csv_text == "a,b\nnan,inf\n"
    # Any other non-finite value is refused, never written as a bare NaN.
    with pytest.raises(ValueError):
        analysis_module._write_json(tmp_path / "report.json", {"ratio": nan})


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_table("traces", TraceRow._fields, [], tmp_path, "xml")


def test_export_files_are_deterministic(tmp_path):
    cfg = ExperimentConfig(seed=16, cycles=10)
    a = run_1t1r_experiment(cfg)
    b = run_1t1r_experiment(cfg)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    export_logic_result(a, dir_a, "csv")
    export_logic_result(b, dir_b, "csv")
    for name in ("traces.csv", "summary.csv", "non_switching.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_characterization_export(tmp_path):
    result = run_characterization(VariabilityParams(), cells=2, cycles=3, seed=17)
    paths = export_characterization(result, tmp_path, "csv")
    rows = (tmp_path / "characterize.csv").read_text().splitlines()
    assert rows[0] == "cell,cycle,r_lrs_ohm,r_hrs_ohm"
    assert len(rows) == 1 + 6
    report = json.loads((tmp_path / "characterize_report.json").read_text())
    assert report["hrs_lrs_ratio"] == pytest.approx(result.hrs_lrs_ratio)


# ------------------------------------------------------------------ sweeps

def test_sweep_failure_trend():
    cfg = ExperimentConfig(seed=20, cycles=25)
    points = sweep_parameter(cfg, "hrs_sigma_c2c", [0.1, 1.2])
    first, last = points[0], points[-1]
    assert first.logic_failures == 0
    assert last.logic_failures >= first.logic_failures
    assert last.logic_failures + last.scouting_failures > 0


def test_sweep_ratio_shrinks_margins_monotonically():
    # Noise-free closed-form check: pulling the HRS median toward the LRS
    # median shrinks every scouting gap, so the minimum margin decreases.
    cfg = ExperimentConfig(seed=21, cycles=1, device=NOISE_FREE, split="insample")
    values = [97e3, 40e3, 20e3, 10e3]
    points = sweep_parameter(cfg, "hrs_median", values)
    margins = [p.min_margin for p in points]
    assert all(b < a for a, b in zip(margins, margins[1:]))


def test_sweep_validation():
    cfg = ExperimentConfig(cycles=1)
    with pytest.raises(ValueError):
        sweep_parameter(cfg, "hrs_sigma_c2c", [])
    with pytest.raises(ValueError):
        sweep_parameter(cfg, "not_a_param", [0.1])


def test_sweep_export(tmp_path):
    cfg = ExperimentConfig(seed=22, cycles=5)
    points = sweep_parameter(cfg, "hrs_sigma_c2c", [0.32])
    path = export_sweep(points, tmp_path, "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("parameter,value,")


# ------------------------------------------------------- drive validation

@pytest.mark.parametrize("run", [run_1t1r_experiment, run_scouting_experiment],
                         ids=["gate", "scouting"])
def test_each_drive_is_validated_once_per_array(monkeypatch, run):
    """A drive is built and validated once per array, not once per pulse.

    Every ``LineDrive`` and ``Pulse`` construction is counted, and so is every
    distinct drive (by content) that each array applies, with the cells it
    pulses the first time.  Forming ramps build their own pulses, one per step.
    """
    built = Counter()
    for cls in (LineDrive, Pulse):
        def counting(self, real=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            real(self)
        monkeypatch.setattr(cls, "__post_init__", counting)

    distinct: dict[tuple, int] = {}  # (array id, drive repr) -> cells pulsed
    arrays: list[CellArray] = []  # keeps every array alive, so no id is reused
    applied = Counter()
    real_apply = CellArray.apply_drive

    def recording(self, drive, rng):
        events = real_apply(self, drive, rng)
        arrays.append(self)
        distinct.setdefault((id(self), repr(drive)), len(events))
        applied["drives"] += 1
        return events

    real_form = array_module.form_by_ramp

    def forming(cell, transistor, rng):
        pulses = real_form(cell, transistor, rng)
        applied["form_pulses"] += pulses
        return pulses

    monkeypatch.setattr(CellArray, "apply_drive", recording)
    monkeypatch.setattr(array_module, "form_by_ramp", forming)
    run(ExperimentConfig(seed=3, cycles=20, gates=("OR", "AND", "NIMP", "XOR")))

    assert applied["drives"] > 10 * len(distinct)
    assert built["LineDrive"] <= len(distinct)
    assert built["Pulse"] <= applied["form_pulses"] + sum(distinct.values())


def test_a_default_scouting_run_validates_each_selection_once(monkeypatch):
    validated = []
    real = array_module.validate_parallel_selection

    def counting(topology, addrs):
        validated.append(addrs)
        real(topology, addrs)

    monkeypatch.setattr(array_module, "validate_parallel_selection", counting)
    result = run_scouting_experiment(ExperimentConfig(seed=7))
    assert len(result.samples) == 600
    # One array per class: four two-cell selections and two one-cell READ ones.
    assert sorted(map(len, validated)) == [1, 1, 2, 2, 2, 2]


# ------------------------------------------------------------- work done

#: Calls per default run at seed 7, recorded before the trial path was leaned
#: up: a cut in per-call overhead must not skip a pulse, a read or a write.
WORK_AT_SEED_7 = {
    "gate": {"apply_pulse": 1283, "read_resistance": 3702, "apply_drive": 2102,
             "initialize_cell": 1600},
    "scouting": {"apply_pulse": 1708, "read_resistance": 3000, "apply_drive": 1500,
                 "initialize_cell": 1000},
}


@pytest.mark.parametrize("run", [run_1t1r_experiment, run_scouting_experiment],
                         ids=["gate", "scouting"])
def test_default_runs_do_the_pinned_work(monkeypatch, request, run):
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # Each counted function is replaced in every module that binds it by name.
    for home, name, users in ((device_module, "apply_pulse", (array_module,)),
                              (device_module, "read_resistance", (array_module,)),
                              (logic_module, "initialize_cell", (scouting_module,))):
        counted = counting(name, getattr(home, name))
        for module in (home, *users):
            monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(CellArray, "apply_drive",
                        counting("apply_drive", CellArray.apply_drive))
    result = run(ExperimentConfig(seed=7))
    assert result.report.failures == result.report.errors == 0
    assert dict(calls) == WORK_AT_SEED_7[request.node.callspec.id]


#: Calls of the default ``run_characterization`` at seed 7, recorded as
#: ``WORK_AT_SEED_7`` was and before its drives were built once per cell:
#: 10 cells x 100 cycles of one SET and one RESET drive and a read after each,
#: plus the forming ramps' pulses.
CHARACTERIZE_WORK_AT_SEED_7 = {"apply_pulse": 2206, "read_resistance": 2000,
                               "apply_drive": 2000}


def test_default_characterization_does_the_pinned_work(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("apply_pulse", "read_resistance"):
        counted = counting(name, getattr(device_module, name))
        for module in (device_module, array_module):
            monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(CellArray, "apply_drive",
                        counting("apply_drive", CellArray.apply_drive))
    run_characterization(VariabilityParams(), seed=7)
    assert dict(calls) == CHARACTERIZE_WORK_AT_SEED_7
