import csv
import hashlib
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    find_overlap_sigma,
    non_switching_report,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sample_scouting_currents,
    sweep_parameter,
)
from memlogic import analysis as analysis_module
from memlogic import array as array_module
from memlogic import device as device_module
from memlogic import scouting as scouting_module
from memlogic.array import ArrayTopology
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


def test_typed_gate_names_label_the_rows_summaries_and_report(tmp_path):
    # Names are looked up case-folded, but every export carries the name as typed.
    result = run_1t1r_experiment(ExperimentConfig(gates=("xor", "Or"), cycles=5))
    assert [row.gate for row in result.rows] == ["xor"] * 20 + ["Or"] * 20
    labels = [f"{name}/{p}{q}" for name in ("xor", "Or") for p in (0, 1) for q in (0, 1)]
    assert [b.label for b in result.report.buckets] == labels
    assert [s.label for s in result.summaries] == sorted(labels)
    export_logic_result(result, tmp_path)
    assert hashlib.sha256((tmp_path / "traces.csv").read_bytes()).hexdigest() == (
        "277c2bb26551f601626020331fb5f549afb63e1f2dc5e516518834254ebee54a")


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
    # A wide LRS spread at seed 9 collapses the 01|10 / 11 gap: no reference
    # is placed, and every evaluated cycle of every bucket counts as failed.
    device = VariabilityParams().replace(lrs_sigma_c2c=1.0)
    cfg = ExperimentConfig(seed=9, cycles=30, device=device,
                           scouting_ops=("or", "and", "xor"))
    result = run_scouting_experiment(cfg)
    assert result.overlap is not None
    assert result.refs is None
    assert [(b.trials, b.failures) for b in result.report.buckets] == [(15, 15)] * 12
    assert result.report.first_failure == (9, "or/00", 15)


def test_find_overlap_sigma_returns_lo_when_lo_already_collides(rebind):
    probes = []
    real = analysis_module.overlap_collides
    rebind(real, lambda config, sigma: probes.append(sigma) or real(config, sigma))
    assert find_overlap_sigma(ExperimentConfig(seed=9, cycles=30), 2, lo=2.0) == 2.0
    assert probes == [2.0]  # no bisection


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


def test_scouting_split_runs_at_two_cycles():
    result = run_scouting_experiment(ExperimentConfig(seed=11, cycles=2, scouting_ops=("or",)))
    assert [b.trials for b in result.report.buckets] == [1, 1, 1, 1]


def test_scouting_inputs_may_fill_their_column():
    cfg = ExperimentConfig(seed=12, cycles=2, topology=ArrayTopology(rows=3, cols=2))
    assert list(map(len, sample_scouting_currents(cfg.replace(n_inputs=3)).values())) == [2] * 8
    with pytest.raises(ValueError, match="do not fit in one column of 3 rows"):
        sample_scouting_currents(cfg.replace(n_inputs=4))
    with pytest.raises(ValueError, match="^n=9 input cells do not fit in one column of 8 rows$"):
        find_overlap_sigma(ExperimentConfig(cycles=2), 9)


@pytest.mark.parametrize("n, err", [(0, ">= 1, got 0"), (-1, ">= 1, got -1"),
                                    (2.0, "an integer, got 2.0"), (True, "an integer, got True")])
def test_the_sampler_rejects_a_width_that_is_not_a_positive_integer(n, err):
    with pytest.raises(ValueError, match=f"^n_inputs must be {err}$"):
        sample_scouting_currents(ExperimentConfig(cycles=1, n_inputs=n))


def test_one_input_cell_samples_its_pattern_and_single_classes_each():
    # At n = 1 the pattern classes "0" and "1" are the one-cell READ classes:
    # each is measured once, with the values of a fresh array per class.
    currents = sample_scouting_currents(ExperimentConfig(seed=3, cycles=4, n_inputs=1),
                                        include_single=True)
    zeros = [9.507390034088931e-07, 1.2399054952061086e-06, 1.1249869343000092e-06,
             9.780363085377486e-07]
    ones = [2.0002696545556662e-05, 1.910392037421972e-05, 1.883920070286138e-05,
            1.9159990541283637e-05]
    assert list(currents.items()) == [("0", zeros), ("1", ones)]


@pytest.mark.parametrize("config, include_single, verify, extremes", [
    (ExperimentConfig(seed=11, cycles=100, split="insample"), True, True, {  # c07, noisy
        "00": (1.2265874666651257e-06, 3.7594256920171575e-06),
        "01": (1.858162445305309e-05, 2.460442417181868e-05),
        "10": (1.8158225319297808e-05, 2.555434612754018e-05),
        "11": (3.4808395811515755e-05, 4.5232939601851677e-05),
        "0": (5.521773599013506e-07, 2.369782277769127e-06),
        "1": (1.7347010430085698e-05, 2.4220926424559068e-05)}),
    (ExperimentConfig(seed=5, cycles=60, device=VariabilityParams(hrs_sigma_c2c=2.0)),
     False, False, {  # c09, collapsed
         "00": (3.140668537079238e-07, 3.2803626455853545e-05),
         "01": (1.856404299907132e-05, 3.490219444189918e-05),
         "10": (1.8524586276660697e-05, 3.929106348776488e-05),
         "11": (3.491211358831047e-05, 4.528141403994868e-05)}),
])
def test_acceptance_scouting_runs_measure_pinned_class_extremes(
        monkeypatch, config, include_single, verify, extremes):
    # Each class's (min, max) current as ``scout_class`` measures it inside the
    # sampler, the figures the acceptance criteria 7 and 9 read.
    measured = {}

    def recording(array, addrs, bits, *rest):
        currents = scouting_module.scout_class(array, addrs, bits, *rest)
        measured[bits] = (min(currents), max(currents))
        return currents

    monkeypatch.setattr(analysis_module, "scout_class", recording)
    sample_scouting_currents(config, include_single=include_single, verify=verify)
    assert measured == extremes


# -------------------------------------------------------- characterization

def test_characterization_statistics():
    result = run_characterization(ExperimentConfig(seed=12, cycles=100), cells=10)
    assert len(result.rows) == 1000
    assert 19.4 * 0.8 <= result.hrs_lrs_ratio <= 19.4 * 1.2
    assert result.lrs_log_spread < result.hrs_log_spread
    hrs = [r[3] for r in result.rows]
    assert 5.0 <= max(hrs) / min(hrs) <= 20.0


def test_characterization_single_cycle_rows():
    result = run_characterization(ExperimentConfig(seed=13, cycles=1), cells=10)
    assert len(result.rows) == 10


@pytest.mark.parametrize("kwargs, name", [({"cells": 0}, "cells"), ({"cells": 2.5}, "cells"),
                                          ({"cycles": 0}, "cycles"), ({"seed": -1}, "seed")])
def test_characterization_rejects_bad_counts_by_name(kwargs, name):
    counts = {"cells": 2, "cycles": 2, "seed": 7, **kwargs}
    with pytest.raises(ValueError, match=name):
        run_characterization(ExperimentConfig(seed=counts["seed"], cycles=counts["cycles"]),
                             counts["cells"])


@pytest.mark.parametrize("seed", [-1, -(2**64)])
def test_config_rejects_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ExperimentConfig(seed=seed)


@pytest.mark.parametrize("field, names", [
    ("gates", "XOR"), ("gates", ("OR", 5)), ("gates", 5),
    ("scouting_ops", "or"), ("scouting_ops", ("or", 5)), ("scouting_ops", (b"or",)),
])
def test_config_rejects_names_that_are_not_a_tuple_of_strings(field, names):
    # A bare string would run one gate or op per letter; a non-string entry
    # would fail only at run time.
    with pytest.raises(ValueError, match=f"^{field} must be a tuple of names, got "):
        ExperimentConfig(**{field: names})


@pytest.mark.parametrize("field", ["gates", "scouting_ops"])
def test_config_rejects_an_empty_name_list(field):
    # An empty list would evaluate nothing: exit 0 must never be vacuous.
    with pytest.raises(ValueError, match=f"^{field} must name at least one entry$"):
        ExperimentConfig(**{field: ()})


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


#: Cell values a CSV table is written straight from (``int``, ``float``, ``str``,
#: with the characters that need quoting), and every value besides.
PLAIN_CELLS = st.one_of(
    st.integers(-2**80, 2**80), st.floats(),  # nan, infinities and -0.0 among them
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["", ",", '"', "\r", "\n", ' a,"b"\r\nc ']))
ANY_CELLS = st.one_of(PLAIN_CELLS, st.none(), st.booleans(), st.floats().map(np.float64),
                      st.integers(-2**40, 2**40).map(np.int64))


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 4))
    cells = draw(st.sampled_from([PLAIN_CELLS, ANY_CELLS]))
    columns = draw(st.lists(st.text(max_size=4), min_size=width, max_size=width))
    return columns, draw(st.lists(st.tuples(*[cells] * width), max_size=6))


@settings(max_examples=300, deadline=None)
@given(csv_tables())
@example((["a"], [("",), (1,)]))  # csv.writer quotes a row's one empty field
@example((["a", "b"], [(1,), (2, 3, 4)]))  # and writes rows of any width
def test_csv_tables_equal_the_csv_writer_bytes(table):
    columns, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = export_table("table", columns, rows, tmp, "csv")
        oracle = Path(tmp) / "oracle.csv"
        with open(oracle, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        assert path.read_bytes() == oracle.read_bytes()


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
    result = run_characterization(ExperimentConfig(seed=17, cycles=3), cells=2)
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
def test_each_drive_is_validated_once_per_array(rebind, monkeypatch, run):
    """A drive (a cell and its bits) is resolved and validated once per array,
    not once per pulse.

    Every ``resolve_drives`` call and ``Pulse`` construction is counted, and so
    is every distinct drive resolution (one per drive an array builds) that the
    run replays, with the cells it pulses.  Forming ramps build their own
    pulses, one per step.
    """
    built = Counter()
    real_post_init = Pulse.__post_init__

    def counting(self):
        built["Pulse"] += 1
        real_post_init(self)

    monkeypatch.setattr(Pulse, "__post_init__", counting)
    count_calls(rebind, built, (array_module.resolve_drives,))

    distinct: dict[int, int] = {}  # id of a resolution -> cells pulsed
    resolutions: list[list] = []  # keeps every resolution alive, so no id is reused
    applied = Counter()
    real_replay = array_module.replay

    def recording(resolved, rng):
        real_replay(resolved, rng)
        resolutions.append(resolved)
        distinct.setdefault(id(resolved), len(resolved))
        applied["drives"] += 1

    real_form = array_module.form_by_ramp

    def forming(cell, rng):
        pulses = real_form(cell, rng)
        applied["form_pulses"] += pulses
        return pulses

    rebind(real_replay, recording)
    rebind(real_form, forming)
    run(ExperimentConfig(seed=3, cycles=20, gates=("OR", "AND", "NIMP", "XOR")))

    assert applied["drives"] > 10 * len(distinct)
    assert built["resolve_drives"] <= len(distinct)
    assert built["Pulse"] <= applied["form_pulses"] + sum(distinct.values())


def test_a_default_scouting_run_validates_each_selection_once(rebind):
    validated = []
    real = array_module.validate_parallel_selection

    def counting(topology, addrs):
        validated.append(addrs)
        real(topology, addrs)

    rebind(real, counting)
    result = run_scouting_experiment(ExperimentConfig(seed=7))
    assert sum(map(len, result.currents.values())) == 600
    # One array per class: four two-cell selections and two one-cell READ ones.
    assert sorted(map(len, validated)) == [1, 1, 2, 2, 2, 2]


# ------------------------------------------------------------- work done

#: Calls per default run at seed 7: a cut in per-call overhead must not skip a
#: pulse, a read or a write.  Re-recorded when the draws moved to one stream
#: pair per bucket and to one uniform per truncated draw (the forming ramps
#: changed with the thresholds), and a refreshing write stopped reading the
#: cell before it: 1,000 fewer ``scouting`` reads.  A scouting run samples and
#: forms its two input cells once, not once per class (10 of each before):
#: 167 fewer forming pulses, (0, 0)'s 22 five times and (1, 0)'s 19 three times.
#: Its classes run on that one array, restored to the formed cells, so each
#: cell's SET and RESET drives are resolved once per run (4, not 15), and its
#: writes run in ``scout_class``'s own loop.  A gate bucket runs its read-first
#: verified write in its own loop too, so the 1,600 calls of the deleted
#: ``initialize_cell`` (one per gate cycle) dropped out; no other count moved.
#: ``replay`` counts the drives applied: each call pulses one drive's cells.
WORK_AT_SEED_7 = {
    "gate": {"apply_pulse": 1290, "read_resistance": 3702, "replay": 2102,
             "sample_fresh_cell": 4, "form_by_ramp": 4, "resolve_drives": 15},
    "scouting": {"apply_pulse": 1541, "read_resistance": 2000, "replay": 1500,
                 "sample_fresh_cell": 2, "form_by_ramp": 2, "resolve_drives": 4},
}


def count_calls(rebind, calls, functions):
    """Count each function's calls under its name, in every module that binds it."""
    for fn in functions:
        def counted(*args, real=fn, **kwargs):
            calls[real.__name__] += 1
            return real(*args, **kwargs)
        rebind(fn, counted)


@pytest.mark.parametrize("run", [run_1t1r_experiment, run_scouting_experiment],
                         ids=["gate", "scouting"])
def test_default_runs_do_the_pinned_work(rebind, request, run):
    calls = Counter()
    count_calls(rebind, calls, (
        device_module.apply_pulse, device_module.read_resistance,
        device_module.sample_fresh_cell, device_module.form_by_ramp,
        array_module.replay, array_module.resolve_drives))
    result = run(ExperimentConfig(seed=7))
    assert result.report.failures == result.report.errors == 0
    assert dict(calls) == WORK_AT_SEED_7[request.node.callspec.id]


#: Calls of the default ``run_characterization`` at seed 7, recorded as
#: ``WORK_AT_SEED_7`` was: 10 cells x 100 cycles of one SET and one RESET
#: drive and a read after each, plus the forming ramps' pulses.
CHARACTERIZE_WORK_AT_SEED_7 = {"apply_pulse": 2212, "read_resistance": 2000,
                               "replay": 2000, "resolve_drives": 20}


def test_default_characterization_does_the_pinned_work(rebind):
    calls = Counter()
    count_calls(rebind, calls, (device_module.apply_pulse, device_module.read_resistance,
                                array_module.replay, array_module.resolve_drives))
    run_characterization(ExperimentConfig(seed=7))
    assert dict(calls) == CHARACTERIZE_WORK_AT_SEED_7
