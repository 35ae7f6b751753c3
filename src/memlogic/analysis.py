"""Monte Carlo experiment harness: repeated-cycle runs, distribution summaries,
failure accounting and deterministic CSV/JSON exports.

Every trial draws its randomness from a stream keyed by (seed, experiment
kind, bucket, cycle), so results are bit-reproducible and independent of
execution order.  Each experiment derives the streams of all its trials in one
vectorized pass over one integer grid of bucket keys (gate and input pair,
scouting class or characterized cell) and cycles (``_bucket_streams``); each
stream equals ``default_rng(SeedSequence(key))`` bit for bit.  Each bucket is
one runner call over its streams (``execute_gate_bucket`` for a gate and input
pair, ``scout_class`` for a scouting class, one cell's cycle loop in
characterization), and each cell's drives are built once per array.

A table's rows are tuples in column order, and its columns are stated once:
the fields of its row type (``TraceRow``, ``DistributionSummary``,
``GapMargin``, ``NonSwitchingCaseReport``, ``SweepPoint``) or a column tuple
next to the rows it heads.  ``export_table`` writes any of them as CSV or JSON
(a non-finite float is JSON null).
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .array import ArrayTopology, CellAddress, CellArray, TopologyKind
from .device import (
    STATE_HRS,
    STATE_LRS,
    TransistorModel,
    VariabilityParams,
    binarize,
    default_boundary,
    require_finite_result,
    require_int,
)
from .logic1t1r import (
    CASE_TABLE,
    DEFAULT_VOLTAGES,
    INPUT_PAIRS,
    RESET_BITS,
    SET_BITS,
    InitFailureError,
    ParamMapping,
    default_gate_library,
    evaluate_mapping,
    execute_gate_bucket,
    lookup_gate,
)
from .scouting import (
    SCOUTING_OPS,
    CurrentSample,
    OverlapError,
    ReferenceLevels,
    class_gaps,
    classify_bucket,
    expected_bit,
    input_patterns,
    place_references,
    reference_preset,
    scout_class,
)
from .streams import trial_streams


# ---------------------------------------------------------------------------
# Configuration and result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    seed: int = 7
    cycles: int = 100
    gates: tuple[str, ...] = ("OR", "AND", "NIMP", "XOR")
    scouting_ops: tuple[str, ...] = ("read", "or", "and", "xor")
    n_inputs: int = 2
    device: VariabilityParams = field(default_factory=VariabilityParams)
    transistor: TransistorModel = field(default_factory=TransistorModel)
    topology: ArrayTopology = field(default_factory=ArrayTopology)
    refs: str = "placed"  # "placed" or a reference preset name
    split: str = "split"  # "split" (train/classify halves) or "insample"
    rotate_cells: bool = False

    def __post_init__(self) -> None:
        for name, least in (("seed", 0), ("cycles", 1), ("n_inputs", 1)):
            require_int(name, getattr(self, name), least)
        if self.split not in ("split", "insample"):
            raise ValueError("split must be 'split' or 'insample'")
        if not isinstance(self.refs, str):
            raise ValueError(f"refs must be 'placed' or a preset name, got {self.refs!r}")
        if not isinstance(self.rotate_cells, bool):
            raise ValueError(f"rotate_cells must be true or false, got {self.rotate_cells!r}")
        for name in ("gates", "scouting_ops"):
            if not getattr(self, name):
                raise ValueError(f"{name} must name at least one entry")

    def replace(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


class DistributionSummary(NamedTuple):
    """Whisker-box summary of one sample set (nearest-rank quantiles)."""

    label: str
    count: int
    min: float
    p1: float
    p25: float
    median: float
    p75: float
    p99: float
    max: float
    mean: float

    @classmethod
    def from_samples(cls, label: str, samples: Sequence[float]) -> "DistributionSummary":
        if not samples:
            raise ValueError(f"no samples for {label!r}")
        ordered = sorted(samples)
        n = len(ordered)

        def rank(pct: float) -> float:
            return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]

        return cls(label=label, count=n, min=ordered[0], p1=rank(1), p25=rank(25),
                   median=rank(50), p75=rank(75), p99=rank(99), max=ordered[-1],
                   mean=sum(ordered) / n)


def log_spread(samples: Sequence[float]) -> float:
    """Standard deviation of ln(samples); the log-space width of a distribution."""
    logs = np.log(np.asarray(samples, dtype=float))
    return float(np.std(logs))


@dataclass
class BucketStats:
    """Per-bucket trial accounting against the ideal output bit ``expected``:
    failures are wrong bits, errors are initialization breakdowns (not logic)."""

    label: str
    expected: int
    trials: int = 0
    failures: int = 0
    errors: int = 0

    @property
    def successes(self) -> int:
        return self.trials - self.failures - self.errors


@dataclass
class FailureReport:
    buckets: list[BucketStats] = field(default_factory=list)
    first_failure: tuple | None = None  # (seed, bucket label, cycle)

    @property
    def trials(self) -> int:
        return sum(b.trials for b in self.buckets)

    @property
    def failures(self) -> int:
        return sum(b.failures for b in self.buckets)

    @property
    def errors(self) -> int:
        return sum(b.errors for b in self.buckets)


class TraceRow(NamedTuple):
    gate: str
    p: int
    q: int
    case_id: int
    cycle: int
    r_init_ohm: float
    r_final_ohm: float
    out_bit: int
    expected_bit: int


class GapMargin(NamedTuple):
    gap: str
    lower_max_a: float
    upper_min_a: float
    width_a: float
    midpoint_a: float
    margin: float  # width over midpoint
    reference_a: float

    @classmethod
    def between(cls, gap: str, lower_max_a: float, upper_min_a: float,
                reference_a: float) -> "GapMargin":
        width = upper_min_a - lower_max_a
        midpoint = 0.5 * (lower_max_a + upper_min_a)
        return cls(gap, lower_max_a, upper_min_a, width, midpoint,
                   width / midpoint if midpoint else 0.0, reference_a)


@dataclass
class LogicExperimentResult:
    config: ExperimentConfig
    rows: list[TraceRow]
    summaries: list[DistributionSummary]
    report: FailureReport
    non_switching: list["NonSwitchingCaseReport"]


@dataclass
class ScoutingExperimentResult:
    config: ExperimentConfig
    samples: list[CurrentSample]
    refs: ReferenceLevels | None
    summaries: list[DistributionSummary]
    report: FailureReport
    margins: list[GapMargin]
    overlap: OverlapError | None


@dataclass
class CharacterizationResult:
    rows: list[tuple[int, int, float, float]]  # (cell, cycle, r_lrs, r_hrs)
    summaries: list[DistributionSummary]
    hrs_lrs_ratio: float
    lrs_log_spread: float
    hrs_log_spread: float


def _bucket_streams(prefix: tuple[int, int], buckets: Sequence[tuple[int, ...]], cycles: int):
    """The streams keyed ``(*prefix, *bucket, cycle)``, every cycle of one
    bucket before the next bucket."""
    buckets = np.asarray(buckets, dtype=np.int64)
    return trial_streams(prefix, np.column_stack((
        np.repeat(buckets, cycles, axis=0), np.tile(np.arange(cycles), len(buckets)))))


def _require_switching_pulse(params: VariabilityParams) -> None:
    """Reject a pulse minimum longer than the operating point's pulse, under
    which no write can switch; checked before any array is built."""
    for name in ("min_pulse_set", "min_pulse_reset"):
        if getattr(params, name) > DEFAULT_VOLTAGES.width:
            raise ValueError(f"device.{name} = {getattr(params, name)!r} is longer than "
                             f"the {DEFAULT_VOLTAGES.width} s pulse of the operating point")


def _reject_repeats(kind: str, names: Sequence[str], keys: list) -> None:
    """Reject a name whose key (its resolved gate or op) an earlier name had."""
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(f"{kind} {names[i]!r} repeats {names[keys.index(key)]!r}")


# ---------------------------------------------------------------------------
# 1T1R logic experiment
# ---------------------------------------------------------------------------

def run_1t1r_experiment(config: ExperimentConfig,
                        library: dict[str, ParamMapping] | None = None) -> LogicExperimentResult:
    """Repeat every gate for every input pair over ``config.cycles`` cycles.

    Each gate runs cascaded on one cell (a fresh cell per input pair with
    ``rotate_cells``); a logical failure is an output bit that disagrees with
    the pure truth table, an error is an exhausted initialization retry.
    """
    if library is None:
        library = default_gate_library()
    mappings = [(name, lookup_gate(library, name)) for name in config.gates]
    _reject_repeats("gate", config.gates, [mapping for _, mapping in mappings])
    _require_switching_pulse(config.device)
    all_rows: list[TraceRow] = []
    report = FailureReport()
    streams = _bucket_streams((config.seed, 10), [
        (gate_idx, p, q) for gate_idx in range(len(mappings)) for p, q in INPUT_PAIRS],
        config.cycles)
    for gate_idx, (name, mapping) in enumerate(mappings):
        array = CellArray(config.topology, config.device, config.transistor,
                          seed=config.seed)
        col = gate_idx % config.topology.cols
        for combo_idx, (p, q) in enumerate(INPUT_PAIRS):
            row_idx = combo_idx % config.topology.rows if config.rotate_cells else 0
            addr = CellAddress(row_idx, col)
            array.form(addr)
            expected = evaluate_mapping(mapping, p, q).output
            traces = execute_gate_bucket(array, addr, mapping, p, q,
                                         islice(streams, config.cycles))
            bucket = BucketStats(f"{name}/{p}{q}", expected, trials=len(traces))
            for cycle, trace in enumerate(traces):
                if isinstance(trace, InitFailureError):
                    bucket.errors += 1
                    continue
                all_rows.append(TraceRow(
                    name, p, q, trace.case_id, cycle, trace.init_resistance,
                    trace.final_resistance, trace.output_bit, expected))
                if trace.output_bit != expected:
                    bucket.failures += 1
                    if report.first_failure is None:
                        report.first_failure = (config.seed, bucket.label, cycle)
            report.buckets.append(bucket)
    summaries = []
    grouped: dict[str, list[float]] = defaultdict(list)
    for row in all_rows:
        grouped[f"{row.gate}/{row.p}{row.q}"].append(row.r_final_ohm)
    for label in sorted(grouped):
        summaries.append(DistributionSummary.from_samples(label, grouped[label]))
    return LogicExperimentResult(
        config=config, rows=all_rows, summaries=summaries, report=report,
        non_switching=non_switching_report(all_rows, default_boundary(config.device)))


class NonSwitchingCaseReport(NamedTuple):
    case_id: int
    count: int
    binary_changes: int
    log_variation: float


def non_switching_report(rows: Sequence[TraceRow],
                         boundary: float) -> list[NonSwitchingCaseReport]:
    """Initial-versus-final resistance scatter for every non-switching case
    the rows reach (``LogicCase.possible`` is false).

    ``binary_changes`` must stay zero; ``log_variation`` is the standard
    deviation of ln(final/initial), the analog drift of the resident state.
    """
    by_case: dict[int, list[TraceRow]] = defaultdict(list)
    for row in rows:
        if not CASE_TABLE[row.case_id - 1].possible:
            by_case[row.case_id].append(row)
    reports = []
    for case_id in sorted(by_case):
        case_rows = by_case[case_id]
        changes = sum(1 for r in case_rows
                      if binarize(r.r_init_ohm, boundary) != binarize(r.r_final_ohm, boundary))
        ratios = [math.log(r.r_final_ohm / r.r_init_ohm) for r in case_rows]
        reports.append(NonSwitchingCaseReport(
            case_id=case_id, count=len(case_rows), binary_changes=changes,
            log_variation=float(np.std(np.asarray(ratios)))))
    return reports


# ---------------------------------------------------------------------------
# Scouting experiment
# ---------------------------------------------------------------------------

def sample_scouting_currents(config: ExperimentConfig, n: int,
                             include_single: bool = False,
                             verify: bool = True) -> list[CurrentSample]:
    """Measure ``config.cycles`` read currents for every n-bit input pattern.

    The input cells occupy one column (rows 0..n-1), which the standard array
    can select in parallel, so n may not exceed the row count.  States are
    rewritten every cycle so each sample carries a fresh cycle-to-cycle draw.
    With ``include_single`` the one-cell classes "0" and "1" are measured as
    well (for the read operation).
    """
    if n > config.topology.rows:
        raise ValueError(f"n={n} input cells do not fit in one column of "
                         f"{config.topology.rows} rows")
    classes: list[tuple[str, tuple[CellAddress, ...]]] = [
        (pattern, tuple(CellAddress(r, 0) for r in range(n))) for pattern in input_patterns(n)]
    if include_single:
        classes += [(bit, (CellAddress(0, 0),)) for bit in ("0", "1")]
    samples = []
    streams = _bucket_streams((config.seed, 20), [
        (len(input_class), int(input_class, 2)) for input_class, _ in classes], config.cycles)
    for input_class, addrs in classes:
        array = CellArray(config.topology, config.device, config.transistor,
                          seed=config.seed)
        for addr in addrs:
            array.form(addr)
        currents = scout_class(array, addrs, input_class, islice(streams, config.cycles),
                               True, verify)
        samples += [CurrentSample(input_class, current, cycle)
                    for cycle, current in enumerate(currents)]
    return samples


def _margins(samples: Sequence[CurrentSample],
             refs: ReferenceLevels | None) -> list[GapMargin]:
    """One row per popcount gap, ascending, then the READ gap when sampled.

    A gap is named by the reference it holds: "or" below popcount 1, "and"
    below popcount n, "level<k>" for the k-th level between them.
    """
    level_gaps, read_gap = class_gaps(samples)
    n = len(level_gaps)
    nan = float("nan")
    margins = []
    for k, gap in enumerate(level_gaps):
        name = "or" if k == 0 else "and" if k == n - 1 else f"level{k}"
        margins.append(GapMargin.between(f"{gap.lower_class}|{name}|{gap.upper_class}",
                                         gap.lower_max, gap.upper_min,
                                         refs.levels[k] if refs else nan))
    if read_gap is not None:
        margins.append(GapMargin.between("0|read|1", read_gap.lower_max,
                                         read_gap.upper_min, refs.i_read if refs else nan))
    return margins


def run_scouting_experiment(config: ExperimentConfig) -> ScoutingExperimentResult:
    """Sample the input-class currents, place references, classify.

    Every op is evaluated on each input class it reads (the n-bit patterns,
    or the one-cell classes for READ), in one bucket per op and class.  With
    ``split`` mode the references come from the first half of the cycles
    and classification runs on the second half (out-of-sample margins); with
    ``insample`` mode both use all samples.  An overlap between adjacent
    classes is recorded as a total failure of every evaluated trial.
    """
    ops = tuple(op.lower() for op in config.scouting_ops)
    for op in ops:
        if op not in SCOUTING_OPS:
            raise ValueError(f"unknown scouting op {op!r}; expected one of {SCOUTING_OPS}")
    _reject_repeats("scouting op", config.scouting_ops, list(ops))
    _require_switching_pulse(config.device)
    n = config.n_inputs
    if n < 2:
        raise ValueError("scouting needs at least two input cells")
    if config.split == "split" and config.cycles < 2:
        raise ValueError("split mode needs cycles >= 2 (one half places the "
                         "references, the other is classified)")
    refs: ReferenceLevels | None = None
    if config.refs != "placed":
        refs = reference_preset(config.refs)
        if refs.n != n:
            raise ValueError(f"reference preset {config.refs!r} has {refs.n} levels; "
                             f"a {n}-input read needs {n}")
    samples = sample_scouting_currents(config, n, include_single="read" in ops)

    half = (config.cycles + 1) // 2 if config.split == "split" else config.cycles
    train = [s for s in samples if s.cycle < half]
    evaluate = [s for s in samples if s.cycle >= half] if config.split == "split" else samples

    overlap: OverlapError | None = None
    if refs is None:
        try:
            refs = place_references(train)
        except OverlapError as exc:
            overlap = exc

    by_class: dict[str, list[CurrentSample]] = defaultdict(list)
    for s in evaluate:
        by_class[s.input_class].append(s)
    report = FailureReport()
    for op in ops:
        for input_class in ("0", "1") if op == "read" else input_patterns(n):
            label, expected = f"{op}/{input_class}", expected_bit(op, input_class)
            class_samples = by_class[input_class]
            if refs is None:  # collapsed gap: nothing to compare against
                failed = [s.cycle for s in class_samples]
            else:
                bits = classify_bucket([s.current for s in class_samples], refs, op)
                failed = [s.cycle for s, bit in zip(class_samples, bits) if bit != expected]
            if failed and report.first_failure is None:
                report.first_failure = (config.seed, label, failed[0])
            report.buckets.append(BucketStats(label, expected, len(class_samples), len(failed)))

    summaries = []
    grouped: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        grouped[s.input_class].append(s.current)
    for label in sorted(grouped):
        summaries.append(DistributionSummary.from_samples(label, grouped[label]))
    return ScoutingExperimentResult(config=config, samples=samples, refs=refs,
                                    summaries=summaries, report=report,
                                    margins=_margins(train, refs), overlap=overlap)


# ---------------------------------------------------------------------------
# Device characterization
# ---------------------------------------------------------------------------

def run_characterization(params: VariabilityParams,
                         transistor: TransistorModel | None = None,
                         cells: int = 10, cycles: int = 100,
                         seed: int = 0) -> CharacterizationResult:
    """Cycle each cell through SET/RESET and record both state resistances.

    One row per (cell, cycle) holds the LRS read after the SET pulse and the
    HRS read after the RESET pulse.  A cell left in the wrong state by either
    pulse (parameters out of the operating point's reach) is a ``ValueError``
    naming the cell, the cycle and the parameters.
    """
    for name, value, least in (("cells", cells, 1), ("cycles", cycles, 1), ("seed", seed, 0)):
        require_int(name, value, least)
    transistor = transistor if transistor is not None else TransistorModel()
    topology = ArrayTopology(TopologyKind.STANDARD_1T1R, rows=1, cols=cells)
    volts = DEFAULT_VOLTAGES
    phases = ((SET_BITS, STATE_LRS, f"{volts.v_te_set} V SET", "v_set_th_median",
               "min_pulse_set"),
              (RESET_BITS, STATE_HRS, f"{volts.v_be_reset} V RESET", "v_reset_th_median",
               "min_pulse_reset"))
    rows = []
    streams = _bucket_streams((seed, 32), [(ci,) for ci in range(cells)], cycles)
    for ci in range(cells):
        array = CellArray(topology, params, transistor, seed=seed)
        addr = CellAddress(0, ci)
        array.form(addr)
        cell, drives = array.cell(addr), array.cell_drives(addr)
        for cycle, rng in zip(range(cycles), streams):
            reads = []
            for bits, state, pulse, *names in phases:
                array.apply_drive(drives[bits], rng)
                if cell.state != state:
                    raise ValueError(
                        f"cell {ci} is {cell.state.upper()} after the {volts.width} s, "
                        f"{pulse} pulse of cycle {cycle}: " + ", ".join(
                            f"device.{name} = {getattr(params, name)!r}" for name in names))
                reads.append(array.read_cell(addr, rng))
            rows.append((ci, cycle, *reads))
    lrs_values = [r[2] for r in rows]
    hrs_values = [r[3] for r in rows]
    ratio = (sum(hrs_values) / len(hrs_values)) / (sum(lrs_values) / len(lrs_values))
    require_finite_result("mean HRS/LRS ratio", ratio, params)
    summaries = [DistributionSummary.from_samples("lrs", lrs_values),
                 DistributionSummary.from_samples("hrs", hrs_values)]
    for ci in range(cells):  # each cell's rows are one run of ``cycles`` rows
        cell_rows = rows[ci * cycles:(ci + 1) * cycles]
        summaries.append(DistributionSummary.from_samples(
            f"lrs/cell{ci}", [r[2] for r in cell_rows]))
        summaries.append(DistributionSummary.from_samples(
            f"hrs/cell{ci}", [r[3] for r in cell_rows]))
    return CharacterizationResult(rows=rows, summaries=summaries,
                                  hrs_lrs_ratio=ratio,
                                  lrs_log_spread=log_spread(lrs_values),
                                  hrs_log_spread=log_spread(hrs_values))


# ---------------------------------------------------------------------------
# Parameter sweep and overlap bisection
# ---------------------------------------------------------------------------

class SweepPoint(NamedTuple):
    parameter: str
    value: float
    logic_trials: int
    logic_failures: int
    logic_errors: int
    scouting_trials: int
    scouting_failures: int
    overlap: int  # 1 when the scouting classes overlap
    min_margin: float


def sweep_parameter(config: ExperimentConfig, parameter: str,
                    values: Sequence[float]) -> list[SweepPoint]:
    """Re-run the logic and scouting experiments across device parameter values."""
    if not values:
        raise ValueError("sweep range is empty")
    fields = sorted(VariabilityParams.__dataclass_fields__)
    if parameter not in fields:
        raise ValueError(f"unknown device parameter {parameter!r}; one of {fields}")
    points = []
    for value in values:
        cfg = config.replace(device=config.device.replace(**{parameter: value}))
        logic = run_1t1r_experiment(cfg)
        scouting = run_scouting_experiment(cfg)
        margins = [m.margin for m in scouting.margins]
        points.append(SweepPoint(
            parameter=parameter, value=float(value),
            logic_trials=logic.report.trials,
            logic_failures=logic.report.failures,
            logic_errors=logic.report.errors,
            scouting_trials=scouting.report.trials,
            scouting_failures=scouting.report.failures,
            overlap=int(scouting.overlap is not None),
            min_margin=min(margins) if margins else float("nan"),
        ))
    return points


def overlap_collides(config: ExperimentConfig, n: int, hrs_sigma_c2c: float) -> bool:
    """True when n-cell reference placement fails at the given HRS spread.

    The probe writes the input states without read-back verification so the
    raw state tails reach the read path (verified writes retry boundary-
    straddling draws away and would hide the collision).  Cells that cannot
    be initialized at all also count as collided: the class structure is gone
    either way.
    """
    cfg = config.replace(device=config.device.replace(hrs_sigma_c2c=hrs_sigma_c2c),
                         n_inputs=n)
    try:
        place_references(sample_scouting_currents(cfg, n, verify=False))
    except (OverlapError, InitFailureError):
        return True
    return False


def find_overlap_sigma(config: ExperimentConfig, n: int, lo: float = 0.32,
                       hi: float = 3.0, iterations: int = 14) -> float:
    """Bisect for the smallest HRS cycle-to-cycle sigma that collapses a gap."""
    if overlap_collides(config, n, lo):
        return lo
    if not overlap_collides(config, n, hi):
        raise RuntimeError(f"no overlap up to sigma={hi} for n={n}")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if overlap_collides(config, n, mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload) -> Path:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path


def export_table(name: str, columns: Sequence[str], rows: Iterable[tuple],
                 out_dir: str | Path, fmt: str = "csv") -> Path:
    """Write one table: a ``columns`` header, then each row's values in
    column order; deterministic bytes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.{fmt}"
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
    elif fmt == "json":  # JSON has no NaN or infinity: a non-finite float is null
        _write_json(path, [{column: None if isinstance(value, float)
                            and not math.isfinite(value) else value
                            for column, value in zip(columns, row)} for row in rows])
    else:
        raise ValueError(f"unknown export format {fmt!r} (csv or json)")
    return path


def _write_failure_report(report: FailureReport, out_dir: str | Path,
                          extra: dict | None = None) -> Path:
    payload = {
        "buckets": [{"label": b.label, "trials": b.trials, "failures": b.failures,
                     "errors": b.errors} for b in report.buckets],
        "trials": report.trials,
        "failures": report.failures,
        "errors": report.errors,
        "first_failure": list(report.first_failure) if report.first_failure else None,
    }
    if extra:
        payload.update(extra)
    return _write_json(Path(out_dir) / "report.json", payload)


def export_logic_result(result: LogicExperimentResult, out_dir: str | Path,
                        fmt: str = "csv") -> list[Path]:
    return [
        export_table("traces", TraceRow._fields, result.rows, out_dir, fmt),
        export_table("summary", DistributionSummary._fields, result.summaries,
                     out_dir, fmt),
        export_table("non_switching", NonSwitchingCaseReport._fields,
                     result.non_switching, out_dir, fmt),
        _write_failure_report(result.report, out_dir),
    ]


def export_scouting_result(result: ScoutingExperimentResult, out_dir: str | Path,
                           fmt: str = "csv") -> list[Path]:
    refs = result.refs
    extra = {
        "overlap": str(result.overlap) if result.overlap is not None else None,
        # The refs table holds only the OR and AND levels; wider reads list all.
        "thresholds": list(refs.levels) if refs is not None and refs.n > 2 else None,
    }
    return [
        export_table("currents", ("op", "class", "cycle", "current_a"),
                     [("scout" if len(s.input_class) > 1 else "read", s.input_class,
                       s.cycle, s.current) for s in result.samples], out_dir, fmt),
        export_table("refs", ("i_read_a", "i_or_a", "i_and_a"),
                     [] if refs is None else [(refs.i_read, refs.i_or, refs.i_and)],
                     out_dir, fmt),
        export_table("margins", GapMargin._fields, result.margins, out_dir, fmt),
        export_table("summary", DistributionSummary._fields, result.summaries,
                     out_dir, fmt),
        _write_failure_report(result.report, out_dir, extra=extra),
    ]


def export_characterization(result: CharacterizationResult, out_dir: str | Path,
                            fmt: str = "csv") -> list[Path]:
    return [
        export_table("characterize", ("cell", "cycle", "r_lrs_ohm", "r_hrs_ohm"),
                     result.rows, out_dir, fmt),
        export_table("summary", DistributionSummary._fields, result.summaries,
                     out_dir, fmt),
        _write_json(Path(out_dir) / "characterize_report.json",
                    {"hrs_lrs_ratio": result.hrs_lrs_ratio,
                     "lrs_log_spread": result.lrs_log_spread,
                     "hrs_log_spread": result.hrs_log_spread}),
    ]


def export_sweep(points: Sequence[SweepPoint], out_dir: str | Path,
                 fmt: str = "csv") -> Path:
    return export_table("sweep", SweepPoint._fields, points, out_dir, fmt)
