"""Monte Carlo experiment harness: repeated-cycle runs, distribution summaries,
failure accounting and deterministic CSV/JSON exports.

Every runner reads its settings from its ``ExperimentConfig``, which checks them.
Every bucket (a gate and input pair, a scouting class or a characterized
cell) is one runner call over its cycles and draws from two streams of its
own, ``_stream``: purposes 0 (switching) and 1 (read noise) of
``SeedSequence((seed, STREAM_KINDS[kind], *key, purpose))``, served in blocks
of exactly its scalar draws; ``array.STREAM_KINDS`` is the one table of the
words of every seeded stream.  Results are bit-reproducible, and no bucket's
draws depend on the buckets run before it.
Each experiment hands every bucket's (label, expected bit, trials, failed
cycles, errors) to ``FailureReport.tally``, which builds the report whole.
A gate bucket's runner returns the rows the ``traces`` table exports, and a
cycle without a row is an error.  Only the runners binarize; the harness reads
the bits off the rows.  The one scouting sampler, ``sample_scouting_currents``,
forms the input cells once, starts each class from them restored in place and
returns each class's currents.  A scouting run's training and classified halves
are slices of them, and the gaps between the training currents are computed
once, for the references and the margins.
A characterization runs all its cells on one array, whose drives for one
cell leave every other cell at 0 V.

A table's rows are tuples in column order, and its columns are stated once:
the fields of its row type (``TraceRow`` of ``logic1t1r``,
``DistributionSummary``, ``GapMargin``, ``NonSwitchingCaseReport``,
``SweepPoint``) or a column tuple next to the rows it heads.  A result's
``tables()`` are its exports, and ``write_exports`` writes them all, each
table through ``export_table`` as CSV (each value's ``str``, quoted as
``csv.writer`` quotes) or JSON (a non-finite float is null).
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import chain, groupby, repeat
from operator import attrgetter, methodcaller
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .array import (RESET_BITS, SET_BITS, STREAM_KINDS, ArrayTopology, CellAddress,
                    CellArray, TopologyKind, replay)
from .device import (
    PARAM_BOUNDS,
    STATE_HRS,
    STATE_LRS,
    V_BE_RESET,
    V_TE_SET,
    Normals,
    Uniforms,
    VariabilityParams,
    read_resistance,
    require_finite_result,
    require_int,
)
from .logic1t1r import (
    CASE_TABLE,
    INPUT_PAIRS,
    InitFailureError,
    ParamMapping,
    TraceRow,
    default_gate_library,
    evaluate_mapping,
    execute_gate_bucket,
    lookup_gate,
)
from .scouting import (
    PAPER_REFS,
    Gap,
    OverlapError,
    ReferenceLevels,
    class_gaps,
    classify_bucket,
    expected_bit,
    input_patterns,
    references_in,
    scout_class,
    scouting_op,
)


# ---------------------------------------------------------------------------
# Configuration and result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run; each field's values are checked here."""

    seed: int = 7
    cycles: int = 100
    gates: tuple[str, ...] = ("OR", "AND", "NIMP", "XOR")
    scouting_ops: tuple[str, ...] = ("read", "or", "and", "xor")
    n_inputs: int = 2
    device: VariabilityParams = field(default_factory=VariabilityParams)
    topology: ArrayTopology = field(default_factory=ArrayTopology)
    refs: str = "placed"  # "placed" or "paper-refs", in any case
    split: str = "split"  # "split" (train/classify halves) or "insample"
    rotate_cells: bool = False

    def __post_init__(self) -> None:
        for name, least in (("seed", 0), ("cycles", 1), ("n_inputs", 1)):
            require_int(name, getattr(self, name), least)
        if self.split not in ("split", "insample"):
            raise ValueError(f"split must be 'split' or 'insample', got {self.split!r}")
        if not isinstance(self.refs, str) or self.refs.lower() not in ("placed", "paper-refs"):
            raise ValueError(f"refs must be 'placed' or 'paper-refs', got {self.refs!r}")
        if not isinstance(self.rotate_cells, bool):
            raise ValueError(f"rotate_cells must be true or false, got {self.rotate_cells!r}")
        for name in ("gates", "scouting_ops"):
            names = getattr(self, name)
            if not isinstance(names, (tuple, list)) or not all(isinstance(x, str) for x in names):
                raise ValueError(f"{name} must be a tuple of names, got {names!r}")
            if not names:
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


@dataclass
class FailureReport:
    buckets: list[BucketStats] = field(default_factory=list)
    first_failure: tuple | None = None  # (seed, bucket label, cycle)

    @classmethod
    def tally(cls, seed: int,
              buckets: Sequence[tuple[str, int, int, list[int], int]]) -> "FailureReport":
        """A run's report from each bucket's (label, expected bit, trials, failed
        cycles, errors), in run order; the first failed cycle is the first failure."""
        return cls([BucketStats(label, expected, trials, len(failed), errors)
                    for label, expected, trials, failed, errors in buckets],
                   next(((seed, label, failed[0]) for label, _, _, failed, _ in buckets
                         if failed), None))

    @property
    def trials(self) -> int:
        return sum(b.trials for b in self.buckets)

    @property
    def failures(self) -> int:
        return sum(b.failures for b in self.buckets)

    @property
    def errors(self) -> int:
        return sum(b.errors for b in self.buckets)

    def payload(self, **extra) -> dict:
        """The ``report.json`` object: each bucket's counts, the totals, the first
        failure, and ``extra``."""
        return {"buckets": [{"label": b.label, "trials": b.trials, "failures": b.failures,
                             "errors": b.errors} for b in self.buckets],
                "trials": self.trials, "failures": self.failures, "errors": self.errors,
                "first_failure": list(self.first_failure) if self.first_failure else None,
                **extra}


class GapMargin(NamedTuple):
    gap: str
    lower_max_a: float
    upper_min_a: float
    width_a: float
    midpoint_a: float
    margin: float  # width over midpoint
    reference_a: float

    @classmethod
    def between(cls, name: str, gap: Gap, reference_a: float) -> "GapMargin":
        lower_class, upper_class, lower_max_a, upper_min_a = gap
        width = upper_min_a - lower_max_a
        midpoint = 0.5 * (lower_max_a + upper_min_a)
        return cls(f"{lower_class}|{name}|{upper_class}", lower_max_a, upper_min_a, width,
                   midpoint, width / midpoint if midpoint else 0.0, reference_a)


# Each result's ``tables()`` is its exports, in the order ``write_exports`` writes them.

@dataclass
class LogicExperimentResult:
    rows: list[TraceRow]
    summaries: list[DistributionSummary]
    report: FailureReport
    non_switching: list["NonSwitchingCaseReport"]

    def tables(self) -> list[tuple]:
        return [("traces", TraceRow._fields, self.rows),
                ("summary", DistributionSummary._fields, self.summaries),
                ("non_switching", NonSwitchingCaseReport._fields, self.non_switching),
                ("report", None, self.report.payload())]


@dataclass
class ScoutingExperimentResult:
    currents: dict[str, list[float]]  # by class, in sampling order; each in cycle order
    refs: ReferenceLevels | None
    summaries: list[DistributionSummary]
    report: FailureReport
    margins: list[GapMargin]
    overlap: OverlapError | None

    def tables(self) -> list[tuple]:
        refs = self.refs
        return [
            ("currents", ("op", "class", "cycle", "current_a"),
             [("scout" if len(input_class) > 1 else "read", input_class, cycle, current)
              for input_class, currents in self.currents.items()
              for cycle, current in enumerate(currents)]),
            ("refs", ("i_read_a", "i_or_a", "i_and_a"),
             [] if refs is None else [(refs.i_read, refs.i_or, refs.i_and)]),
            ("margins", GapMargin._fields, self.margins),
            ("summary", DistributionSummary._fields, self.summaries),
            # The refs table holds only the OR and AND levels; wider reads list all.
            ("report", None, self.report.payload(
                overlap=None if self.overlap is None else str(self.overlap),
                thresholds=list(refs.levels) if refs is not None and refs.n > 2 else None)),
        ]


@dataclass
class CharacterizationResult:
    rows: list[tuple[int, int, float, float]]  # (cell, cycle, r_lrs, r_hrs)
    summaries: list[DistributionSummary]
    hrs_lrs_ratio: float
    lrs_log_spread: float
    hrs_log_spread: float

    def tables(self) -> list[tuple]:
        return [("characterize", ("cell", "cycle", "r_lrs_ohm", "r_hrs_ohm"), self.rows),
                ("summary", DistributionSummary._fields, self.summaries),
                ("characterize_report", None, {"hrs_lrs_ratio": self.hrs_lrs_ratio,
                                               "lrs_log_spread": self.lrs_log_spread,
                                               "hrs_log_spread": self.hrs_log_spread})]


#: The draws a served stream takes from its generator in one numpy call.
STREAM_BLOCK = 256


def _stream(seed: int, kind: str, *key: int) -> tuple[Uniforms, Normals]:
    """A bucket's switching stream, with only ``random()``, and its read-noise
    stream, with only ``standard_normal()``: purposes 0 and 1 of ``SeedSequence((seed,
    STREAM_KINDS[kind], *key, purpose))``.  Each fills ``STREAM_BLOCK`` draws in one
    call, which equal that many scalar calls, and serves them one by one."""
    words = (seed, STREAM_KINDS[kind], *key)
    served = []
    for purpose, method in enumerate(("random", "standard_normal")):
        fill = getattr(np.random.default_rng(np.random.SeedSequence((*words, purpose))), method)
        blocks = map(methodcaller("tolist"), map(fill, repeat(STREAM_BLOCK)))
        served.append(SimpleNamespace(**{method: chain.from_iterable(blocks).__next__}))
    return tuple(served)


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
    mappings = [lookup_gate(library, name) for name in config.gates]
    _reject_repeats("gate", config.gates, mappings)
    rows: list[TraceRow] = []
    summaries: list[DistributionSummary] = []
    tallies = []
    for gate_idx, (name, mapping) in enumerate(zip(config.gates, mappings)):
        mapping = replace(mapping, name=name)  # the rows carry the name as typed
        array = CellArray(config.topology, config.device, seed=config.seed)
        col = gate_idx % config.topology.cols
        for combo_idx, (p, q) in enumerate(INPUT_PAIRS):
            row_idx = combo_idx % config.topology.rows if config.rotate_cells else 0
            addr = CellAddress(row_idx, col)
            array.form(addr)
            expected = evaluate_mapping(mapping, p, q).output
            bucket_rows = execute_gate_bucket(array, addr, mapping, p, q, config.cycles,
                                              *_stream(config.seed, "gate", gate_idx, p, q))
            label = f"{name}/{p}{q}"
            tallies.append((label, expected, config.cycles,
                            [row.cycle for row in bucket_rows if row.out_bit != expected],
                            config.cycles - len(bucket_rows)))
            if bucket_rows:  # a bucket whose every trial errored has no summary
                summaries.append(DistributionSummary.from_samples(
                    label, [row.r_final_ohm for row in bucket_rows]))
                require_finite_result(f"summary {label} mean", summaries[-1].mean, config.device)
            rows += bucket_rows
    summaries.sort()  # by label, which no two buckets share
    return LogicExperimentResult(
        rows=rows, summaries=summaries,
        report=FailureReport.tally(config.seed, tallies),
        non_switching=non_switching_report(rows))


class NonSwitchingCaseReport(NamedTuple):
    case_id: int
    count: int
    binary_changes: int
    log_variation: float


def non_switching_report(rows: Sequence[TraceRow]) -> list[NonSwitchingCaseReport]:
    """Initial-versus-final resistance scatter for every non-switching case
    the rows reach (``LogicCase.possible`` is false).

    ``binary_changes`` (output bits that are not I) must stay zero; ``log_variation``
    is the standard deviation of ln(final/initial), the analog drift of the resident state.
    """
    by_case: dict[int, list[TraceRow]] = defaultdict(list)
    for case_id, run in groupby(rows, attrgetter("case_id")):  # a bucket is one run
        if not CASE_TABLE[case_id - 1].possible:
            by_case[case_id] += run
    return [NonSwitchingCaseReport(
        case_id=case_id, count=len(case_rows),
        binary_changes=sum(r.out_bit != r.expected_bit for r in case_rows),
        log_variation=float(np.std(np.asarray(
            [math.log(r.r_final_ohm / r.r_init_ohm) for r in case_rows]))))
        for case_id, case_rows in sorted(by_case.items())]


# ---------------------------------------------------------------------------
# Scouting experiment
# ---------------------------------------------------------------------------

def _input_cells(config: ExperimentConfig) -> tuple[CellAddress, ...]:
    """The n scouting input cells: rows 0..n-1 of one column, which the standard
    array can select in parallel, so n may not exceed the row count."""
    n, rows = config.n_inputs, config.topology.rows
    if n > rows:
        raise ValueError(f"n={n} input cells do not fit in one column of {rows} rows")
    return tuple(CellAddress(r, 0) for r in range(n))


def sample_scouting_currents(config: ExperimentConfig, include_single: bool = False,
                             verify: bool = True) -> dict[str, list[float]]:
    """Each input class with its ``config.cycles`` read currents, in sampling
    order: the n-bit patterns (n = ``config.n_inputs``) ascending, then with
    ``include_single`` the one-cell classes "0" and "1" (for the read
    operation) unless n = 1 has measured them already.

    The input cells (``_input_cells``) are formed once, on one array, and each
    class starts from them restored in place, equal to a fresh array.  States
    are rewritten every cycle so each current carries a fresh cycle-to-cycle
    draw.  A write that gives up raises ``InitFailureError`` naming the seed,
    the class, the cycle and the cell.
    """
    n = config.n_inputs
    addrs = _input_cells(config)
    array = CellArray(config.topology, config.device, seed=config.seed)
    for addr in addrs:
        array.form(addr)
    formed = [(cell, replace(cell)) for cell in map(array.cell, addrs)]
    currents = {}
    for bits in input_patterns(n) + (input_patterns(1) if include_single and n > 1 else []):
        for cell, snapshot in formed:  # ``vars(cell).update`` would slow later reads
            for name in cell.__dataclass_fields__:
                setattr(cell, name, getattr(snapshot, name))
        try:
            currents[bits] = scout_class(array, addrs[:len(bits)], bits, config.cycles,
                                         *_stream(config.seed, "scouting", len(bits),
                                                  int(bits, 2)), verify)
        except InitFailureError as exc:  # one line that says where to replay it
            exc.args = (f"seed {config.seed}, class {bits!r}, cycle {exc.cycle}: {exc}",)
            raise
    return currents


def _scouting_settings(config: ExperimentConfig) -> tuple[tuple, ReferenceLevels | None]:
    """A checked scouting config's ops, lower-cased, and fixed references (None: placed)."""
    ops = tuple(map(scouting_op, config.scouting_ops))
    _reject_repeats("scouting op", config.scouting_ops, list(ops))
    n = config.n_inputs
    if n < 2:
        raise ValueError("scouting needs at least two input cells")
    if config.split == "split" and config.cycles < 2:
        raise ValueError("split mode needs cycles >= 2 (one half places the "
                         "references, the other is classified)")
    refs = PAPER_REFS if config.refs.lower() == "paper-refs" else None
    if refs is not None and refs.n != n:
        raise ValueError(f"refs {config.refs!r} has {refs.n} levels; "
                         f"a {n}-input read needs {n}")
    _input_cells(config)
    return ops, refs


def _margins(level_gaps: Sequence[Gap], read_gap: Gap | None,
             refs: ReferenceLevels | None) -> list[GapMargin]:
    """One row per popcount gap, ascending, then the READ gap when sampled.

    A gap is named by the reference it holds: "or" below popcount 1, "and"
    below popcount n, "level<k>" for the k-th level between them.
    """
    n = len(level_gaps)  # at least 2
    names = ["or", *(f"level{k}" for k in range(1, n - 1)), "and", "read"]
    references = (*refs.levels, refs.i_read) if refs else (math.nan,) * (n + 1)
    return [GapMargin.between(name, gap, reference)
            for name, gap, reference in zip(names, (*level_gaps, read_gap), references)
            if gap is not None]


def run_scouting_experiment(config: ExperimentConfig) -> ScoutingExperimentResult:
    """Sample the input-class currents, place references, classify.

    Every op is evaluated on each input class it reads (the n-bit patterns,
    or the one-cell classes for READ), in one bucket per op and class.  With
    ``split`` mode the references come from the first half of the cycles
    and classification runs on the second half (out-of-sample margins); with
    ``insample`` mode both use all samples.  ``refs`` is ``placed`` (placed
    in the sampled gaps) or ``paper-refs`` (``PAPER_REFS``), in any case.  An
    overlap between adjacent classes is recorded as a total failure of every
    evaluated trial.
    """
    ops, refs = _scouting_settings(config)
    # A cycle is its current's index.
    currents = sample_scouting_currents(config, include_single="read" in ops)
    half = (config.cycles + 1) // 2 if config.split == "split" else config.cycles
    start = half if config.split == "split" else 0  # the first classified cycle

    level_gaps, read_gap = class_gaps({input_class: values[:half]
                                       for input_class, values in currents.items()})
    overlap: OverlapError | None = None
    if refs is None:
        try:
            refs = references_in(level_gaps, read_gap)
        except OverlapError as exc:
            overlap = exc

    tallies = []
    for op in ops:
        for input_class in input_patterns(1 if op == "read" else config.n_inputs):
            expected = expected_bit(op, input_class)
            evaluated = currents[input_class][start:]
            # A collapsed gap leaves nothing to compare against: every cycle fails.
            bits = classify_bucket(evaluated, refs, op) if refs else [None] * len(evaluated)
            failed = [start + i for i, bit in enumerate(bits) if bit != expected]
            tallies.append((f"{op}/{input_class}", expected, len(evaluated), failed, 0))

    summaries = [DistributionSummary.from_samples(label, currents[label])
                 for label in sorted(currents)]
    for summary in summaries:  # finite currents whose sum overflows
        require_finite_result(f"summary {summary.label} mean", summary.mean, config.device)
    return ScoutingExperimentResult(
        currents=currents, refs=refs, summaries=summaries,
        report=FailureReport.tally(config.seed, tallies),
        margins=_margins(level_gaps, read_gap, refs), overlap=overlap)


# ---------------------------------------------------------------------------
# Device characterization
# ---------------------------------------------------------------------------

def run_characterization(config: ExperimentConfig, cells: int = 10) -> CharacterizationResult:
    """Cycle ``cells`` cells of one 1 x cells standard array through SET/RESET
    and record both state resistances; ``config.topology`` is not read.

    One row per (cell, cycle) holds the LRS read after the SET pulse and the
    HRS read after the RESET pulse.  A cell left in the wrong state by either
    pulse (a threshold out of the operating point's reach) is a ``ValueError``
    naming the cell, the cycle, the cell's drawn threshold and the median and
    sigma it was drawn from.  So is a mean HRS/LRS ratio of at most 1: reads
    that cannot tell the states apart, such as every read equal to ``r_on``.
    """
    require_int("cells", cells, 1)
    params, cycles, seed = config.device, config.cycles, config.seed
    topology = ArrayTopology(TopologyKind.STANDARD_1T1R, rows=1, cols=cells)
    phases = ((SET_BITS, STATE_LRS, f"{V_TE_SET} V SET", "v_set_th"),
              (RESET_BITS, STATE_HRS, f"{V_BE_RESET} V RESET", "v_reset_th"))
    # A cell's drives leave every other cell's SL and BL at 0 V: none of them moves.
    array = CellArray(topology, params, seed=seed)
    rows = []
    for ci in range(cells):
        addr = CellAddress(0, ci)
        array.form(addr)
        cell = array.cell(addr)
        drives = [(array.drive(addr, bits), *phase) for bits, *phase in phases]
        rng, read_rng = _stream(seed, "cell", ci)
        for cycle in range(cycles):
            reads = []
            for drive, state, pulse, th in drives:
                replay(drive, rng)
                if cell.state != state:
                    raise ValueError(
                        f"{cell.cell_id} is {cell.state.upper()} after the {pulse} pulse of "
                        f"cycle {cycle}: its drawn {th} = {getattr(cell, th)!r}, with "
                        f"device.{th}_median = {getattr(params, th + '_median')!r} and "
                        f"device.{th}_sigma = {getattr(params, th + '_sigma')!r}")
                reads.append(read_resistance(cell, read_rng))
            rows.append((ci, cycle, *reads))
    lrs_values = [r[2] for r in rows]
    hrs_values = [r[3] for r in rows]
    ratio = (sum(hrs_values) / len(hrs_values)) / (sum(lrs_values) / len(lrs_values))
    require_finite_result("mean HRS/LRS ratio", ratio, params)
    if not ratio > 1.0:  # the states' resistances vanish in the sum ``resistance + r_on``
        raise ValueError(f"mean HRS/LRS ratio is {ratio!r}: the reads cannot tell HRS "
                         f"from LRS at device.r_on = {params.r_on!r}")
    summaries = [DistributionSummary.from_samples("lrs", lrs_values),
                 DistributionSummary.from_samples("hrs", hrs_values)]
    for ci in range(cells):  # each cell's rows are one run of ``cycles`` rows
        run = slice(ci * cycles, (ci + 1) * cycles)
        summaries.append(DistributionSummary.from_samples(f"lrs/cell{ci}", lrs_values[run]))
        summaries.append(DistributionSummary.from_samples(f"hrs/cell{ci}", hrs_values[run]))
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
    fields = sorted(PARAM_BOUNDS)
    if parameter not in fields:
        raise ValueError(f"unknown device parameter {parameter!r}; one of {fields}")
    _scouting_settings(config)  # no point may simulate a setting scouting rejects
    # Every point's settings are checked before the first point simulates.
    configs = [config.replace(device=config.device.replace(**{parameter: value}))
               for value in values]
    points = []
    for value, cfg in zip(values, configs):
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


def overlap_collides(config: ExperimentConfig, hrs_sigma_c2c: float) -> bool:
    """True when a gap between the ``config.n_inputs``-cell popcount classes is
    empty at the given HRS spread, so no reference can be placed in it.

    The probe writes the input states without read-back verification so the
    raw state tails reach the read path (verified writes retry boundary-
    straddling draws away and would hide the collision).
    """
    cfg = config.replace(device=config.device.replace(hrs_sigma_c2c=hrs_sigma_c2c))
    level_gaps, _ = class_gaps(sample_scouting_currents(cfg, verify=False))
    return any(lower_max >= upper_min for _, _, lower_max, upper_min in level_gaps)


def find_overlap_sigma(config: ExperimentConfig, n: int, lo: float = 0.32,
                       hi: float = 3.0, iterations: int = 14) -> float:
    """Bisect for the smallest HRS cycle-to-cycle sigma that collapses a gap at n inputs."""
    config = config.replace(n_inputs=n)
    if overlap_collides(config, lo):
        return lo
    if not overlap_collides(config, hi):
        raise RuntimeError(f"no overlap up to sigma={hi} for n={n}")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if overlap_collides(config, mid):
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


def _csv_body(rows: list, width: int) -> str | None:
    """The rows as ``csv.writer`` writes them, from one line template; ``None`` for a
    row of another width, a value not exactly ``int``, ``float`` or ``str``, or a field
    to quote (a comma, a quote, a line break, the empty field of a one-column row)."""
    values = tuple(chain.from_iterable(rows))
    if set(map(len, rows)) - {width} or set(map(type, values)) - {int, float, str}:
        return None
    body = (",".join(["%s"] * width) + "\n") * len(rows) % values
    if (body.count(",") != len(rows) * (width - 1) or body.count("\n") != len(rows)
            or '"' in body or "\r" in body or width == 1 and "\n\n" in "\n" + body):
        return None
    return body


EXPORT_FORMATS = ("csv", "json")  # the formats a table is exported in, each its suffix


def export_table(name: str, columns: Sequence[str], rows: Iterable[tuple],
                 out_dir: str | Path, fmt: str = "csv") -> Path:
    """Write one table into the existing ``out_dir``: a ``columns`` header, then
    each row's values in column order; deterministic bytes.  A CSV row holds its
    values' ``str``, written through ``csv.writer`` where some field needs quoting."""
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r} ({' or '.join(EXPORT_FORMATS)})")
    path = Path(out_dir) / f"{name}.{fmt}"
    if fmt == "csv":
        rows = list(rows)
        body = _csv_body(rows, len(columns))
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            if body is None:
                writer.writerows(rows)
            else:
                handle.write(body)
    else:  # JSON has no NaN or infinity: a non-finite float is null
        _write_json(path, [{column: None if isinstance(value, float)
                            and not math.isfinite(value) else value
                            for column, value in zip(columns, row)} for row in rows])
    return path


def write_exports(tables: Iterable[tuple], out_dir: str | Path,
                  fmt: str = "csv") -> list[Path]:
    """Create ``out_dir`` and write every ``(name, columns, rows)`` table into it,
    in order, through ``export_table``; a table whose columns are ``None`` is a
    JSON payload, written as ``name.json`` in any format.  Returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [_write_json(out_dir / f"{name}.json", rows) if columns is None
            else export_table(name, columns, rows, out_dir, fmt)
            for name, columns, rows in tables]
