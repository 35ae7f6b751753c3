"""The benchmark's three operations, their output checks and digests.

Each workload is one operation, run back to back by a single client:

* ``gate``: ``memlogic gate OR AND NIMP XOR`` at the default config
  (8x8 standard array, table3-logic, 100 cycles: 1,600 verified gate
  executions plus exports).  The only workload that synthesizes the gate
  library.
* ``scouting``: ``memlogic scouting read or and xor`` at the default config
  (6 input classes x 100 cycles of refresh writes and parallel reads, then
  reference placement and exports).  Read-heavy; never synthesizes.
* ``overlap``: the c09-style search ``find_overlap_sigma`` for n=2 and n=3 at
  ``OVERLAP_CYCLES`` cycles: 16-probe bisections over unverified writes, each
  probe building a fresh 64-cell array per input class.  Write-only and
  array-build-heavy.  Its operation time spreads too widely between runs
  for a bound (see README.md), so ``BENCHMARK.json`` does not declare it;
  run it by name for traced per-layer counts.

``execute`` is the timed part; ``check`` runs after the clock stops and
returns the problems found plus a sha256 digest of what the operation
produced (its export files, or its returned values).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("gate", "scouting", "overlap")

GATES = ("OR", "AND", "NIMP", "XOR")
SCOUTING_OPS = ("read", "or", "and", "xor")
OVERLAP_WIDTHS = (2, 3)
OVERLAP_CYCLES = 20
# find_overlap_sigma's default search interval.
SIGMA_LO, SIGMA_HI = 0.32, 3.0
NO_OVERLAP_MESSAGE = "no overlap up to sigma"


@dataclass(frozen=True)
class Size:
    """Operation size.  ``None`` keeps the program's default cycle count."""

    cycles: int | None = None
    overlap_cycles: int = OVERLAP_CYCLES
    overlap_iterations: int | None = None  # None: find_overlap_sigma's default


FULL = Size()
TINY = Size(cycles=4, overlap_cycles=4, overlap_iterations=2)


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def op_seed(seed: int, index: int) -> int:
    """Experiment seed of operation ``index`` in a run with workload ``seed``."""
    digest = hashlib.sha256(f"memlogic-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _cycles(size: Size) -> int:
    from memlogic import ExperimentConfig

    return size.cycles if size.cycles is not None else ExperimentConfig().cycles


def _cli(argv: list[str], seed: int, out_dir: Path, size: Size) -> dict:
    from memlogic import cli

    argv = argv + ["--seed", str(seed), "-o", str(out_dir)]
    if size.cycles is not None:
        argv += ["--cycles", str(size.cycles)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return {"exit_code": code}


def execute(workload: str, seed: int, out_dir: Path, size: Size = FULL) -> dict:
    """Run one operation; the caller times this call."""
    if workload == "gate":
        return _cli(["gate", *GATES], seed, out_dir, size)
    if workload == "scouting":
        return _cli(["scouting", *SCOUTING_OPS], seed, out_dir, size)
    if workload == "overlap":
        from memlogic import ExperimentConfig, find_overlap_sigma

        config = ExperimentConfig(seed=seed, cycles=size.overlap_cycles)
        kwargs = ({} if size.overlap_iterations is None
                  else {"iterations": size.overlap_iterations})
        sigmas: dict[int, float | None] = {}
        for n in OVERLAP_WIDTHS:
            try:
                sigmas[n] = find_overlap_sigma(config, n, **kwargs)
            except RuntimeError as exc:
                # The documented answer when sigma=hi does not collide.
                if NO_OVERLAP_MESSAGE not in str(exc):
                    raise
                sigmas[n] = None
        return {"sigmas": sigmas}
    raise ValueError(f"unknown workload {workload!r}")


def _files_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _read_report(out_dir: Path, outcome: Outcome) -> dict | None:
    try:
        return json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"report.json unreadable: {exc}")
        return None


def _check_counts(outcome: Outcome, checks: list[tuple[str, int, int]]) -> None:
    for what, got, want in checks:
        if got != want:
            outcome.problems.append(f"{what}: {got} != {want}")


# Truth tables of the gates, and the expected scouting result of an input
# class (a bit string) under each op; written out here, not taken from
# memlogic, so that the check re-derives every output independently.
GATE_TRUTH = {
    "OR": lambda p, q: p | q,
    "AND": lambda p, q: p & q,
    "NIMP": lambda p, q: q & (1 - p),  # memlogic's NIMP mapping: q AND NOT p
    "XOR": lambda p, q: p ^ q,
}
SCOUTING_EXPECTED = {
    "read": lambda bits: int(bits == "1"),
    "or": lambda bits: int("1" in bits),
    "and": lambda bits: int("0" not in bits),
    "xor": lambda bits: int(bits.count("1") == 1),
}
PAIRS = ("00", "01", "10", "11")
SCOUTING_CLASSES = {"read": ("0", "1"), "or": PAIRS, "and": PAIRS, "xor": PAIRS}


def _classify(current: float, refs: dict, op: str) -> int:
    if op == "xor":
        return int(refs["i_or"] < current < refs["i_and"])
    return int(current > refs[{"read": "i_read", "or": "i_or", "and": "i_and"}[op]])


def _check_gate(rows: list[dict], outcome: Outcome) -> int:
    """Re-derive every trace row; return the number of logical failures."""
    from memlogic import ExperimentConfig

    device = ExperimentConfig().device
    boundary = math.sqrt(device.lrs_median * device.hrs_median)
    failures = 0
    for row in rows:
        p, q = int(row["p"]), int(row["q"])
        expected, out = int(row["expected_bit"]), int(row["out_bit"])
        if expected != GATE_TRUTH[row["gate"]](p, q):
            outcome.problems.append(f"{row['gate']}({p},{q}) expected_bit {expected}")
        if out != int(float(row["r_final_ohm"]) < boundary):
            outcome.problems.append(f"out_bit {out} disagrees with r_final "
                                    f"{row['r_final_ohm']} (cycle {row['cycle']})")
        failures += out != expected
    return failures


def _check_scouting(currents: list[dict], refs: dict | None, cycles: int) -> int:
    """Re-classify the evaluated half; return the number of wrong results."""
    half = (cycles + 1) // 2
    failures = 0
    for op in SCOUTING_OPS:
        for row in currents:
            bits = row["class"]
            if int(row["cycle"]) < half or bits not in SCOUTING_CLASSES[op]:
                continue
            failures += (refs is None or _classify(float(row["current_a"]), refs, op)
                         != SCOUTING_EXPECTED[op](bits))
    return failures


def check(workload: str, raw: dict, out_dir: Path, size: Size = FULL) -> Outcome:
    """Validate one operation's result and digest it.

    The exports are checked for internal consistency, not for zero simulated
    failures: a stochastic device occasionally flips a bit (about 1 in 200
    default ``gate`` runs records one), and the program then must report it
    and exit 1.  ``info["failures"]`` carries the simulated failure count.
    """
    outcome = Outcome()
    if workload == "overlap":
        sigmas = raw["sigmas"]
        for n, sigma in sigmas.items():
            if sigma is not None and not SIGMA_LO < sigma <= SIGMA_HI:
                outcome.problems.append(f"sigma(n={n})={sigma} outside "
                                        f"({SIGMA_LO}, {SIGMA_HI}]")
        outcome.info = {"sigmas": {str(n): s for n, s in sigmas.items()}}
        outcome.digest = hashlib.sha256(
            json.dumps(outcome.info, sort_keys=True).encode()).hexdigest()
        return outcome

    report = _read_report(out_dir, outcome)
    if report is None:
        return outcome
    cycles = _cycles(size)
    if workload == "gate":
        trials = len(GATES) * 4 * cycles
        rows = _csv_rows(out_dir / "traces.csv")
        failures = _check_gate(rows, outcome)
        _check_counts(outcome, [
            ("report trials", report["trials"], trials),
            ("traces rows", len(rows), trials - report["errors"]),
            ("summary rows", len(_csv_rows(out_dir / "summary.csv")), len(GATES) * 4),
            ("report failures", report["failures"], failures),
        ])
        collapsed = False
    else:
        evaluated = cycles - (cycles + 1) // 2  # split mode: second half
        sampled = 6  # four pair classes plus the single-cell classes of read
        currents = _csv_rows(out_dir / "currents.csv")
        refs_rows = _csv_rows(out_dir / "refs.csv")
        refs = ({key: float(refs_rows[0][f"{key}_a"]) for key in ("i_read", "i_or", "i_and")}
                if refs_rows else None)
        collapsed = report["overlap"] is not None
        _check_counts(outcome, [
            ("report trials", report["trials"],
             sum(len(SCOUTING_CLASSES[op]) for op in SCOUTING_OPS) * evaluated),
            ("currents rows", len(currents), sampled * cycles),
            ("summary rows", len(_csv_rows(out_dir / "summary.csv")), sampled),
            ("refs rows", len(refs_rows), 0 if collapsed else 1),
            ("report failures", report["failures"], _check_scouting(currents, refs, cycles)),
        ])
        if refs:
            outcome.info["refs"] = refs
    bad = report["failures"] + report["errors"] + collapsed
    _check_counts(outcome, [("exit code", raw["exit_code"], 1 if bad else 0)])
    outcome.info["failures"] = report["failures"]
    outcome.digest = _files_digest(out_dir)
    return outcome


def overlap_claim(infos: list[dict]) -> dict:
    """Pool the run's searches: how often sigma(n=3) < sigma(n=2).

    The paper's "wider scouting collides earlier" is a statement about the
    distribution.  Collision is not monotone in sigma for every seed, so the
    claim fails for some operations and is reported as a count over the run,
    not checked per operation.  ``infos`` are the operations' ``Outcome.info``.
    """
    both = [i["sigmas"] for i in infos
            if all(i["sigmas"][str(n)] is not None for n in OVERLAP_WIDTHS)]
    return {"searches_found_both": len(both),
            "wider_collides_earlier": sum(1 for s in both if s["3"] < s["2"]),
            "no_overlap_searches": sum(1 for i in infos for n in OVERLAP_WIDTHS
                                       if i["sigmas"][str(n)] is None)}
