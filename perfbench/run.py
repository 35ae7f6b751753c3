"""memlogic benchmark: one client in a closed loop over one workload.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload gate --seed 1 --seconds 45 --trace 0

Workloads are ``gate``, ``scouting`` and ``overlap`` (see ``workloads.py``);
``BENCHMARK.json`` declares the first two.
Operation ``i`` of a run uses the experiment seed ``op_seed(seed, i)``, so a
seed fixes every input.  Each operation starts when the previous one ends.

``--trace 0`` measures the end-to-end metrics, untraced:

* ``setup_s``: median over fresh child interpreters (``SETUP_RUNS``, or
  as many as fit in ``SETUP_BUDGET_S``, at least ``SETUP_MIN_RUNS``) of the
  time from starting the child until it finishes operation 0 (its output
  check and digest come after and are not timed);
* the parent then runs operation 0 itself (excluded from the statistics) and
  times operations 1, 2, ... until ``--seconds`` have passed:
  ``op_s_p50`` is their median wall time, ``ops_per_s`` the operations
  completed per second spent in them (checks excluded), ``peak_rss_mb``
  the process's peak resident set size.

The box these run on drifts in speed, so a calibration loop
(``calibration.py``) runs between consecutive operations and set-up
children, and each time above is rescaled by ``calibration.normalize`` with
the mean of the loops run just before and just after it.  The raw values
are in the detail line.

``--trace 1`` runs the per-layer pass: operation 1 alternately untraced and
traced (spans from ``spans.py`` around memlogic's public functions) until
``--seconds`` have passed.  Counts must repeat exactly between the traced
repetitions; times are medians over them, rescaled like the end-to-end
times.  ``trace.overhead_s`` is the median traced minus the median untraced
operation time.

Every operation's output is checked (``workloads.check``) and digested.  A
detail line, then the result JSON line, go to standard output; the full
record, with every digest and span aggregate, goes to ``.perfbench_out/``.
Exit status is 2 when memlogic cannot be imported from this checkout's
``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import calibration
import layers
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5
SETUP_MIN_RUNS = 3
SETUP_BUDGET_S = 12.0
CHILD_TIMEOUT_S = 150
MAX_PROBLEMS_PER_OP = 5

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_memlogic():
    """Import memlogic from this checkout's ``src``, or exit with status 2."""
    sys.path.insert(0, str(SRC))
    try:
        import memlogic
    except ImportError as exc:
        print(f"cannot import memlogic from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(memlogic.__file__).resolve().parent.parent != SRC:
        print(f"memlogic was imported from {memlogic.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return memlogic


class Runner:
    """Runs and checks operations of one workload; counts attempts and failures."""

    def __init__(self, workload: str, seed: int, size=None):
        self.workload = workload
        self.seed = seed
        self.size = size if size is not None else workloads.FULL
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []
        self.work = OUT / f"work-{os.getpid()}"

    def run(self, index: int):
        """Run operation ``index``; return (wall seconds, outcome or None).

        The record of the operation holds ``done_monotonic_s``, the
        ``time.monotonic()`` at which the operation itself ended.
        """
        seed = workloads.op_seed(self.seed, index)
        out_dir = self.work / f"op-{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        outcome = None
        start = time.perf_counter()
        try:
            raw = workloads.execute(self.workload, seed, out_dir, self.size)
            elapsed = time.perf_counter() - start
            done = time.monotonic()
            outcome = workloads.check(self.workload, raw, out_dir, self.size)
        except Exception:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - start
            done = time.monotonic()
            self.problems.append(f"op {index} (seed {seed}) raised:\n"
                                 + traceback.format_exc())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if outcome is not None and not outcome.ok:
            self.problems.extend(f"op {index} (seed {seed}): {p}"
                                 for p in outcome.problems[:MAX_PROBLEMS_PER_OP])
        if outcome is None or not outcome.ok:
            self.failed += 1
        self.records.append({"op": index, "seed": seed, "wall_s": elapsed,
                             "done_monotonic_s": done,
                             "ok": outcome is not None and outcome.ok,
                             "digest": outcome.digest if outcome else None,
                             "info": outcome.info if outcome else None})
        return elapsed, outcome

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def tail(samples: list[float]) -> tuple[float, int] | None:
    """Highest nearest-rank percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return sorted(samples)[math.ceil(pct * n / 100) - 1], pct


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float], list[dict]]:
    """Time from starting a fresh interpreter until it has imported memlogic
    and finished operation 0.

    The child reports the ``time.monotonic()`` at which operation 0 ended
    (Linux's ``CLOCK_MONOTONIC``, shared by all processes), so its output
    check, digest and exit are not timed; a child that reports nothing is
    timed to its exit.  Runs ``SETUP_RUNS`` children, or as many as fit in
    ``SETUP_BUDGET_S`` but at least ``SETUP_MIN_RUNS``.  Returns the times,
    the calibration loops measured around them (one more than the times) and
    the children's results.
    """
    times, cals, results = [], [calibration.measure()], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    while len(times) < SETUP_RUNS and (len(times) < SETUP_MIN_RUNS
                                       or sum(times) < SETUP_BUDGET_S):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        end = time.monotonic()
        cals.append(calibration.measure())
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"ok": False, "digest": None, "done_monotonic_s": end,
                      "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        if not start < result["done_monotonic_s"] <= end:
            result = dict(result, ok=False, done_monotonic_s=end,
                          error="operation end outside the child's run")
        times.append(result["done_monotonic_s"] - start)
        results.append(result)
    return times, cals, results


def bracketed(times: list[float], cals: list[float]) -> list[float]:
    """Rescale ``times[i]`` by the mean of the calibration loops run just
    before and just after it, ``cals[i]`` and ``cals[i + 1]``."""
    return [calibration.normalize(t, (before + after) / 2)
            for t, before, after in zip(times, cals, cals[1:])]


def setup_child(workload: str, seed: int) -> int:
    import_memlogic()
    runner = Runner(workload, seed)
    _, outcome = runner.run(0)
    runner.close()
    print(json.dumps({"ok": runner.failed == 0,
                      "digest": outcome.digest if outcome else None,
                      "done_monotonic_s": runner.records[0]["done_monotonic_s"],
                      "problems": runner.problems}))
    return 0


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "load": "closed loop, 1 client",
            "platform": platform.platform()}


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup, setup_cals, children = setup_samples(runner.workload, runner.seed)
    _, first = runner.run(0)
    for child in children:
        runner.attempted += 1
        if not child["ok"] or first is None or child["digest"] != first.digest:
            runner.failed += 1
            runner.problems.append(f"setup child: {child}")

    # A calibration loop runs between consecutive operations.
    op_times, cals = [], [calibration.measure()]
    loop_start = time.perf_counter()
    index = 1
    while True:
        elapsed, _ = runner.run(index)
        cals.append(calibration.measure())
        runner.records[-1]["calibration_s"] = cals[-2:]
        op_times.append(elapsed)
        index += 1
        if time.perf_counter() - loop_start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    norm_op_times = bracketed(op_times, cals)
    raw = {"op_s_p50": statistics.median(op_times),
           "ops_per_s": len(op_times) / sum(op_times),
           "setup_s": statistics.median(setup)}
    metrics = {
        "op_s_p50": statistics.median(norm_op_times),
        "ops_per_s": len(op_times) / sum(norm_op_times),
        "setup_s": statistics.median(bracketed(setup, setup_cals)),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"ops_timed": len(op_times), "raw": raw, "setup_samples_s": setup,
              "calibration_s": {"ops_p50": statistics.median(cals),
                                "setup": setup_cals}}
    tail_value = tail(norm_op_times)
    detail["op_s_tail"] = (
        {"value": tail_value[0], "percentile": tail_value[1],
         "samples": len(op_times), "raw": tail(op_times)[0]}
        if tail_value else {"value": None, "samples": len(op_times),
                            "note": "fewer than 11 samples"})
    return metrics, detail


def measure_per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    units = layers.metric_units()
    runner.run(0)  # warm-up, untraced
    tracer = Tracer()
    # Calibration loops bracket every operation: untraced k sits between
    # cals[2k] and cals[2k+1], traced k between cals[2k+1] and cals[2k+2].
    untraced_raw, traced_raw, raw_values, cals = [], [], [], [calibration.measure()]
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        elapsed, _ = runner.run(1)
        untraced_raw.append(elapsed)
        cals.append(calibration.measure())
        layers.install(tracer)
        tracer.begin_op(rep)
        try:
            elapsed, outcome = runner.run(1)
        finally:
            tracer.end_op()
            tracer.uninstall()
        traced_raw.append(elapsed)
        cals.append(calibration.measure())
        raw_values.append(layers.op_metrics(tracer, rep, outcome.info if outcome else {}))
        rep += 1
    around = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    untraced = [calibration.normalize(t, around[2 * k]) for k, t in enumerate(untraced_raw)]
    traced = [calibration.normalize(t, around[2 * k + 1]) for k, t in enumerate(traced_raw)]
    per_rep = [{name: (calibration.normalize(value, around[2 * k + 1])
                       if units[name] == layers.SECONDS else value)
                for name, value in values.items()}
               for k, values in enumerate(raw_values)]

    metrics: dict[str, float] = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_rep]
        if unit == layers.SECONDS:
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                runner.failed += 1
                runner.problems.append(f"{name} differs between traced repetitions: "
                                       f"{values}")
            metrics[name] = values[0]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    detail = {"traced_reps": rep, "traced_op_s": traced, "untraced_op_s": untraced,
              "spans": [row for r in range(rep) for row in tracer.rows(r)]}
    return {name: metrics[name] for name in units}, detail


def compare_digests(runner: Runner) -> dict[int, str | None]:
    """Each operation's digest; a repeat that differs is a failed operation."""
    digests: dict[int, str | None] = {}
    for r in runner.records:
        if digests.setdefault(r["op"], r["digest"]) != r["digest"]:
            runner.failed += 1
            runner.problems.append(f"op {r['op']} is not deterministic: digest "
                                   f"{r['digest']} != {digests[r['op']]}")
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    import_memlogic()

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, detail = measure_per_layer(runner, args.seconds)
            units = layers.metric_units()
        else:
            values, detail = measure_end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    finally:
        runner.close()

    digests = compare_digests(runner)
    infos = [r["info"] for r in runner.records if r["info"] is not None]
    if args.workload == "overlap":
        detail["overlap_claim"] = workloads.overlap_claim(infos)
    else:
        detail["ops_with_simulated_failures"] = sum(1 for i in infos if i["failures"])
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "digests": digests,
        "failed_op_ratio": runner.failed / runner.attempted,
        "problems": runner.problems,
    })
    OUT.mkdir(exist_ok=True)
    record = dict(detail, metrics=values, ops=runner.records)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in runner.problems:
        print(problem, file=sys.stderr)
    summary = {k: v for k, v in detail.items() if k not in ("spans", "problems")}
    print("detail:", json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
