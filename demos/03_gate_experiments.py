"""Monte Carlo gate experiments on the stochastic device model.

Each gate runs cascaded on one cell: initialize to the required bit (skipped
when the previous output already matches), fire the single logic pulse, read
out.  A hundred cycles per input pair expose the cycle-to-cycle spread of the
freshly reset high state while the output bits stay failure-free.

Run:  python demos/03_gate_experiments.py
"""

from memlogic.analysis import ExperimentConfig, run_1t1r_experiment

config = ExperimentConfig(seed=7, cycles=100)
result = run_1t1r_experiment(config)

print(f"{config.cycles} cycles per gate and input pair, seed {config.seed}:")
for bucket in result.report.buckets:
    print(f"  {bucket.label:<8} trials {bucket.trials:>4}  "
          f"failures {bucket.failures}  init errors {bucket.errors}")
print(f"overall: {result.report.failures} logical failures in "
      f"{result.report.trials} executions")

print()
print("output resistance distributions (kOhm):")
for s in result.summaries:
    print(f"  {s.label:<8} median {s.median / 1e3:8.2f}  "
          f"p1 {s.p1 / 1e3:8.2f}  p99 {s.p99 / 1e3:8.2f}")

hrs_fresh = [r.r_final_ohm for r in result.rows if r.case_id in (5, 6)]
print()
print(f"freshly reset HRS outputs span {max(hrs_fresh) / min(hrs_fresh):.1f}x "
      "(about a decade)")

print()
print("non-switching cases: initial vs final state")
for case in result.non_switching:
    note = "reset-polarity stress re-draws the high state" if case.case_id == 6 else ""
    print(f"  case {case.case_id:>2}: n={case.count:>3}  "
          f"binary changes {case.binary_changes}  "
          f"log variation {case.log_variation:.4f}  {note}")
print("only case 6 moves appreciably, and never across the bit boundary.")
