"""Scouting logic: compute by reading, never by switching.

Input bits are stored in two cells of one column; a 0.1 V read on both open
word lines sums their currents.  The four input patterns produce three
current classes with clean gaps, and reference currents placed in those gaps
classify OR, AND, XOR and single-cell READ outputs.  Each reference is a
threshold between popcount classes, so a third cell only adds a level.

Run:  python demos/04_scouting_logic.py
"""

from memlogic.analysis import ExperimentConfig, run_scouting_experiment
from memlogic.scouting import PAPER_REFS, classify


def ua(amps):
    return f"{amps * 1e6:7.2f} uA"


config = ExperimentConfig(seed=11, cycles=100, split="insample")
result = run_scouting_experiment(config)

print("per-class current distributions (100 rewritten cycles each):")
for s in result.summaries:
    print(f"  class {s.label:>2}: min {ua(s.min)}  median {ua(s.median)}  "
          f"max {ua(s.max)}")

print()
print("references placed at the gap midpoints:")
refs = result.refs
print(f"  read {ua(refs.i_read)}   or {ua(refs.i_or)}   and {ua(refs.i_and)}")
print(f"published preset: read {ua(PAPER_REFS.i_read)}   "
      f"or {ua(PAPER_REFS.i_or)}   and {ua(PAPER_REFS.i_and)}")
for margin in result.margins:
    print(f"  gap {margin.gap:<12} [{ua(margin.lower_max_a)}, "
          f"{ua(margin.upper_min_a)}]  relative width {margin.margin:.2f}")

print()
print("classification of the mean class currents against both reference sets:")
means = {s.label: s.mean for s in result.summaries if len(s.label) == 2}
print("  class   or  and  xor   (placed | published)")
for cls, current in sorted(means.items()):
    placed = [classify(current, refs, op) for op in ("or", "and", "xor")]
    published = [classify(current, PAPER_REFS, op) for op in ("or", "and", "xor")]
    print(f"   {cls}     {placed[0]}    {placed[1]}    {placed[2]}        "
          f"{published[0]}    {published[1]}    {published[2]}")

print()
print(f"failure counts over all ops and classes: "
      f"{result.report.failures} / {result.report.trials}")

three = run_scouting_experiment(ExperimentConfig(seed=12, cycles=60, n_inputs=3))
print()
print("three-cell extension (popcount classes 0..3):")
print("  levels: " + "  ".join(ua(t) for t in three.refs.levels))
print(f"  read/or/and/xor failures: {three.report.failures} / {three.report.trials}")
print("more cells squeeze the gaps, so reliable placement gets harder.")
