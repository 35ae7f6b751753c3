"""Where the scheme breaks: variability stress and wiring limits.

Sweeping the high-state cycle-to-cycle spread degrades single-cell logic
first (fresh HRS draws crossing the bit boundary), then collapses the
scouting current classes; the collapse arrives earlier for wider scouting
gates.  The standard column-wired array also cannot drive parallel cells at
different voltages, which the pseudo-crossbar wiring fixes.

Run:  python demos/05_variability_stress.py
"""

from memlogic import Pulse
from memlogic.analysis import (
    ExperimentConfig,
    find_overlap_sigma,
    sweep_parameter,
)
from memlogic.array import ArrayTopology, CellAddress, TopologyKind, \
    check_parallel_distinct_voltages

config = ExperimentConfig(seed=20, cycles=40)

print("sweep of hrs_sigma_c2c (default 0.32):")
points = sweep_parameter(config, "hrs_sigma_c2c", [0.32, 0.6, 0.9, 1.2])
for pt in points:
    print(f"  sigma {pt.value:.2f}: logic failures {pt.logic_failures:>3} / "
          f"{pt.logic_trials}, scouting failures {pt.scouting_failures:>3} / "
          f"{pt.scouting_trials}, min gap margin {pt.min_margin:.3f}")
print("single-cell logic fails first; verified input writes keep the scouting")
print("classes apart, at the price of ever more rewrite retries.")

print()
print("bisection for the spread that collapses an inter-class gap")
print("(unverified writes, so the raw state tails reach the read path):")
sigma2 = find_overlap_sigma(config, n=2)
sigma3 = find_overlap_sigma(config, n=3)
print(f"  2-cell scouting collapses at sigma ~ {sigma2:.3f}")
print(f"  3-cell scouting collapses at sigma ~ {sigma3:.3f}")
print("wider gates collapse earlier: more cells, more tail current in the gaps.")

print()
print("parallel cells at different voltages:")
set_pulse = Pulse(1.3, 0.0, 1.3)
half_pulse = Pulse(0.5, 0.0, 3.0)
standard = ArrayTopology(TopologyKind.STANDARD_1T1R, 8, 8)
pseudo = ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, 8, 8)
verdict = check_parallel_distinct_voltages(
    standard, CellAddress(0, 0), CellAddress(1, 0), set_pulse, half_pulse)
print(f"  standard array : {verdict}")
verdict = check_parallel_distinct_voltages(
    pseudo, CellAddress(0, 0), CellAddress(0, 1), set_pulse, half_pulse)
print(f"  pseudo-crossbar: {'ok' if verdict is None else verdict} "
      "(per-cell source lines, shared bit/word line)")
