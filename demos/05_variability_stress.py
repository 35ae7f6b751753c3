"""Where the scheme breaks: variability stress and wiring limits.

Sweeping the high-state cycle-to-cycle spread degrades single-cell logic
first (fresh HRS draws crossing the bit boundary), then collapses the
scouting current classes; the collapse arrives earlier for wider scouting
gates.  The standard column-wired array also cannot drive the parallel cells
of a column at different TE voltages, which the pseudo-crossbar wiring allows
along a row, at one gate voltage: a row shares one word line.

Run:  python demos/05_variability_stress.py
"""

from memlogic import Pulse, check_parallel
from memlogic.analysis import (
    ExperimentConfig,
    find_overlap_sigma,
    sweep_parameter,
)
from memlogic.array import ArrayTopology, CellAddress, TopologyError, TopologyKind
from memlogic.device import V_G_SET, V_TE_SET

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
print("parallel cells at different TE voltages, at one gate voltage:")
set_pulse = Pulse(V_TE_SET, 0.0, V_G_SET)
half_pulse = Pulse(0.5, 0.0, V_G_SET)
standard = ArrayTopology(TopologyKind.STANDARD_1T1R, 8, 8)
pseudo = ArrayTopology(TopologyKind.PSEUDO_CROSSBAR, 8, 8)
try:
    check_parallel(standard, [CellAddress(0, 0), CellAddress(1, 0)], [set_pulse, half_pulse])
except TopologyError as exc:
    print(f"  standard array : {exc}")
check_parallel(pseudo, [CellAddress(0, 0), CellAddress(0, 1)], [set_pulse, half_pulse])
print("  pseudo-crossbar: ok (per-cell source lines, shared bit/word line)")
try:  # a row's one word line takes one gate voltage in either wiring
    check_parallel(pseudo, [CellAddress(0, 0), CellAddress(0, 1)],
                   [set_pulse, Pulse(0.5, 0.0, 3.0)])
except TopologyError as exc:
    print(f"  pseudo-crossbar at two gate voltages: {exc}")
