"""Characterize a small population of 1T1R cells.

Forms ten fresh cells, cycles each one a hundred times through SET and RESET
(the cycle count and seed of one ``ExperimentConfig``), and prints whisker-box
statistics of both resistance states together with the mean HRS/LRS ratio.
This is the baseline check that the configured variability keeps the two
states cleanly separated.

Run:  python demos/01_cell_characterization.py
"""

import numpy as np

from memlogic import ExperimentConfig, default_boundary
from memlogic.analysis import run_characterization

config = ExperimentConfig(seed=0, cycles=100)
params = config.device
print("device parameters (defaults):")
print(f"  lrs_median = {params.lrs_median / 1e3:.0f} kOhm   "
      f"hrs_median = {params.hrs_median / 1e3:.0f} kOhm   "
      f"(median ratio {params.hrs_median / params.lrs_median:.1f})")
print(f"  cycle-to-cycle sigma: lrs {params.lrs_sigma_c2c}, hrs {params.hrs_sigma_c2c}")
print(f"  cell-to-cell sigma:   lrs {params.lrs_sigma_d2d}, hrs {params.hrs_sigma_d2d}")
print()

result = run_characterization(config, cells=10)

print("pooled state distributions over 10 cells x 100 cycles:")
for summary in result.summaries[:2]:
    print(f"  {summary.label}: min {summary.min / 1e3:8.2f} kOhm | "
          f"p1 {summary.p1 / 1e3:8.2f} | median {summary.median / 1e3:8.2f} | "
          f"p99 {summary.p99 / 1e3:8.2f} | max {summary.max / 1e3:8.2f} kOhm")

lrs = np.array([row[2] for row in result.rows])
hrs = np.array([row[3] for row in result.rows])
print()
print(f"mean HRS/LRS ratio : {result.hrs_lrs_ratio:.2f}")
print(f"HRS span (max/min) : {hrs.max() / hrs.min():.1f}x  "
      f"(about one decade of cycle-to-cycle spread)")
print(f"LRS span (max/min) : {lrs.max() / lrs.min():.1f}x")
print(f"state separation   : max LRS {lrs.max() / 1e3:.2f} kOhm "
      f"< min HRS {hrs.min() / 1e3:.2f} kOhm -> no overlap")
print(f"binarization bound : {default_boundary(params) / 1e3:.2f} kOhm "
      "(geometric mean of the medians)")
