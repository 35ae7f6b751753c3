"""Criterion 9 as a population claim over fixed seeds.

One seed's critical sigma is one draw of a noisy search: the overlap probe
bisects as if collision were monotone in the HRS spread, and it need not be.
So the claim that wider reads collapse at smaller spreads is stated over a
population, with its seeds, cycle count and thresholds fixed before it was
first run:

* seeds {5, 100, ..., 114}, 60 cycles, ``find_overlap_sigma`` for n = 2 and
  n = 3 at its default search interval;
* the median critical sigma of n = 3 is below that of n = 2;
* sigma_3 < sigma_2 holds for at least 10 of the 16 seeds.

A search that finds no overlap up to its upper sigma raises
``RuntimeError("no overlap up to sigma=...")``; that seed's sigma counts as
+inf (it collapses, if at all, beyond the searched interval).
"""

import math
import statistics

from memlogic.analysis import ExperimentConfig, find_overlap_sigma

SEEDS = (5, *range(100, 115))
CYCLES = 60
MIN_SEEDS_ORDERED = 10


def critical_sigma(seed: int, n: int) -> float:
    try:
        return find_overlap_sigma(ExperimentConfig(seed=seed, cycles=CYCLES), n)
    except RuntimeError as exc:
        if "no overlap up to sigma" not in str(exc):
            raise
        return math.inf


def test_c09_wider_reads_collapse_first_over_the_population():
    sigma2 = [critical_sigma(seed, 2) for seed in SEEDS]
    sigma3 = [critical_sigma(seed, 3) for seed in SEEDS]
    ordered = sum(s3 < s2 for s2, s3 in zip(sigma2, sigma3))
    median2, median3 = statistics.median(sigma2), statistics.median(sigma3)
    assert median3 < median2
    assert ordered >= MIN_SEEDS_ORDERED
    print(f"[acceptance] criterion 9 (population): PASS  (sigma3 < sigma2 for "
          f"{ordered} of {len(SEEDS)} seeds; medians n=3 {median3:.3f} < "
          f"n=2 {median2:.3f})")
