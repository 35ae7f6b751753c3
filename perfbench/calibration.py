"""A fixed calibration loop that measures how fast the box is running.

The benchmark box is shared: the same operation on the same seed runs up to
~30% slower for tens of seconds at a time, in CPU time as well as wall time,
so run-to-run spread of raw times is wider than any useful bound.  Timing
this loop next to the operations measures the box's current speed on the
same kind of work memlogic's hot path does: frozen-dataclass construction
with field validation, tuple-keyed dict stores and scalar numpy normal
draws.  The loop does not use memlogic, so no change to the program moves
it.

``normalize`` rescales a measured time to the speed at which this loop takes
``NOMINAL_S``; that is the unit of the end-to-end times.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# Roughly the loop's time on a 2-core Xeon (Sapphire Rapids, KVM guest) with
# Python 3.11 and numpy 2.4.  Only its constancy matters: it fixes the unit.
NOMINAL_S = 0.025
ITERATIONS = 12_000


@dataclass(frozen=True)
class _Pulse:
    v_te: float
    v_be: float
    v_g: float
    width: float

    def __post_init__(self) -> None:
        for name in ("v_te", "v_be", "v_g", "width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _loop(rng: np.random.Generator) -> float:
    total = 0.0
    cells: dict[tuple[int, int], _Pulse] = {}
    for i in range(ITERATIONS):
        pulse = _Pulse(0.1 * (i % 8), 0.0, 1.3 if i % 64 == 0 else 0.0, 1e-6)
        cells[(i % 8, i % 64)] = pulse
        if pulse.v_g >= 0.7:
            total += math.exp(rng.normal(0.0, 0.3))
    return total


def measure() -> float:
    """Wall time of one calibration loop, in seconds."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    _loop(rng)
    return time.perf_counter() - start


def normalize(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the loop took ``calibration_s``, rescaled
    to the speed at which it takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / calibration_s
