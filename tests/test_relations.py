"""Exact metamorphic relations: what a change of the config must do to every
result, checked on configs that no golden export pins.

Resistance scale.  Multiplying ``lrs_median``, ``hrs_median`` and ``r_on`` by
k = 2 or 1/2 multiplies every resistance by exactly k and every read current
(and so every placed reference) by exactly 1/k, and changes no bit, failure
or error.  It holds because every truncation bound is a ratio of
resistances, ``default_boundary`` scales with the medians, and scaling by a
power of two is exact in binary floating point.  ``paper-refs`` is left out:
its references are absolute currents.  The exit code is a function of the
failure report alone, so equal reports give equal exit codes.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from memlogic import ExperimentConfig, TransistorModel, VariabilityParams
from memlogic.analysis import run_1t1r_experiment, run_characterization, run_scouting_experiment

#: Overlapping scouting classes and gate failures at seed 9, so the relation
#: also covers failed trials, overlap records and unplaced references.
STRESSED = VariabilityParams(hrs_median=1e4, hrs_sigma_c2c=1.0)


def _summary_values(summaries):
    return [value for s in summaries for value in s[2:]]  # after label and count


@cache
def gate_parts(config):
    """(resistances, everything else) of a gate run."""
    result = run_1t1r_experiment(config)
    ohms = [r for row in result.rows for r in (row.r_init_ohm, row.r_final_ohm)]
    fixed = ([row._replace(r_init_ohm=None, r_final_ohm=None) for row in result.rows],
             [s[:2] for s in result.summaries], result.report, result.non_switching)
    return ohms + _summary_values(result.summaries), fixed


@cache
def scouting_parts(config):
    """(currents, everything else) of a scouting run."""
    result = run_scouting_experiment(config)
    refs, overlap = result.refs, result.overlap
    amps = [current for values in result.currents.values() for current in values]
    amps += _summary_values(result.summaries)
    amps += [*refs.levels, refs.i_read] if refs else []
    amps += [a for m in result.margins
             for a in (m.lower_max_a, m.upper_min_a, m.width_a, m.midpoint_a, m.reference_a)]
    amps += [overlap.lower_max, overlap.upper_min] if overlap else []
    fixed = (list(result.currents), [s[:2] for s in result.summaries], refs is None,
             result.report, [(m.gap, m.margin) for m in result.margins],
             overlap and (overlap.lower_class, overlap.upper_class))
    return amps, fixed


@cache
def characterization_parts(config):
    """(resistances, everything else) of a characterization."""
    result = run_characterization(config, cells=4)
    ohms = [r for row in result.rows for r in row[2:]] + _summary_values(result.summaries)
    fixed = ([row[:2] for row in result.rows], [s[:2] for s in result.summaries],
             result.hrs_lrs_ratio)
    return ohms, fixed


def scaled(config, k):
    device = config.device
    return config.replace(
        device=device.replace(lrs_median=device.lrs_median * k,
                              hrs_median=device.hrs_median * k),
        transistor=replace(config.transistor, r_on=config.transistor.r_on * k))


@pytest.mark.parametrize("k", [2.0, 0.5])
@pytest.mark.parametrize("r_on", [0.0, 1e3])
@pytest.mark.parametrize("seed, device", [(3, VariabilityParams()), (9, STRESSED)],
                         ids=["default", "stressed"])
def test_resistance_scale_scales_resistances_and_inverts_currents(seed, device, r_on, k):
    base = ExperimentConfig(seed=seed, cycles=4, device=device,
                            transistor=TransistorModel(r_on=r_on))
    for parts, power in ((gate_parts, 1), (scouting_parts, -1), (characterization_parts, 1)):
        values, fixed = parts(base)
        scaled_values, scaled_fixed = parts(scaled(base, k))
        assert scaled_fixed == fixed, parts.__name__
        # Equal arrays, a NaN (a margin without a reference) matching a NaN.
        np.testing.assert_array_equal(scaled_values, np.multiply(values, k ** power),
                                      err_msg=parts.__name__)
    if device is STRESSED:  # the relation is checked on failing runs too
        gate_report, scouting_report = gate_parts(base)[1][2], scouting_parts(base)[1][3]
        assert gate_report.failures and scouting_report.failures
