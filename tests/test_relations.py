"""Exact metamorphic relations: what a change of the config must do to every
result, checked on configs that no golden export pins.

Resistance scale.  Multiplying the device's ``lrs_median``, ``hrs_median`` and
``r_on`` (the access transistor's series resistance, a device parameter) by
k = 2 or 1/2 multiplies every resistance by exactly k and every read current
(and so every placed reference) by exactly 1/k, and changes no bit, failure
or error.  It holds because every truncation bound is a ratio of
resistances, ``default_boundary`` scales with the medians, and scaling by a
power of two is exact in binary floating point.  ``paper-refs`` is left out:
its references are absolute currents.  The exit code is a function of the
failure report alone, so equal reports give equal exit codes.

Array size.  A 16 x 12 array gives the same gate results as the 8 x 8 one, on
both wirings, and the same scouting results on the standard array (the
pseudo-crossbar cannot read a scouting column).  A cell's parameters and every
bucket's draws are keyed by addresses and indices that both sizes share.

Gate prefix.  An ``OR AND`` (or ``OR AND NIMP``) run's rows, summaries and
buckets equal that part of an ``OR AND NIMP XOR`` run.  Only a prefix holds: each
gate's stream key and column is its index in the gate list, so dropping or
reordering an earlier gate moves every later one.

Cycle prefix.  A 37-cycle run's scouting currents and characterization rows are
the first 37 cycles of a 100-cycle run, and so are its gate rows with
``rotate_cells``.  Each bucket draws from streams keyed by the bucket, not by
the cycle count, so its first cycles draw the same values in both runs.
"""

from functools import cache

import numpy as np
import pytest

from memlogic import ArrayTopology, ExperimentConfig, TopologyKind, VariabilityParams
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


def assert_parts_scale(parts, base, other, factor=1.0):
    """``parts(other)`` is ``parts(base)`` with its values times ``factor``."""
    values, fixed = parts(base)
    other_values, other_fixed = parts(other)
    assert other_fixed == fixed, parts.__name__
    # Equal arrays, a NaN (a margin without a reference) matching a NaN.
    np.testing.assert_array_equal(other_values, np.multiply(values, factor),
                                  err_msg=parts.__name__)


def scaled(config, k):
    device = config.device
    return config.replace(device=device.replace(
        lrs_median=device.lrs_median * k, hrs_median=device.hrs_median * k,
        r_on=device.r_on * k))


SEEDS_AND_DEVICES = pytest.mark.parametrize(
    "seed, device", [(3, VariabilityParams()), (9, STRESSED)], ids=["default", "stressed"])


@pytest.mark.parametrize("k", [2.0, 0.5])
@pytest.mark.parametrize("r_on", [0.0, 1e3])
@SEEDS_AND_DEVICES
def test_resistance_scale_scales_resistances_and_inverts_currents(seed, device, r_on, k):
    base = ExperimentConfig(seed=seed, cycles=4, device=device.replace(r_on=r_on))
    for parts, power in ((gate_parts, 1), (scouting_parts, -1), (characterization_parts, 1)):
        assert_parts_scale(parts, base, scaled(base, k), k ** power)
    if device is STRESSED:  # the relation is checked on failing runs too
        gate_report, scouting_report = gate_parts(base)[1][2], scouting_parts(base)[1][3]
        assert gate_report.failures and scouting_report.failures


@pytest.mark.parametrize("rotate_cells", [False, True])
@pytest.mark.parametrize("kind", list(TopologyKind))
@SEEDS_AND_DEVICES
def test_a_larger_array_changes_no_result(seed, device, kind, rotate_cells):
    base = ExperimentConfig(seed=seed, cycles=4, device=device, rotate_cells=rotate_cells,
                            topology=ArrayTopology(kind))
    larger = base.replace(topology=ArrayTopology(kind, rows=16, cols=12))
    assert_parts_scale(gate_parts, base, larger)
    if kind == TopologyKind.STANDARD_1T1R:
        assert_parts_scale(scouting_parts, base, larger)
    if device is STRESSED:
        assert gate_parts(base)[1][2].failures


@pytest.mark.parametrize("gates", [("OR", "AND"), ("OR", "AND", "NIMP")])
@pytest.mark.parametrize("rotate_cells", [False, True])
@SEEDS_AND_DEVICES
def test_a_gate_prefix_runs_as_in_the_full_list(seed, device, rotate_cells, gates):
    full = ExperimentConfig(seed=seed, cycles=4, device=device, rotate_cells=rotate_cells,
                            gates=("OR", "AND", "NIMP", "XOR"))
    full_result = run_1t1r_experiment(full)
    result = run_1t1r_experiment(full.replace(gates=gates))

    def in_prefix(label):
        return label.partition("/")[0] in gates

    assert result.rows == [row for row in full_result.rows if row.gate in gates]
    assert result.summaries == [s for s in full_result.summaries if in_prefix(s.label)]
    assert result.report.buckets == [b for b in full_result.report.buckets
                                      if in_prefix(b.label)]
    assert len(result.rows) == len(gates) * 4 * 4  # gates x input pairs x cycles
    if device is STRESSED and "NIMP" in gates:  # a failing bucket lies in the prefix
        assert result.report.failures



@SEEDS_AND_DEVICES
def test_a_shorter_run_is_a_prefix_of_a_longer_one(seed, device):
    long, short = (ExperimentConfig(seed=seed, cycles=cycles, device=device)
                   for cycles in (100, 37))

    def first_37(rows, first_bucket=False):
        return [row for row in rows
                if row.cycle < 37 and (not first_bucket or (row.p, row.q) == (0, 0))]

    currents = run_scouting_experiment(long).currents
    assert run_scouting_experiment(short).currents == {
        cls: values[:37] for cls, values in currents.items()}
    rows = run_characterization(long, cells=4).rows
    assert run_characterization(short, cells=4).rows == [row for row in rows if row[1] < 37]
    rotated = [run_1t1r_experiment(c.replace(rotate_cells=True)).rows for c in (long, short)]
    assert rotated[1] == first_37(rotated[0])
    # Without ``rotate_cells`` a gate's four buckets cascade on one cell: each
    # starts from the state the bucket before it left, after its cycle 36 in
    # the short run and after its cycle 99 in the long one.  Only the first
    # bucket of each gate starts from the formed cell in both.
    cascaded = [run_1t1r_experiment(c).rows for c in (long, short)]
    assert cascaded[1] != first_37(cascaded[0])
    assert first_37(cascaded[1], True) == first_37(cascaded[0], True)
