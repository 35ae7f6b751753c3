"""Closed-form statistical oracles for the noisy simulation paths.

Each oracle checks a sampled statistic against the value the device model
predicts in closed form, with a tolerance fixed from the model's own standard
error before the test was first run.  They hold for any stream layout, so they
keep checking the distributions when the draws are re-rolled and the golden
digests no longer can.
"""

import math
import statistics

from memlogic.analysis import run_characterization
from memlogic.device import TransistorModel, VariabilityParams

#: Tolerance, in standard errors, of every oracle.
Z = 4.0


def test_characterization_matches_the_lognormal_model():
    """Seed 3, 200 cells x 100 cycles, default parameters.

    Model: a read of a cell c in state S at cycle k is
    ``ln R = ln m_S + D_c + W_ck``, where ``D_c ~ N(0, sd_S^2)`` is the cell's
    device-to-device offset, drawn once, and ``W_ck ~ N(0, w_S^2)`` with
    ``w_S^2 = c2c_S^2 + read_S^2`` is the cycle-to-cycle draw plus the read
    jitter, fresh on every read.  The default transistor has ``r_on = 0``, so
    nothing is added in series.  The truncations (an LRS value below the last
    HRS, an HRS value above the last LRS, a cell's HRS median above its LRS
    median) lie more than 8 standard deviations out at these parameters and
    are ignored.  With ``n = 200`` cells and ``N = 20,000`` reads per state:

    * Pooled spread.  ``ln R`` has variance ``s^2 = sd^2 + w^2``.  Its pooled
      sample variance has two independent parts: the spread of 200 cell
      offsets, ``Var ~= 2 sd^4 / n``, and the within-cell spread over about
      ``N`` degrees of freedom, ``Var ~= 2 w^4 / N``.  So
      ``SE(s) = sqrt(2 sd^4 / n + 2 w^4 / N) / (2 s)``.  The ``1/n`` bias of
      the ``ddof=0`` estimate (``sd^2 / n``) is under a twentieth of that.
    * Mean ``ln R`` against ``ln m``: ``SE = sqrt(sd^2 / n + w^2 / N)``.  The
      device-to-device part has only 200 independent draws, so it dominates.
    * Mean HRS over mean LRS against the lognormal moment
      ``E[R_S] = m_S exp(s_S^2 / 2)``, i.e.
      ``(m_H / m_L) exp((s_H^2 - s_L^2) / 2)``.  A state's mean resistance has
      relative variance ``(exp(sd^2) - 1) / n + (exp(w^2) - 1) / N``; the two
      states are drawn independently, so by the delta method the ratio's
      relative variance is the sum of the two states'.

    Every tolerance is ``Z = 4`` standard errors.
    """
    params = VariabilityParams()
    assert TransistorModel().r_on == 0.0
    cells, cycles = 200, 100
    n, big_n = cells, cells * cycles
    result = run_characterization(params, cells=cells, cycles=cycles, seed=3)
    assert len(result.rows) == big_n

    states = {
        "lrs": (2, params.lrs_median, params.lrs_sigma_d2d,
                math.hypot(params.lrs_sigma_c2c, params.read_noise_lrs),
                result.lrs_log_spread),
        "hrs": (3, params.hrs_median, params.hrs_sigma_d2d,
                math.hypot(params.hrs_sigma_c2c, params.read_noise_hrs),
                result.hrs_log_spread),
    }
    moment, rel_var = {}, 0.0
    for label, (column, median, sd, w, spread) in states.items():
        s = math.hypot(sd, w)
        se_spread = math.sqrt(2 * sd ** 4 / n + 2 * w ** 4 / big_n) / (2 * s)
        assert abs(spread - s) <= Z * se_spread, (label, spread, s, se_spread)

        mean_log = statistics.fmean(math.log(row[column]) for row in result.rows)
        se_mean = math.sqrt(sd ** 2 / n + w ** 2 / big_n)
        assert abs(mean_log - math.log(median)) <= Z * se_mean, (
            label, mean_log, math.log(median), se_mean)

        moment[label] = median * math.exp(s ** 2 / 2)
        rel_var += math.expm1(sd ** 2) / n + math.expm1(w ** 2) / big_n

    predicted = moment["hrs"] / moment["lrs"]
    se_ratio = predicted * math.sqrt(rel_var)
    assert abs(result.hrs_lrs_ratio - predicted) <= Z * se_ratio, (
        result.hrs_lrs_ratio, predicted, se_ratio)
