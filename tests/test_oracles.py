"""Closed-form statistical oracles for the noisy simulation paths.

Each oracle checks a sampled statistic against the value the device model
predicts in closed form, with a tolerance fixed from the model's own standard
error (or, for a rate, a 99% Clopper-Pearson interval) before the test was
first run.  They hold for any stream layout, so they keep checking the
distributions when the draws are re-rolled and the golden digests no longer
can.
"""

import math
import statistics

from memlogic.analysis import (
    ExperimentConfig,
    run_1t1r_experiment,
    run_characterization,
    sample_scouting_currents,
)
from memlogic.array import CellArray
from memlogic.device import (
    V_READ,
    VariabilityParams,
    default_boundary,
)

#: Tolerance, in standard errors, of every oracle.
Z = 4.0


def test_characterization_matches_the_lognormal_model():
    """Seed 3, 200 cells x 100 cycles, default parameters.

    Model: a read of a cell c in state S at cycle k is
    ``ln R = ln m_S + D_c + W_ck``, where ``D_c ~ N(0, sd_S^2)`` is the cell's
    device-to-device offset, drawn once, and ``W_ck ~ N(0, w_S^2)`` with
    ``w_S^2 = c2c_S^2 + read_S^2`` is the cycle-to-cycle draw plus the read
    jitter, fresh on every read.  The default device has ``r_on = 0``, so
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
    assert params.r_on == 0.0
    cells, cycles = 200, 100
    n, big_n = cells, cells * cycles
    result = run_characterization(ExperimentConfig(seed=3, cycles=cycles, device=params), cells)
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


def test_scouting_mean_currents_match_the_lognormal_model():
    """Seed 11, 400 cycles, default parameters, two cells and the READ cell.

    Model: a scouting read of class ``bits`` sums the currents of its cells,
    ``I = sum_c v_read / R_c``.  A cell in state S holds a fresh
    cycle-to-cycle draw every cycle (the writes refresh) and is read with a
    fresh jitter, so ``R_c = m_c exp(X_c)`` with ``X_c ~ N(0, w^2)``,
    ``w^2 = c2c_S^2 + read_S^2``, and ``m_c`` the cell's own median in S.
    Every class reads the same cells ``(r, 0)``, sampled from the array seed,
    so the device-to-device offsets are fixed, not averaged out: ``m_c`` is
    the median of the cell the config's seed samples.  The default device's
    ``r_on = 0`` adds no series resistance.  Lognormal moments give
    ``E[1/R_c] = exp(w^2 / 2) / m_c`` and
    ``Var[1/R_c] = exp(w^2) (exp(w^2) - 1) / m_c^2``; the cells are drawn
    independently, so over ``N`` cycles the class mean has
    ``E = sum_c (v_read / m_c) exp(w^2 / 2)`` and
    ``SE = sqrt(sum_c (v_read / m_c)^2 exp(w^2) (exp(w^2) - 1) / N)``.  The
    truncations (a verified write's retry past the boundary, an LRS value
    above the last HRS) lie more than 4 standard deviations out and are
    ignored.  The tolerance is ``Z = 4`` standard errors per class.
    """
    config = ExperimentConfig(seed=11, cycles=400)
    params = config.device
    assert params.r_on == 0.0
    by_class = sample_scouting_currents(config, include_single=True)
    array = CellArray(config.topology, params, seed=config.seed)
    cells = [array.cell((r, 0)) for r in range(2)]
    states = {  # each bit's median (an attribute of the cell) and its w
        "1": ("lrs_median_cell", math.hypot(params.lrs_sigma_c2c, params.read_noise_lrs)),
        "0": ("hrs_median_cell", math.hypot(params.hrs_sigma_c2c, params.read_noise_hrs)),
    }
    assert sorted(by_class) == ["0", "00", "01", "1", "10", "11"]
    for input_class, currents in by_class.items():
        predicted = variance = 0.0
        for cell, bit in zip(cells, input_class):
            median_name, w = states[bit]
            g = V_READ / getattr(cell, median_name)
            predicted += g * math.exp(w ** 2 / 2)
            variance += g ** 2 * math.exp(w ** 2) * math.expm1(w ** 2)
        se = math.sqrt(variance / len(currents))
        mean = statistics.fmean(currents)
        assert abs(mean - predicted) <= Z * se, (input_class, mean, predicted, se)


def _binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """``P(X <= k)`` and ``P(X >= k)`` for ``X ~ Binomial(n, p)``, exactly."""
    log_q = math.log1p(-p)

    def pmf(j: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * math.log(p) + (n - j) * log_q)

    return math.fsum(map(pmf, range(k + 1))), math.fsum(map(pmf, range(k, n + 1)))


def test_gate_flip_rates_match_the_lognormal_model():
    """Seed 1, 2,000 cycles, gates NIMP and XOR at ``hrs_sigma_c2c = 0.9``.

    Three buckets end on a fresh HRS draw: ``NIMP/10`` is case 6 (an HRS
    disturb re-draws the HRS value), ``NIMP/11`` and ``XOR/11`` are case 5 (a
    RESET from LRS).  The gate reads 0 unless that draw reads below the
    boundary ``B``, the geometric mean of the population medians, so a
    logical failure is exactly a flip.  NIMP runs on cell ``(0, 0)`` and XOR
    on ``(0, 1)``, each with its own sampled medians ``m`` (HRS) and ``m_L``
    (LRS).  Model: the draw is ``ln R = ln m + c Z1``, resampled until it
    lies above the last LRS value, taken here as ``m_L`` (its LRS spread is
    0.06 against ``c = 0.9``), and it is read as ``ln R + r Z2`` with
    ``r = read_noise_hrs``.  With ``a = (ln m_L - ln m) / c`` the flip rate is

        P = integral_a^inf phi(z) Phi((ln B - ln m - c z) / r) dz / (1 - Phi(a)),

    integrated with Simpson's rule over ``[a, a + 12]``.  Every trial draws
    afresh, so the failures of a bucket are ``Binomial(2000, P)``.  The
    prediction must lie in the two-sided 99% Clopper-Pearson interval of the
    observed count ``k``, which holds exactly when both exact tails at ``P``,
    ``P(X <= k)`` and ``P(X >= k)``, exceed 0.005.
    """
    params = VariabilityParams(hrs_sigma_c2c=0.9)
    config = ExperimentConfig(seed=1, cycles=2000, gates=("NIMP", "XOR"), device=params)
    buckets = {b.label: b for b in run_1t1r_experiment(config).report.buckets}
    array = CellArray(config.topology, params, seed=config.seed)
    ln_b = math.log(default_boundary(params))
    c, r = params.hrs_sigma_c2c, params.read_noise_hrs
    normal = statistics.NormalDist()

    def flip_rate(cell, steps=400):
        a = math.log(cell.lrs_median_cell / cell.hrs_median_cell) / c
        h = 12.0 / steps

        def f(k):
            z = a + k * h
            return normal.pdf(z) * normal.cdf((ln_b - math.log(cell.hrs_median_cell)
                                               - c * z) / r)

        simpson = f(0) + f(steps) + sum((4 if k % 2 else 2) * f(k) for k in range(1, steps))
        return simpson * h / 3 / (1 - normal.cdf(a))

    for label, col in (("NIMP/10", 0), ("NIMP/11", 0), ("XOR/11", 1)):
        bucket = buckets[label]
        assert (bucket.expected, bucket.errors) == (0, 0), label
        predicted = flip_rate(array.cell((0, col)))
        lower, upper = _binomial_tails(bucket.failures, bucket.trials, predicted)
        assert min(lower, upper) > 0.005, (label, bucket.failures, predicted, lower, upper)
