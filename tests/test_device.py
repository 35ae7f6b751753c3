import copy
import math
import statistics
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlogic import device
from memlogic.device import (
    InvalidDriveError,
    MemristorCell,
    Pulse,
    SwitchEvent,
    TransistorModel,
    VariabilityParams,
    apply_pulse,
    binarize,
    default_boundary,
    form_by_ramp,
    read_resistance,
    sample_fresh_cell,
)

PARAMS = VariabilityParams()
T = TransistorModel()
NOISE_FREE = VariabilityParams(
    lrs_sigma_c2c=0.0, lrs_sigma_d2d=0.0, hrs_sigma_c2c=0.0, hrs_sigma_d2d=0.0,
    v_set_th_sigma=0.0, v_reset_th_sigma=0.0, v_form_th_sigma=0.0,
    read_noise_lrs=0.0, read_noise_hrs=0.0)


def formed_cell(params=PARAMS, seed=0, state="hrs"):
    rng = np.random.default_rng(seed)
    cell = sample_fresh_cell(params, rng, "c")
    form_by_ramp(cell, T, rng)
    if state == "hrs":
        apply_pulse(cell, Pulse(0.0, 1.6, 3.0, 1e-6), T, rng)
    return cell, rng


# ------------------------------------------------------------------ sampling

def test_zero_d2d_gives_global_medians():
    params = PARAMS.replace(lrs_sigma_d2d=0.0, hrs_sigma_d2d=0.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        cell = sample_fresh_cell(params, rng)
        assert cell.lrs_median_cell == params.lrs_median
        assert cell.hrs_median_cell == params.hrs_median


def test_fresh_cell_is_pristine_and_high_ohmic():
    rng = np.random.default_rng(2)
    cell = sample_fresh_cell(PARAMS, rng)
    assert not cell.is_formed
    assert cell.resistance >= 10 * cell.hrs_median_cell


def test_population_ratio_near_anchor():
    # 10 cells x 100 cycles; the per-cycle HRS/LRS ratio averages close to
    # the 19.4 design anchor (within the 20% statistical window).
    rng = np.random.default_rng(3)
    ratios = []
    for ci in range(10):
        cell = sample_fresh_cell(PARAMS, rng, f"c{ci}")
        form_by_ramp(cell, T, rng)
        for _ in range(100):
            apply_pulse(cell, Pulse(0.0, 1.6, 3.0, 1e-6), T, rng)
            r_hrs = cell.resistance
            apply_pulse(cell, Pulse(1.3, 0.0, 1.3, 1e-6), T, rng)
            r_lrs = cell.resistance
            ratios.append(r_hrs / r_lrs)
    mean_ratio = sum(ratios) / len(ratios)
    assert 19.4 * 0.8 <= mean_ratio <= 19.4 * 1.2


def test_d2d_spread_matches_configured_sigma():
    # Statistical estimator oracle: sample std-dev of ln(per-cell median)
    # over 1000 cells must reproduce sigma_d2d within 10%.
    rng = np.random.default_rng(4)
    cells = [sample_fresh_cell(PARAMS, rng) for _ in range(1000)]
    logs = np.log([c.lrs_median_cell for c in cells])
    assert abs(np.std(logs) - PARAMS.lrs_sigma_d2d) <= 0.1 * PARAMS.lrs_sigma_d2d
    logs = np.log([c.hrs_median_cell for c in cells])
    assert abs(np.std(logs) - PARAMS.hrs_sigma_d2d) <= 0.1 * PARAMS.hrs_sigma_d2d


# ------------------------------------------------------------------- pulses

def test_set_pulse_on_hrs():
    cell, rng = formed_cell()
    assert cell.state == "hrs"
    event = apply_pulse(cell, Pulse(1.3, 0.0, 1.3, 1e-6), T, rng)
    assert event == SwitchEvent.SET
    assert cell.state == "lrs"


def test_reset_pulse_on_lrs():
    cell, rng = formed_cell(state="lrs")
    assert cell.state == "lrs"
    event = apply_pulse(cell, Pulse(0.0, 1.6, 3.0, 1e-6), T, rng)
    assert event == SwitchEvent.RESET
    assert cell.state == "hrs"
    assert cell.cycle_count == 1  # the reset completes one switching cycle


def test_set_pulse_on_lrs_is_noop():
    cell, rng = formed_cell(state="lrs")
    r_before = cell.resistance
    event = apply_pulse(cell, Pulse(1.3, 0.0, 1.3, 1e-6), T, rng)
    assert event == SwitchEvent.NONE
    assert cell.resistance == r_before


def test_closed_gate_is_identity():
    for state in ("hrs", "lrs"):
        cell, rng = formed_cell(state=state)
        r_before, s_before = cell.resistance, cell.state
        for v_te, v_be in ((1.3, 0.0), (0.0, 1.6), (4.0, 0.0)):
            event = apply_pulse(cell, Pulse(v_te, v_be, 0.0, 1e-6), T, rng)
            assert event == SwitchEvent.NONE
            assert (cell.resistance, cell.state) == (r_before, s_before)


def test_forming_threshold_and_ramp():
    rng = np.random.default_rng(7)
    cell = sample_fresh_cell(PARAMS, rng)
    ev = apply_pulse(cell, Pulse(cell.v_form_th - 0.05, 0.0, 3.0, 1e-6), T, rng)
    assert ev == SwitchEvent.NONE and not cell.is_formed
    ev = apply_pulse(cell, Pulse(cell.v_form_th + 0.01, 0.0, 3.0, 1e-6), T, rng)
    assert ev == SwitchEvent.FORMED and cell.state == "lrs"
    fresh = sample_fresh_cell(PARAMS, rng)
    pulses = form_by_ramp(fresh, T, rng)
    assert fresh.state == "lrs"
    assert pulses == math.ceil(fresh.v_form_th / 0.1)


def test_hrs_disturb_resamples_but_keeps_bit():
    boundary = default_boundary(PARAMS)
    cell, rng = formed_cell()
    values = set()
    for _ in range(20):
        event = apply_pulse(cell, Pulse(0.0, 1.6, 3.0, 1e-6), T, rng)
        assert event == SwitchEvent.HRS_DISTURB
        assert binarize(cell.resistance, boundary) == 0
        values.add(cell.resistance)
    assert len(values) == 20  # fresh draw every time


def test_too_short_pulse_does_not_switch():
    cell, rng = formed_cell()
    event = apply_pulse(cell, Pulse(1.3, 0.0, 1.3, PARAMS.min_pulse_set / 10), T, rng)
    assert event == SwitchEvent.NONE
    assert cell.state == "hrs"


def test_ambiguous_drive_rejected():
    cell, rng = formed_cell()
    cell.v_set_th, cell.v_reset_th = 1.0, 0.9
    with pytest.raises(InvalidDriveError):
        apply_pulse(cell, Pulse(2.3, 1.0, 3.0, 1e-6), T, rng)
    # Both electrodes high but with a sub-threshold differential is benign.
    event = apply_pulse(cell, Pulse(1.3, 1.6, 3.0, 1e-6), T, rng)
    assert event == SwitchEvent.HRS_DISTURB


@pytest.mark.parametrize("v_set_th, v_reset_th, v_te, v_be", [
    (1.0, 0.5, 1.5, 0.5),   # TE-BE at the SET threshold
    (0.5, 1.0, 0.5, 1.5),   # BE-TE at the RESET threshold
    (1.0, 0.5, 1.0, 1.5),   # TE at the SET threshold, BE-TE at the RESET one
])
def test_ambiguous_drive_rejected_at_its_thresholds(v_set_th, v_reset_th, v_te, v_be):
    cell, rng = formed_cell()
    cell.v_set_th, cell.v_reset_th = v_set_th, v_reset_th
    with pytest.raises(InvalidDriveError):
        apply_pulse(cell, Pulse(v_te, v_be, 3.0, 1e-6), T, rng)


def test_switching_happens_at_its_thresholds():
    # "At or above": each threshold and pulse minimum switches at equality.
    cell = sample_fresh_cell(PARAMS, np.random.default_rng(0), "c")
    cell.v_form_th, cell.v_set_th, cell.v_reset_th = 2.0, 1.0, 0.5
    rng = np.random.default_rng(1)
    set_width, reset_width = PARAMS.min_pulse_set, PARAMS.min_pulse_reset
    assert apply_pulse(cell, Pulse(2.0, 0.0, 3.0, set_width), T, rng) == SwitchEvent.FORMED
    assert apply_pulse(cell, Pulse(0.0, 0.5, 3.0, reset_width), T, rng) == SwitchEvent.RESET
    assert apply_pulse(cell, Pulse(1.0, 0.0, 3.0, set_width), T, rng) == SwitchEvent.SET


def test_pulse_validation():
    with pytest.raises(ValueError):
        Pulse(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Pulse(math.inf, 0.0, 1.0, 1e-6)


# -------------------------------------------------------------------- reads

def test_noise_free_read_is_exact():
    cell, rng = formed_cell(NOISE_FREE, state="lrs")
    cell.resistance = 5000.0
    assert read_resistance(cell, 0.1, 3.0, T, rng) == 5000.0


def test_read_spans():
    cell, rng = formed_cell()
    hrs_reads = [read_resistance(cell, 0.1, 3.0, T, rng) for _ in range(100)]
    apply_pulse(cell, Pulse(1.3, 0.0, 1.3, 1e-6), T, rng)
    lrs_reads = [read_resistance(cell, 0.1, 3.0, T, rng) for _ in range(100)]
    hrs_span = max(hrs_reads) / min(hrs_reads)
    lrs_span = max(lrs_reads) / min(lrs_reads)
    assert hrs_span < 10.0
    assert hrs_span > lrs_span


def test_read_with_gate_off_is_open_circuit():
    cell, rng = formed_cell()
    assert math.isinf(read_resistance(cell, 0.1, 0.0, T, rng))


def test_read_disturb_guard():
    cell, rng = formed_cell()
    with pytest.raises(ValueError):
        read_resistance(cell, cell.v_set_th + 0.1, 3.0, T, rng)
    assert 0 < read_resistance(cell, 0.0, 3.0, T, rng) < math.inf  # 0 V disturbs nothing


def test_series_resistance_added():
    big_r_on = TransistorModel(r_on=100.0)
    cell, rng = formed_cell(NOISE_FREE, state="lrs")
    cell.resistance = 5000.0
    assert read_resistance(cell, 0.1, 3.0, big_r_on, rng) == 5100.0


# --------------------------------------------------------- truncated draws

class FixedUniform:
    """A generator stand-in whose every uniform is ``u`` and every standard
    normal ``z``."""

    def __init__(self, u, z=0.0):
        self.u, self.z = u, z

    def random(self):
        return self.u

    def standard_normal(self):
        return self.z


#: Both ends of ``Generator.random``: it returns k / 2**53 for k in [0, 2**53).
UNIFORM_ENDS = (0.0, 1 - 2**-53)


def cell_between(floor, ceiling, sigma):
    """A cell with its last LRS at ``floor`` and last HRS at ``ceiling``, both
    states' medians at 10 kOhm and both cycle-to-cycle spreads ``sigma``."""
    params = PARAMS.replace(lrs_sigma_c2c=sigma, hrs_sigma_c2c=sigma)
    return MemristorCell("c", params, 1e4, 1e4, 1.0, 0.9, 2.0, state="lrs",
                         last_lrs=floor, last_hrs=ceiling)


@pytest.mark.parametrize("u", UNIFORM_ENDS)
@pytest.mark.parametrize("sigma, offset", [
    (0.32, 40.0), (0.32, -40.0), (0.32, 0.0), (10.0, 40.0), (10.0, -40.0),
    (0.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
def test_truncated_draws_stay_finite_and_strictly_inside_their_bound(u, sigma, offset):
    # ``offset``: the bound's distance from the median, in sigmas (in log
    # space for resistances; plain units at sigma = 0).
    bound = 1e4 * math.exp(offset * sigma if sigma else offset)
    cell = cell_between(bound, bound, sigma)
    device._enter_hrs(cell, FixedUniform(u))
    assert bound < cell.resistance < math.inf
    cell = cell_between(bound, bound, sigma)
    device._enter_lrs(cell, FixedUniform(u))
    assert 0 < cell.resistance < bound
    # A threshold's zero lies 1/40, 1 or 40 sigmas below its mean.
    for mean in (sigma / 40, sigma, 40 * sigma) if sigma else (1.0,):
        assert 0 < device._positive_normal(FixedUniform(u), mean, sigma) < math.inf


@pytest.mark.parametrize("u", UNIFORM_ENDS)
def test_a_cell_hrs_median_lies_above_its_lrs_median(u):
    # A 5-sigma LRS median of a 1.0 d2d spread lands far above the HRS median.
    params = PARAMS.replace(lrs_sigma_d2d=1.0)
    cell = sample_fresh_cell(params, FixedUniform(u, z=5.0))
    assert cell.lrs_median_cell == params.lrs_median * math.exp(5.0)
    assert cell.lrs_median_cell < cell.hrs_median_cell < math.inf
    assert all(0 < v < math.inf for v in (cell.v_set_th, cell.v_reset_th, cell.v_form_th))


@pytest.mark.parametrize("a", [-2.0, 0.0, 1.5, 4.0])
def test_truncated_draw_mean_is_the_inverse_mills_ratio(a):
    # E[z | z > a] = phi(a) / Phi(-a) =: lam, Var[z | z > a] = 1 + a lam - lam^2.
    n = 20_000
    rng = np.random.default_rng(int(10 * a) + 100)
    draws = [device._normal_above(rng, a, 1.0) for _ in range(n)]
    assert min(draws) > a
    lam = math.exp(-a * a / 2) / math.sqrt(2 * math.pi) / (0.5 * math.erfc(a / math.sqrt(2)))
    se = math.sqrt((1 + a * lam - lam * lam) / n)
    assert abs(sum(draws) / n - lam) <= 4 * se


def test_the_inverse_normal_cdf_equals_statistics_bit_for_bit():
    # Uniforms over (0, 1), and log-spaced into both tails: from the smallest
    # subnormal (5e-324) up to the largest float below 1 (1 - 1.1e-16).
    rng = np.random.default_rng(6)
    tails = [math.ulp(0.0), 2.0 ** -53, *2.0 ** -rng.uniform(1, 1074, 2000)]
    uniforms = [*rng.random(2000), *tails, *(1 - t for t in tails if t >= 2 ** -53)]
    assert [device._normal_dist_inv_cdf(p, 0.0, 1.0) for p in uniforms] == [
        statistics.NormalDist().inv_cdf(p) for p in uniforms]


# ----------------------------------------------------------------- binarize

def test_binarize_examples():
    boundary = math.sqrt(PARAMS.lrs_median * PARAMS.hrs_median)
    assert default_boundary(PARAMS) == boundary
    assert binarize(5e3, boundary) == 1
    assert binarize(97e3, boundary) == 0
    assert binarize(boundary, boundary) == 0  # tie maps to HRS
    assert binarize(math.inf, boundary) == 0


# ----------------------------------------------------------- invariants

def test_no_overlap_over_population():
    rng = np.random.default_rng(11)
    lrs_all, hrs_all = [], []
    for ci in range(10):
        cell = sample_fresh_cell(PARAMS, rng, f"c{ci}")
        form_by_ramp(cell, T, rng)
        for _ in range(100):
            apply_pulse(cell, Pulse(0.0, 1.6, 3.0, 1e-6), T, rng)
            hrs_all.append(cell.resistance)
            apply_pulse(cell, Pulse(1.3, 0.0, 1.3, 1e-6), T, rng)
            lrs_all.append(cell.resistance)
    assert max(lrs_all) < min(hrs_all)


def test_mean_ratio_window_1000_cycles():
    rng = np.random.default_rng(12)
    cell = sample_fresh_cell(PARAMS, rng)
    form_by_ramp(cell, T, rng)
    lrs, hrs = [], []
    for _ in range(1000):
        apply_pulse(cell, Pulse(0.0, 1.6, 3.0, 1e-6), T, rng)
        hrs.append(cell.resistance)
        apply_pulse(cell, Pulse(1.3, 0.0, 1.3, 1e-6), T, rng)
        lrs.append(cell.resistance)
    ratio = np.mean(hrs) / np.mean(lrs)
    assert 15.5 <= ratio <= 23.3


def test_determinism():
    def trajectory(seed):
        rng = np.random.default_rng(seed)
        cell = sample_fresh_cell(PARAMS, rng)
        form_by_ramp(cell, T, rng)
        out = []
        for _ in range(50):
            apply_pulse(cell, Pulse(0.0, 1.6, 3.0, 1e-6), T, rng)
            apply_pulse(cell, Pulse(1.3, 0.0, 1.3, 1e-6), T, rng)
            out.append(read_resistance(cell, 0.1, 3.0, T, rng))
        return out

    assert trajectory(99) == trajectory(99)


@settings(max_examples=60, deadline=None)
@given(v_te=st.floats(0, 5), v_be=st.floats(0, 5),
       v_g=st.floats(0, 5), state=st.sampled_from(["hrs", "lrs"]),
       seed=st.integers(0, 50))
def test_polarity_and_stability_properties(v_te, v_be, v_g, state, seed):
    cell, rng = formed_cell(seed=seed, state=state)
    before_bit = binarize(cell.resistance, default_boundary(PARAMS))
    before_r = cell.resistance
    try:
        event = apply_pulse(cell, Pulse(v_te, v_be, v_g, 1e-6), T, rng)
    except InvalidDriveError:
        return
    if event == SwitchEvent.SET:
        assert v_te - v_be > 0
    if event == SwitchEvent.RESET:
        assert v_be - v_te > 0
    if v_g < T.v_g_on_threshold:
        assert event == SwitchEvent.NONE and cell.resistance == before_r
    if event in (SwitchEvent.NONE, SwitchEvent.HRS_DISTURB):
        assert binarize(cell.resistance, default_boundary(PARAMS)) == before_bit


@settings(max_examples=80, deadline=None)
@given(state=st.sampled_from(["pristine", "hrs", "lrs"]), seed=st.integers(0, 50),
       gate_off=st.booleans(), v_te=st.floats(-5, 5), v_be=st.floats(-5, 5),
       v_g=st.floats(-5, 5))
def test_inert_pulse_draws_nothing(state, seed, gate_off, v_te, v_be, v_g):
    # The array skips gate-off and zero-bias cells; that is only exact if such
    # a pulse can neither change the cell nor consume randomness.
    if state == "pristine":
        rng = np.random.default_rng(seed)
        cell = sample_fresh_cell(PARAMS, rng, "c")
    else:
        cell, rng = formed_cell(seed=seed, state=state)
    if gate_off:
        pulse = Pulse(v_te, v_be, min(v_g, math.nextafter(T.v_g_on_threshold, 0.0)), 1e-6)
    else:
        pulse = Pulse(0.0, 0.0, v_g, 1e-6)
    before_cell = copy.copy(cell)
    before_rng = copy.deepcopy(rng.bit_generator.state)
    assert apply_pulse(cell, pulse, T, rng) == SwitchEvent.NONE
    assert cell == before_cell
    assert rng.bit_generator.state == before_rng


# --------------------------------------------------------------- parameters

def test_param_validation():
    with pytest.raises(ValueError):
        VariabilityParams(hrs_median=4e3)  # ratio below 2
    with pytest.raises(ValueError):
        VariabilityParams(lrs_sigma_c2c=-0.1)
    with pytest.raises(ValueError):
        VariabilityParams(read_noise_lrs=0.2, read_noise_hrs=0.1)
    with pytest.raises(ValueError):
        VariabilityParams(lrs_median=0.0)


@pytest.mark.parametrize("model", [VariabilityParams, TransistorModel])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.5"])
def test_params_must_be_finite_numbers(model, bad):
    for f in fields(model):
        with pytest.raises(ValueError, match=f.name):
            model(**{f.name: bad})


def test_transistor_must_isolate_at_zero_gate():
    with pytest.raises(ValueError):
        TransistorModel(v_g_on_threshold=0.0)


@pytest.mark.parametrize("lrs, hrs", [(1e306, 1e307), (1e-200, 1e-199)])
def test_default_boundary_survives_an_overflowing_or_underflowing_product(lrs, hrs):
    boundary = default_boundary(VariabilityParams(lrs_median=lrs, hrs_median=hrs))
    assert lrs < boundary < hrs
    assert boundary == pytest.approx(math.sqrt(10) * lrs)


@given(lrs=st.floats(1e-3, 1e9), ratio=st.floats(2.0, 1e6))
def test_default_boundary_is_the_root_of_the_product(lrs, ratio):
    params = VariabilityParams(lrs_median=lrs, hrs_median=lrs * ratio)
    assert default_boundary(params) == math.sqrt(params.lrs_median * params.hrs_median)
