"""Stochastic behavioral model of a single 1T1R RRAM cell.

A cell is a bipolar resistive-switching element (VCM type) in series with an
access transistor.  A positive top-electrode voltage above the SET threshold
switches the element from the high resistance state (HRS, logical '0') to the
low resistance state (LRS, logical '1'); a positive bottom-electrode voltage
above the RESET threshold switches it back.  Fresh devices start in a
high-ohmic pristine state and must be formed once before they switch.

Switching itself is threshold-deterministic; all stochastic behavior lives in
the resistance values drawn after each switching event (lognormal, with
separate cycle-to-cycle and cell-to-cell spreads) and in a multiplicative
per-read jitter.  Every truncated draw (a new LRS value below the last HRS,
a new HRS value above the last LRS, a cell's HRS median above its LRS median,
a threshold above zero) inverts the normal CDF at one uniform, so a switching
event costs exactly one ``random()`` of the source it is given (``Uniforms``),
and a noisy read one ``standard_normal()`` (``Normals``).
"""

from __future__ import annotations

import math
import numbers
from _statistics import _normal_dist_inv_cdf  # what statistics.NormalDist.inv_cdf calls
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import accumulate, repeat, takewhile
from typing import Protocol

import numpy as np

STATE_PRISTINE = "pristine"
STATE_LRS = "lrs"
STATE_HRS = "hrs"

# Pristine devices are treated as a fixed, very large resistance.
PRISTINE_RESISTANCE_FACTOR = 10.0

_SQRT2 = math.sqrt(2.0)
_TINY = math.ulp(0.0)  # the smallest positive float

#: Largest log-space spread: exp(N(0, sigma)) overflows a float past about 709,
#: a 70-sigma draw at this bound.
MAX_LOG_SIGMA = 10.0


class SwitchEvent(Enum):
    """Outcome of one voltage pulse applied to a cell."""

    NONE = "none"
    SET = "set"
    RESET = "reset"
    FORMED = "formed"
    HRS_DISTURB = "hrs_disturb"


class InvalidDriveError(ValueError):
    """Pulse drives both electrodes above their switching thresholds at once."""


class NotFormedError(RuntimeError):
    """Operation requires a formed cell but the cell is still pristine."""


def _require_finite(params) -> None:
    for f in fields(params):
        value = getattr(params, f.name)
        try:
            finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                      and math.isfinite(value))
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")


def require_int(name: str, value, least: int) -> None:
    """Reject a bool, a non-integer or a value below ``least``, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def require_finite_result(what: str, value: float, params: VariabilityParams) -> float:
    """``value`` when finite; otherwise a ``ValueError`` naming the medians,
    whose reads left the float range (a subnormal ``lrs_median`` reads as 0 Ohm
    or as an infinite current)."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is {value!r}, not finite: reads at device.lrs_median"
                         f" = {params.lrs_median!r} and device.hrs_median = "
                         f"{params.hrs_median!r} leave the float range")
    return value


@dataclass(frozen=True)
class VariabilityParams:
    """Distribution parameters for resistance, threshold and read-noise spread.

    Resistances are lognormal: ``value = median * exp(N(0, sigma))``, with
    ``sigma_c2c`` applied per switching event and ``sigma_d2d`` applied once
    per cell (to its median).  Thresholds are normal, truncated at zero.
    Read noise is a per-read multiplicative lognormal jitter.
    """

    lrs_median: float = 5.0e3
    lrs_sigma_c2c: float = 0.06
    lrs_sigma_d2d: float = 0.02
    hrs_median: float = 97.0e3
    hrs_sigma_c2c: float = 0.32
    hrs_sigma_d2d: float = 0.10
    v_set_th_median: float = 1.0
    v_set_th_sigma: float = 0.05
    v_reset_th_median: float = 0.9
    v_reset_th_sigma: float = 0.05
    v_form_th_median: float = 2.0
    v_form_th_sigma: float = 0.2
    read_noise_lrs: float = 0.02
    read_noise_hrs: float = 0.10
    min_pulse_set: float = 3.0e-7
    min_pulse_reset: float = 3.0e-7

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("lrs_median", "hrs_median", "v_set_th_median",
                     "v_reset_th_median", "v_form_th_median"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("lrs_sigma_c2c", "lrs_sigma_d2d", "hrs_sigma_c2c",
                     "hrs_sigma_d2d", "v_set_th_sigma", "v_reset_th_sigma",
                     "v_form_th_sigma", "read_noise_lrs", "read_noise_hrs",
                     "min_pulse_set", "min_pulse_reset"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("lrs_sigma_c2c", "lrs_sigma_d2d", "hrs_sigma_c2c",
                     "hrs_sigma_d2d", "read_noise_lrs", "read_noise_hrs"):
            if getattr(self, name) > MAX_LOG_SIGMA:
                raise ValueError(f"{name} must be <= {MAX_LOG_SIGMA}")
        if self.hrs_median <= self.lrs_median:
            raise ValueError("hrs_median must exceed lrs_median")
        if self.hrs_median / self.lrs_median < 2.0:
            raise ValueError("hrs_median / lrs_median must be >= 2")
        if self.read_noise_hrs < self.read_noise_lrs:
            raise ValueError("read_noise_hrs must be >= read_noise_lrs")

    def replace(self, **changes) -> "VariabilityParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class TransistorModel:
    """Behavioral access transistor: an on/off switch with a series resistance.

    The channel is open-circuit below ``v_g_on_threshold``.
    """

    v_g_on_threshold: float = 0.7
    r_on: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.v_g_on_threshold <= 0:
            raise ValueError("v_g_on_threshold must be > 0 (a grounded word line "
                             "must isolate its cells)")
        if self.r_on < 0:
            raise ValueError("r_on must be >= 0")

    def is_on(self, v_g: float) -> bool:
        return v_g >= self.v_g_on_threshold


@dataclass(frozen=True)
class Pulse:
    """One rectangular voltage pulse: electrode voltages, gate voltage, width."""

    v_te: float
    v_be: float
    v_g: float
    width: float

    def __post_init__(self) -> None:
        for name in ("v_te", "v_be", "v_g", "width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.width <= 0:
            raise ValueError("width must be > 0")


@dataclass
class MemristorCell:
    """One 1T1R cell with its sampled per-cell parameters and analog state."""

    cell_id: str
    params: VariabilityParams
    lrs_median_cell: float
    hrs_median_cell: float
    v_set_th: float
    v_reset_th: float
    v_form_th: float
    state: str = STATE_PRISTINE
    resistance: float = 0.0
    cycle_count: int = 0
    # Most recent realized values; used to keep LRS strictly below HRS.
    last_lrs: float | None = field(default=None, repr=False)
    last_hrs: float | None = field(default=None, repr=False)

    @property
    def is_formed(self) -> bool:
        return self.state != STATE_PRISTINE


class Uniforms(Protocol):
    """A source of uniforms on [0, 1): a numpy ``Generator``, or a served stream."""
    def random(self) -> float: ...


class Normals(Protocol):
    """A source of standard normals: a numpy ``Generator``, or a served stream."""
    def standard_normal(self) -> float: ...


def _normal_above(rng: Uniforms, bound: float, sigma: float) -> float:
    """``sigma * z`` for a standard normal ``z`` conditioned on ``sigma * z >
    bound``, from one uniform ``v`` in (0, 1): ``z = -inv_cdf(v * Phi(-a))``
    with ``a = bound / sigma``, inverted in the upper tail so that a bound far
    out keeps its digits.  ``sigma = 0`` still draws its uniform and gives 0.
    Rounding, or a tail too thin for a float (``a`` beyond about 38), can put
    the value at or past the bound; callers clamp."""
    a = bound / sigma if sigma else math.copysign(math.inf, bound)
    p = rng.random() * 0.5 * math.erfc(a / _SQRT2)  # v * Phi(-a), or 0 on underflow
    return -sigma * _normal_dist_inv_cdf(max(_TINY, p), 0.0, 1.0)


def _positive_normal(rng: Uniforms, mean: float, sigma: float) -> float:
    """Normal draw truncated at zero."""
    return max(_TINY, mean + _normal_above(rng, -mean, sigma))


def _lognormal_around(rng: Normals, median: float, sigma: float) -> float:
    """``median * exp(N(0, sigma))``: ``rng.normal(0.0, sigma)`` is ``0.0 + sigma *
    rng.standard_normal()``, the same draw without the argument checks."""
    return median * math.exp(sigma * rng.standard_normal())


def _lognormal_above(rng: Uniforms, median: float, sigma: float,
                     floor: float) -> float:
    """``median * exp(N(0, sigma))`` conditioned above ``floor``, strictly."""
    bound = math.log(max(_TINY, floor / median))
    value = median * math.exp(_normal_above(rng, bound, sigma))
    return max(value, math.nextafter(floor, math.inf))


def sample_fresh_cell(params: VariabilityParams, rng: np.random.Generator,
                      cell_id: str = "cell") -> MemristorCell:
    """Draw a new pristine cell: per-cell medians (lognormal around the global
    medians, device-to-device sigma, the HRS median conditioned above the LRS
    median) and per-cell thresholds (normal, truncated at zero).
    """
    lrs_med = _lognormal_around(rng, params.lrs_median, params.lrs_sigma_d2d)
    hrs_med = _lognormal_above(rng, params.hrs_median, params.hrs_sigma_d2d, lrs_med)
    cell = MemristorCell(
        cell_id=cell_id,
        params=params,
        lrs_median_cell=lrs_med,
        hrs_median_cell=hrs_med,
        v_set_th=_positive_normal(rng, params.v_set_th_median, params.v_set_th_sigma),
        v_reset_th=_positive_normal(rng, params.v_reset_th_median, params.v_reset_th_sigma),
        v_form_th=_positive_normal(rng, params.v_form_th_median, params.v_form_th_sigma),
    )
    cell.resistance = PRISTINE_RESISTANCE_FACTOR * hrs_med
    return cell


def _enter_lrs(cell: MemristorCell, rng: Uniforms) -> None:
    """Switch to a fresh LRS value, conditioned below the realized HRS."""
    ceiling = cell.last_hrs if cell.last_hrs is not None else cell.hrs_median_cell
    median, sigma = cell.lrs_median_cell, cell.params.lrs_sigma_c2c
    bound = math.log(max(_TINY, median / ceiling))
    value = median * math.exp(-_normal_above(rng, bound, sigma))
    cell.resistance = cell.last_lrs = min(value, math.nextafter(ceiling, 0.0))
    cell.state = STATE_LRS


def _enter_hrs(cell: MemristorCell, rng: Uniforms) -> None:
    """Switch to a fresh HRS value, conditioned above the realized LRS."""
    floor = cell.last_lrs if cell.last_lrs is not None else cell.lrs_median_cell
    cell.resistance = cell.last_hrs = _lognormal_above(
        rng, cell.hrs_median_cell, cell.params.hrs_sigma_c2c, floor)
    cell.state = STATE_HRS


def apply_pulse(cell: MemristorCell, pulse: Pulse, transistor: TransistorModel,
                rng: Uniforms) -> SwitchEvent:
    """Apply one pulse to the cell; mutate its state and return the event.

    Rules, in order:

    1. Gate below the transistor on-threshold: nothing happens.
    2. Pristine cell with a forming-level positive TE voltage: FORMED (to LRS).
    3. HRS cell with TE-BE at or above the SET threshold: SET (to LRS).
    4. LRS cell with BE-TE at or above the RESET threshold: RESET (to HRS,
       cycle count incremented).
    5. HRS cell under any positive BE-polarity stress: HRS_DISTURB -- the HRS
       value is re-drawn from the cycle distribution but the binary state is
       preserved.  An already-reset cell cannot switch again, so the stress
       only destabilizes the high-ohmic state.
    6. Anything else: no change.

    Raises ``InvalidDriveError`` for drives that hold both electrodes above
    their respective switching thresholds while also requesting a
    super-threshold differential; the single-ended calibration of this model
    cannot be trusted for such drives.
    """
    if not pulse.v_g >= transistor.v_g_on_threshold:  # ``transistor.is_on``, inlined
        return SwitchEvent.NONE
    diff = pulse.v_te - pulse.v_be
    if (pulse.v_te >= cell.v_set_th and pulse.v_be >= cell.v_reset_th
            and (diff >= cell.v_set_th or -diff >= cell.v_reset_th)):
        raise InvalidDriveError(
            f"ambiguous drive on {cell.cell_id}: v_te={pulse.v_te}, v_be={pulse.v_be}")
    if (cell.state == STATE_PRISTINE and diff >= cell.v_form_th
            and pulse.width >= cell.params.min_pulse_set):
        _enter_lrs(cell, rng)
        return SwitchEvent.FORMED
    if (cell.state == STATE_HRS and diff >= cell.v_set_th
            and pulse.width >= cell.params.min_pulse_set):
        _enter_lrs(cell, rng)
        return SwitchEvent.SET
    if (cell.state == STATE_LRS and -diff >= cell.v_reset_th
            and pulse.width >= cell.params.min_pulse_reset):
        _enter_hrs(cell, rng)
        cell.cycle_count += 1
        return SwitchEvent.RESET
    if cell.state == STATE_HRS and -diff > 0:
        _enter_hrs(cell, rng)
        return SwitchEvent.HRS_DISTURB
    return SwitchEvent.NONE


def read_resistance(cell: MemristorCell, v_read: float, v_g: float,
                    transistor: TransistorModel, rng: Normals) -> float:
    """Non-destructive resistance read-out.

    Returns the state resistance with multiplicative read jitter, plus the
    transistor series resistance.  Reading with the transistor off returns
    ``inf`` (open circuit).  The read voltage must sit below the cell's SET
    threshold so the read cannot disturb the state.
    """
    if not v_g >= transistor.v_g_on_threshold:  # ``transistor.is_on``, inlined
        return math.inf
    if not 0 <= v_read < cell.v_set_th:
        raise ValueError(f"v_read={v_read} is not disturb-free for {cell.cell_id}")
    if cell.state == STATE_PRISTINE:
        return cell.resistance + transistor.r_on
    sigma = (cell.params.read_noise_lrs if cell.state == STATE_LRS
             else cell.params.read_noise_hrs)  # ``_lognormal_around``, inlined
    return cell.resistance * math.exp(sigma * rng.standard_normal()) + transistor.r_on


def binarize(resistance: float, r_boundary: float) -> int:
    """Map a resistance to a bit: below the boundary is '1', at or above is '0'."""
    return 1 if resistance < r_boundary else 0


def default_boundary(params: VariabilityParams) -> float:
    """Geometric mean of the LRS and HRS medians (symmetric log-space margin);
    a product that overflows to inf or underflows to 0 is rooted per median."""
    product = params.lrs_median * params.hrs_median
    if 0.0 < product < math.inf:
        return math.sqrt(product)
    return math.sqrt(params.lrs_median) * math.sqrt(params.hrs_median)


@dataclass(frozen=True)
class LogicVoltages:
    """The one physical operating point of the simulator.

    Logic pulses, initialization writes, verify reads, scouting reads and
    characterization all run at ``DEFAULT_VOLTAGES`` (forming has its own ramp):
    SET drives 1.3 V on the TE with a 1.3 V gate; RESET drives 1.6 V on the BE
    with a 3 V gate; reads use 0.1 V with a 3 V gate.  All pulses are 1 us.
    """

    v_te_set: float = 1.3
    v_g_set: float = 1.3
    v_be_reset: float = 1.6
    v_g_reset: float = 3.0
    v_read: float = 0.1
    v_g_read: float = 3.0
    width: float = 1.0e-6


DEFAULT_VOLTAGES = LogicVoltages()


#: The forming ramp: TE pulses of FORM_WIDTH seconds at a FORM_V_G gate, rising
#: in FORM_V_STEP steps from FORM_V_STEP up to FORM_V_MAX volts.
FORM_V_MAX = 4.8
FORM_V_STEP = 0.1
FORM_WIDTH = 1.0e-5
FORM_V_G = 1.1

#: The ramp's pulses, built once; each voltage is the last plus FORM_V_STEP.
_FORM_RAMP = tuple(Pulse(v, 0.0, FORM_V_G, FORM_WIDTH) for v in takewhile(
    lambda v: v <= FORM_V_MAX + 1e-12, accumulate(repeat(FORM_V_STEP))))


def form_by_ramp(cell: MemristorCell, transistor: TransistorModel,
                 rng: Uniforms) -> int:
    """Apply pulses of increasing TE voltage until the cell forms.

    The ramp is the module's ``FORM_*`` constants.  Returns the number of
    pulses applied.  Raises ``NotFormedError`` if the ramp tops out without
    forming, e.g. for a transistor threshold above the ramp's gate voltage or a
    SET pulse minimum above its width.
    """
    if cell.is_formed:
        return 0
    for pulses, pulse in enumerate(_FORM_RAMP, 1):
        if apply_pulse(cell, pulse, transistor, rng) == SwitchEvent.FORMED:
            return pulses
    raise NotFormedError(f"{cell.cell_id} did not form up to {FORM_V_MAX} V "
                         f"({FORM_WIDTH} s pulses at a {FORM_V_G} V gate)")
