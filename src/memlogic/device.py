"""Stochastic behavioral model of a single 1T1R RRAM cell.

A cell is a bipolar resistive-switching element (VCM type) in series with an
access transistor: a switch, on at a gate of at least ``V_G_ON``, whose series
resistance is the device parameter ``VariabilityParams.r_on``.  A positive
top-electrode voltage above the SET threshold switches the element from the
high resistance state (HRS, logical '0') to the low resistance state (LRS,
logical '1'); a positive bottom-electrode voltage above the RESET threshold
switches it back.  Fresh devices start in a high-ohmic pristine state and
must be formed once before they switch.

Switching itself is threshold-deterministic; all stochastic behavior lives in
the resistance values drawn after each switching event (lognormal, with
separate cycle-to-cycle and cell-to-cell spreads) and in a multiplicative
per-read jitter.  Every truncated draw (a new LRS value below the last HRS,
a new HRS value above the last LRS, a cell's HRS median above its LRS median,
a threshold above zero) inverts the normal CDF at one uniform, so a switching
event costs exactly one ``random()`` of the source it is given (``Uniforms``),
and a noisy read one ``standard_normal()`` (``Normals``).  The draws clamp by
comparison, not by builtin ``max``/``min``, whose calls were ~40% of a draw.
"""

from __future__ import annotations

import math
import numbers
from _statistics import _normal_dist_inv_cdf  # what statistics.NormalDist.inv_cdf calls
from dataclasses import dataclass, field, replace
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

#: The access transistor conducts at a gate voltage of at least V_G_ON volts.
#: It is a constant: every gate voltage the simulator applies is 0 V or at least
#: 1.1 V (``FORM_V_G``, ``V_G_SET`` and ``V_G_RESET``), so every threshold in (0, 1.1]
#: gives the same results.  It stays above 0 V because a grounded WL must isolate
#: its cells, which the skipping drive path in ``array.resolve_drives`` relies on.
V_G_ON = 0.7


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


def require_int(name: str, value, least: int) -> None:
    """Reject a bool, a non-integer or a value below ``least``, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def require_finite_result(what: str, value: float, params: VariabilityParams) -> float:
    """``value`` when finite; otherwise a ``ValueError`` naming the medians,
    whose reads left the float range (a subnormal ``lrs_median`` reads as 0 Ohm
    or as an infinite current, a huge ``hrs_median`` as an infinite resistance)."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is {value!r}, not finite: reads at device.lrs_median"
                         f" = {params.lrs_median!r} and device.hrs_median = "
                         f"{params.hrs_median!r} leave the float range")
    return value


POSITIVE, NON_NEGATIVE, LOG_SIGMA = "positive", "non-negative", "log-sigma"

#: The bound of each ``VariabilityParams`` field, in field order: a median is
#: ``POSITIVE`` (> 0); a log-space spread (resistance or read noise) is a
#: ``LOG_SIGMA`` in [0, ``MAX_LOG_SIGMA``]; a threshold spread and ``r_on`` are
#: ``NON_NEGATIVE`` (>= 0).  Every field is a finite real number.
PARAM_BOUNDS = {
    "lrs_median": POSITIVE, "lrs_sigma_c2c": LOG_SIGMA, "lrs_sigma_d2d": LOG_SIGMA,
    "hrs_median": POSITIVE, "hrs_sigma_c2c": LOG_SIGMA, "hrs_sigma_d2d": LOG_SIGMA,
    "v_set_th_median": POSITIVE, "v_set_th_sigma": NON_NEGATIVE,
    "v_reset_th_median": POSITIVE, "v_reset_th_sigma": NON_NEGATIVE,
    "v_form_th_median": POSITIVE, "v_form_th_sigma": NON_NEGATIVE,
    "read_noise_lrs": LOG_SIGMA, "read_noise_hrs": LOG_SIGMA, "r_on": NON_NEGATIVE,
}


def _is_finite_real(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer too large for a float
        return False


#: The checks of ``PARAM_BOUNDS``, one pass each: (the kinds it checks, the test a
#: value must pass, the message).  A pass checks every field before the next runs.
_BOUND_CHECKS = (
    ((POSITIVE, NON_NEGATIVE, LOG_SIGMA), _is_finite_real,
     "{name} must be a finite number, got {value!r}"),
    ((POSITIVE,), lambda value: value > 0, "{name} must be > 0"),
    ((NON_NEGATIVE, LOG_SIGMA), lambda value: value >= 0, "{name} must be >= 0"),
    ((LOG_SIGMA,), lambda value: value <= MAX_LOG_SIGMA,
     f"{{name}} must be <= {MAX_LOG_SIGMA}"),
)


@dataclass(frozen=True)
class VariabilityParams:
    """Distribution parameters for resistance, threshold and read-noise spread.

    Resistances are lognormal: ``value = median * exp(N(0, sigma))``, with
    ``sigma_c2c`` applied per switching event and ``sigma_d2d`` applied once
    per cell (to its median).  Thresholds are normal, truncated at zero.
    Read noise is a per-read multiplicative lognormal jitter.  ``r_on`` is the
    access transistor's series resistance, added to every read.
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
    r_on: float = 0.0

    def __post_init__(self) -> None:
        for kinds, holds, message in _BOUND_CHECKS:
            for name, kind in PARAM_BOUNDS.items():
                value = getattr(self, name)
                if kind in kinds and not holds(value):
                    raise ValueError(message.format(name=name, value=value))
        if self.hrs_median <= self.lrs_median:
            raise ValueError("hrs_median must exceed lrs_median")
        if self.hrs_median / self.lrs_median < 2.0:
            raise ValueError("hrs_median / lrs_median must be >= 2")
        if self.read_noise_hrs < self.read_noise_lrs:
            raise ValueError("read_noise_hrs must be >= read_noise_lrs")

    def replace(self, **changes) -> "VariabilityParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class Pulse:
    """One voltage pulse: electrode voltages and gate voltage."""

    v_te: float
    v_be: float
    v_g: float

    def __post_init__(self) -> None:
        for name in ("v_te", "v_be", "v_g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


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
    # Most recent realized values, the cell's medians before its first switch;
    # used to keep LRS strictly below HRS.
    last_lrs: float = field(kw_only=True, repr=False)
    last_hrs: float = field(kw_only=True, repr=False)

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
    return -sigma * _normal_dist_inv_cdf(p if p > _TINY else _TINY, 0.0, 1.0)


def _positive_normal(rng: Uniforms, mean: float, sigma: float) -> float:
    """Normal draw truncated at zero."""
    value = mean + _normal_above(rng, -mean, sigma)
    return value if value > _TINY else _TINY


def _lognormal_around(rng: Normals, median: float, sigma: float) -> float:
    """``median * exp(N(0, sigma))``: ``rng.normal(0.0, sigma)`` is ``0.0 + sigma *
    rng.standard_normal()``, the same draw without the argument checks."""
    return median * math.exp(sigma * rng.standard_normal())


def _lognormal_above(rng: Uniforms, median: float, sigma: float,
                     floor: float) -> float:
    """``median * exp(N(0, sigma))`` conditioned above ``floor``, strictly."""
    ratio = floor / median
    bound = math.log(ratio if ratio > _TINY else _TINY)
    value = median * math.exp(_normal_above(rng, bound, sigma))
    edge = math.nextafter(floor, math.inf)
    return edge if edge > value else value


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
        last_lrs=lrs_med,
        last_hrs=hrs_med,
    )
    cell.resistance = PRISTINE_RESISTANCE_FACTOR * hrs_med
    return cell


def _enter_lrs(cell: MemristorCell, rng: Uniforms) -> None:
    """Switch to a fresh LRS value, conditioned below the realized HRS."""
    ceiling = cell.last_hrs
    median, sigma = cell.lrs_median_cell, cell.params.lrs_sigma_c2c
    ratio = median / ceiling
    bound = math.log(ratio if ratio > _TINY else _TINY)
    value = median * math.exp(-_normal_above(rng, bound, sigma))
    edge = math.nextafter(ceiling, 0.0)
    cell.resistance = cell.last_lrs = edge if edge < value else value
    cell.state = STATE_LRS


def apply_pulse(cell: MemristorCell, pulse: Pulse, rng: Uniforms) -> SwitchEvent:
    """Apply one pulse to the cell; mutate its state and return the event.

    Rules, in order:

    1. Gate below ``V_G_ON`` (the transistor is off): nothing happens.
    2. Pristine cell with a forming-level positive TE voltage: FORMED (to LRS).
    3. HRS cell with TE-BE at or above the SET threshold: SET (to LRS).
    4. LRS cell with BE-TE at or above the RESET threshold: RESET (to HRS).
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
    if not pulse.v_g >= V_G_ON:
        return SwitchEvent.NONE
    diff = pulse.v_te - pulse.v_be
    if (pulse.v_te >= cell.v_set_th and pulse.v_be >= cell.v_reset_th
            and (diff >= cell.v_set_th or -diff >= cell.v_reset_th)):
        raise InvalidDriveError(
            f"ambiguous drive on {cell.cell_id}: v_te={pulse.v_te}, v_be={pulse.v_be}")
    if cell.state == STATE_PRISTINE and diff >= cell.v_form_th:
        _enter_lrs(cell, rng)
        return SwitchEvent.FORMED
    if cell.state == STATE_HRS and diff >= cell.v_set_th:
        _enter_lrs(cell, rng)
        return SwitchEvent.SET
    if cell.state == STATE_LRS and -diff >= cell.v_reset_th:
        event = SwitchEvent.RESET
    elif cell.state == STATE_HRS and -diff > 0:
        event = SwitchEvent.HRS_DISTURB
    else:
        return SwitchEvent.NONE
    # Both draw a fresh HRS value, conditioned above the realized LRS.
    cell.resistance = cell.last_hrs = _lognormal_above(
        rng, cell.hrs_median_cell, cell.params.hrs_sigma_c2c, cell.last_lrs)
    cell.state = STATE_HRS
    return event


def read_resistance(cell: MemristorCell, rng: Normals) -> float:
    """Non-destructive resistance read-out at ``V_READ``.

    Returns the state resistance with multiplicative read jitter, plus the
    transistor series resistance ``r_on`` of the cell's parameters.  The read
    voltage must sit below the cell's SET threshold so the read cannot disturb
    the state.  A 0 Ohm read (its infinite conductance) or an infinite one is
    a ``ValueError`` naming the medians.
    """
    if not V_READ < cell.v_set_th:
        raise ValueError(f"v_read={V_READ} is not disturb-free for {cell.cell_id}")
    params = cell.params
    if cell.state == STATE_PRISTINE:  # sampled above 0 Ohm: ten times its HRS median
        return cell.resistance + params.r_on
    sigma = (params.read_noise_lrs if cell.state == STATE_LRS
             else params.read_noise_hrs)  # ``_lognormal_around``, inlined
    r = cell.resistance * math.exp(sigma * rng.standard_normal()) + params.r_on
    if r == 0.0:
        require_finite_result("read conductance", math.inf, params)
    if r == math.inf:
        require_finite_result("read resistance", r, params)
    return r


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


#: The one operating point: every logic pulse, write, verify read, scouting read
#: and characterization runs at it (forming has its own ramp).  SET drives
#: V_TE_SET on the TE at a V_G_SET gate, RESET V_BE_RESET on the BE at a
#: V_G_RESET gate; reads apply V_READ with the transistor on.  The model has no
#: pulse timing: a pulse switches a cell when its voltages reach the cell's
#: thresholds.
V_TE_SET = 1.3
V_G_SET = 1.3
V_BE_RESET = 1.6
V_G_RESET = 3.0
V_READ = 0.1

#: The forming ramp: TE pulses at a FORM_V_G gate, rising in FORM_V_STEP steps
#: from FORM_V_STEP up to FORM_V_MAX volts.
FORM_V_MAX = 4.8
FORM_V_STEP = 0.1
FORM_V_G = 1.1

#: The ramp's pulses, built once; each voltage is the last plus FORM_V_STEP.
_FORM_RAMP = tuple(Pulse(v, 0.0, FORM_V_G) for v in takewhile(
    lambda v: v <= FORM_V_MAX + 1e-12, accumulate(repeat(FORM_V_STEP))))


def form_by_ramp(cell: MemristorCell, rng: Uniforms) -> int:
    """Apply pulses of increasing TE voltage until the cell forms.

    The ramp is the module's ``FORM_*`` constants.  Returns the number of
    pulses applied.  Raises ``NotFormedError`` if the ramp tops out without
    forming, e.g. for a forming threshold above the ramp's top voltage.
    """
    if cell.is_formed:
        return 0
    for pulses, pulse in enumerate(_FORM_RAMP, 1):
        if apply_pulse(cell, pulse, rng) == SwitchEvent.FORMED:
            return pulses
    raise NotFormedError(f"{cell.cell_id} did not form up to {FORM_V_MAX} V "
                         f"(pulses at a {FORM_V_G} V gate)")
