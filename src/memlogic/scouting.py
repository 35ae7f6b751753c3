"""Scouting logic: parallel read-out of input cells against reference currents.

Inputs are stored as the resistive states of n cells sharing one read path.
A read voltage is applied and the summed current is compared against
reference levels placed in the gaps between the popcount classes (the number
of cells in LRS).  The number of levels below the current is the popcount,
and every operation is a predicate on it: OR is a popcount of at least one,
AND a popcount of n, XOR an odd popcount.  READ is the one-cell case, with its
own reference.  The read is non-destructive, so the gate never switches a
device.  ``scout_class`` writes one input class and scouts it cycle after
cycle, with the bits, the selection and each cell's write resolved once;
``write_inputs`` followed by ``scout_current`` is its one-cycle case.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .array import CellAddress, CellArray
from .device import DEFAULT_VOLTAGES, require_finite_result
from .logic1t1r import initialize_cell

#: The output of each operation as a predicate on (popcount k, input width n).
OP_TABLE: dict[str, Callable[[int, int], bool]] = {
    "read": lambda k, n: k == 1,  # one cell: n == 1
    "or": lambda k, n: k >= 1,
    "and": lambda k, n: k == n,
    "xor": lambda k, n: k % 2 == 1,
}
SCOUTING_OPS = tuple(OP_TABLE)
_BITS = {0: 0, 1: 1, "0": 0, "1": 1}  # the bit each input symbol stores


def expected_bit(op: str, input_class: str) -> int:
    """The ideal output of ``op`` for one stored bit pattern."""
    return int(OP_TABLE[op](input_class.count("1"), len(input_class)))


def input_patterns(n: int) -> list[str]:
    """All n-bit input patterns in ascending order."""
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


@dataclass(frozen=True)
class ReferenceLevels:
    """Reference currents of an n-cell scouting read.

    ``levels`` holds one threshold per popcount boundary, ascending, so
    ``n = len(levels)``; ``i_read`` is the single-cell READ reference.  The
    OR reference is the lowest level and the AND reference the highest.
    """

    levels: tuple[float, ...]
    i_read: float

    def __post_init__(self) -> None:
        for name, values in (("i_read", (self.i_read,)), ("levels", self.levels)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.i_read <= 0:
            raise ValueError("i_read must be > 0")
        if not self.levels:
            raise ValueError("need at least one reference level")
        if any(lo >= hi for lo, hi in zip(self.levels, self.levels[1:])):
            raise ValueError("reference levels must be strictly ascending")

    @property
    def n(self) -> int:
        return len(self.levels)

    @property
    def i_or(self) -> float:
        return self.levels[0]

    @property
    def i_and(self) -> float:
        return self.levels[-1]


#: Published reference-current preset for the default operating point.
PAPER_REFS = ReferenceLevels(levels=(11.55e-6, 32.74e-6), i_read=7.25e-6)

REFERENCE_PRESETS: dict[str, ReferenceLevels] = {"paper-refs": PAPER_REFS}


class CurrentSample(NamedTuple("_CurrentSample", [("input_class", str), ("current", float),
                                                  ("cycle", int)])):
    """One measured read current for a given input bit pattern (immutable)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so ``_replace`` checks, too

    def __new__(cls, input_class: str, current: float, cycle: int = 0):
        if current < 0:
            raise ValueError("current must be >= 0")
        return tuple.__new__(cls, (input_class, current, cycle))


class OverlapError(RuntimeError):
    """Adjacent current classes overlap; no reference can be placed reliably."""

    def __init__(self, lower_class: str, upper_class: str,
                 lower_max: float, upper_min: float):
        super().__init__(
            f"classes {lower_class!r} and {upper_class!r} overlap: "
            f"max({lower_class})={lower_max:.4g} A >= min({upper_class})={upper_min:.4g} A")
        self.lower_class = lower_class
        self.upper_class = upper_class
        self.lower_max = lower_max
        self.upper_min = upper_min


def _input_writes(addrs: Sequence[CellAddress | tuple[int, int]],
                  bits: Sequence[int] | str) -> list[tuple[CellAddress, int]]:
    """Each address with the bit it stores; checked before any pulse."""
    try:
        bit_list = [_BITS[b] for b in bits]
    except (KeyError, TypeError):
        raise ValueError(f"input bits must be 0 or 1, got {bits!r}") from None
    if len(addrs) != len(bit_list):
        raise ValueError("need exactly one bit per address")
    return [(CellAddress(*addr), bit) for addr, bit in zip(addrs, bit_list)]


def write_inputs(array: CellArray, addrs: Sequence[CellAddress | tuple[int, int]],
                 bits: Sequence[int] | str, rng: np.random.Generator,
                 refresh: bool = False, verify: bool = True) -> None:
    """Store one bit (0, 1, "0" or "1") per cell, with read-verify and retry.

    ``refresh=True`` forces a fresh resistance draw even when the binary state
    already matches, so repeated trials see cycle-to-cycle variability.
    ``verify=False`` skips the read-back loop (used by stress analyses that
    must not truncate the state tails).
    """
    for addr, bit in _input_writes(addrs, bits):
        initialize_cell(array, addr, bit, rng, refresh, verify)


def scout_current(array: CellArray, addrs: Sequence[CellAddress | tuple[int, int]],
                  rng: np.random.Generator) -> float:
    """Simultaneous read of the selected cells at the operating point: the read
    voltage times the summed conductance of the noisy per-cell resistances.
    States are not disturbed; a current beyond the float range is a ``ValueError``.
    The selection is validated once per array (``CellArray.parallel_selection``).
    """
    return _read_current(array, array.parallel_selection(addrs), rng)


def _read_current(array: CellArray, selection: tuple[CellAddress, ...],
                  rng: np.random.Generator) -> float:
    v_read, conductance = DEFAULT_VOLTAGES.v_read, 0.0
    for addr in selection:
        conductance += 1.0 / array.read_cell(addr, rng)
    return require_finite_result("read current", v_read * conductance, array.params)


def scout_class(array: CellArray, addrs: Sequence[CellAddress | tuple[int, int]],
                bits: Sequence[int] | str, rngs: Iterable[np.random.Generator],
                refresh: bool = False, verify: bool = True) -> list[float]:
    """``write_inputs`` then ``scout_current`` once per generator of ``rngs``,
    each used before the next is drawn, with the bits parsed, the selection
    validated and each cell's write resolved once: an invalid request raises
    before any pulse."""
    writes = _input_writes(addrs, bits)
    selection = array.parallel_selection(addrs)
    currents = []
    for rng in rngs:
        for addr, bit in writes:
            initialize_cell(array, addr, bit, rng, refresh, verify)
        currents.append(_read_current(array, selection, rng))
    return currents


def _class_extremes(samples: Iterable[CurrentSample]) -> dict[str, tuple[float, float]]:
    grouped: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        grouped[s.input_class].append(s.current)
    return {cls: (min(vals), max(vals)) for cls, vals in grouped.items()}


@dataclass(frozen=True)
class ClassGap:
    """The current interval between two adjacent classes; empty on overlap."""

    lower_class: str
    upper_class: str
    lower_max: float
    upper_min: float

    def midpoint(self) -> float:
        """The reference placed in this gap; ``OverlapError`` if it is empty."""
        if self.lower_max >= self.upper_min:
            raise OverlapError(self.lower_class, self.upper_class,
                               self.lower_max, self.upper_min)
        return 0.5 * (self.lower_max + self.upper_min)


def class_gaps(samples: Sequence[CurrentSample]) -> tuple[list[ClassGap], ClassGap | None]:
    """The gaps between adjacent popcount classes, ascending, and the READ gap.

    The width n is inferred from the multi-bit input classes, which must
    cover every n-bit pattern.  They are grouped by popcount, and a group is
    labelled by its patterns joined with "|" (for n = 2: "00", "01|10",
    "11").  The READ gap lies between the single-cell classes "0" and "1"; it
    is ``None`` unless both were sampled.
    """
    extremes = _class_extremes(samples)
    for cls in extremes:
        if set(cls) - {"0", "1"}:
            raise ValueError(f"input class {cls!r} is not a bit pattern")
    widths = sorted({len(cls) for cls in extremes if len(cls) > 1})
    if len(widths) != 1:
        raise ValueError(f"need samples of one input width >= 2, got widths {widths}")
    n = widths[0]
    groups = [[p for p in input_patterns(n) if p.count("1") == k] for k in range(n + 1)]
    missing = [p for group in groups for p in group if p not in extremes]
    if missing:
        raise ValueError(f"missing samples for classes {sorted(missing)}")
    labels = ["|".join(group) for group in groups]
    spans = [(min(extremes[p][0] for p in group), max(extremes[p][1] for p in group))
             for group in groups]
    level_gaps = [ClassGap(labels[k], labels[k + 1], spans[k][1], spans[k + 1][0])
                  for k in range(n)]
    read_gap = None
    if "0" in extremes and "1" in extremes:
        read_gap = ClassGap("0", "1", extremes["0"][1], extremes["1"][0])
    return level_gaps, read_gap


def place_references(samples: Sequence[CurrentSample]) -> ReferenceLevels:
    """Place one reference level at the midpoint of each popcount gap.

    The read reference uses the single-cell classes "0"/"1" when present,
    otherwise it is the OR reference scaled to a single cell (half).  Raises
    ``OverlapError`` for the lowest empty popcount gap, then for an empty
    READ gap -- the logical-failure signal.  Collisions appear at smaller
    spreads as n grows, which quantifies the overlap risk of wider gates.
    """
    level_gaps, read_gap = class_gaps(samples)
    levels = tuple(gap.midpoint() for gap in level_gaps)
    i_read = read_gap.midpoint() if read_gap is not None else 0.5 * levels[0]
    return ReferenceLevels(levels=levels, i_read=i_read)


def classify_bucket(currents: Iterable[float], refs: ReferenceLevels,
                    op: str) -> list[int]:
    """Compare each read current against the references for the given op.

    The number of levels below a current (``bisect_left`` over the strictly
    ascending levels) is the popcount the op is applied to; READ compares
    against ``i_read`` as a one-cell read.  A current equal to a level maps to
    0 (ideal comparator, conservative tie-break).
    """
    op = op.lower()
    if op not in OP_TABLE:
        raise ValueError(f"unknown scouting op {op!r}; expected one of {SCOUTING_OPS}")
    levels = (refs.i_read,) if op == "read" else refs.levels
    n = len(levels)
    outputs = [int(OP_TABLE[op](k, n)) for k in range(n + 1)]  # by popcount
    bits = []
    for current in currents:
        k = bisect_left(levels, current)
        bits.append(0 if k < n and levels[k] == current else outputs[k])
    return bits


def classify(current: float, refs: ReferenceLevels, op: str) -> int:
    """``classify_bucket`` of one read current."""
    return classify_bucket((current,), refs, op)[0]


def scouting_gate(array: CellArray, addrs: Sequence[CellAddress | tuple[int, int]],
                  bits: Sequence[int] | str, op: str, refs: ReferenceLevels,
                  rng: np.random.Generator) -> int:
    """Write the input bits, scout the summed current, classify it (one cycle
    of ``scout_class``); READ reads one cell, every other op ``refs.n`` cells."""
    width = 1 if op.lower() == "read" else refs.n
    if len(addrs) != width:
        raise ValueError(f"scouting op {op!r} reads {width} input cells, got {len(addrs)}")
    [current] = scout_class(array, addrs, bits, (rng,))
    return classify(current, refs, op)


def reference_preset(name: str) -> ReferenceLevels:
    try:
        return REFERENCE_PRESETS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown reference preset {name!r}; "
                       f"available: {sorted(REFERENCE_PRESETS)}") from None
