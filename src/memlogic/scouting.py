"""Scouting logic: parallel read-out of input cells against reference currents.

Inputs are stored as the resistive states of n cells sharing one read path.
A read voltage is applied and the summed current is compared against
reference levels placed in the gaps between the popcount classes (the number
of cells in LRS).  The number of levels below the current is the popcount,
and every operation is a predicate on it: OR is a popcount of at least one,
AND a popcount of n, XOR an odd popcount.  READ is the one-cell case, with its
popcount gap.  The read is non-destructive, so the gate never switches a
device.  ``scout_class`` writes one input class and scouts it cycle after
cycle, with the bits and the selection checked once and each cell's writes
bound once: every cycle's refresh writes replay them (``write_bit``) and its
parallel read sums ``device.read_resistance`` of the bound cells.
``class_gaps`` finds the gaps from each class's currents, ``references_in``
places a reference in each gap, and ``classify_bucket`` compares a bucket of
read currents against the references.  Writes draw uniforms from one source
and reads normals from another.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .array import RESET_BITS, SET_BITS, CellAddress, CellArray, check_parallel
from .device import (V_READ, Normals, NotFormedError, Uniforms, binarize, read_resistance,
                     require_finite_result)
from .logic1t1r import InitFailureError, write_bit

#: The output of each operation as a predicate on (popcount k, input width n).
OP_TABLE: dict[str, Callable[[int, int], bool]] = {
    "read": lambda k, n: k == 1,  # one cell: n == 1
    "or": lambda k, n: k >= 1,
    "and": lambda k, n: k == n,
    "xor": lambda k, n: k % 2 == 1,
}
SCOUTING_OPS = tuple(OP_TABLE)
_BITS = {0: 0, 1: 1, "0": 0, "1": 1}  # the bit each input symbol stores


def scouting_op(op: str) -> str:
    """``op`` lower-cased, which must name an operation of ``OP_TABLE``."""
    op = op.lower()
    if op not in OP_TABLE:
        raise ValueError(f"unknown scouting op {op!r}; expected one of {SCOUTING_OPS}")
    return op


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


def scout_class(array: CellArray, addrs: Sequence[CellAddress | tuple[int, int]],
                bits: Sequence[int] | str, cycles: int, rng: Uniforms,
                read_rng: Normals, verify: bool = True) -> list[float]:
    """Store one bit (0, 1, "0" or "1") per cell, then read the cells in
    parallel: the read voltage times the summed conductance of the noisy
    reads, a ``ValueError`` beyond the float range.  Once per cycle, for
    ``cycles`` cycles; the bits, the selection and that the cells are formed
    are checked once, before any pulse, and each cell's SET and RESET
    resolutions (``CellArray.drive``) are bound then.  Pulses draw from
    ``rng``, reads from ``read_rng``.  Every write refreshes: it writes once
    (``write_bit``), so each cycle draws fresh states, then until a read gives
    its bit; ``verify=False`` skips the reads, for analyses that must not
    truncate the state tails.  An ``InitFailureError`` carries its ``cycle``."""
    try:
        bit_list = [_BITS[b] for b in bits]
    except (KeyError, TypeError):
        raise ValueError(f"input bits must be 0 or 1, got {bits!r}") from None
    if len(addrs) != len(bit_list):
        raise ValueError("need exactly one bit per address")
    addrs = tuple(map(array.topology.require_address, addrs))
    check_parallel(array.topology, addrs)
    writes = [(array.cell(addr), bit, array.drive(addr, RESET_BITS), array.drive(addr, SET_BITS))
              for addr, bit in zip(addrs, bit_list)]
    for cell, *_ in writes:
        if not cell.is_formed:
            raise NotFormedError(f"{cell.cell_id} is pristine; form it first")
    cells = [cell for cell, *_ in writes]  # the selection, in its order
    boundary, currents = array.boundary, []
    try:
        for _ in range(cycles):
            for cell, bit, reset, set_ in writes:
                done = write_bit(cell, bit, reset, set_, rng, 0)
                while verify and binarize(read_resistance(cell, read_rng), boundary) != bit:
                    done = write_bit(cell, bit, reset, set_, rng, done)
            conductance = 0.0
            for cell in cells:
                conductance += 1.0 / read_resistance(cell, read_rng)
            currents.append(require_finite_result("read current", V_READ * conductance,
                                                  array.params))
    except InitFailureError as exc:
        exc.cycle = len(currents)
        raise
    return currents


Gap = tuple[str, str, float, float]  # lower class, upper class, lower max, upper min


def class_gaps(currents: Mapping[str, Sequence[float]]) -> tuple[list[Gap], Gap | None]:
    """The gaps between adjacent popcount classes, ascending, and the READ gap.

    ``currents`` holds each class's read currents; a gap runs from the lower
    class's largest current to the upper class's smallest.  The width n is
    inferred from the multi-bit classes.  The classes of width n, then of
    width 1 if "0" or "1" was sampled, must cover every pattern of their width;
    each width's are grouped by popcount, labelled by their patterns joined
    with "|" (n = 2: "00", "01|10", "11"), and width 1's one gap is READ's, else
    ``None``.  Collisions appear at smaller spreads as n grows: wider gates' risk.
    """
    for cls in currents:
        if not cls or set(cls) - {"0", "1"}:
            raise ValueError(f"input class {cls!r} is not a bit pattern")
    widths = sorted({len(cls) for cls in currents if len(cls) > 1})
    if len(widths) != 1:
        raise ValueError(f"need samples of one input width >= 2, got widths {widths}")
    if any(len(cls) == 1 for cls in currents):  # READ's classes
        widths.append(1)
    missing = [p for n in widths for p in input_patterns(n) if p not in currents]
    if missing:
        raise ValueError(f"missing samples for classes {sorted(missing)}")
    empty = [cls for cls, values in currents.items() if not values]
    if empty:
        raise ValueError(f"no currents for classes {sorted(empty)}")
    gaps = []
    for n in widths:
        groups = [[p for p in input_patterns(n) if p.count("1") == k] for k in range(n + 1)]
        gaps.append([("|".join(lower), "|".join(upper), max(max(currents[p]) for p in lower),
                      min(min(currents[p]) for p in upper))
                     for lower, upper in zip(groups, groups[1:])])
    return gaps[0], gaps[1][0] if len(gaps) > 1 else None  # READ's gap is width 1's one gap


def _midpoint(lower_class: str, upper_class: str, lower_max: float, upper_min: float) -> float:
    """The reference placed in one gap; ``OverlapError`` if the gap is empty."""
    if lower_max >= upper_min:
        raise OverlapError(lower_class, upper_class, lower_max, upper_min)
    return 0.5 * (lower_max + upper_min)


def references_in(level_gaps: Sequence[Gap], read_gap: Gap | None) -> ReferenceLevels:
    """One reference level at the midpoint of each popcount gap.

    The read reference is the READ gap's midpoint when it was sampled,
    otherwise the OR reference scaled to a single cell (half).  Raises
    ``OverlapError`` for the lowest empty popcount gap, then for an empty
    READ gap -- the logical-failure signal.
    """
    levels = tuple(_midpoint(*gap) for gap in level_gaps)
    i_read = _midpoint(*read_gap) if read_gap is not None else 0.5 * levels[0]
    return ReferenceLevels(levels=levels, i_read=i_read)


def classify_bucket(currents: Iterable[float], refs: ReferenceLevels,
                    op: str) -> list[int]:
    """Compare each read current against the references for the given op.

    The number of levels below a current (``bisect_left`` over the strictly
    ascending levels) is the popcount the op is applied to; READ compares
    against ``i_read`` as a one-cell read.  A current equal to a level maps to
    0 (ideal comparator, conservative tie-break).
    """
    op = scouting_op(op)
    levels = (refs.i_read,) if op == "read" else refs.levels
    n = len(levels)
    outputs = [int(OP_TABLE[op](k, n)) for k in range(n + 1)]  # by popcount
    bits = []
    for current in currents:
        k = bisect_left(levels, current)
        bits.append(0 if k < n and levels[k] == current else outputs[k])
    return bits
