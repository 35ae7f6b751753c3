"""1T1R array wiring: word lines, source lines, bit lines.

Two wiring schemes are modeled.  In the standard array, SL and BL run
column-wise (one pair per column) and WL runs row-wise, so parallel-selected
cells in a column necessarily see the same electrode voltages.  In the
pseudo-crossbar variant each cell's TE keeps its own column SL while BE and
the gate share row-wise BL/WL lines, which allows different voltages on
parallel-connected cells.

Line parasitics and sneak paths are ignored: the access transistor isolates
unselected cells, and every selected cell sees the ideal line voltages.  The
transistor is off at 0 V gate, so a drive only pulses cells on its driven word
lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .device import (
    MemristorCell,
    Pulse,
    SwitchEvent,
    TransistorModel,
    VariabilityParams,
    apply_pulse,
    default_boundary,
    form_by_ramp,
    read_resistance,
    require_finite_result,
    require_int,
    sample_fresh_cell,
)


class TopologyKind(str, Enum):
    STANDARD_1T1R = "standard"
    PSEUDO_CROSSBAR = "pseudo-crossbar"


class TopologyError(ValueError):
    """Requested drive or selection is impossible for the wiring scheme."""


class CellAddress(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class ArrayTopology:
    kind: TopologyKind = TopologyKind.STANDARD_1T1R
    rows: int = 8
    cols: int = 8

    def __post_init__(self) -> None:
        require_int("array rows", self.rows, 1)
        require_int("array cols", self.cols, 1)

    @property
    def bl_count(self) -> int:
        return self.rows if self.kind == TopologyKind.PSEUDO_CROSSBAR else self.cols

    def bl_of(self, addr: CellAddress) -> int:
        """The BL the cell's bottom electrode hangs on: its column in the
        standard array, its row in the pseudo-crossbar."""
        return addr.row if self.kind == TopologyKind.PSEUDO_CROSSBAR else addr.col

    def live_cols(self, row: int, drive: LineDrive) -> list[int]:
        """Ascending columns of ``row`` whose cell sees a nonzero SL or BL
        voltage under ``drive``; every other cell of the row has TE = BE = 0 V."""
        if self.kind == TopologyKind.PSEUDO_CROSSBAR and drive.bl.get(row, 0.0) != 0.0:
            return list(range(self.cols))
        live = {col for col, volts in drive.sl.items() if volts != 0.0}
        if self.kind == TopologyKind.STANDARD_1T1R:
            live.update(col for col, volts in drive.bl.items() if volts != 0.0)
        return sorted(live)


@dataclass(frozen=True)
class LineDrive:
    """Voltages applied on the array lines; unlisted lines are held at 0 V."""

    wl: dict[int, float] = field(default_factory=dict)
    sl: dict[int, float] = field(default_factory=dict)
    bl: dict[int, float] = field(default_factory=dict)
    width: float = 1.0e-6

    def __post_init__(self) -> None:
        for name in ("wl", "sl", "bl"):
            for idx, volts in getattr(self, name).items():
                if not math.isfinite(volts):
                    raise ValueError(f"{name.upper()} {idx} voltage must be finite")
        if not math.isfinite(self.width):
            raise ValueError("width must be finite")
        if self.width <= 0:
            raise ValueError("width must be > 0")


def check_parallel_distinct_voltages(topology: ArrayTopology,
                                     cell_a: CellAddress, cell_b: CellAddress,
                                     pulse_a: Pulse, pulse_b: Pulse) -> str | None:
    """Can these two cells be driven simultaneously with these pulses?

    Returns ``None`` when the request is wirable and a human-readable
    violation description otherwise.  In the standard array, cells sharing a
    column share one SL/BL pair, so distinct electrode voltages cannot be
    wired; the pseudo-crossbar row grouping allows them.
    """
    if cell_a == cell_b:
        raise ValueError("cell_a and cell_b must differ")
    same_te = pulse_a.v_te == pulse_b.v_te
    same_be = pulse_a.v_be == pulse_b.v_be
    if topology.kind == TopologyKind.STANDARD_1T1R:
        if cell_a.col == cell_b.col and not (same_te and same_be):
            return (f"cells {tuple(cell_a)} and {tuple(cell_b)} share the SL/BL pair of "
                    f"column {cell_a.col}; distinct electrode voltages are impossible")
        return None
    # Pseudo-crossbar: SL per column, BL shared per row.
    if cell_a.col == cell_b.col and not same_te:
        return (f"cells {tuple(cell_a)} and {tuple(cell_b)} share SL {cell_a.col}; "
                "distinct TE voltages are impossible")
    if cell_a.row == cell_b.row and not same_be:
        return (f"cells {tuple(cell_a)} and {tuple(cell_b)} share BL {cell_a.row}; "
                "distinct BE voltages are impossible")
    return None


def validate_parallel_selection(topology: ArrayTopology,
                                addrs: Sequence[CellAddress]) -> None:
    """Check that the addressed cells can be read out in parallel.

    Standard array: one shared SL/BL column, one WL per cell.  Pseudo-crossbar:
    one shared BL/WL row.  Raises ``TopologyError`` otherwise.
    """
    if not addrs:
        raise TopologyError("empty selection")
    if len(set(addrs)) != len(addrs):
        raise TopologyError("duplicate addresses in parallel selection")
    if topology.kind == TopologyKind.STANDARD_1T1R:
        cols = {a.col for a in addrs}
        if len(cols) != 1:
            raise TopologyError(
                f"standard array parallel selection requires one column, got {sorted(cols)}")
    else:
        rows = {a.row for a in addrs}
        if len(rows) != 1:
            raise TopologyError(
                f"pseudo-crossbar parallel selection requires one row, got {sorted(rows)}")


class CellArray:
    """A rectangular array of independently sampled 1T1R cells.

    Cell parameters are drawn from per-address random streams derived from the
    array seed, so the population is reproducible and independent of access
    order.  A cell is sampled from its stream when ``cell`` first touches it,
    so an array costs only the cells a run uses; ``cells`` holds the cells
    sampled so far.  Reads binarize at ``boundary``, the geometric mean of the
    medians.  All pulse randomness comes from generators passed by the caller.
    """

    def __init__(self, topology: ArrayTopology, params: VariabilityParams,
                 transistor: TransistorModel | None = None, seed: int = 0):
        self.topology = topology
        self.params = params
        self.transistor = transistor if transistor is not None else TransistorModel()
        self.seed = seed
        self.boundary = default_boundary(params)
        self.cells: dict[CellAddress, MemristorCell] = {}
        self._built: dict[tuple, LineDrive] = {}  # by builder and arguments
        self._resolved: dict[tuple, list] = {}  # (addr, cell, pulse)s by drive content

    def cell(self, addr: CellAddress | tuple[int, int]) -> MemristorCell:
        """The cell at ``addr``, sampled from ``(seed, 0, row, col)`` on first touch."""
        try:
            return self.cells[addr]
        except (KeyError, TypeError):  # not sampled yet, or an unhashable list
            row, col = addr
        # Range membership admits ints and numpy integers, as dict keys do.
        if not (row in range(self.topology.rows) and col in range(self.topology.cols)):
            raise ValueError(f"address {tuple(addr)} out of bounds")
        addr = CellAddress(int(row), int(col))
        if addr not in self.cells:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0, *addr)))
            self.cells[addr] = sample_fresh_cell(self.params, rng,
                                                 cell_id=f"r{addr.row}c{addr.col}")
        return self.cells[addr]

    def form(self, addr: CellAddress | tuple[int, int]) -> None:
        """Form one cell with the voltage-ramp routine (idempotent)."""
        addr = CellAddress(*addr)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1, addr.row, addr.col)))
        form_by_ramp(self.cell(addr), self.transistor, rng)

    def drive(self, build: Callable[..., LineDrive], *args) -> LineDrive:
        """``build(self.topology, *args)``, built once per array and then reused."""
        key = (build, *args)
        drive = self._built.get(key)
        if drive is None:
            drive = self._built[key] = build(self.topology, *args)
        return drive

    def apply_drive(self, drive: LineDrive,
                    rng: np.random.Generator) -> list[tuple[CellAddress, SwitchEvent]]:
        """Pulse the cells the drive can switch, in address order.

        Only rows whose WL voltage turns the transistor on are visited, and on
        them only the live columns (``ArrayTopology.live_cols``): cells with
        both electrodes at 0 V are skipped.  A skipped cell cannot switch and
        its pulse would draw no randomness (gate-off returns first, every
        switching threshold is > 0), so the results and the order of random
        draws are those of pulsing every cell.  The returned events list only
        the pulsed cells.  Each distinct drive is resolved (bounds, live cells,
        validated pulses) once per array, and replayed after that.
        """
        key = (tuple(drive.wl.items()), tuple(drive.sl.items()),
               tuple(drive.bl.items()), drive.width)
        resolved = self._resolved.get(key)
        if resolved is None:
            topology = self.topology
            for name, lines, count in (("WL", drive.wl, topology.rows),
                                       ("BL", drive.bl, topology.bl_count),
                                       ("SL", drive.sl, topology.cols)):
                for idx in lines:
                    if not 0 <= idx < count:
                        raise ValueError(f"{name} index {idx} out of range")
            resolved = []
            for row in sorted(drive.wl):
                v_g = drive.wl[row]
                if not self.transistor.is_on(v_g):
                    continue
                for col in topology.live_cols(row, drive):
                    addr = CellAddress(row, col)
                    v_te = drive.sl.get(col, 0.0)
                    v_be = drive.bl.get(topology.bl_of(addr), 0.0)
                    resolved.append((addr, self.cell(addr),
                                     Pulse(v_te, v_be, v_g, drive.width)))
            self._resolved[key] = resolved
        events = []
        for addr, cell, pulse in resolved:
            try:
                event = apply_pulse(cell, pulse, self.transistor, rng)
            except Exception as exc:
                raise type(exc)(f"at cell {tuple(addr)}: {exc}") from exc
            events.append((addr, event))
        return events

    def read_cell(self, addr: CellAddress | tuple[int, int], v_read: float,
                  v_g: float, rng: np.random.Generator) -> float:
        """The cell's noisy read resistance; a 0 Ohm read (its infinite
        conductance) is a ``ValueError`` naming the medians."""
        r = read_resistance(self.cell(addr), v_read, v_g, self.transistor, rng)
        if r == 0.0:
            require_finite_result("read conductance", math.inf, self.params)
        return r
