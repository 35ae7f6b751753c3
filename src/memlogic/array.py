"""1T1R array wiring: word lines, source lines, bit lines.

Two wiring schemes are modeled.  In the standard array, SL and BL run
column-wise (one pair per column) and WL runs row-wise, so parallel-selected
cells in a column necessarily see the same electrode voltages.  In the
pseudo-crossbar variant each cell's TE keeps its own column SL while BE and
the gate share row-wise BL/WL lines, which allows different voltages on
parallel-connected cells.  The BL a cell's bottom electrode hangs on
(``ArrayTopology.bl_of``) is the only difference between the two: drive
resolution and both parallel checks follow from it.

Line parasitics and sneak paths are ignored: the access transistor isolates
unselected cells, and every selected cell sees the ideal line voltages.  The
transistor is off at 0 V gate, so a drive only pulses cells on its driven word
lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .device import (
    DEFAULT_VOLTAGES,
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

    def require_address(self, addr: CellAddress | tuple[int, int]) -> None:
        """Raise ``ValueError`` unless ``addr`` (row, col) lies in the array."""
        row, col = addr
        # Range membership admits ints and numpy integers, as dict keys do.
        if not (row in range(self.rows) and col in range(self.cols)):
            raise ValueError(f"address {tuple(addr)} out of bounds")


@dataclass(frozen=True)
class LineDrive:
    """Voltages applied on the array lines; unlisted lines are held at 0 V.
    The line maps are read-only copies, so ``key``, the drive's content (its
    WL, SL and BL items and its width), is built once and never goes stale."""

    wl: Mapping[int, float] = field(default_factory=dict)
    sl: Mapping[int, float] = field(default_factory=dict)
    bl: Mapping[int, float] = field(default_factory=dict)
    width: float = 1.0e-6
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("wl", "sl", "bl"):
            lines = MappingProxyType(dict(getattr(self, name)))
            for idx, volts in lines.items():
                if not math.isfinite(volts):
                    raise ValueError(f"{name.upper()} {idx} voltage must be finite")
            object.__setattr__(self, name, lines)
        if not math.isfinite(self.width):
            raise ValueError("width must be finite")
        if self.width <= 0:
            raise ValueError("width must be > 0")
        object.__setattr__(self, "key", (tuple(self.wl.items()), tuple(self.sl.items()),
                                         tuple(self.bl.items()), self.width))


def logic_pulse_voltages(g: int, te: int, be: int) -> tuple[float, float, float]:
    """Map resolved logic bits to physical pulse voltages.

    te=1 raises the TE to the SET amplitude, be=1 raises the BE to the RESET
    amplitude.  A logic-1 gate uses the SET gate voltage when the pulse has
    SET polarity and the (higher) RESET gate voltage otherwise; a logic-0 gate
    grounds the word line.
    """
    volts = DEFAULT_VOLTAGES
    v_te = volts.v_te_set if te else 0.0
    v_be = volts.v_be_reset if be else 0.0
    v_g = (volts.v_g_set if te > be else volts.v_g_reset) if g else 0.0
    return v_te, v_be, v_g


def logic_drive(topology: ArrayTopology, addr: CellAddress, g: int, te: int,
                be: int) -> LineDrive:
    """Drive one cell with the logic pulse of the resolved bits (g, te, be):
    its WL, its column SL and the BL its BE hangs on."""
    v_te, v_be, v_g = logic_pulse_voltages(g, te, be)
    return LineDrive(wl={addr.row: v_g}, sl={addr.col: v_te},
                     bl={topology.bl_of(addr): v_be}, width=DEFAULT_VOLTAGES.width)


#: The writes are logic pulses: SET is case 4's (g, te, be), RESET case 5's.
SET_BITS, RESET_BITS = (1, 1, 0), (1, 0, 1)


class CellDrives(dict):
    """One cell (``cell``) and its logic drives by their bits (g, te, be), each
    built on first use."""

    def __init__(self, topology: ArrayTopology, addr: CellAddress, cell: MemristorCell):
        super().__init__()
        self.topology, self.addr, self.cell = topology, addr, cell

    def __missing__(self, bits: tuple[int, int, int]) -> LineDrive:
        drive = self[bits] = logic_drive(self.topology, self.addr, *bits)
        return drive


def check_parallel_distinct_voltages(topology: ArrayTopology,
                                     cell_a: CellAddress, cell_b: CellAddress,
                                     pulse_a: Pulse, pulse_b: Pulse) -> str | None:
    """Can these two cells be driven simultaneously with these pulses?

    Returns ``None`` when the request is wirable and a human-readable
    violation description otherwise: a shared SL cannot carry different TE
    voltages, nor a shared BL different BE voltages.  In the standard array,
    cells sharing a column share its SL/BL pair; the pseudo-crossbar's row
    BLs let a column's cells take distinct BE voltages and a row's distinct TE
    voltages.
    """
    if cell_a == cell_b:
        raise ValueError("cell_a and cell_b must differ")
    for addr in (cell_a, cell_b):  # an address outside the array is a ValueError
        topology.require_address(addr)
    cells = f"cells {tuple(cell_a)} and {tuple(cell_b)}"
    bl = topology.bl_of(cell_a)
    shared_sl = cell_a.col == cell_b.col
    shared_bl = bl == topology.bl_of(cell_b)
    distinct_te = pulse_a.v_te != pulse_b.v_te
    distinct_be = pulse_a.v_be != pulse_b.v_be
    if shared_sl and shared_bl and (distinct_te or distinct_be):
        return (f"{cells} share the SL/BL pair of column {cell_a.col}; "
                "distinct electrode voltages are impossible")
    if shared_sl and distinct_te:
        return f"{cells} share SL {cell_a.col}; distinct TE voltages are impossible"
    if shared_bl and distinct_be:
        return f"{cells} share BL {bl}; distinct BE voltages are impossible"
    return None


def validate_parallel_selection(topology: ArrayTopology,
                                addrs: Sequence[CellAddress]) -> None:
    """Check that the addressed cells can be read out in parallel: distinct
    cells that all share one BL (a column in the standard array, a row in the
    pseudo-crossbar).  Raises ``TopologyError`` otherwise.
    """
    if not addrs:
        raise TopologyError("empty selection")
    if len(set(addrs)) != len(addrs):
        raise TopologyError("duplicate addresses in parallel selection")
    for addr in addrs:  # an address outside the array is a ValueError
        topology.require_address(addr)
    bls = {topology.bl_of(a) for a in addrs}
    if len(bls) != 1:
        name, line = (("pseudo-crossbar", "row") if topology.kind == TopologyKind.PSEUDO_CROSSBAR
                      else ("standard array", "column"))
        raise TopologyError(f"{name} parallel selection requires one {line}, got {sorted(bls)}")


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
        self._drives: dict[CellAddress, CellDrives] = {}  # by cell
        self._resolved: dict[tuple, list] = {}  # (addr, cell, pulse)s by drive content
        self._selections: dict[tuple, tuple[CellAddress, ...]] = {}  # validated reads

    def cell(self, addr: CellAddress | tuple[int, int]) -> MemristorCell:
        """The cell at ``addr``, sampled from ``(seed, 0, row, col)`` on first touch."""
        try:
            return self.cells[addr]
        except (KeyError, TypeError):  # not sampled yet, or an unhashable list
            self.topology.require_address(addr)
        addr = CellAddress(*map(int, addr))
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

    def cell_drives(self, addr: CellAddress) -> CellDrives:
        """The cell with its drives (its SET and RESET writes among them), kept
        for the array's life; sampled, and checked against the bounds, as ``cell``."""
        drives = self._drives.get(addr)
        if drives is None:
            drives = self._drives[addr] = CellDrives(self.topology, CellAddress(*addr),
                                                     self.cell(addr))
        return drives

    def apply_drive(self, drive: LineDrive,
                    rng: np.random.Generator) -> list[tuple[CellAddress, SwitchEvent]]:
        """Pulse the cells the drive can switch, in address order.

        Only rows whose WL voltage turns the transistor on are visited, and on
        them only the cells with a nonzero voltage on their SL or their BL
        (``ArrayTopology.bl_of``): cells with both electrodes at 0 V are
        skipped.  A skipped cell cannot switch and its pulse would draw no
        randomness (gate-off returns first, every switching threshold is > 0),
        so the results and the order of random draws are those of pulsing
        every cell.  The returned events list only
        the pulsed cells.  Each distinct drive is resolved (bounds, live cells,
        validated pulses) once per array, and replayed after that.
        """
        resolved = self._resolved.get(drive.key)
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
                for col in range(topology.cols):
                    addr = CellAddress(row, col)
                    v_te = drive.sl.get(col, 0.0)
                    v_be = drive.bl.get(topology.bl_of(addr), 0.0)
                    if v_te != 0.0 or v_be != 0.0:
                        resolved.append((addr, self.cell(addr),
                                         Pulse(v_te, v_be, v_g, drive.width)))
            self._resolved[drive.key] = resolved
        events = []
        for addr, cell, pulse in resolved:
            try:
                event = apply_pulse(cell, pulse, self.transistor, rng)
            except Exception as exc:
                raise type(exc)(f"at cell {tuple(addr)}: {exc}") from exc
            events.append((addr, event))
        return events

    def parallel_selection(self, addrs: Sequence) -> tuple[CellAddress, ...]:
        """``addrs`` as addresses the wiring can read in parallel, validated once per
        array (``validate_parallel_selection``); an invalid one raises every time."""
        key = tuple(addrs)
        try:
            return self._selections[key]
        except (KeyError, TypeError):  # not validated yet, or an unhashable address
            selection = tuple(CellAddress(*a) for a in key)
        validate_parallel_selection(self.topology, selection)
        self._selections[selection] = selection
        return selection

    def read_cell(self, addr: CellAddress | tuple[int, int],
                  rng: np.random.Generator) -> float:
        """The cell's noisy read resistance at the operating point
        (``DEFAULT_VOLTAGES``); a 0 Ohm read (its infinite conductance) is a
        ``ValueError`` naming the medians."""
        try:  # a sampled cell in one lookup
            cell = self.cells[addr]
        except (KeyError, TypeError):
            cell = self.cell(addr)
        volts = DEFAULT_VOLTAGES
        r = read_resistance(cell, volts.v_read, volts.v_g_read, self.transistor, rng)
        if r == 0.0:
            require_finite_result("read conductance", math.inf, self.params)
        return r
