"""1T1R array wiring: word lines, source lines, bit lines.

Two wiring schemes are modeled.  In the standard array, SL and BL run
column-wise (one pair per column) and WL runs row-wise, so parallel-selected
cells in a column necessarily see the same electrode voltages.  In the
pseudo-crossbar variant each cell's TE keeps its own column SL while BE and
the gate share row-wise BL/WL lines, so the parallel cells of a row can take
different TE voltages at one gate voltage.  The BL a cell's bottom electrode
hangs on (``ArrayTopology.bl_of``) is the only difference between the two:
drive resolution and the parallel check follow from it.

Line parasitics and sneak paths are ignored: the access transistor isolates
unselected cells, and every selected cell sees the ideal line voltages.  A
drive is one cell's logic pulse, the voltages of its resolved bits (g, te, be)
on the cell's WL, its column SL and the BL its BE hangs on; there is no
general line drive.  The transistor is off at 0 V gate (below
``device.V_G_ON``), so a drive only pulses cells of its cell's row.  There is
one drive cache (``CellArray.drive``: a drive by its address and bits, each
resolved by ``resolve_drives`` once) and one path (``replay`` +
``read_resistance``): ``replay`` pulses a resolution's cells and returns
nothing (no caller reads the switching events), ``device.read_resistance``
reads a cell.  The array is the one place an address enters: ``CellArray``
checks it and turns it into a key (``ArrayTopology.require_address``), and
each cell carries its one name, ``cell (row, col)``, which every cell error
states.  ``STREAM_KINDS`` keys every seeded stream of a run.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .device import (
    V_BE_RESET,
    V_G_ON,
    V_G_RESET,
    V_G_SET,
    V_TE_SET,
    MemristorCell,
    Pulse,
    Uniforms,
    VariabilityParams,
    apply_pulse,
    default_boundary,
    form_by_ramp,
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
        kinds = [k.value for k in TopologyKind]
        if not isinstance(self.kind, str) or self.kind.lower() not in kinds:
            raise ValueError(f"array kind must be one of {kinds}, in any case, "
                             f"got {self.kind!r}")
        object.__setattr__(self, "kind", TopologyKind(self.kind.lower()))
        require_int("array rows", self.rows, 1)
        require_int("array cols", self.cols, 1)

    def bl_of(self, addr: CellAddress | tuple[int, int]) -> int:
        """The BL the cell's bottom electrode hangs on: its column in the
        standard array, its row in the pseudo-crossbar."""
        row, col = addr
        return row if self.kind == TopologyKind.PSEUDO_CROSSBAR else col

    def require_address(self, addr: CellAddress | tuple[int, int]) -> CellAddress:
        """``addr`` as its cell's key (``require_pair``); a ``ValueError`` outside the array."""
        row, col = key = require_pair(addr)
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"address {tuple(addr)} out of bounds")
        return key


def require_pair(addr: CellAddress | tuple[int, int]) -> CellAddress:
    """``addr`` as a ``CellAddress`` of ints; a ``ValueError`` unless two integers (not bools)."""
    if not hasattr(addr, "__len__") or len(addr) != 2 or any(type(i) is not int and (
            isinstance(i, bool) or not isinstance(i, numbers.Integral)) for i in addr):
        raise ValueError(f"address {tuple(addr) if hasattr(addr, '__len__') else addr} "
                         "must be two integers")
    row, col = addr
    return CellAddress(int(row), int(col))


def logic_pulse_voltages(g: int, te: int, be: int) -> tuple[float, float, float]:
    """Map resolved logic bits to physical pulse voltages.

    te=1 raises the TE to the SET amplitude, be=1 raises the BE to the RESET
    amplitude.  A logic-1 gate uses the SET gate voltage when the pulse has
    SET polarity and the (higher) RESET gate voltage otherwise; a logic-0 gate
    grounds the word line.
    """
    v_te = V_TE_SET if te else 0.0
    v_be = V_BE_RESET if be else 0.0
    v_g = (V_G_SET if te > be else V_G_RESET) if g else 0.0
    return v_te, v_be, v_g


#: The writes are logic pulses: SET is case 4's (g, te, be), RESET case 5's.
SET_BITS, RESET_BITS = (1, 1, 0), (1, 0, 1)


def require_bits(bits: Sequence[int]) -> tuple[int, int, int]:
    """``bits`` as the tuple that keys their drive; a ``ValueError`` unless a tuple or list of
    three values (g, te, be), each 0 or 1: ``classify_case``'s rule for a bit."""
    if not (isinstance(bits, (tuple, list)) and len(bits) == 3 and all(b in (0, 1) for b in bits)):
        raise ValueError(f"bits {bits!r} must be three values (g, te, be), each 0 or 1")
    return tuple(bits)


def resolve_drives(array: CellArray, addr: CellAddress | tuple[int, int],
                   bits: Sequence[int]) -> list[tuple[MemristorCell, Pulse]]:
    """The (cell, pulse) of each cell that the logic pulse of the bits
    (g, te, be) on the cell at ``addr`` can switch, in address order; an address
    outside the array or bits ``require_bits`` rejects is a ``ValueError``.  The
    pulse drives the cell's WL, its column SL and the BL its BE hangs on
    (``bl_of``), so listed are the cells of its row, if the gate is on (at least
    ``V_G_ON``), with a nonzero SL or BL.  Any other cell cannot switch and its
    pulse would draw no randomness (gate-off returns first, every switching
    threshold is > 0), so pulsing the listed cells equals pulsing every cell."""
    topology = array.topology
    row, col = addr = topology.require_address(addr)
    v_te, v_be, v_g = logic_pulse_voltages(*require_bits(bits))
    if v_g < V_G_ON:
        return []
    bl, resolved = topology.bl_of(addr), []
    for other in range(topology.cols):
        te = v_te if other == col else 0.0
        be = v_be if topology.bl_of((row, other)) == bl else 0.0
        if te or be:
            resolved.append((array.cell((row, other)), Pulse(te, be, v_g)))
    return resolved


def replay(resolved: list[tuple[MemristorCell, Pulse]], rng: Uniforms) -> None:
    """Pulse each (cell, pulse) of a ``resolve_drives`` list in order."""
    for cell, pulse in resolved:
        apply_pulse(cell, pulse, rng)


def check_parallel(topology: ArrayTopology,
                   addrs: Sequence[CellAddress | tuple[int, int]],
                   pulses: Sequence[Pulse] | None = None) -> None:
    """Check that the addressed cells, distinct and in the array, can be
    selected at once; raises ``TopologyError`` if not (a ``ValueError`` for
    an address outside the array or a pulse count that does not match).
    Each cell hangs on its column's SL (TE), the BL its BE hangs on
    (``bl_of``) and its row's WL (gate).  With ``pulses``, one per address,
    the cells are pulsed at once, so each line they share carries one
    voltage.  Without, they are read in parallel, so they share the one
    sensed BL (a column in the standard array, a row in the pseudo-crossbar).
    """
    if not addrs:
        raise TopologyError("empty selection")
    if len(set(map(require_pair, addrs))) != len(addrs):
        raise TopologyError("duplicate addresses in parallel selection")
    for addr in addrs:
        topology.require_address(addr)
    if pulses is None:
        bls = {topology.bl_of(a) for a in addrs}
        if len(bls) != 1:
            name, line = (("pseudo-crossbar", "row") if topology.kind == TopologyKind.PSEUDO_CROSSBAR
                          else ("standard array", "column"))
            raise TopologyError(f"{name} parallel selection requires one {line}, got {sorted(bls)}")
        return
    if len(pulses) != len(addrs):
        raise ValueError("need exactly one pulse per address")
    carried = {}  # by line: the first cell on it and its voltage
    for addr, pulse in zip(addrs, pulses):
        row, col = addr
        for line, volts in ((f"SL {col}", pulse.v_te), (f"BL {topology.bl_of(addr)}", pulse.v_be),
                            (f"WL {row}", pulse.v_g)):
            first, first_volts = carried.setdefault(line, (addr, volts))
            if volts != first_volts:
                raise TopologyError(f"cells {tuple(first)} and {tuple(addr)} share {line}, "
                                    f"which cannot carry {first_volts} V and {volts} V at once")


#: The word after the seed in the key of every seeded stream (its ``SeedSequence``'s entropy):
#: a cell's sample and forming ramp, ``(seed, kind, row, col)``, then each bucket type's.
STREAM_KINDS = {"sample": 0, "form": 1, "gate": 10, "scouting": 20, "cell": 32}


class CellArray:
    """A rectangular array of independently sampled 1T1R cells.

    Cell parameters are drawn from per-address random streams derived from the
    array seed, so the population is reproducible and independent of access
    order.  A cell is sampled from its stream when ``cell`` first touches it,
    so an array costs only the cells a run uses; ``cells`` holds the cells
    sampled so far.  Reads binarize at ``boundary``, the geometric mean of the
    medians.  All pulse randomness comes from generators passed by the caller.
    """

    def __init__(self, topology: ArrayTopology, params: VariabilityParams, seed: int = 0):
        self.topology = topology
        self.params = params
        self.seed = seed
        self.boundary = default_boundary(params)
        self.cells: dict[CellAddress, MemristorCell] = {}
        self._drives: dict[tuple[CellAddress, tuple[int, int, int]], list] = {}

    def cell(self, addr: CellAddress | tuple[int, int]) -> MemristorCell:
        """The cell at ``addr``, named ``cell (row, col)`` and sampled from its
        ``"sample"`` stream on first touch; the address is checked and keyed
        first (``require_address``)."""
        addr = self.topology.require_address(addr)
        if addr not in self.cells:
            rng = np.random.default_rng((self.seed, STREAM_KINDS["sample"], *addr))
            self.cells[addr] = sample_fresh_cell(self.params, rng, cell_id=f"cell {tuple(addr)}")
        return self.cells[addr]

    def form(self, addr: CellAddress | tuple[int, int]) -> None:
        """Form one cell with the voltage-ramp routine (idempotent)."""
        cell = self.cell(addr := self.topology.require_address(addr))
        if not cell.is_formed:
            form_by_ramp(cell, np.random.default_rng((self.seed, STREAM_KINDS["form"], *addr)))

    def drive(self, addr: CellAddress | tuple[int, int],
              bits: Sequence[int]) -> list[tuple[MemristorCell, Pulse]]:
        """The ``resolve_drives`` list of the logic pulse of ``bits`` (g, te,
        be) on the cell at ``addr``, for ``replay``: the one drive cache,
        resolved on first use and kept for the array's life; an address is
        checked and keyed as in ``cell``, the bits by ``require_bits``."""
        key = (self.topology.require_address(addr), require_bits(bits))
        if key not in self._drives:
            self._drives[key] = resolve_drives(self, *key)
        return self._drives[key]
