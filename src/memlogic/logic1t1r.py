"""Non-stateful Boolean logic on a single 1T1R cell.

A gate is defined by assigning each of the four drive parameters -- transistor
gate G, top electrode TE, bottom electrode BE and initial resistive state I --
to a constant or to one of the inputs p, q (possibly inverted).  For a given
input pair the resolved bit pattern (g, te, be, i) lands on one of 16 cases;
only two of them actually switch the cell (SET with g=1, te=1, be=0, i=0 and
RESET with g=1, te=0, be=1, i=1), and the output is the post-pulse binary
state of the memristor.

This module provides the pure case/mapping algebra (no device model), an
exhaustive synthesizer covering all 16 two-input Boolean functions, and the
physical execution path that initializes a cell, fires the logic pulse
through the array wiring and reads the output back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .array import ArrayTopology, CellAddress, CellArray, LineDrive
from .device import (
    STATE_HRS,
    STATE_LRS,
    NotFormedError,
    binarize,
)


class Term(Enum):
    """One slot of a gate mapping: a constant or a (possibly inverted) input."""

    CONST0 = "0"
    CONST1 = "1"
    P = "p"
    NOT_P = "!p"
    Q = "q"
    NOT_Q = "!q"

    def resolve(self, p: int, q: int) -> int:
        if p not in (0, 1) or q not in (0, 1):
            raise ValueError(f"inputs must be 0 or 1, got p={p!r}, q={q!r}")
        return _TERM_VECTORS[self] >> (3 - 2 * int(p) - int(q)) & 1


#: Deterministic search order used by the synthesizer.
TERM_ORDER = (Term.CONST0, Term.CONST1, Term.P, Term.NOT_P, Term.Q, Term.NOT_Q)

#: The input pairs (p, q) in truth-table order: 00, 01, 10, 11.
INPUT_PAIRS = tuple(itertools.product((0, 1), repeat=2))

#: Each term's bits over the input pairs as a 4-bit vector, pair 00 highest.
_TERM_VECTORS = dict(zip(TERM_ORDER, (0b0000, 0b1111, 0b0011, 0b1100, 0b0101, 0b1010)))


@dataclass(frozen=True)
class LogicCase:
    """One row of the 16-entry input-case table."""

    case_id: int
    g: int
    te: int
    be: int
    i: int
    te_minus_be: int
    process: str | None  # "set", "reset" or None
    possible: bool


def _build_case_table() -> tuple[LogicCase, ...]:
    rows = []
    for case_id in range(1, 17):
        bits = 16 - case_id  # case 1 = 1111 down to case 16 = 0000
        g, te, be, i = (bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
        tmb = te - be
        process = "set" if tmb > 0 else "reset" if tmb < 0 else None
        possible = case_id in (4, 5)
        rows.append(LogicCase(case_id, g, te, be, i, tmb, process, possible))
    return tuple(rows)


CASE_TABLE: tuple[LogicCase, ...] = _build_case_table()


def classify_case(g: int, te: int, be: int, i: int) -> LogicCase:
    """Return the case-table row for one resolved (g, te, be, i) pattern."""
    for name, bit in (("g", g), ("te", te), ("be", be), ("i", i)):
        if bit not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {bit!r}")
    return CASE_TABLE[15 - (g * 8 + te * 4 + be * 2 + i)]


def expected_output(case: LogicCase) -> int:
    """Post-pulse binary state: 1 after a SET, 0 after a RESET, otherwise i."""
    return {4: 1, 5: 0}.get(case.case_id, case.i)


@dataclass(frozen=True)
class ParamMapping:
    """Assignment of G, TE, BE and I defining one Boolean function."""

    name: str
    g: Term
    te: Term
    be: Term
    i: Term

    def terms(self) -> tuple[Term, Term, Term, Term]:
        return (self.g, self.te, self.be, self.i)

    @cached_property
    def evaluations(self) -> dict[tuple[int, int], GateEval]:
        """``evaluate_mapping`` of every input pair, computed on first use."""
        table = {}
        for p, q in INPUT_PAIRS:
            g, te, be, i = (term.resolve(p, q) for term in self.terms())
            case = classify_case(g, te, be, i)
            table[p, q] = GateEval(g, te, be, i, case.case_id, expected_output(case))
        return table


BUILTIN_MAPPINGS: dict[str, ParamMapping] = {
    "OR": ParamMapping("OR", Term.CONST1, Term.Q, Term.CONST0, Term.P),
    "AND": ParamMapping("AND", Term.P, Term.Q, Term.CONST0, Term.CONST0),
    "NIMP": ParamMapping("NIMP", Term.CONST1, Term.CONST0, Term.P, Term.Q),
    "XOR": ParamMapping("XOR", Term.Q, Term.NOT_P, Term.P, Term.P),
    "NOTP": ParamMapping("NOTP", Term.CONST0, Term.CONST0, Term.Q, Term.NOT_P),
}


def lookup_gate(library: dict[str, ParamMapping], name: str) -> ParamMapping:
    """The mapping named ``name``, upper-cased when the library has that key."""
    key = name.upper() if name.upper() in library else name
    try:
        return library[key]
    except KeyError:
        raise KeyError(f"unknown gate {name!r}; "
                       f"available: {', '.join(sorted(library))}") from None


def builtin_mapping(name: str) -> ParamMapping:
    return lookup_gate(BUILTIN_MAPPINGS, name)


class GateEval(NamedTuple):
    """Pure evaluation of a mapping on one input pair."""

    g: int
    te: int
    be: int
    i: int
    case_id: int
    output: int


def evaluate_mapping(mapping: ParamMapping, p: int, q: int) -> GateEval:
    """Resolve the mapping on (p, q), classify and return the expected output.

    Pure case algebra; no device model involved.  Each mapping evaluates its
    input pairs once (``ParamMapping.evaluations``).
    """
    try:
        return mapping.evaluations[p, q]
    except KeyError:
        raise ValueError(f"inputs must be 0 or 1, got p={p!r}, q={q!r}") from None


def truth_table_of(mapping: ParamMapping) -> str:
    """Outputs over (p,q) = 00, 01, 10, 11, as a 4-character bit string."""
    return "".join(str(evaluate_mapping(mapping, p, q).output) for p, q in INPUT_PAIRS)


def truth_vector(g: Term, te: Term, be: Term, i: Term) -> int:
    """``truth_table_of`` as a 4-bit vector, in bit operations: the output is
    I, flipped by a case-4 SET (g te !be !i) and a case-5 RESET (g !te be i)."""
    g, te, be, i = (_TERM_VECTORS[t] for t in (g, te, be, i))
    return i ^ (g & te & ~be & ~i) ^ (g & ~te & be & i)


def _first_terms() -> dict[int, tuple[Term, Term, Term, Term]]:
    """The first (G, TE, BE, I) in search order realizing each truth vector."""
    first: dict[int, tuple[Term, Term, Term, Term]] = {}
    for terms in itertools.product(TERM_ORDER, repeat=4):
        first.setdefault(truth_vector(*terms), terms)
        if len(first) == 16:
            return first
    raise RuntimeError("some truth table has no mapping")  # unreachable


def synthesize_mapping(truth_table: str | Sequence[int]) -> ParamMapping:
    """Find a mapping realizing the given two-input truth table.

    The 6^4 assignments are searched exhaustively in a fixed order (constants
    first, then p, !p, q, !q; fields ordered G, TE, BE, I) and the first match
    is returned, so synthesis is deterministic.  Every two-input Boolean
    function is realizable.
    """
    bits = "".join(str(int(b)) for b in truth_table)
    if len(bits) != 4 or any(c not in "01" for c in bits):
        raise ValueError(f"truth table must be 4 bits, got {truth_table!r}")
    return ParamMapping(f"F{bits}", *_first_terms()[int(bits, 2)])


def default_gate_library() -> dict[str, ParamMapping]:
    """The five named mappings plus ``synthesize_mapping``'s mapping for each
    truth table, all found in one pass over the search order."""
    first = _first_terms()
    library = dict(BUILTIN_MAPPINGS)
    for n in range(16):
        bits = format(n, "04b")
        library[f"F{bits}"] = ParamMapping(f"F{bits}", *first[n])
    return library


_TOKEN_TO_TERM = {t.value: t for t in Term}


def save_gate_library(mappings: Iterable[ParamMapping], path: str | Path) -> None:
    """Write mappings as 'name,g,te,be,i' rows with tokens 0,1,p,!p,q,!q."""
    lines = ["name,g,te,be,i"]
    for m in mappings:
        lines.append(",".join([m.name, m.g.value, m.te.value, m.be.value, m.i.value]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_gate_library(path: str | Path) -> dict[str, ParamMapping]:
    mappings: dict[str, ParamMapping] = {}
    lines = Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower() == "name,g,te,be,i":
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        name, *tokens = parts
        try:
            g, te, be, i = (_TOKEN_TO_TERM[tok] for tok in tokens)
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: unknown token {exc.args[0]!r}") from None
        mappings[name] = ParamMapping(name, g, te, be, i)
    return mappings


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
    if g:
        v_g = volts.v_g_set if (te - be) > 0 else volts.v_g_reset
    else:
        v_g = 0.0
    return v_te, v_be, v_g


class GateTrace(NamedTuple):
    """What one physical gate execution measured."""

    case_id: int
    init_resistance: float
    final_resistance: float
    output_bit: int
    expected_bit: int
    init_retries: int


class InitFailureError(RuntimeError):
    """Cell could not be brought to the required initial state."""

    def __init__(self, addr: CellAddress, target: int, retries: int):
        super().__init__(
            f"cell {tuple(addr)} failed to initialize to {target} after {retries} retries")
        self.addr = addr
        self.target = target
        self.retries = retries


def single_cell_drive(topology: ArrayTopology, addr: CellAddress, v_te: float,
                      v_be: float, v_g: float, width: float) -> LineDrive:
    """Drive one cell: its WL, its column SL and the BL its BE hangs on."""
    return LineDrive(wl={addr.row: v_g}, sl={addr.col: v_te},
                     bl={topology.bl_of(addr): v_be}, width=width)


def logic_drive(topology: ArrayTopology, addr: CellAddress, g: int, te: int,
                be: int) -> LineDrive:
    """Drive one cell with the logic pulse of the resolved bits (g, te, be)."""
    return single_cell_drive(topology, addr, *logic_pulse_voltages(g, te, be),
                             DEFAULT_VOLTAGES.width)


#: The writes are logic pulses: SET is case 4's (g, te, be), RESET case 5's.
SET_BITS, RESET_BITS = (1, 1, 0), (1, 0, 1)


def set_drive(topology: ArrayTopology, addr: CellAddress) -> LineDrive:
    return logic_drive(topology, addr, *SET_BITS)


def reset_drive(topology: ArrayTopology, addr: CellAddress) -> LineDrive:
    return logic_drive(topology, addr, *RESET_BITS)


#: Correction pulses a verified write may apply before it gives up.
INIT_RETRIES = 3


def initialize_cell(array: CellArray, addr: CellAddress | tuple[int, int], bit: int,
                    rng: np.random.Generator, refresh: bool = False,
                    verify: bool = True) -> tuple[float, int]:
    """Bring a cell to the binary state ``bit``, verifying by read.

    Returns ``(verified read resistance, correction pulses applied)``.  With
    ``refresh=True`` a fresh resistance value is always cycled in, even when
    the binary state already matches (used by experiments that need new
    cycle-to-cycle draws every trial).  Reads binarize at ``array.boundary``;
    raises ``InitFailureError`` after ``INIT_RETRIES`` failed corrections.

    ``verify=False`` fires the write pulses blindly, without the read-back
    loop.  Verified writes retry any draw that straddles the binarization
    boundary, which truncates the state distributions there; stress analyses
    that need the raw tails should disable verification.
    """
    addr = CellAddress(*addr)
    cell = array.cell(addr)
    if not cell.is_formed:
        raise NotFormedError(f"cell {tuple(addr)} is pristine; form it first")
    volts = DEFAULT_VOLTAGES

    def pulse_towards(target: int) -> None:
        # RESET switches an LRS cell and re-draws a resident HRS value; before
        # a SET, an LRS cell cycles through HRS so its LRS value is re-drawn.
        if target != 1 or cell.state == STATE_LRS:
            array.apply_drive(array.drive(logic_drive, addr, *RESET_BITS), rng)
        if target == 1:
            array.apply_drive(array.drive(logic_drive, addr, *SET_BITS), rng)

    if not verify:
        pulses = 0
        target_state = STATE_LRS if bit == 1 else STATE_HRS
        if refresh or cell.state != target_state:
            pulse_towards(bit)
            pulses += 1
        return cell.resistance, pulses

    pulses = 0
    r = array.read_cell(addr, volts.v_read, volts.v_g_read, rng)
    if refresh:
        pulse_towards(bit)
        pulses += 1
        r = array.read_cell(addr, volts.v_read, volts.v_g_read, rng)
    while binarize(r, array.boundary) != bit:
        if pulses > INIT_RETRIES:
            raise InitFailureError(addr, bit, INIT_RETRIES)
        pulse_towards(bit)
        pulses += 1
        r = array.read_cell(addr, volts.v_read, volts.v_g_read, rng)
    return r, pulses


def execute_gate(array: CellArray, addr: CellAddress | tuple[int, int],
                 mapping: ParamMapping, p: int, q: int,
                 rng: np.random.Generator) -> GateTrace:
    """Run one gate on a formed cell: initialize, pulse, read out.

    The cell is first brought to the mapping's required initial state (skipped
    when it already matches), then the single logic pulse is fired through the
    array lines, and the output is the binarized post-pulse read.
    """
    addr = CellAddress(*addr)
    volts = DEFAULT_VOLTAGES
    ev = evaluate_mapping(mapping, p, q)
    r_init, retries = initialize_cell(array, addr, ev.i, rng)
    array.apply_drive(array.drive(logic_drive, addr, ev.g, ev.te, ev.be), rng)
    r_final = array.read_cell(addr, volts.v_read, volts.v_g_read, rng)
    return GateTrace(ev.case_id, r_init, r_final, binarize(r_final, array.boundary),
                     ev.output, retries)

