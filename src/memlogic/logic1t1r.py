"""Non-stateful Boolean logic on a single 1T1R cell.

A gate is defined by assigning each of the four drive parameters -- transistor
gate G, top electrode TE, bottom electrode BE and initial resistive state I --
to a constant or to one of the inputs p, q (possibly inverted).  For a given
input pair the resolved bit pattern (g, te, be, i) lands on one of 16 cases;
only two of them actually switch the cell (SET with g=1, te=1, be=0, i=0 and
RESET with g=1, te=0, be=1, i=1), and the output is the post-pulse binary
state of the memristor.  ``_output_vector`` states this switching rule once;
the case table (``LogicCase.output``), every mapping's truth table and the
synthesizer are derived from it.

This module provides the pure case/mapping algebra (no device model), an
exhaustive synthesizer covering all 16 two-input Boolean functions, and the
physical execution path that initializes a cell, fires the logic pulse
through the array wiring and reads the output back, all at the operating
point ``DEFAULT_VOLTAGES`` (defined in ``device`` and re-exported here).
A gate bucket (one gate, input pair and cell) runs in one call,
``execute_gate_bucket``, with its case and logic drive (one of the cell's
drives, ``CellArray.cell_drives``) resolved once; ``execute_gate`` is its
one-trial case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .array import RESET_BITS, SET_BITS, CellAddress, CellArray
from .array import logic_drive, logic_pulse_voltages  # noqa: F401  re-exported
from .device import (
    DEFAULT_VOLTAGES,  # noqa: F401  re-exported with the operating point
    STATE_HRS,
    STATE_LRS,
    LogicVoltages,  # noqa: F401
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
_TERM_OF_VECTOR = {vector: term for term, vector in _TERM_VECTORS.items()}


def _output_vector(g: int, te: int, be: int, i: int) -> int:
    """The switching rule, bitwise over bits or truth vectors: the output is I,
    flipped by a case-4 SET (g te !be !i) and a case-5 RESET (g !te be i)."""
    return i ^ (g & te & ~be & ~i) ^ (g & ~te & be & i)


@dataclass(frozen=True)
class LogicCase:
    """One row of the 16-entry input-case table: a resolved (g, te, be, i)
    pattern and the post-pulse binary state ``output`` it leaves."""

    case_id: int
    g: int
    te: int
    be: int
    i: int
    te_minus_be: int
    process: str | None  # "set", "reset" or None
    output: int

    @property
    def possible(self) -> bool:
        """Whether the pulse switches the cell."""
        return self.output != self.i


def _build_case_table() -> tuple[LogicCase, ...]:
    rows = []
    for case_id in range(1, 17):
        bits = 16 - case_id  # case 1 = 1111 down to case 16 = 0000
        g, te, be, i = (bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
        tmb = te - be
        process = "set" if tmb > 0 else "reset" if tmb < 0 else None
        rows.append(LogicCase(case_id, g, te, be, i, tmb, process,
                              _output_vector(g, te, be, i)))
    return tuple(rows)


CASE_TABLE: tuple[LogicCase, ...] = _build_case_table()


def classify_case(g: int, te: int, be: int, i: int) -> LogicCase:
    """Return the case-table row for one resolved (g, te, be, i) pattern."""
    for name, bit in (("g", g), ("te", te), ("be", be), ("i", i)):
        if bit not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {bit!r}")
    return CASE_TABLE[15 - (g * 8 + te * 4 + be * 2 + i)]


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


def evaluate_mapping(mapping: ParamMapping, p: int, q: int) -> LogicCase:
    """Resolve the mapping on (p, q) and return its case, expected output included.

    Pure case algebra; no device model involved.
    """
    return classify_case(*(term.resolve(p, q) for term in mapping.terms()))


def truth_table_of(mapping: ParamMapping) -> str:
    """Outputs over (p,q) = 00, 01, 10, 11, as a 4-character bit string."""
    return "".join(str(evaluate_mapping(mapping, p, q).output) for p, q in INPUT_PAIRS)


def truth_vector(g: Term, te: Term, be: Term, i: Term) -> int:
    """``truth_table_of`` as a 4-bit vector: ``_output_vector`` of the terms'."""
    return _output_vector(*(_TERM_VECTORS[t] for t in (g, te, be, i)))


def _first_terms() -> dict[int, tuple[Term, Term, Term, Term]]:
    """The first (G, TE, BE, I) in search order realizing each truth vector."""
    first: dict[int, tuple[int, int, int, int]] = {}
    for vectors in itertools.product(_TERM_VECTORS.values(), repeat=4):
        first.setdefault(_output_vector(*vectors), vectors)
        if len(first) == 16:
            return {out: tuple(_TERM_OF_VECTOR[v] for v in vectors)
                    for out, vectors in first.items()}
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
    if not isinstance(addr, CellAddress):
        addr = CellAddress(*addr)
    drives = array.cell_drives(addr)
    cell = drives.cell
    if not cell.is_formed:
        raise NotFormedError(f"cell {tuple(addr)} is pristine; form it first")
    state = STATE_LRS if bit == 1 else STATE_HRS
    pulses = 0
    r = array.read_cell(addr, rng) if verify else cell.resistance
    # Write while a refresh is owed or the state is wrong (as read back, or as set).
    while (refresh and not pulses) or (binarize(r, array.boundary) != bit if verify
                                       else not pulses and cell.state != state):
        if pulses > INIT_RETRIES:
            raise InitFailureError(addr, bit, INIT_RETRIES)
        # RESET switches an LRS cell or re-draws an HRS value; before a SET an
        # LRS cell cycles through HRS to re-draw its LRS value.
        if bit != 1 or cell.state == STATE_LRS:
            array.apply_drive(drives[RESET_BITS], rng)
        if bit == 1:
            array.apply_drive(drives[SET_BITS], rng)
        pulses += 1
        r = array.read_cell(addr, rng) if verify else cell.resistance
    return r, pulses


def execute_gate_bucket(array: CellArray, addr: CellAddress | tuple[int, int],
                        mapping: ParamMapping, p: int, q: int,
                        rngs: Iterable[np.random.Generator],
                        ) -> list[GateTrace | InitFailureError]:
    """``execute_gate`` once per generator of ``rngs``, each used before the next
    is drawn, with the case and the logic drive resolved once.  A trial whose
    initialization fails gives its ``InitFailureError`` in place of a trace.
    """
    addr, case = CellAddress(*addr), evaluate_mapping(mapping, p, q)
    drive = array.cell_drives(addr)[case.g, case.te, case.be]
    traces = []
    for rng in rngs:
        try:
            r_init, retries = initialize_cell(array, addr, case.i, rng)
        except InitFailureError as exc:
            traces.append(exc)
            continue
        array.apply_drive(drive, rng)
        r_final = array.read_cell(addr, rng)
        traces.append(GateTrace(case.case_id, r_init, r_final,
                                binarize(r_final, array.boundary), case.output, retries))
    return traces


def execute_gate(array: CellArray, addr: CellAddress | tuple[int, int],
                 mapping: ParamMapping, p: int, q: int,
                 rng: np.random.Generator) -> GateTrace:
    """Run one gate on a formed cell: initialize, pulse, read out.

    The cell is first brought to the mapping's required initial state (skipped
    when it already matches), then the single logic pulse is fired through the
    array lines, and the output is the binarized post-pulse read.  This is the
    one-trial case of ``execute_gate_bucket``.
    """
    [trace] = execute_gate_bucket(array, addr, mapping, p, q, (rng,))
    if isinstance(trace, InitFailureError):
        raise trace
    return trace
