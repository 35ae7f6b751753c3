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
exhaustive synthesizer covering all 16 two-input Boolean functions, the
library file reader (``load_gate_library``: ``LIBRARY_COLUMNS`` rows in the
CSV dialect ``csv.writer`` writes, ``memlogic synthesize``'s table) and the
physical execution path that writes a cell's initial state, fires the logic
pulse through the array wiring and reads the output back, all at the one
operating point, the ``device`` constants ``V_TE_SET`` to ``V_READ``.
A gate bucket (one gate, input pair and cell) runs in one call,
``execute_gate_bucket``, with its case, the cell (``CellArray.cell``) and its
logic, SET and RESET resolutions (``CellArray.drive``, the array's one drive
cache) bound once.  It takes the array's one path (``array.replay`` +
``device.read_resistance``): each cycle runs the verified write in its own
loop (``write_bit`` for each write), replays the logic resolution and reads
the bound cell.  One trial is a bucket of one cycle.  It returns one
``TraceRow`` per cycle, the row the ``traces`` table exports.  A cell error
names the cell as the cell names itself (``MemristorCell.cell_id``).
Each run takes two sources of draws: ``rng`` feeds the switching uniforms of
every pulse, ``read_rng`` the noise of every read, so reading a cell more or
less often never shifts its switching draws.  Either is a numpy ``Generator``
or a stream that serves only its one method.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

from .array import RESET_BITS, SET_BITS, CellAddress, CellArray, replay
from .device import (
    STATE_LRS,
    MemristorCell,
    Normals,
    NotFormedError,
    Uniforms,
    binarize,
    read_resistance,
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


#: Deterministic search order used by the synthesizer: ``Term``'s members in order.
TERM_ORDER = tuple(Term)

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
    """The mapping named ``name``, else its upper-cased form: an exact key wins."""
    key = name if name in library else name.upper()
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


@functools.cache
def _first_terms() -> tuple[ParamMapping, ...]:
    """Each truth vector's mapping ``F<bits>`` (frozen, so shared), at its index: the
    first (G, TE, BE, I) in search order realizing it; all 6^4 are searched once."""
    first: dict[int, tuple[int, int, int, int]] = {}
    for vectors in itertools.product(_TERM_VECTORS.values(), repeat=4):
        first.setdefault(_output_vector(*vectors), vectors)
    return tuple(ParamMapping(f"F{out:04b}", *(_TERM_OF_VECTOR[v] for v in first[out]))
                 for out in range(16))


def synthesize_mapping(truth_table: str | Sequence[int]) -> ParamMapping:
    """Find a mapping realizing the given two-input truth table.

    The 6^4 assignments are searched exhaustively in a fixed order (constants
    first, then p, !p, q, !q; fields ordered G, TE, BE, I) and the first match
    is returned, so synthesis is deterministic.  Every two-input Boolean
    function is realizable.  The table is four entries, each equal to 0 or 1
    (a bool or a numpy integer too) or the character "0" or "1"; anything
    else, such as 0.5, is a ``ValueError``.
    """
    if len(truth_table) != 4 or any(b not in (0, 1, "0", "1") for b in truth_table):
        raise ValueError(f"truth table must be 4 bits, got {truth_table!r}")
    bits = "".join(str(int(b)) for b in truth_table)
    return _first_terms()[int(bits, 2)]


def default_gate_library() -> dict[str, ParamMapping]:
    """A new dict, free to update, of the five named mappings plus
    ``synthesize_mapping``'s mapping for each truth table, all found in one
    pass over the search order."""
    return {**BUILTIN_MAPPINGS, **{m.name: m for m in _first_terms()}}


_TOKEN_TO_TERM = {t.value: t for t in Term}
LIBRARY_COLUMNS = ("name", "g", "te", "be", "i")  # a library file's, as ``synthesize`` writes


def load_gate_library(path: str | Path) -> dict[str, ParamMapping]:
    """The mappings of a library file by name; an error names its line."""
    mappings: dict[str, ParamMapping] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower() == ",".join(LIBRARY_COLUMNS):
            continue
        try:
            parts = [part.strip() for part in next(csv.reader([line], skipinitialspace=True))]
            if len(parts) != len(LIBRARY_COLUMNS):
                raise ValueError(f"expected {len(LIBRARY_COLUMNS)} fields, got {len(parts)}")
            name, *tokens = parts
            mappings[name] = ParamMapping(name, *(_TOKEN_TO_TERM[tok] for tok in tokens))
        except (csv.Error, ValueError) as exc:  # a csv.Error: a field past its size limit
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: unknown token {exc.args[0]!r}") from None
    return mappings


class TraceRow(NamedTuple):
    gate: str
    p: int
    q: int
    case_id: int
    cycle: int
    r_init_ohm: float
    r_final_ohm: float
    out_bit: int
    expected_bit: int


class InitFailureError(RuntimeError):
    """Cell could not be brought to the required initial state in 1 + ``INIT_RETRIES`` writes."""

    def __init__(self, cell: MemristorCell, target: int):
        super().__init__(
            f"{cell.cell_id} failed to initialize to {target} after {INIT_RETRIES} retries")
        self.cycle: int | None = None  # the failed cycle of a ``scout_class`` class


#: Writes a verified write may retry: after 1 + INIT_RETRIES = 4 writes whose
#: reads are all wrong, ``write_bit`` raises ``InitFailureError`` at the next.
INIT_RETRIES = 3


def write_bit(cell: MemristorCell, bit: int, reset: list[tuple], set_: list[tuple],
              rng: Uniforms, writes: int) -> int:
    """Write ``bit`` to ``cell`` once more with its pre-bound RESET and SET
    resolutions (``CellArray.drive``), and return ``writes + 1``; ``writes``
    counts the writes made so far in this verified write (0 at its start), and
    past 1 + ``INIT_RETRIES`` it raises ``InitFailureError`` instead.  RESET switches an LRS cell or re-draws an
    HRS value; before a SET an LRS cell cycles through HRS to re-draw its LRS
    value.  The write pulse pair and the retry bound are stated here alone;
    the verified-write loops of ``execute_gate_bucket`` (read first) and
    ``scout_class`` (write first) call it."""
    if writes > INIT_RETRIES:
        raise InitFailureError(cell, bit)
    if bit != 1 or cell.state == STATE_LRS:
        replay(reset, rng)
    if bit == 1:
        replay(set_, rng)
    return writes + 1


def execute_gate_bucket(array: CellArray, addr: CellAddress | tuple[int, int],
                        mapping: ParamMapping, p: int, q: int, cycles: int,
                        rng: Uniforms, read_rng: Normals) -> list[TraceRow]:
    """Run one gate on a formed cell ``cycles`` times: bring the cell to the
    mapping's initial state I with a read-first verified write (read, then
    ``write_bit`` and read again until the read binarizes to I, so a cell
    already in I takes no write), fire the logic pulse, binarize the read.
    Pulses draw from ``rng``, reads from ``read_rng``.  The case, the cell,
    its logic, SET and RESET resolutions and the boundary are bound once, and
    that the cell is formed is checked once (``NotFormedError``), before any
    pulse.  Each cycle gives one row, its gate column ``mapping.name``; a cycle
    whose write gives up (``InitFailureError``, the write count starting at 0
    in every cycle) gives none.
    """
    case = evaluate_mapping(mapping, p, q)
    cell = array.cell(addr)
    if not cell.is_formed:
        raise NotFormedError(f"{cell.cell_id} is pristine; form it first")
    logic, reset, set_ = (array.drive(addr, bits)
                          for bits in ((case.g, case.te, case.be), RESET_BITS, SET_BITS))
    init_bit, case_id, output, boundary = case.i, case.case_id, case.output, array.boundary
    name, new_row, rows = mapping.name, tuple.__new__, []  # ``TraceRow._make``, unchecked
    for cycle in range(cycles):
        r_init, writes = read_resistance(cell, read_rng), 0
        try:
            while binarize(r_init, boundary) != init_bit:
                writes = write_bit(cell, init_bit, reset, set_, rng, writes)
                r_init = read_resistance(cell, read_rng)
        except InitFailureError:
            continue
        replay(logic, rng)
        r_final = read_resistance(cell, read_rng)
        rows.append(new_row(TraceRow, (name, p, q, case_id, cycle, r_init, r_final,
                                       binarize(r_final, boundary), output)))
    return rows
