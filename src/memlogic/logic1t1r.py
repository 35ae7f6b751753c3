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
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .array import ArrayTopology, CellAddress, CellArray, LineDrive
from .device import (
    STATE_HRS,
    STATE_LRS,
    NotFormedError,
    binarize,
    default_boundary,
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
        try:
            return _TERM_BITS[self, p, q]
        except KeyError:
            raise ValueError(f"inputs must be 0 or 1, got p={p!r}, q={q!r}") from None


#: Deterministic search order used by the synthesizer.
TERM_ORDER = (Term.CONST0, Term.CONST1, Term.P, Term.NOT_P, Term.Q, Term.NOT_Q)

#: Resolved bit of every term on every input pair, keyed (term, p, q).
_TERM_BITS = {
    (term, p, q): bit
    for p, q in itertools.product((0, 1), repeat=2)
    for term, bit in zip(TERM_ORDER, (0, 1, p, 1 - p, q, 1 - q))
}


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
    if case.case_id == 4:
        return 1
    if case.case_id == 5:
        return 0
    return case.i


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


def builtin_mapping(name: str) -> ParamMapping:
    try:
        return BUILTIN_MAPPINGS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown gate {name!r}; built-ins: {sorted(BUILTIN_MAPPINGS)}") from None


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

    Pure case algebra; no device model involved.
    """
    g = mapping.g.resolve(p, q)
    te = mapping.te.resolve(p, q)
    be = mapping.be.resolve(p, q)
    i = mapping.i.resolve(p, q)
    case = classify_case(g, te, be, i)
    return GateEval(g, te, be, i, case.case_id, expected_output(case))


def truth_table_of(mapping: ParamMapping) -> str:
    """Outputs over (p,q) = 00, 01, 10, 11, as a 4-character bit string."""
    return "".join(str(evaluate_mapping(mapping, p, q).output)
                   for p, q in itertools.product((0, 1), repeat=2))


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
    inputs = tuple(itertools.product((0, 1), repeat=2))
    for g, te, be, i in itertools.product(TERM_ORDER, repeat=4):
        candidate = ParamMapping(f"F{bits}", g, te, be, i)
        if all(evaluate_mapping(candidate, p, q).output == int(bits[k])
               for k, (p, q) in enumerate(inputs)):
            return candidate
    raise RuntimeError(f"no mapping realizes {bits}")  # unreachable


def default_gate_library() -> dict[str, ParamMapping]:
    """The five named mappings plus one synthesized mapping per truth table.

    One pass over the search order keeps the first mapping found for each
    truth table, which is the mapping ``synthesize_mapping`` returns for it.
    """
    first: dict[str, tuple[Term, Term, Term, Term]] = {}
    for terms in itertools.product(TERM_ORDER, repeat=4):
        first.setdefault(truth_table_of(ParamMapping("", *terms)), terms)
        if len(first) == 16:
            break
    library = dict(BUILTIN_MAPPINGS)
    for n in range(16):
        bits = format(n, "04b")
        library[f"F{bits}"] = ParamMapping(f"F{bits}", *first[bits])
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
    """Physical operating point for logic and initialization pulses.

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


def logic_pulse_voltages(g: int, te: int, be: int,
                         volts: LogicVoltages = DEFAULT_VOLTAGES) -> tuple[float, float, float]:
    """Map resolved logic bits to physical pulse voltages.

    te=1 raises the TE to the SET amplitude, be=1 raises the BE to the RESET
    amplitude.  A logic-1 gate uses the SET gate voltage when the pulse has
    SET polarity and the (higher) RESET gate voltage otherwise; a logic-0 gate
    grounds the word line.
    """
    v_te = volts.v_te_set if te else 0.0
    v_be = volts.v_be_reset if be else 0.0
    if g:
        v_g = volts.v_g_set if (te - be) > 0 else volts.v_g_reset
    else:
        v_g = 0.0
    return v_te, v_be, v_g


@dataclass(frozen=True)
class GateTrace:
    """Record of one physical gate execution."""

    p: int
    q: int
    g: int
    te: int
    be: int
    i: int
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


def set_drive(topology: ArrayTopology, addr: CellAddress,
              volts: LogicVoltages) -> LineDrive:
    return single_cell_drive(topology, addr, volts.v_te_set, 0.0, volts.v_g_set,
                             volts.width)


def reset_drive(topology: ArrayTopology, addr: CellAddress,
                volts: LogicVoltages) -> LineDrive:
    return single_cell_drive(topology, addr, 0.0, volts.v_be_reset, volts.v_g_reset,
                             volts.width)


def initialize_cell(array: CellArray, addr: CellAddress | tuple[int, int], bit: int,
                    rng: np.random.Generator, volts: LogicVoltages = DEFAULT_VOLTAGES,
                    boundary: float | None = None, max_retries: int = 3,
                    refresh: bool = False, verify: bool = True) -> tuple[float, int]:
    """Bring a cell to the binary state ``bit``, verifying by read.

    Returns ``(verified read resistance, correction pulses applied)``.  With
    ``refresh=True`` a fresh resistance value is always cycled in, even when
    the binary state already matches (used by experiments that need new
    cycle-to-cycle draws every trial).  Raises ``InitFailureError`` after
    ``max_retries`` failed corrections.

    ``verify=False`` fires the write pulses blindly, without the read-back
    loop.  Verified writes retry any draw that straddles the binarization
    boundary, which truncates the state distributions there; stress analyses
    that need the raw tails should disable verification.
    """
    addr = CellAddress(*addr)
    cell = array.cell(addr)
    if not cell.is_formed:
        raise NotFormedError(f"cell {tuple(addr)} is pristine; form it first")
    if boundary is None:
        boundary = default_boundary(array.params)

    def pulse_towards(target: int) -> None:
        if target == 1:
            if cell.state == STATE_LRS:
                # Cycle through HRS so the LRS value is re-drawn.
                array.apply_drive(reset_drive(array.topology, addr, volts), rng)
            array.apply_drive(set_drive(array.topology, addr, volts), rng)
        else:
            # RESET switches an LRS cell and re-draws a resident HRS value.
            array.apply_drive(reset_drive(array.topology, addr, volts), rng)

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
    while binarize(r, boundary) != bit:
        if pulses > max_retries:
            raise InitFailureError(addr, bit, max_retries)
        pulse_towards(bit)
        pulses += 1
        r = array.read_cell(addr, volts.v_read, volts.v_g_read, rng)
    return r, pulses


def execute_gate(array: CellArray, addr: CellAddress | tuple[int, int],
                 mapping: ParamMapping, p: int, q: int, rng: np.random.Generator,
                 volts: LogicVoltages = DEFAULT_VOLTAGES,
                 boundary: float | None = None, max_init_retries: int = 3) -> GateTrace:
    """Run one gate on a formed cell: initialize, pulse, read out.

    The cell is first brought to the mapping's required initial state (skipped
    when it already matches), then the single logic pulse is fired through the
    array lines, and the output is the binarized post-pulse read.
    """
    addr = CellAddress(*addr)
    if boundary is None:
        boundary = default_boundary(array.params)
    ev = evaluate_mapping(mapping, p, q)
    r_init, retries = initialize_cell(array, addr, ev.i, rng, volts=volts,
                                      boundary=boundary, max_retries=max_init_retries)
    v_te, v_be, v_g = logic_pulse_voltages(ev.g, ev.te, ev.be, volts)
    array.apply_drive(single_cell_drive(array.topology, addr, v_te, v_be, v_g,
                                        volts.width), rng)
    r_final = array.read_cell(addr, volts.v_read, volts.v_g_read, rng)
    return GateTrace(
        p=p, q=q, g=ev.g, te=ev.te, be=ev.be, i=ev.i, case_id=ev.case_id,
        init_resistance=r_init, final_resistance=r_final,
        output_bit=binarize(r_final, boundary), expected_bit=ev.output,
        init_retries=retries,
    )


def run_cascade(array: CellArray, addr: CellAddress | tuple[int, int],
                gates: Sequence[tuple[ParamMapping, int, int]],
                rng: np.random.Generator | Sequence[np.random.Generator],
                volts: LogicVoltages = DEFAULT_VOLTAGES,
                boundary: float | None = None,
                max_init_retries: int = 3) -> list[GateTrace]:
    """Execute gates back to back on one cell.

    The final state of each step is reused as the next initial state whenever
    it already matches the required I bit; otherwise the cell is
    re-initialized (the per-step retry counts record this).  ``rng`` may be a
    single generator or one generator per step.  Errors are re-raised with the
    failing step index.
    """
    if isinstance(rng, np.random.Generator):
        streams: Sequence[np.random.Generator] = [rng] * len(gates)
    else:
        streams = list(rng)
        if len(streams) != len(gates):
            raise ValueError("need one random stream per cascade step")
    traces = []
    for step, ((mapping, p, q), stream) in enumerate(zip(gates, streams)):
        try:
            traces.append(execute_gate(array, addr, mapping, p, q, stream,
                                       volts=volts, boundary=boundary,
                                       max_init_retries=max_init_retries))
        except InitFailureError as exc:
            exc.step = step
            raise
        except Exception as exc:
            raise type(exc)(f"cascade step {step}: {exc}") from exc
    return traces
