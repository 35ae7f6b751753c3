"""Which memlogic calls the traced run wraps, and the per-layer metrics.

Layers are named after memlogic's modules.  A traced function that a later
version of the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from spans import Tracer

# (span name, module, function) for module-level functions.
FUNCTIONS = (
    ("device.apply_pulse", "device", "apply_pulse"),
    ("device.read_resistance", "device", "read_resistance"),
    ("device.sample_fresh_cell", "device", "sample_fresh_cell"),
    ("array.resolve_drives", "array", "resolve_drives"),
    ("logic1t1r.default_gate_library", "logic1t1r", "default_gate_library"),
    ("logic1t1r.execute_gate", "logic1t1r", "execute_gate"),
    ("logic1t1r.initialize_cell", "logic1t1r", "initialize_cell"),
    ("scouting.write_inputs", "scouting", "write_inputs"),
    ("scouting.scout_current", "scouting", "scout_current"),
    ("scouting.place_references", "scouting", "place_references"),
    ("scouting.extend_n_inputs", "scouting", "extend_n_inputs"),
    ("analysis.stream_setup", "analysis", "_stream"),
    ("analysis.run_1t1r_experiment", "analysis", "run_1t1r_experiment"),
    ("analysis.sample_scouting_currents", "analysis", "sample_scouting_currents"),
    ("analysis.run_scouting_experiment", "analysis", "run_scouting_experiment"),
    ("analysis.overlap_collides", "analysis", "overlap_collides"),
    ("analysis.export_table", "analysis", "export_table"),
    ("cli.main", "cli", "main"),
)

# (span name, class attribute path in memlogic.array, method).
METHODS = (
    ("array.CellArray", "CellArray", "__init__"),  # one call per array build
    ("array.apply_drive", "CellArray", "apply_drive"),
    ("array.read_cell", "CellArray", "read_cell"),
)


def _count_switch(tracer: Tracer, event) -> None:
    if event.name != "NONE":
        tracer.count("switches")


def _count_init_pulses(tracer: Tracer, result) -> None:
    tracer.count("init_pulses", result[1])


def _count_export_bytes(tracer: Tracer, path) -> None:
    tracer.count("export_bytes", Path(path).stat().st_size)


HOOKS = {
    "device.apply_pulse": _count_switch,
    "logic1t1r.initialize_cell": _count_init_pulses,
    "analysis.export_table": _count_export_bytes,
}


def install(tracer: Tracer) -> None:
    for name, module_name, attr in FUNCTIONS:
        module = importlib.import_module(f"memlogic.{module_name}")
        fn = getattr(module, attr, None)
        if fn is not None:
            tracer.install_function(name, fn, on_result=HOOKS.get(name))
    array = importlib.import_module("memlogic.array")
    for name, cls_name, attr in METHODS:
        cls = getattr(array, cls_name, None)
        if cls is not None and attr in cls.__dict__:
            tracer.install_method(name, cls, attr, on_result=HOOKS.get(name))


COUNT, SECONDS, RATIO = "count", "s", "ratio"

CALLS_AND_SELF = (
    "device.apply_pulse", "device.read_resistance", "device.sample_fresh_cell",
    "array.CellArray", "array.resolve_drives", "array.apply_drive", "array.read_cell",
    "logic1t1r.default_gate_library", "logic1t1r.execute_gate",
    "logic1t1r.initialize_cell",
    "scouting.write_inputs", "scouting.scout_current", "scouting.extend_n_inputs",
    "analysis.stream_setup", "analysis.overlap_collides", "analysis.export_table",
)
SELF_ONLY = (
    "scouting.place_references", "analysis.run_1t1r_experiment",
    "analysis.sample_scouting_currents", "analysis.run_scouting_experiment",
    "cli.main",
)
REFERENCE_KEYS = ("i_read", "i_or", "i_and")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = COUNT
        units[f"{name}.self_s"] = SECONDS
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = SECONDS
    units.update({
        "device.apply_pulse.switch_ratio": RATIO,
        "array.pulses_per_drive": "pulses/drive",
        "logic1t1r.initialize_cell.pulses_per_call": "pulses/call",
        "analysis.export_table.bytes": "bytes",
        "analysis.find_overlap_sigma.no_overlap": COUNT,
        "analysis.report.failures": COUNT,
        "trace.overhead_s": SECONDS,
    })
    for key in REFERENCE_KEYS:
        units[f"scouting.refs.{key}.rel_err"] = RATIO
    return units


METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(tracer: Tracer, op_id: int, info: dict) -> dict[str, float]:
    """Per-layer values of one traced operation (``trace.overhead_s`` aside).

    ``info`` is the operation's check info: simulated failures, placed
    references for ``scouting``, the searched sigmas for ``overlap``.
    """
    from memlogic import PAPER_REFS

    totals = tracer.totals(op_id)
    counters = tracer.counters[op_id]
    out: dict[str, float] = {}

    def calls(name: str) -> int:
        return int(totals.get(name, (0, 0.0, 0.0))[0])

    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls(name)
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = totals.get(name, (0, 0.0, 0.0))[2]
    out["device.apply_pulse.switch_ratio"] = _ratio(
        counters.get("switches", 0), calls("device.apply_pulse"))
    out["array.pulses_per_drive"] = _ratio(
        tracer.calls_under(op_id, "array.apply_drive", "device.apply_pulse"),
        calls("array.apply_drive"))
    out["logic1t1r.initialize_cell.pulses_per_call"] = _ratio(
        counters.get("init_pulses", 0), calls("logic1t1r.initialize_cell"))
    out["analysis.export_table.bytes"] = counters.get("export_bytes", 0)
    sigmas = info.get("sigmas", {})
    out["analysis.find_overlap_sigma.no_overlap"] = sum(
        1 for s in sigmas.values() if s is None)
    out["analysis.report.failures"] = info.get("failures", 0)
    # Accuracy beside speed: placed references against the published ones.
    # Only the scouting workload places references; elsewhere these read 0.
    refs = info.get("refs")
    for key in REFERENCE_KEYS:
        paper = getattr(PAPER_REFS, key)
        out[f"scouting.refs.{key}.rel_err"] = (
            abs(refs[key] - paper) / paper if refs else 0.0)
    return out
