"""Flat-key configuration files.

The config format is one ``section.field = value`` assignment per line, with
``#`` comments.  Field names mirror the dataclass fields of the module they
configure, e.g.::

    device.hrs_sigma_c2c = 0.32
    transistor.r_on = 0.0
    array.kind = standard
    array.rows = 8
    experiment.seed = 7
    experiment.gates = OR,AND,NIMP,XOR
    experiment.output_dir = out
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .analysis import ExperimentConfig
from .array import ArrayTopology, TopologyKind
from .device import TransistorModel, VariabilityParams


class ConfigError(ValueError):
    """Malformed configuration file (message carries path and line/key)."""


_LIST_KEYS = {"experiment.gates", "experiment.scouting_ops"}

_TOPOLOGY_KINDS = {
    "standard": TopologyKind.STANDARD_1T1R,
    "standard1t1r": TopologyKind.STANDARD_1T1R,
    "pseudo-crossbar": TopologyKind.PSEUDO_CROSSBAR,
    "pseudo_crossbar": TopologyKind.PSEUDO_CROSSBAR,
}


@dataclass
class AppConfig:
    """Experiment configuration plus output destination."""

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output_dir: str = "memlogic_out"
    format: str = "csv"


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read a flat-key config file into a ``{dotted_key: value}`` dict."""
    path = Path(path)
    raw: dict[str, object] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigError(f"{path}:{lineno}: key must look like 'section.field'")
        if key in _LIST_KEYS:
            raw[key] = tuple(part.strip() for part in value.split(",") if part.strip())
        else:
            raw[key] = _parse_scalar(value)
    return raw


def _pop_section(raw: dict[str, object], section: str) -> dict[str, object]:
    out = {}
    for key in list(raw):
        sec, _, name = key.partition(".")
        if sec == section:
            out[name] = raw.pop(key)
    return out


def _check_keys(source: str, section: str, keys: dict[str, object], cls: type,
                exclude: tuple[str, ...] = ()) -> None:
    valid = {f.name for f in fields(cls) if f.name not in exclude}
    for name in keys:
        if name not in valid:
            raise ConfigError(f"{source}: unknown key {section}.{name}")


def build_config(raw: dict[str, object], source: str = "<config>") -> AppConfig:
    """Assemble an ``AppConfig`` from a dotted-key dict, validating every key."""
    raw = dict(raw)
    device_keys = _pop_section(raw, "device")
    transistor_keys = _pop_section(raw, "transistor")
    array_keys = _pop_section(raw, "array")
    experiment_keys = _pop_section(raw, "experiment")
    if raw:
        raise ConfigError(f"{source}: unknown section in keys {sorted(raw)}")

    # Each section is checked for unknown keys, then applied in one step, so
    # only the final combination is validated, whatever the line order.
    _check_keys(source, "device", device_keys, VariabilityParams)
    params = VariabilityParams(**device_keys)
    _check_keys(source, "transistor", transistor_keys, TransistorModel)
    transistor = TransistorModel(**transistor_keys)

    _check_keys(source, "array", array_keys, ArrayTopology)
    if "kind" in array_keys:
        kind_name = str(array_keys["kind"]).lower()
        if kind_name not in _TOPOLOGY_KINDS:
            raise ConfigError(f"{source}: unknown array.kind {kind_name!r}; "
                              f"one of {sorted(set(_TOPOLOGY_KINDS))}")
        array_keys["kind"] = _TOPOLOGY_KINDS[kind_name]
    topology = ArrayTopology(**array_keys)

    output_dir = str(experiment_keys.pop("output_dir", AppConfig.output_dir))
    fmt = str(experiment_keys.pop("format", AppConfig.format))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{source}: experiment.format must be csv or json")
    # The nested models are set through their own sections.
    _check_keys(source, "experiment", experiment_keys, ExperimentConfig,
                exclude=("device", "transistor", "topology"))
    experiment = ExperimentConfig(device=params, transistor=transistor,
                                  topology=topology, **experiment_keys)
    return AppConfig(experiment=experiment, output_dir=output_dir, format=fmt)


def load_config(path: str | Path) -> AppConfig:
    return build_config(parse_config_file(path), source=str(path))
