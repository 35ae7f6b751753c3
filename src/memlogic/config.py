"""Flat-key configuration files.

The config format is one ``section.field = value`` assignment per line, with
``#`` comments.  Field names mirror the dataclass fields of the module they
configure, e.g.::

    device.hrs_sigma_c2c = 0.32
    device.r_on = 0.0
    array.kind = standard
    array.rows = 8
    experiment.seed = 7
    experiment.gates = OR,AND,NIMP,XOR
    experiment.output_dir = out

Each model section (``_MODELS``) builds its class from its keys, and the
experiment section builds ``ExperimentConfig`` around those models; a key that
names no field of its class is rejected.  A setting's accepted values are
stated once, by the type that holds it: ``ArrayTopology`` takes ``array.kind``
as a ``TopologyKind`` value (``standard`` or ``pseudo-crossbar``, in any case).
The command line sets its flags as these keys too (``cli.main``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .analysis import EXPORT_FORMATS, ExperimentConfig
from .array import ArrayTopology
from .device import VariabilityParams


class ConfigError(ValueError):
    """Malformed configuration file (message carries path and line/key)."""


_LIST_KEYS = {"experiment.gates", "experiment.scouting_ops"}

#: Each model section: the class its keys build and the ``ExperimentConfig``
#: field that holds it.
_MODELS = {
    "device": (VariabilityParams, "device"),
    "array": (ArrayTopology, "topology"),
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


def build_config(raw: dict[str, object], source: str = "<config>") -> AppConfig:
    """Assemble an ``AppConfig`` from a dotted-key dict, validating every key."""
    sections: dict[str, dict[str, object]] = {name: {} for name in (*_MODELS, "experiment")}
    unknown = sorted(key for key in raw if key.partition(".")[0] not in sections)
    if unknown:
        raise ConfigError(f"{source}: unknown section in keys {unknown}")
    for key, value in raw.items():
        section, _, name = key.partition(".")
        sections[section][name] = value

    # Each section is checked for unknown keys, then built in one step, so
    # only the final combination is validated, whatever the line order.
    models = {}
    for section, (cls, field_name) in _MODELS.items():
        keys = sections[section]
        for name in keys:
            if name not in {f.name for f in fields(cls)}:
                raise ConfigError(f"{source}: unknown key {section}.{name}")
        models[field_name] = cls(**keys)

    experiment_keys = sections["experiment"]
    output_dir = str(experiment_keys.pop("output_dir", AppConfig.output_dir))
    fmt = str(experiment_keys.pop("format", AppConfig.format))
    if fmt not in EXPORT_FORMATS:
        raise ConfigError(f"{source}: experiment.format must be {' or '.join(EXPORT_FORMATS)}")
    # The nested models are set through their own sections.
    for name in experiment_keys:
        if name in models or name not in {f.name for f in fields(ExperimentConfig)}:
            raise ConfigError(f"{source}: unknown key experiment.{name}")
    experiment = ExperimentConfig(**models, **experiment_keys)
    return AppConfig(experiment=experiment, output_dir=output_dir, format=fmt)


def load_config(path: str | Path) -> AppConfig:
    return build_config(parse_config_file(path), source=str(path))
