"""Run configuration: strict YAML parsing with unknown-key rejection."""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, get_type_hints

import yaml

from .checks import InvariantConfig
from .fields import Grid
from .initial import DataSpec
from .microscope import MicroscopeConfig
from .solver import SolverConfig


# the documented default time-step policy, for a solver section that sets neither dt nor cfl
DEFAULT_CFL = 0.4


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending path."""


@dataclass
class OutputConfig:
    directory: str = "out"


@dataclass
class RunConfig:
    grid: Grid = field(default_factory=Grid)
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(cfl=DEFAULT_CFL))
    data: DataSpec = field(default_factory=DataSpec)
    microscope: MicroscopeConfig = field(default_factory=MicroscopeConfig)
    invariants: InvariantConfig = field(default_factory=InvariantConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    sweep: dict[str, list] = field(default_factory=dict)


# every field of RunConfig but the sweep is a section, built by its dataclass
_SECTIONS = {name: cls for name, cls in get_type_hints(RunConfig).items() if name != "sweep"}
# keys retired when the viscosity was fixed at 1, as in the paper: read only at 1
# and dropped, so older configs and the config.yaml of older runs still load
_RETIRED = {"solver": "mu", "data": "nu"}


def _coerce(value: Any, typ: str, path: str) -> Any:
    """``value`` checked against ``typ``, a field's annotation as a string
    (every section module postpones its annotations)."""
    if value is None:
        return None
    if "float" in typ:
        # YAML 1.1 reads bare scientific notation like 1e-3 as a string, and .nan
        # and .inf as floats; float() also takes the strings nan and 1e400
        number = math.nan
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                number = float(value)
            except (ValueError, OverflowError):
                pass
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if typ == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if typ == "str" and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if _RETIRED.get(path) == key:
            if _coerce(value, "float", f"{path}.{key}") == 1.0:
                continue
            raise ConfigError(f"{path}.{key}: the viscosity is 1, as in the paper, not {value!r}")
        if key not in known:
            raise ConfigError(f"unknown key {path}.{key}")
        kwargs[key] = _coerce(value, known[key].type, f"{path}.{key}")
    if cls is SolverConfig and "dt" not in kwargs and "cfl" not in kwargs:
        kwargs["cfl"] = DEFAULT_CFL
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        # a message that starts with a field's name reads as that field's path
        sep = "." if str(exc).split(" ", 1)[0] in known else ": "
        raise ConfigError(f"{path}{sep}{exc}") from exc


def parse_config(text: str) -> RunConfig:
    try:
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a mapping of sections")
    kwargs: dict[str, Any] = {}
    for key, value in doc.items():
        if key == "sweep":
            if not isinstance(value, dict):
                raise ConfigError("sweep: expected a mapping of parameter paths to lists")
            for pkey, plist in value.items():
                if not isinstance(plist, list):
                    raise ConfigError(f"sweep.{pkey}: expected a list of values")
                section = pkey.split(".", 1)[0]
                if section not in _SECTIONS:
                    raise ConfigError(f"sweep.{pkey}: unknown section {section!r}")
            kwargs["sweep"] = value
            continue
        if key not in _SECTIONS:
            raise ConfigError(f"unknown key {key}")
        kwargs[key] = _build_section(_SECTIONS[key], value, key)
    cfg = RunConfig(**kwargs)
    sweep_members(cfg)
    return cfg


def sweep_members(cfg: RunConfig) -> list[tuple[tuple, RunConfig]]:
    """Every member of cfg's sweep with its values, in run order: the Cartesian
    product of the swept lists over the sorted keys.  Each member is checked
    like a YAML config, so parse_config finds a bad value before any member runs."""
    keys = sorted(cfg.sweep)
    members = []
    for combo in itertools.product(*(cfg.sweep[k] for k in keys)):
        sub = cfg
        for key, value in zip(keys, combo):
            try:
                sub = apply_override(sub, key, value)
            except ConfigError as exc:
                raise ConfigError(f"sweep.{key} = {value!r}: {exc}") from exc
        members.append((combo, sub))
    return members


def serialize_config(cfg: RunConfig) -> str:
    doc = {name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS}
    if cfg.sweep:
        doc["sweep"] = cfg.sweep
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=True)


def apply_override(cfg: RunConfig, path: str, value: Any) -> RunConfig:
    """Return a copy of cfg with one dotted-path field replaced (sweep support);
    the section is rebuilt, so the value is coerced and checked as in YAML."""
    section, _, key = path.partition(".")
    if section not in _SECTIONS or not key:
        raise ConfigError(f"bad override path {path!r}")
    data = {**dataclasses.asdict(getattr(cfg, section)), key: value}
    return dataclasses.replace(cfg, **{section: _build_section(_SECTIONS[section], data, section)})
