"""Experiment configuration: one strictly validated JSON document.

A configuration file holds a single JSON object with flat sections
(``grid``, ``decomposition``, ``coarse``, ``solver``, ``geometry``,
``schedule``, ``output``). Every key is optional; an empty
document reproduces the reference setup: 200 x 200 grid, 10 x 10
subdomains, overlap 4, tau = 0.5, eps = 1e-6, eps_loc = 0.25, the
default channel geometry and port schedule. Unknown keys and
non-finite numbers (JSON ``Infinity``, ``NaN``) are rejected with a
diagnostic naming the key path. ``_KEYS`` declares every key once; it
drives parsing, the key paths of diagnostics and ``to_json_dict``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .fem import DEFAULT_SCHEDULE, ChannelGeometry, ModificationSchedule
from .solver import SolverOptions


class ConfigError(ValueError):
    """Invalid configuration document or value."""


# Sections in document order; every one but ``schedule`` is an object.
_SECTIONS = ("grid", "decomposition", "coarse", "solver", "geometry", "schedule", "output")
# Every key of an object section: (section, key, field, JSON type), in
# document order. A geometry key names a ChannelGeometry field, any
# other an ExperimentConfig field.
_KEYS = (
    ("grid", "size", "grid_size", int),
    ("decomposition", "layout", "layout", int),
    ("decomposition", "overlap", "overlap", int),
    ("coarse", "tau", "tau", float),
    ("solver", "strategy", "strategy", str),
    ("solver", "eps", "eps", float),
    ("solver", "eps_loc", "eps_loc", float),
    ("solver", "keep_full_bases", "keep_full_bases", bool),
    ("solver", "max_iter", "max_iter", int),
    *(
        ("geometry", f.name, f.name, list if isinstance(f.default, tuple) else float)
        for f in fields(ChannelGeometry)
    ),
    ("output", "directory", "output_dir", str),
)
_SECTION_OF = {name: section for section, _, name, _ in _KEYS}


@dataclass(frozen=True)
class ExperimentConfig(SolverOptions):
    """The solver options plus the problem sequence and the output directory."""

    grid_size: int = 200
    layout: int = 10
    overlap: int = 4
    geometry: ChannelGeometry = field(default_factory=ChannelGeometry)
    schedule: ModificationSchedule = DEFAULT_SCHEDULE
    output_dir: str = "results"

    def __post_init__(self):
        if self.grid_size < 2:
            raise ConfigError("grid.size must be at least 2")
        if self.layout < 1 or self.grid_size % self.layout != 0:
            raise ConfigError(
                f"decomposition.layout {self.layout} does not divide grid.size {self.grid_size}"
            )
        if self.overlap < 1:
            raise ConfigError("decomposition.overlap must be at least 1")
        try:
            super().__post_init__()
        except ValueError as exc:
            name = str(exc).split(" ", 1)[0]
            raise ConfigError(f"{_SECTION_OF[name]}.{exc}") from None
        if len(self.schedule) == 0:
            raise ConfigError("schedule must contain at least one step")
        try:
            self.schedule.validate(self.geometry)
        except ValueError as exc:
            raise ConfigError(f"schedule: {exc}") from None

    def to_json_dict(self):
        doc = {section: {} for section in _SECTIONS}
        doc["schedule"] = [sorted(ports) for ports in self.schedule]
        for section, key, name, kind in _KEYS:
            value = getattr(self.geometry if section == "geometry" else self, name)
            doc[section][key] = list(value) if kind is list else value
        return doc


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _mapping(data, name):
    got = data.get(name, {})
    _require(isinstance(got, dict), f"section {name!r} must be a JSON object")
    return got


def _reject_unknown(section, prefix, known):
    for key in section:
        _require(key in known, f"unknown key {prefix}.{key}" if prefix else f"unknown key {key}")


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _typed(v, path, kind):
    if kind is bool:
        _require(isinstance(v, bool), f"{path} must be a boolean")
        return v
    if kind is int:
        _require(isinstance(v, int) and not isinstance(v, bool), f"{path} must be an integer")
        return v
    if kind is float:
        _require(_is_number(v), f"{path} must be a number")
        _require(_finite(v), f"{path} must be finite")
        return float(v)
    if kind is str:
        _require(isinstance(v, str), f"{path} must be a string")
        return v
    if kind is list:
        _require(
            isinstance(v, list) and all(_is_number(x) for x in v),
            f"{path} must be a list of numbers",
        )
        _require(all(_finite(x) for x in v), f"{path} must hold finite numbers")
        return tuple(float(x) for x in v)
    raise AssertionError(kind)


def config_from_dict(data):
    """Validate a parsed JSON document and fill defaults."""
    _require(isinstance(data, dict), "config document must be a JSON object")
    _reject_unknown(data, "", _SECTIONS)
    sections = {}
    for section in _SECTIONS:
        if section != "schedule":
            sections[section] = _mapping(data, section)
            _reject_unknown(sections[section], section, {k for s, k, _, _ in _KEYS if s == section})
    geo, given = {}, {}
    for section, key, name, kind in _KEYS:
        if key in sections[section]:
            value = _typed(sections[section][key], f"{section}.{key}", kind)
            (geo if section == "geometry" else given)[name] = value
    try:
        geometry = ChannelGeometry(**geo)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None

    schedule = DEFAULT_SCHEDULE
    if "schedule" in data:
        steps = data["schedule"]
        _require(isinstance(steps, list), "schedule must be a list of steps")
        parsed = []
        for i, step in enumerate(steps, start=1):
            _require(
                isinstance(step, list)
                and all(isinstance(p, int) and not isinstance(p, bool) for p in step),
                f"schedule step {i} must be a list of port numbers",
            )
            parsed.append(frozenset(step))
        schedule = ModificationSchedule(tuple(parsed))

    return ExperimentConfig(geometry=geometry, schedule=schedule, **given)


def load_config(path):
    """Load and validate a JSON config file; empty files mean defaults."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not text.strip():
        return config_from_dict({})
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)
