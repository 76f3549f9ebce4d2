"""Experiment configuration: one strictly validated JSON document.

A configuration file holds a single JSON object with flat sections
(``grid``, ``decomposition``, ``coarse``, ``solver``, ``geometry``,
``schedule``, ``output``). Every key is optional; an empty
document reproduces the reference setup: 200 x 200 grid, 10 x 10
subdomains, overlap 4, tau = 0.5, eps = 1e-6, eps_loc = 0.25, the
default channel geometry and port schedule. Unknown keys and
non-finite numbers (JSON ``Infinity``, ``NaN``) are rejected with a
diagnostic naming the key path.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .fem import DEFAULT_SCHEDULE, ChannelGeometry, ModificationSchedule
from .solver import SolverOptions


class ConfigError(ValueError):
    """Invalid configuration document or value."""


# The config section of each SolverOptions field outside ``solver``.
_SECTION = {"tau": "coarse"}


@dataclass(frozen=True)
class ExperimentConfig:
    grid_size: int = 200
    layout: int = 10
    overlap: int = 4
    tau: float = 0.5
    strategy: str = "lrbas"
    eps: float = 1e-6
    eps_loc: float = 0.25
    keep_full_bases: bool = False
    max_iter: int = 200
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
            self.solver_options()
        except ValueError as exc:
            name = str(exc).split(" ", 1)[0]
            raise ConfigError(f"{_SECTION.get(name, 'solver')}.{exc}") from None
        if len(self.schedule) == 0:
            raise ConfigError("schedule must contain at least one step")
        try:
            self.schedule.validate(self.geometry)
        except ValueError as exc:
            raise ConfigError(f"schedule: {exc}") from None

    def solver_options(self):
        return SolverOptions(
            strategy=self.strategy,
            eps=self.eps,
            eps_loc=self.eps_loc,
            keep_full_bases=self.keep_full_bases,
            max_iter=self.max_iter,
            tau=self.tau,
        )

    def to_json_dict(self):
        g = self.geometry
        return {
            "grid": {"size": self.grid_size},
            "decomposition": {"layout": self.layout, "overlap": self.overlap},
            "coarse": {"tau": self.tau},
            "solver": {
                "strategy": self.strategy,
                "eps": self.eps,
                "eps_loc": self.eps_loc,
                "keep_full_bases": self.keep_full_bases,
                "max_iter": self.max_iter,
            },
            "geometry": {
                "sigma_low": g.sigma_low,
                "sigma_high": g.sigma_high,
                "channel_centers": list(g.channel_centers),
                "channel_height": g.channel_height,
                "x_left": g.x_left,
                "x_right": g.x_right,
                "block_y": list(g.block_y),
                "port_length": g.port_length,
            },
            "schedule": [sorted(ports) for ports in self.schedule],
            "output": {"directory": self.output_dir},
        }


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


def _typed(section, prefix, key, default, kind):
    if key not in section:
        return default
    v = section[key]
    path = f"{prefix}.{key}"
    if kind is bool:
        _require(isinstance(v, bool), f"{path} must be a boolean")
        return v
    if kind is int:
        _require(isinstance(v, int) and not isinstance(v, bool), f"{path} must be an integer")
        return v
    if kind is float:
        _require(
            isinstance(v, (int, float)) and not isinstance(v, bool), f"{path} must be a number"
        )
        _require(_finite(v), f"{path} must be finite")
        return float(v)
    if kind is str:
        _require(isinstance(v, str), f"{path} must be a string")
        return v
    raise AssertionError(kind)


def _number_list(section, prefix, key, default):
    if key not in section:
        return default
    v = section[key]
    path = f"{prefix}.{key}"
    _require(
        isinstance(v, list)
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v),
        f"{path} must be a list of numbers",
    )
    _require(all(_finite(x) for x in v), f"{path} must hold finite numbers")
    return tuple(float(x) for x in v)


def config_from_dict(data):
    """Validate a parsed JSON document and fill defaults."""
    _require(isinstance(data, dict), "config document must be a JSON object")
    _reject_unknown(
        data,
        "",
        {"grid", "decomposition", "coarse", "solver", "geometry", "schedule", "output"},
    )
    base = ExperimentConfig()

    grid = _mapping(data, "grid")
    _reject_unknown(grid, "grid", {"size"})
    dec = _mapping(data, "decomposition")
    _reject_unknown(dec, "decomposition", {"layout", "overlap"})
    coarse = _mapping(data, "coarse")
    _reject_unknown(coarse, "coarse", {"tau"})
    solver = _mapping(data, "solver")
    _reject_unknown(
        solver, "solver", {"strategy", "eps", "eps_loc", "keep_full_bases", "max_iter"}
    )
    output = _mapping(data, "output")
    _reject_unknown(output, "output", {"directory"})

    geo = _mapping(data, "geometry")
    geo_fields = {
        "sigma_low": float,
        "sigma_high": float,
        "channel_centers": list,
        "channel_height": float,
        "x_left": float,
        "x_right": float,
        "block_y": list,
        "port_length": float,
    }
    _reject_unknown(geo, "geometry", set(geo_fields))
    geo_kwargs = {}
    g0 = base.geometry
    for key, kind in geo_fields.items():
        if kind is list:
            geo_kwargs[key] = _number_list(geo, "geometry", key, getattr(g0, key))
        else:
            geo_kwargs[key] = _typed(geo, "geometry", key, getattr(g0, key), float)
    try:
        geometry = ChannelGeometry(**geo_kwargs)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None

    schedule = base.schedule
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

    return ExperimentConfig(
        grid_size=_typed(grid, "grid", "size", base.grid_size, int),
        layout=_typed(dec, "decomposition", "layout", base.layout, int),
        overlap=_typed(dec, "decomposition", "overlap", base.overlap, int),
        tau=_typed(coarse, "coarse", "tau", base.tau, float),
        strategy=_typed(solver, "solver", "strategy", base.strategy, str),
        eps=_typed(solver, "solver", "eps", base.eps, float),
        eps_loc=_typed(solver, "solver", "eps_loc", base.eps_loc, float),
        keep_full_bases=_typed(solver, "solver", "keep_full_bases", base.keep_full_bases, bool),
        max_iter=_typed(solver, "solver", "max_iter", base.max_iter, int),
        geometry=geometry,
        schedule=schedule,
        output_dir=_typed(output, "output", "directory", base.output_dir, str),
    )


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
