"""Hierarchical key-value run configuration with a closed, typed schema.

Config files are plain text, one `section.key = value` per line, `#` for
comments.  Every key must appear in the schema below: unknown keys are
rejected (never silently ignored) and type mismatches name the key and the
expected type.  CLI `--set key=value` overrides beat file values.  The fully
resolved configuration is echoed to `resolved_config` in the output directory
for provenance; identical resolved configs plus seed give byte-identical
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .density_core import Grid1D, GridDensity, TimeGrid, gaussian_density, uniform_density
from .dynamics import (
    DRIFT_PARAMS,
    DiffusionSpec,
    DriftSpec,
    SolverOptions,
    SpaceTimeField,
    builtin_drift,
    constant_diffusion,
    validate_drift,
)
from .errors import InvalidParameterError
from .metrics import FlowMetricSpec
from .particles import FIELD_PARAMS, builtin_field

SCHEMA_VERSION = 1

# key -> (type tag, default).  Type tags: int, float, str, floatlist.  The drift
# and field parameters and their defaults come from DRIFT_PARAMS and FIELD_PARAMS.
SCHEMA = {
    "schema.version": ("int", SCHEMA_VERSION),
    "seed": ("int", 12345),
    "threads": ("int", 1),

    "drift.name": ("str", "capped_density"),
    **{f"drift.{k}": ("float", v) for fam in DRIFT_PARAMS.values() for k, v in fam.items()},

    "diffusion.a": ("float", 2.0),

    "grid.x_min": ("float", -6.0),
    "grid.x_max": ("float", 6.0),
    "grid.cells": ("int", 2000),

    "time.T": ("float", 1.0),
    "time.refine": ("str", "geometric"),
    "time.t_min": ("float", 0.0),            # 0 -> 1e-4 * T
    "time.nodes_per_decade": ("int", 40),
    "time.uniform_nodes": ("int", 200),

    "solver.rel_dt": ("float", 0.002),
    "solver.dt_max": ("float", 0.0),          # 0 -> T / 500
    "solver.cfl": ("float", 0.5),

    "picard.tol": ("float", 1e-6),
    "picard.max_iter": ("int", 25),
    "picard.lambda0": ("float", 1.0),
    "picard.metric_p": ("float", 2.0),
    "picard.metric_k": ("float", 4.0),

    "init.kind": ("str", "gaussian"),
    "init.mean": ("float", 0.0),
    "init.sigma": ("float", 0.05),
    "init.lo": ("float", 0.0),
    "init.hi": ("float", 1.0),

    "particles.n": ("int", 100000),
    "particles.dt": ("float", 1e-3),
    "particles.bandwidth": ("float", 0.0),     # 0 -> silverman rule

    "experiment.t_lo": ("float", 1e-2),
    "experiment.t_hi": ("float", 1.0),
    "experiment.n_t": ("int", 25),
    "experiment.delta": ("float", 0.02),
    "experiment.k": ("float", 2.0),
    "experiment.headroom": ("float", 3.0),
    "experiment.slope_tol": ("float", 0.0),    # 0 -> no slope assertion
    "experiment.alphas": ("floatlist", (0.25, 0.5, 1.0, 2.0)),
    "experiment.alpha_limit": ("float", 1e-3),

    "khasminskii.f_name": ("str", "singular_power"),
    **{f"khasminskii.{k}": ("float", v) for fam in FIELD_PARAMS.values() for k, v in fam.items()},
    "khasminskii.s": ("float", 0.0),
    "khasminskii.t": ("float", 1.0),
    "khasminskii.lambda_grid": ("floatlist", (0.1, 0.15, 0.22, 0.33, 0.5,
                                              0.8, 1.2, 1.8, 2.7, 4.0)),
    "khasminskii.x0": ("float", 0.0),
    "khasminskii.dt": ("float", 1e-3),
}


def _no_nan(key: str, vals):
    # inf stays legal: k = inf is a valid metric exponent
    if any(math.isnan(v) for v in vals):
        raise InvalidParameterError(f"key '{key}' must not be NaN")


def _coerce(key: str, raw, kind: str):
    if kind == "floatlist":
        if isinstance(raw, (tuple, list)):
            vals = tuple(float(v) for v in raw)
        else:
            try:
                vals = tuple(float(v) for v in str(raw).split(",") if v.strip() != "")
            except ValueError:
                raise InvalidParameterError(
                    f"key '{key}' expects a comma-separated float list, got {raw!r}")
        _no_nan(key, vals)
        return vals
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        if kind == "int":
            if isinstance(raw, float) and raw != int(raw):
                raise ValueError
            return int(raw)
        if kind == "float":
            val = float(raw)
            _no_nan(key, (val,))
            return val
        if kind == "str":
            return str(raw)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"key '{key}' expects type {kind}, got {raw!r}")
    raise InvalidParameterError(f"key '{key}' has unknown schema type {kind}")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration (every schema key present and typed)."""

    data: dict

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise InvalidParameterError(f"unknown key '{key}'")
        return self.data[key]

    def resolved_text(self) -> str:
        lines = []
        for key in sorted(self.data):
            v = self.data[key]
            if isinstance(v, tuple):
                v = ",".join(repr(float(x)) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"


def parse_config(path: str | None = None, overrides=(), base: dict | None = None) -> RunConfig:
    """Resolve defaults, optional file, then overrides into a RunConfig.

    `overrides` are "key=value" strings (from repeated --set flags).  Unknown
    keys and malformed values raise InvalidParameterError naming the key.
    """
    data = {k: _coerce(k, d, t) for k, (t, d) in SCHEMA.items()}

    def put(key, val, where=""):
        if key not in SCHEMA:
            raise InvalidParameterError(f"{where}unknown key '{key}'")
        data[key] = _coerce(key, val, SCHEMA[key][0])

    for key, val in (base or {}).items():
        put(key, val)
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise InvalidParameterError(f"cannot read config file {path}: {exc}")
        for ln, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(f"{path}:{ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            put(key, val, f"{path}:{ln}: ")
    for ov in overrides:
        if "=" not in ov:
            raise InvalidParameterError(f"override '{ov}' must look like key=value")
        key, val = (s.strip() for s in ov.split("=", 1))
        put(key, val)
    if data["schema.version"] != SCHEMA_VERSION:
        raise InvalidParameterError(
            f"schema.version {data['schema.version']} does not match {SCHEMA_VERSION}")
    if data["threads"] < 1:
        raise InvalidParameterError(f"key 'threads' must be >= 1, got {data['threads']}")
    return RunConfig(data)


# ---------------------------------------------------------------------------
# object builders shared by the CLI and the experiment harness
# ---------------------------------------------------------------------------

def build_grid(cfg: RunConfig) -> Grid1D:
    return Grid1D(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.cells"])


def build_time_grid(cfg: RunConfig) -> TimeGrid:
    T = cfg["time.T"]
    if cfg["time.refine"] == "geometric":
        return TimeGrid.geometric(T, t_min=cfg["time.t_min"],
                                  nodes_per_decade=cfg["time.nodes_per_decade"])
    if cfg["time.refine"] == "uniform":
        return TimeGrid.uniform(T, cfg["time.uniform_nodes"])
    raise InvalidParameterError(
        f"key 'time.refine' must be geometric|uniform, got {cfg['time.refine']!r}")


def _family(cfg: RunConfig, section: str, name_key: str, families: dict):
    """(name, parameters) of the family `name_key` picks from `families`;
    InvalidParameterError for an unknown name, or for a key that only other families
    read set away from its default (the chosen family would ignore it)."""
    name = cfg[name_key]
    if name not in families:
        raise InvalidParameterError(f"key '{name_key}' has unknown value {name!r}")
    stray = sorted({f"{section}.{k}" for fam in families.values() for k in fam
                    if k not in families[name]
                    and cfg[f"{section}.{k}"] != SCHEMA[f"{section}.{k}"][1]})
    if stray:
        raise InvalidParameterError(f"{name_key} = {name} does not read the keys {stray}")
    return name, {k: cfg[f"{section}.{k}"] for k in families[name]}


def build_drift(cfg: RunConfig) -> DriftSpec:
    drift = builtin_drift(*_family(cfg, "drift", "drift.name", DRIFT_PARAMS))
    validate_drift(drift, cfg["time.T"], build_grid(cfg))
    return drift


def build_diffusion(cfg: RunConfig) -> DiffusionSpec:
    return constant_diffusion(cfg["diffusion.a"])


def build_solver_options(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(rel_dt=cfg["solver.rel_dt"], dt_max=cfg["solver.dt_max"],
                         cfl=cfg["solver.cfl"])


def build_metric_spec(cfg: RunConfig) -> FlowMetricSpec:
    return FlowMetricSpec(lam=cfg["picard.lambda0"], p=cfg["picard.metric_p"],
                          k=cfg["picard.metric_k"])


def build_init_density(cfg: RunConfig, grid: Grid1D, shift: float = 0.0) -> GridDensity:
    """The configured initial law, translated by `shift`."""
    kind = cfg["init.kind"]
    if kind == "gaussian":
        return gaussian_density(grid, cfg["init.mean"] + shift, cfg["init.sigma"])
    if kind == "uniform":
        return uniform_density(grid, cfg["init.lo"] + shift, cfg["init.hi"] + shift)
    raise InvalidParameterError(f"key 'init.kind' must be gaussian|uniform, got {kind!r}")


def build_field(cfg: RunConfig) -> SpaceTimeField:
    return builtin_field(*_family(cfg, "khasminskii", "khasminskii.f_name", FIELD_PARAMS))
