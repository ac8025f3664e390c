"""Command-line front end: config ingestion, dispatch, deterministic artifacts.

Exit statuses are part of the contract for CI use:
  0  run completed and every asserted check passed
  1  run completed but an asserted check failed
  2  configuration error (bad key, bad value, invalid grid or drift, ...)
  3  numerical failure (divergence, overflow, non-finite state, out of memory)

All artifact writes are atomic (write to a temp file, then rename), all
floating-point output uses the shortest round-trip representation, and
report.json never contains wall-clock data so identical (config, seed) runs
are byte-identical; timings go to run_meta.json instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import config as cfgmod
from .config import parse_config
from .density_core import (
    DensityFlow,
    _atomic_write,
    _write_csv,
    load_density,
    normalize,
    save_flow,
    tilde_norm,
)
from .dynamics import frozen_semigroup, picard_fixed_point
from .errors import DenslabError, InvalidParameterError
from .experiments import (
    _khasminskii_run,
    experiment_entropy_cost,
    experiment_khasminskii,
    experiment_renyi,
    experiment_smoothing,
    experiment_supercontinuity,
)
from .metrics import (
    _check_pair,
    exp_wasserstein,
    relative_entropy,
    renyi_entropy,
    total_variation,
    wasserstein_1d,
)
from .particles import euler_maruyama_mkv

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3

EXPERIMENTS = {
    "smoothing": experiment_smoothing,
    "supercontinuity": experiment_supercontinuity,
    "entropy-cost": experiment_entropy_cost,
    "renyi": experiment_renyi,
    "khasminskii": experiment_khasminskii,
}

# subcommand or experiment name -> the keys whose config.SCHEMA default it changes
EXPERIMENT_DEFAULTS = {
    "smoothing": {"init.sigma": 0.02},
    "supercontinuity": {"init.sigma": 0.01, "time.T": 0.2,
                        "experiment.t_lo": 2e-3, "experiment.t_hi": 0.2,
                        "grid.x_min": -4.0, "grid.x_max": 4.0, "grid.cells": 4000,
                        "diffusion.a": 0.5},
    "entropy-cost": {"experiment.delta": 0.1},
    "renyi": {"experiment.delta": 0.1},
    "khasminskii": {"drift.name": "zero", "diffusion.a": 1.0},
}


# subcommand -> (flag, type, config key).  A flag that is given (and not
# empty) sets its key on top of the subcommand's defaults; --config and --set
# still override it.
FLAG_KEYS = {
    "solve": (("--drift", str, "drift.name"), ("--T", float, "time.T"),
              ("--cells", int, "grid.cells")),
    "picard": (("--drift", str, "drift.name"), ("--T", float, "time.T"),
               ("--cells", int, "grid.cells"), ("--tol", float, "picard.tol"),
               ("--max-iter", int, "picard.max_iter"), ("--lambda0", float, "picard.lambda0")),
    "particles": (("--drift", str, "drift.name"), ("--N", int, "particles.n"),
                  ("--dt", float, "particles.dt"), ("--T", float, "time.T")),
    "khasminskii": (("--f", str, "khasminskii.f_name"),
                    ("--lambda-grid", str, "khasminskii.lambda_grid"),
                    ("--N", int, "particles.n")),
}


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"pass" if f.name == "passed" else f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):    # strict JSON has no such number
        return "NaN" if np.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def write_report(report, out_dir: str, runtime: float) -> None:
    meta = {"runtime_seconds": runtime, "schema_version": cfgmod.SCHEMA_VERSION}
    for name, obj in (("report.json", _jsonable(report)), ("run_meta.json", meta)):
        _atomic_write(os.path.join(out_dir, name),
                      json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_curve(report, out_dir: str) -> None:
    if not hasattr(report, "measured") or not report.t_values:
        return
    t, m, e = np.asarray(report.t_values), np.asarray(report.measured), report.theoretical_exponent
    const = m[0] / t[0] ** e if m[0] > 0 else 0.0
    # one scalar power per node: an array ** can differ in the last bit
    _write_csv(os.path.join(out_dir, "curve.csv"), "t,measured,bound",
               t, m, np.array([const * ti ** e for ti in t]))


# ---------------------------------------------------------------------------
# subcommands: each computes (report, passed, flow, positions); _run writes
# ---------------------------------------------------------------------------

class _Result(NamedTuple):
    report: object
    passed: bool = True
    flow: DensityFlow | None = None
    positions: np.ndarray | None = None    # final particle positions


def _load_mu(args, cfg, grid):
    if getattr(args, "mu", None):
        mu = load_density(args.mu)
        if mu.grid != grid:
            raise InvalidParameterError("--mu density grid does not match grid.* configuration")
        return normalize(mu)
    return cfgmod.build_init_density(cfg, grid)


def _solve(cfg, args) -> _Result:
    grid = cfgmod.build_grid(cfg)
    drift = cfgmod.build_drift(cfg)
    if drift.density_dependent:
        raise InvalidParameterError("drift is density-dependent: use the 'picard' subcommand")
    flow = frozen_semigroup(_load_mu(args, cfg, grid), None, drift, cfgmod.build_diffusion(cfg),
                            cfgmod.build_time_grid(cfg), cfgmod.build_solver_options(cfg))
    return _Result({"subcommand": "solve", "nodes": len(flow.time_grid.nodes),
                    "final_mass": flow.snapshots[-1].mass()}, flow=flow)


def _picard(cfg, args) -> _Result:
    mu = _load_mu(args, cfg, cfgmod.build_grid(cfg))
    result = picard_fixed_point(mu, cfgmod.build_drift(cfg), cfgmod.build_diffusion(cfg),
                                cfgmod.build_time_grid(cfg), cfgmod.build_metric_spec(cfg),
                                tol=cfg["picard.tol"], max_iter=cfg["picard.max_iter"],
                                options=cfgmod.build_solver_options(cfg))
    return _Result({"subcommand": "picard", "iterations": result.iterations,
                    "lambda_used": result.lambda_used,
                    "contraction_factors": list(result.contraction_factors),
                    "final_residual": result.final_residual}, flow=result.flow)


def _particles(cfg, args) -> _Result:
    grid = cfgmod.build_grid(cfg)
    mu = _load_mu(args, cfg, grid)
    record = cfgmod.build_time_grid(cfg)
    ensemble, flow = euler_maruyama_mkv(mu, cfgmod.build_drift(cfg),
                                        cfgmod.build_diffusion(cfg), cfg["particles.n"],
                                        cfg["particles.dt"], cfg["time.T"], grid, cfg["seed"],
                                        bandwidth=cfg["particles.bandwidth"],
                                        record_grid=record)
    return _Result({"subcommand": "particles", "n": int(cfg["particles.n"]),
                    "final_time": cfg["time.T"]}, flow=flow, positions=ensemble.positions)


def _khasminskii(cfg, args) -> _Result:
    rep = _khasminskii_run(cfg)
    return _Result(rep, rep.bounds_hold)


def _experiment(cfg, args) -> _Result:
    report = EXPERIMENTS[args.name](cfg)
    return _Result(report, report.passed)


def _run(args) -> int:
    """Build the config (the subcommand's defaults < its flags < --config file < --set
    overrides), time the compute, write every artifact, pick the exit."""
    base = dict(EXPERIMENT_DEFAULTS.get(args.name, {}))
    for key in [key for _, _, key in FLAG_KEYS.get(args.command, ())] + ["seed", "threads"]:
        val = getattr(args, key)
        if val is not None and val != "":
            base[key] = val
    cfg = parse_config(args.config, overrides=args.set or (), base=base)
    t0 = time.perf_counter()
    res = args.compute(cfg, args)
    runtime = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "resolved_config"), cfg.resolved_text())
    if res.flow is not None:
        save_flow(res.flow, os.path.join(args.out, "flow"))
    if res.positions is not None:
        _write_csv(os.path.join(args.out, "ensemble_final.csv"), "position", res.positions)
    write_report(res.report, args.out, runtime)
    _write_curve(res.report, args.out)
    return EXIT_PASS if res.passed else EXIT_FAIL


# name -> (function of (a, b, arg), name of its argument or None)
METRICS = {
    "w1": (lambda a, b, _: wasserstein_1d(a, b, 1.0), None),
    "w2": (lambda a, b, _: wasserstein_1d(a, b, 2.0), None),
    "wq": (lambda a, b, q: wasserstein_1d(a, b, q), "q"),
    "tv": (lambda a, b, _: total_variation(a, b), None),
    "ent": (lambda a, b, _: relative_entropy(a, b), None),
    "renyi": (lambda a, b, alpha: renyi_entropy(a, b, alpha), "alpha"),
    "expw": (lambda a, b, c: exp_wasserstein(a, b, c), "c"),
    "tilde": (lambda a, b, k: tilde_norm(a.values - b.values, k, a.grid), "k"),
}


def _cmd_metrics(args) -> int:
    a = normalize(load_density(args.a))
    b = normalize(load_density(args.b))
    _check_pair(a, b)
    name, colon, arg = args.metric.partition(":")
    if colon:
        try:
            arg = float(arg)
        except ValueError:
            raise InvalidParameterError(f"metric '{args.metric}' has a malformed numeric argument")
    if name not in METRICS:
        raise InvalidParameterError(f"unknown metric '{args.metric}'")
    fn, arg_name = METRICS[name]
    if arg_name and not colon:
        raise InvalidParameterError(f"metric '{name}' needs an argument, e.g. '{name}:2'")
    print(repr(float(fn(a, b, arg if colon else None))))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p, command: str) -> None:
    for flag, typ, key in FLAG_KEYS.get(command, ()):
        p.add_argument(flag, type=typ, dest=key, help=f"sets {key}")
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", default="denslab_out", help="output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override (repeatable)")
    p.add_argument("--threads", type=int, help="worker hint; outputs are identical for any value")
    _add_log_level(p)


def _add_log_level(p) -> None:
    p.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                   help="print denslab log messages at this level and above to stderr")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="denslab",
                                 description="Density-dependent diffusion laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, compute, help_text in (
            ("solve", _solve, "frozen (density-independent) forward solve"),
            ("picard", _picard, "fixed point of the density-feedback flow"),
            ("particles", _particles, "interacting particle simulation"),
            ("khasminskii", _khasminskii, "exponential moment Monte Carlo"),
            ("experiment", _experiment, "theorem-to-experiment harness")):
        p = sub.add_parser(command, help=help_text)
        if command in ("solve", "picard", "particles"):
            p.add_argument("--mu", help="initial density CSV")
        if command == "experiment":
            p.add_argument("name", choices=sorted(EXPERIMENTS))
        _add_common(p, command)
        # `name` picks the EXPERIMENT_DEFAULTS entry; experiment overrides it
        p.set_defaults(fn=_run, compute=compute, name=command)

    p = sub.add_parser("metrics", help="distance between two density CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metric", required=True,
                   help="|".join(n + (f":<{arg}>" if arg else "") for n, (_, arg) in METRICS.items()))
    _add_log_level(p)
    p.set_defaults(fn=_cmd_metrics)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = logging.getLogger("denslab")
    level, handler = log.level, logging.StreamHandler(sys.stderr)
    if args.log_level:      # off by default: then no handler and no output
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
        log.setLevel(args.log_level.upper())
    try:
        return args.fn(args)
    except (InvalidParameterError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DenslabError, OverflowError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
