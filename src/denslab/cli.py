"""Command-line front end: config ingestion, dispatch, deterministic artifacts.

Exit statuses are part of the contract for CI use:
  0  run completed and every asserted check passed
  1  run completed but an asserted check failed
  2  configuration error (bad key, bad value, invalid grid or drift, ...)
  3  numerical failure (divergence, overflow, non-finite state)

All artifact writes are atomic (write to a temp file, then rename), all
floating-point output uses the shortest round-trip representation, and
report.json never contains wall-clock data so identical (config, seed) runs
are byte-identical; timings go to run_meta.json instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import config as cfgmod
from .config import RunConfig, parse_config
from .density_core import (
    _atomic_write,
    load_density,
    normalize,
    save_flow,
    tilde_norm,
)
from .dynamics import frozen_semigroup, picard_fixed_point
from .errors import ConfigError, DenslabError, InvalidDriftError, InvalidParameterError
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

EXPERIMENT_DEFAULTS = {
    "smoothing": {"init.sigma": 0.02, "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0},
    "supercontinuity": {"init.sigma": 0.01, "experiment.delta": 0.02, "time.T": 0.2,
                        "experiment.t_lo": 2e-3, "experiment.t_hi": 0.2,
                        "grid.x_min": -4.0, "grid.x_max": 4.0, "grid.cells": 4000,
                        "diffusion.a": 0.5},
    "entropy-cost": {"init.sigma": 0.05, "experiment.delta": 0.1,
                     "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0},
    "renyi": {"init.sigma": 0.05, "experiment.delta": 0.1,
              "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0},
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
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_report(report, out_dir: str, runtime: float) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "report.json"),
                  json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    meta = {"runtime_seconds": runtime, "schema_version": cfgmod.SCHEMA_VERSION}
    _atomic_write(os.path.join(out_dir, "run_meta.json"),
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _write_curve(report, out_dir: str) -> None:
    if not hasattr(report, "t_values") or not hasattr(report, "measured"):
        return
    t = np.asarray(report.t_values)
    m = np.asarray(report.measured)
    if t.size == 0:
        return
    const = m[0] / t[0] ** report.theoretical_exponent if m[0] > 0 else 0.0
    lines = ["t,measured,bound"]
    for i in range(t.size):
        bound = const * t[i] ** report.theoretical_exponent
        lines.append(f"{float(t[i])!r},{float(m[i])!r},{float(bound)!r}")
    _atomic_write(os.path.join(out_dir, "curve.csv"), "\n".join(lines) + "\n")


def _emit_config(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "resolved_config"), cfg.resolved_text())


def _build_cfg(args, defaults=None) -> RunConfig:
    """defaults < subcommand flags < --config file < --set overrides."""
    base = dict(defaults or {})
    for key in [key for _, _, key in FLAG_KEYS.get(args.command, ())] + ["seed", "threads"]:
        val = getattr(args, key)
        if val is not None and val != "":
            base[key] = val
    return parse_config(args.config, overrides=args.set or (), base=base)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _load_mu(args, cfg, grid):
    if getattr(args, "mu", None):
        mu = load_density(args.mu)
        if mu.grid != grid:
            raise ConfigError("--mu density grid does not match grid.* configuration")
        return normalize(mu)
    return cfgmod.build_init_density(cfg, grid)


def _cmd_solve(args) -> int:
    cfg = _build_cfg(args)
    grid = cfgmod.build_grid(cfg)
    drift = cfgmod.build_drift(cfg)
    if drift.density_dependent:
        raise ConfigError("drift is density-dependent: use the 'picard' subcommand")
    mu = _load_mu(args, cfg, grid)
    t0 = time.perf_counter()
    flow = frozen_semigroup(mu, None, drift, cfgmod.build_diffusion(cfg),
                            cfgmod.build_time_grid(cfg), cfgmod.build_solver_options(cfg))
    _emit_config(cfg, args.out)
    save_flow(flow, os.path.join(args.out, "flow"))
    write_report({"subcommand": "solve", "nodes": len(flow.time_grid.nodes),
                  "final_mass": flow.snapshots[-1].mass()}, args.out,
                 time.perf_counter() - t0)
    return EXIT_PASS


def _cmd_picard(args) -> int:
    cfg = _build_cfg(args)
    grid = cfgmod.build_grid(cfg)
    mu = _load_mu(args, cfg, grid)
    t0 = time.perf_counter()
    result = picard_fixed_point(mu, cfgmod.build_drift(cfg), cfgmod.build_diffusion(cfg),
                                cfgmod.build_time_grid(cfg), cfgmod.build_metric_spec(cfg),
                                tol=cfg["picard.tol"], max_iter=cfg["picard.max_iter"],
                                options=cfgmod.build_solver_options(cfg))
    _emit_config(cfg, args.out)
    save_flow(result.flow, os.path.join(args.out, "flow"))
    write_report({"subcommand": "picard", "iterations": result.iterations,
                  "lambda_used": result.lambda_used,
                  "contraction_factors": list(result.contraction_factors),
                  "final_residual": result.final_residual}, args.out,
                 time.perf_counter() - t0)
    return EXIT_PASS


def _cmd_particles(args) -> int:
    cfg = _build_cfg(args)
    grid = cfgmod.build_grid(cfg)
    mu = _load_mu(args, cfg, grid)
    t0 = time.perf_counter()
    bw = cfg["particles.bandwidth"] or "silverman"
    record = cfgmod.build_time_grid(cfg)
    ensemble, flow = euler_maruyama_mkv(mu, cfgmod.build_drift(cfg),
                                        cfgmod.build_diffusion(cfg), cfg["particles.n"],
                                        cfg["particles.dt"], cfg["time.T"], grid,
                                        cfg["seed"], bandwidth_rule=bw, record_grid=record)
    _emit_config(cfg, args.out)
    save_flow(flow, os.path.join(args.out, "flow"))
    lines = ["position"]
    lines.extend(repr(float(v)) for v in ensemble.positions)
    _atomic_write(os.path.join(args.out, "ensemble_final.csv"), "\n".join(lines) + "\n")
    write_report({"subcommand": "particles", "n": int(cfg["particles.n"]),
                  "final_time": ensemble.time}, args.out, time.perf_counter() - t0)
    return EXIT_PASS


def _cmd_khasminskii(args) -> int:
    cfg = _build_cfg(args, EXPERIMENT_DEFAULTS["khasminskii"])
    t0 = time.perf_counter()
    rep = _khasminskii_run(cfg)
    _emit_config(cfg, args.out)
    write_report(rep, args.out, time.perf_counter() - t0)
    return EXIT_PASS if rep.bounds_hold else EXIT_FAIL


def _parse_metric(spec: str):
    if ":" in spec:
        name, arg = spec.split(":", 1)
        try:
            return name, float(arg)
        except ValueError:
            raise ConfigError(f"metric '{spec}' has a malformed numeric argument")
    if spec in ("wq", "renyi", "expw", "tilde"):
        raise ConfigError(f"metric '{spec}' needs an argument, e.g. '{spec}:2'")
    return spec, None


def _cmd_metrics(args) -> int:
    a = normalize(load_density(args.a))
    b = normalize(load_density(args.b))
    _check_pair(a, b)
    name, arg = _parse_metric(args.metric)
    if name == "w1":
        val = wasserstein_1d(a, b, 1.0)
    elif name == "w2":
        val = wasserstein_1d(a, b, 2.0)
    elif name == "wq":
        val = wasserstein_1d(a, b, arg)
    elif name == "tv":
        val = total_variation(a, b)
    elif name == "ent":
        val = relative_entropy(a, b)
    elif name == "renyi":
        val = renyi_entropy(a, b, arg)
    elif name == "expw":
        val = exp_wasserstein(a, b, arg)
    elif name == "tilde":
        val = tilde_norm(a.values - b.values, arg, a.grid)
    else:
        raise ConfigError(f"unknown metric '{args.metric}'")
    print(repr(float(val)))
    return EXIT_PASS


def _cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{args.name}'")
    cfg = _build_cfg(args, EXPERIMENT_DEFAULTS[args.name])
    t0 = time.perf_counter()
    report = EXPERIMENTS[args.name](cfg)
    runtime = time.perf_counter() - t0
    _emit_config(cfg, args.out)
    write_report(report, args.out, runtime)
    _write_curve(report, args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="denslab",
                                 description="Density-dependent diffusion laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="frozen (density-independent) forward solve")
    p.add_argument("--params", dest="config")
    p.add_argument("--mu", help="initial density CSV")
    _add_common(p, "solve")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("picard", help="fixed point of the density-feedback flow")
    p.add_argument("--params", dest="config")
    p.add_argument("--mu", help="initial density CSV")
    _add_common(p, "picard")
    p.set_defaults(fn=_cmd_picard)

    p = sub.add_parser("particles", help="interacting particle simulation")
    p.add_argument("--mu", help="initial density CSV")
    _add_common(p, "particles")
    p.set_defaults(fn=_cmd_particles)

    p = sub.add_parser("khasminskii", help="exponential moment Monte Carlo")
    _add_common(p, "khasminskii")
    p.set_defaults(fn=_cmd_khasminskii)

    p = sub.add_parser("metrics", help="distance between two density CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--metric", required=True,
                   help="w1|w2|wq:<q>|tv|ent|renyi:<alpha>|expw:<c>|tilde:<k>")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("experiment", help="theorem-to-experiment harness")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    _add_common(p, "experiment")
    p.set_defaults(fn=_cmd_experiment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidParameterError, InvalidDriftError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DenslabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
