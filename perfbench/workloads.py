"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Every workload has a `setup(seed)` that builds its inputs (and any reference
data its check needs), a `run(state, out_dir)` that performs one complete
operation (the timed part), and a `check(state, out_dir, result)` that
returns `(fingerprint, problems)`.  `problems` lists every failed output
check; an empty list means the operation passed.  Fingerprints are sha256
digests of the operation's deterministic outputs, so repeats with one seed
must agree.

denslab is reached through module attributes at call time (`cli.main`,
`particles.euler_maruyama_mkv`), so the tracer's rebinding applies.  See
WORKLOADS.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np

MASS_TOL = 1e-9
CONTRACTION_LIMIT = 0.9
PARTICLE_W1_TOL = 0.05       # acceptance criterion 8


def init_mean(seed: int) -> float:
    """Initial-law mean in [-0.5, 0.5] drawn from the benchmark seed."""
    return random.Random(seed).uniform(-0.5, 0.5)


def _digest_outputs(out_dir: str):
    """sha256 over report.json and flow/*.csv (run_meta.json holds wall time)."""
    h = hashlib.sha256()
    files = {}
    paths = [os.path.join(out_dir, "report.json")]
    flow = os.path.join(out_dir, "flow")
    if os.path.isdir(flow):
        paths += [os.path.join(flow, n) for n in sorted(os.listdir(flow)) if n.endswith(".csv")]
    for p in paths:
        with open(p, "rb") as fh:
            data = fh.read()
        rel = os.path.relpath(p, out_dir)
        h.update(rel.encode() + b"\0" + data)
        files[rel] = data
    return h.hexdigest(), files


def _csv_mass(data: bytes) -> float:
    """Mass of a density CSV (`x,value` rows on a uniform grid)."""
    vals = np.array(data.split(b"\n", 1)[1].replace(b"\n", b",").split(b",")[:-1], dtype=float)
    x, v = vals[0::2], vals[1::2]
    return float(np.sum(v) * (x[-1] - x[0]) / (x.size - 1))


def _cli(argv):
    from denslab import cli
    return cli.main(argv)


def _check_cli(rc, out_dir):
    fingerprint, files = _digest_outputs(out_dir)
    problems = [] if rc == 0 else [f"exit code {rc}"]
    return fingerprint, files, json.loads(files["report.json"]), problems


# -- picard_cli ---------------------------------------------------------------

def setup_picard_cli(seed: int) -> dict:
    from denslab import config
    overrides = [f"init.mean={init_mean(seed)!r}"]
    cfg = config.parse_config(overrides=overrides)
    return {"overrides": overrides, "tol": cfg["picard.tol"]}


def run_picard_cli(state: dict, out_dir: str):
    return _cli(["picard", "--out", out_dir]
                + [a for o in state["overrides"] for a in ("--set", o)])


def check_picard_cli(state: dict, out_dir: str, rc):
    fingerprint, files, report, problems = _check_cli(rc, out_dir)
    if not report.get("final_residual", float("inf")) <= state["tol"]:
        problems.append(f"final_residual {report.get('final_residual')} > tol {state['tol']}")
    factors = report.get("contraction_factors", [])
    if not all(f < CONTRACTION_LIMIT for f in factors):
        problems.append(f"contraction factor >= {CONTRACTION_LIMIT}: {factors}")
    snaps = [n for n in files if n.startswith("flow" + os.sep + "density_")]
    if not snaps:
        problems.append("no flow snapshots written")
    for name in snaps:
        mass = _csv_mass(files[name])
        if abs(mass - 1.0) > MASS_TOL:
            problems.append(f"{name}: mass {mass!r} not within {MASS_TOL} of 1")
            break
    return fingerprint, problems


# -- renyi --------------------------------------------------------------------

# A quarter of the default scale (about 3.5 s instead of 13 s an operation on a
# 2-core Xeon), so a 55 s run holds about thirteen operations rather than three
# or four: the shared host's speed flips every few seconds, and the median of
# three or four operations moved 20-30% between runs.  Halving the cells also
# halves the CFL-bound sub-step count.
RENYI_SCALE = ["grid.cells=1000", "solver.rel_dt=0.006", "experiment.n_t=9"]


def setup_renyi(seed: int) -> dict:
    from denslab import cli, config
    overrides = [f"init.mean={init_mean(seed)!r}"] + RENYI_SCALE
    config.parse_config(overrides=overrides, base=cli.EXPERIMENT_DEFAULTS["renyi"])
    return {"overrides": overrides}


def run_renyi(state: dict, out_dir: str):
    return _cli(["experiment", "renyi", "--out", out_dir]
                + [a for o in state["overrides"] for a in ("--set", o)])


def check_renyi(state: dict, out_dir: str, rc):
    fingerprint, _, report, problems = _check_cli(rc, out_dir)
    if report.get("pass") is not True:
        problems.append("report pass is not true")
    return fingerprint, problems


# -- particles (acceptance criterion 8 set-up) ----------------------------------

def setup_particles(seed: int) -> dict:
    from denslab import density_core as dc, dynamics, metrics
    grid = dc.Grid1D(-6.0, 6.0, 2000)
    drift = dynamics.builtin_drift("capped_density",
                                   {"theta": 1.0, "kappa": 0.1, "tau": 0.6, "cap": 5.0})
    diff = dynamics.constant_diffusion(2.0)
    mu = dc.gaussian_density(grid, 0.0, 0.3)
    ref = dynamics.picard_fixed_point(mu, drift, diff, dc.TimeGrid.geometric(0.5, nodes_per_decade=40),
                                      metrics.FlowMetricSpec(1.0, 2.0, 4.0), tol=1e-6)
    return {"grid": grid, "drift": drift, "diff": diff, "mu": mu, "seed": seed,
            "record": dc.TimeGrid.uniform(0.5, 5), "ref": ref.flow.snapshots[-1].values.copy()}


def w1_on_grid(f: np.ndarray, g: np.ndarray, dx: float) -> float:
    """W1 = int |F - G| dx for two cell densities on one grid (trapezoid on edges)."""
    gap = np.abs(np.concatenate(([0.0], np.cumsum(f - g) * dx)))
    return float(np.sum(0.5 * (gap[1:] + gap[:-1])) * dx)


def run_particles(state: dict, out_dir: str):
    from denslab import particles
    return particles.euler_maruyama_mkv(state["mu"], state["drift"], state["diff"],
                                        100_000, 1e-3, 0.5, state["grid"], state["seed"],
                                        record_grid=state["record"])


def check_particles(state: dict, out_dir: str, result):
    ens, flow = result
    fingerprint = hashlib.sha256(np.ascontiguousarray(ens.positions).tobytes()).hexdigest()
    w1 = w1_on_grid(flow.snapshots[-1].values, state["ref"], state["grid"].dx)
    problems = [] if w1 <= PARTICLE_W1_TOL else [f"W1 {w1:.4f} > {PARTICLE_W1_TOL}"]
    return fingerprint, problems


# -- exp_moments --------------------------------------------------------------

def setup_exp_moments(seed: int) -> dict:
    from denslab import cli, config
    config.parse_config(base=dict(cli.EXPERIMENT_DEFAULTS["khasminskii"], seed=seed))
    return {"seed": seed}


def run_exp_moments(state: dict, out_dir: str):
    return _cli(["experiment", "khasminskii", "--out", out_dir, "--seed", str(state["seed"])])


def check_exp_moments(state: dict, out_dir: str, rc):
    fingerprint, _, report, problems = _check_cli(rc, out_dir)
    if report.get("bounds_hold") is not True:
        problems.append("bounds_hold is not true")
    return fingerprint, problems


# name -> (setup, run, check)
WORKLOADS = {
    "picard_cli": (setup_picard_cli, run_picard_cli, check_picard_cli),
    "renyi": (setup_renyi, run_renyi, check_renyi),
    "particles": (setup_particles, run_particles, check_particles),
    "exp_moments": (setup_exp_moments, run_exp_moments, check_exp_moments),
}
