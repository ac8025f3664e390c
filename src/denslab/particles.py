"""Interacting-particle simulation, Girsanov path weights, and exponential
moment estimation for the density-dependent diffusion.

The particle system replaces the law's density in the drift by a kernel
density estimate of the ensemble itself, which is the standard mollification
of the pointwise (Dirac-type) interaction.

Randomness is counter-based: the normal increment of particle i at step s is
a pure function of (seed, stream_tag, s * block + i) through a Philox
stream, with each step consuming one 4-aligned block of raw draws.  This
makes ensembles bitwise reproducible for a fixed seed irrespective of how the
work is sharded, and lets a shard regenerate any sub-range of draws without
touching the others.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtri

from .density_core import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    density_quantiles,
    kde,
    tilde_norm,
    tilde_spacetime_norm,
)
from .dynamics import DiffusionSpec, DriftSpec, drift_at_positions, in_integrability_class
from .errors import InvalidParameterError, SolverFailureError

log = logging.getLogger(__name__)

_STREAM_INIT = 1
_STREAM_EVOLVE = 2
_MASK64 = (1 << 64) - 1
_LOG_WEIGHT_CAP = 700.0


def _block_size(n: int) -> int:
    return 4 * ((n + 3) // 4)


def raw_uniforms(seed: int, tag: int, step: int, n: int) -> np.ndarray:
    """Deterministic uniforms in (0, 1): draw (seed, tag, step*block + i)."""
    res = _block_size(n)
    bg = np.random.Philox(key=np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64))
    bg.advance((step * res) >> 2)  # advance() skips 4 raw 64-bit words per unit
    raw = bg.random_raw(res)[:n]
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def normal_increments(seed: int, tag: int, step: int, n: int) -> np.ndarray:
    """Standard normals via the inverse CDF, deterministic per (seed, tag, step, i)."""
    return ndtri(raw_uniforms(seed, tag, step, n))


@dataclass(frozen=True)
class ParticleEnsemble:
    """Ensemble state: particle positions at one time."""

    positions: np.ndarray
    time: float

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=np.float64)
        if x.size < 1:
            raise InvalidParameterError("ensemble needs at least one particle")
        if not np.all(np.isfinite(x)):
            raise InvalidParameterError("particle positions must be finite")
        object.__setattr__(self, "positions", x)


def sample_initial(init, n: int, seed: int, grid: Grid1D | None = None) -> np.ndarray:
    """Draw initial positions from a GridDensity (inverse CDF), a ("gaussian",
    mean, sigma) spec, or an explicit array."""
    if isinstance(init, GridDensity):
        u = raw_uniforms(seed, _STREAM_INIT, 0, n)
        return density_quantiles(init, u)
    if isinstance(init, (tuple, list)) and len(init) == 3 and init[0] == "gaussian":
        _, mean, sigma = init
        return float(mean) + float(sigma) * normal_increments(seed, _STREAM_INIT, 0, n)
    x = np.asarray(init, dtype=np.float64)
    if x.ndim == 1 and x.size == n:
        return x.copy()
    raise InvalidParameterError("unsupported initial sampling spec")


def _bandwidth(rule, positions: np.ndarray) -> float:
    if isinstance(rule, (int, float)):
        if rule <= 0:
            raise InvalidParameterError("bandwidth must be positive")
        return float(rule)
    if rule == "silverman":
        sd = float(np.std(positions))
        return 1.06 * max(sd, 1e-12) * positions.size ** (-0.2)
    raise InvalidParameterError(f"unknown bandwidth rule {rule!r}")


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    x = np.where(x > hi, 2.0 * hi - x, x)
    x = np.where(x < lo, 2.0 * lo - x, x)
    return np.clip(x, lo, hi)


@dataclass
class _Accumulators:
    girsanov: np.ndarray | None = None    # running log R per particle
    quad: np.ndarray | None = None        # running int f(X)^2 dr per particle
    prev_f2: np.ndarray | None = None


def _evolve(x0: np.ndarray, drift: DriftSpec, diff: DiffusionSpec, grid: Grid1D,
            t_start: float, t_end: float, dt: float, seed: int, *,
            bandwidth_rule="silverman",
            density_source: str = "auto",
            frozen_flow: DensityFlow | None = None,
            record_steps: dict | None = None,
            alt_drift: DriftSpec | None = None,
            alt_flow: DensityFlow | None = None,
            quad_fn=None,
            step_offset: int = 0):
    """Euler-Maruyama march shared by every particle-facing operation.

    density_source: "kde" rebuilds the ensemble KDE each step, "flow" reads
    the density from `frozen_flow`, "none" for density-free drifts.  The alt
    drift (for Girsanov accumulation) reads its density from `alt_flow`.
    """
    n = x0.size
    n_steps = int(round((t_end - t_start) / dt))
    if abs(t_start + n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise InvalidParameterError("(t_end - t_start) must be a multiple of dt")
    if density_source == "auto":
        density_source = "kde" if drift.density_dependent else "none"
    x = x0.copy()
    acc = _Accumulators()
    if alt_drift is not None:
        acc.girsanov = np.zeros(n)
    if quad_fn is not None:
        acc.quad = np.zeros(n)
        acc.prev_f2 = quad_fn(t_start, x) ** 2
    recorded = {}
    if record_steps and 0 in record_steps:
        for node in record_steps[0]:
            recorded[node] = x.copy()
    sqrt_dt = math.sqrt(dt)
    rho_vals = None
    for s in range(n_steps):
        t = t_start + s * dt
        if density_source == "kde":
            h = _bandwidth(bandwidth_rule, x)
            rho_vals = kde(x, h, grid).values
        elif density_source == "flow":
            rho_vals = frozen_flow.values_at(t)
        b = drift_at_positions(drift, t, x, grid, rho_vals)
        a_vals = np.asarray(diff.a(t, x), dtype=np.float64)
        if s == 0:
            cfl = float(np.max(np.abs(b))) * dt
            if cfl > grid.dx * (1.0 + 1e-9):
                raise InvalidParameterError(
                    f"dt * max|b| = {cfl:.3e} exceeds the grid scale {grid.dx:.3e}")
        z = normal_increments(seed, _STREAM_EVOLVE, step_offset + s, n)
        dw = sqrt_dt * z
        if alt_drift is not None:
            alt_rho = alt_flow.values_at(t) if alt_flow is not None else rho_vals
            b_alt = drift_at_positions(alt_drift, t, x, grid, alt_rho)
            xi = (b_alt - b) / np.sqrt(a_vals)
            acc.girsanov += xi * dw - 0.5 * xi * xi * dt
        x = x + b * dt + np.sqrt(a_vals) * dw
        x = _reflect(x, grid.x_min, grid.x_max)
        if not np.all(np.isfinite(x)):
            raise SolverFailureError(f"non-finite particle position at step {s}")
        if quad_fn is not None:
            f2 = quad_fn(t + dt, x) ** 2
            acc.quad += 0.5 * (acc.prev_f2 + f2) * dt
            acc.prev_f2 = f2
        if record_steps and (s + 1) in record_steps:
            for node in record_steps[s + 1]:
                recorded[node] = x.copy()
    return x, acc, recorded


def _node_steps(tg: TimeGrid, dt: float) -> dict:
    """Map step index -> node indices, snapping nodes to the step lattice."""
    out: dict = {}
    for i, t in enumerate(tg.nodes):
        s = int(round(t / dt))
        if abs(s * dt - t) > 1e-9 * max(1.0, tg.T):
            log.info("node t=%.6g snapped to step time %.6g", t, s * dt)
        out.setdefault(s, []).append(i)
    return out


def euler_maruyama_mkv(init, drift: DriftSpec, diff: DiffusionSpec, n_particles: int,
                       dt: float, T: float, grid: Grid1D, seed: int,
                       bandwidth_rule="silverman",
                       record_grid: TimeGrid | None = None):
    """Simulate the interacting system and return (final ensemble, KDE flow).

    Each step rebuilds the ensemble KDE on the grid, evaluates the drift per
    particle at (t, X_i, rho(X_i), rho-features), and advances with the
    particle's own normal increment; boundaries reflect so the truncated
    domain matches the PDE solver's no-flux choice.
    """
    if n_particles < 1 or dt <= 0 or T <= 0:
        raise InvalidParameterError("need n_particles >= 1, dt > 0, T > 0")
    if drift.density_dependent and n_particles < 1000:
        raise InvalidParameterError("density feedback needs at least 1000 particles")
    x0 = sample_initial(init, n_particles, seed, grid)
    x0 = _reflect(x0, grid.x_min, grid.x_max)
    tg = record_grid if record_grid is not None else TimeGrid.uniform(T, max(1, int(round(T / dt))))
    if tg.T > T * (1 + 1e-9):
        raise InvalidParameterError(f"record grid extends to {tg.T} beyond T = {T}")
    record_steps = _node_steps(tg, dt)
    x, _, recorded = _evolve(x0, drift, diff, grid, 0.0, T, dt, seed,
                             bandwidth_rule=bandwidth_rule,
                             record_steps=record_steps)
    snaps = []
    for i in range(len(tg.nodes)):
        pos = recorded[i]
        snaps.append(kde(pos, _bandwidth(bandwidth_rule, pos), grid))
    return ParticleEnsemble(positions=x, time=T), DensityFlow(tg, tuple(snaps))


def girsanov_log_weights_mc(drift_ref: DriftSpec, drift_alt: DriftSpec, diff: DiffusionSpec,
                            init, t: float, n_paths: int, dt: float, grid: Grid1D,
                            seed: int, flow_ref: DensityFlow | None = None,
                            flow_alt: DensityFlow | None = None) -> np.ndarray:
    """log R_t for n_paths reference-drift paths (vectorized single pass)."""
    x0 = sample_initial(init, n_paths, seed, grid)
    x0 = _reflect(x0, grid.x_min, grid.x_max)
    src = "flow" if (drift_ref.density_dependent and flow_ref is not None) else "auto"
    _, acc, _ = _evolve(x0, drift_ref, diff, grid, 0.0, t, dt, seed,
                        density_source=src, frozen_flow=flow_ref,
                        alt_drift=drift_alt, alt_flow=flow_alt)
    return acc.girsanov


def path_relative_entropy_mc(drift_a: DriftSpec, drift_b: DriftSpec, diff: DiffusionSpec,
                             init, t: float, n_paths: int, dt: float, grid: Grid1D,
                             seed: int, flow_a: DensityFlow | None = None,
                             flow_b: DensityFlow | None = None):
    """Monte Carlo estimate (value, stderr) of the path-space relative entropy
    bound 1/2 E int_0^t |(b_a - b_b)/sqrt(a)|^2 ds along drift_a paths.

    For density-dependent drifts the density slots are read from the supplied
    marginal flows (the laws of the two processes), which is what the
    path-space divergence between the two nonlinear processes requires.
    """
    if n_paths < 2:
        raise InvalidParameterError("need at least 2 paths")
    x0 = sample_initial(init, n_paths, seed, grid)
    x0 = _reflect(x0, grid.x_min, grid.x_max)

    def xi_fn(ts, xs):
        rho_a = flow_a.values_at(ts) if flow_a is not None else None
        rho_b = flow_b.values_at(ts) if flow_b is not None else None
        b_a = drift_at_positions(drift_a, ts, xs, grid, rho_a)
        b_b = drift_at_positions(drift_b, ts, xs, grid, rho_b)
        a_vals = np.asarray(diff.a(ts, xs), dtype=np.float64)
        return (b_a - b_b) / np.sqrt(a_vals)

    src = "flow" if (drift_a.density_dependent and flow_a is not None) else "auto"
    _, acc, _ = _evolve(x0, drift_a, diff, grid, 0.0, t, dt, seed,
                        density_source=src, frozen_flow=flow_a, quad_fn=xi_fn)
    vals = 0.5 * acc.quad
    return float(np.mean(vals)), float(np.std(vals) / math.sqrt(n_paths))


# ---------------------------------------------------------------------------
# exponential moment estimation (two-regime bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeField:
    """Space-time function f with its declared integrability class (p, q); a
    positive cap_coeff caps |f| at cap_coeff * dx^{-cap_exponent} on grids."""

    fn: object
    p: float
    q: float
    cap_coeff: float = 0.0
    cap_exponent: float = 0.0
    name: str = "field"

    def evaluate(self, t, x, dx: float) -> np.ndarray:
        v = np.asarray(self.fn(t, x), dtype=np.float64)
        if self.cap_coeff > 0:
            cap = self.cap_coeff * dx ** (-self.cap_exponent)
            v = np.clip(v, -cap, cap)
        return v


def builtin_field(name: str, params: dict | None = None) -> SpaceTimeField:
    p = dict(params or {})
    pp = float(p.pop("p", 4.0))
    qq = float(p.pop("q", 4.0))
    if not in_integrability_class(pp, qq):
        raise InvalidParameterError(f"(p, q) = ({pp}, {qq}) outside the admissible class")
    if name == "constant":
        c0 = float(p.pop("c0", 0.5))
        if p:
            raise InvalidParameterError(f"unknown constant-field parameters: {sorted(p)}")
        return SpaceTimeField(fn=lambda t, x: np.full_like(np.asarray(x, float), c0),
                              p=pp, q=qq, name="constant")
    if name == "singular_power":
        coeff = float(p.pop("coeff", 1.0))
        gamma = float(p.pop("gamma", 0.3))
        center = float(p.pop("center", 0.0))
        if p:
            raise InvalidParameterError(f"unknown singular-field parameters: {sorted(p)}")

        def fn(t, x):
            r = np.abs(np.asarray(x, float) - center)
            out = np.zeros_like(r)
            near = r <= 1.0
            with np.errstate(divide="ignore"):
                out[near] = coeff * r[near] ** (-gamma)
            out[~np.isfinite(out)] = np.inf
            return out

        return SpaceTimeField(fn=fn, p=pp, q=qq, cap_coeff=coeff, cap_exponent=gamma,
                              name="singular_power")
    raise InvalidParameterError(f"unknown field name '{name}'")


@dataclass(frozen=True)
class KhasminskiiReport:
    """Two-regime exponential moment verdict for one field and lambda grid.

    bound_quadratic is the smallest c with log E <= c ||lambda f||^2 on the
    small-norm regime; bound_superlinear the smallest c with
    log E <= c lambda^q int ||f_r||_p^q dr on the rest; the regimes split at
    ||lambda f|| = 1.
    """

    lambda_values: tuple
    mc_estimates: tuple
    mc_stderr: tuple
    bound_quadratic: float
    bound_superlinear: float
    regime_split: float
    log_estimates: tuple
    ess: tuple
    unreliable: tuple
    bounds_hold: bool
    norm_spacetime: float
    time_integral_norm: float


def field_spacetime_norm(f: SpaceTimeField, grid: Grid1D, s: float, t: float,
                         n_time: int = 129):
    """(||f||_{~L^p_q(s,t)}, int_s^t ||f_r||_{~L^p}^q dr) on the grid, capped."""
    times = np.linspace(s, t, n_time)
    vals = np.stack([f.evaluate(float(tt), grid.centers, grid.dx) for tt in times])
    if not np.all(np.isfinite(vals)):
        return float("inf"), float("inf")
    if s > 0:
        nodes = np.concatenate(([0.0], times))
        mat = np.vstack([np.zeros(grid.n_cells), vals])
    else:
        nodes, mat = times, vals
    tg = TimeGrid(nodes)
    norm = tilde_spacetime_norm(mat, f.p, f.q, s, t, time_grid=tg, grid=grid)
    per_node = np.array([tilde_norm(vals[i], f.p, grid) for i in range(n_time)])
    integral = float(np.trapezoid(per_node ** f.q, x=times))
    return norm, integral


def khasminskii_mc(f: SpaceTimeField, drift: DriftSpec, diff: DiffusionSpec,
                   s: float, t: float, lambda_grid, n_paths: int, dt: float,
                   grid: Grid1D, seed: int, x0: float = 0.0) -> KhasminskiiReport:
    """Monte Carlo E[exp(lambda^2 int_s^t f(X_r)^2 dr)] across a lambda grid,
    with the smallest constants making the two-regime bound hold.

    All lambdas reuse one set of simulated quadratic functionals, so the map
    lambda -> log estimate is exactly convex (log-sum-exp) and the estimator
    noise is common across the grid.  Estimates whose effective sample size
    falls below 100 are flagged unreliable rather than silently reported.
    """
    lam = np.asarray(lambda_grid, dtype=np.float64)
    if lam.size < 2 or np.any(lam <= 0):
        raise InvalidParameterError("lambda grid must be positive with >= 2 entries")
    if not (0 <= s < t):
        raise InvalidParameterError("need 0 <= s < t")
    norm, integral = field_spacetime_norm(f, grid, s, t)
    if not np.isfinite(norm):
        raise InvalidParameterError("field has infinite localized space-time norm")
    x_init = np.full(n_paths, float(x0))
    quad = lambda tt, xx: f.evaluate(tt, xx, grid.dx)
    _, acc, _ = _evolve(x_init, drift, diff, grid, s, t, dt, seed, quad_fn=quad)
    tau = acc.quad
    log_est, est, se, ess_arr, unrel = [], [], [], [], []
    n = float(n_paths)
    for lv in lam:
        w = lv * lv * tau
        lme = float(logsumexp(w) - math.log(n))
        log_est.append(lme)
        est.append(float(np.exp(lme)) if lme < _LOG_WEIGHT_CAP else float("inf"))
        m = float(np.max(w))
        ew = np.exp(w - m)
        var_shift = float(np.var(ew))
        se_val = math.exp(m) * math.sqrt(var_shift / n) if m < _LOG_WEIGHT_CAP else float("inf")
        se.append(se_val)
        denom = float(np.sum(ew ** 2))
        ess_val = float(np.sum(ew) ** 2 / denom) if denom > 0 else 0.0
        ess_arr.append(ess_val)
        unrel.append(ess_val < 100.0)
    log_est = np.array(log_est)
    split = 1.0 / norm if norm > 0 else float("inf")
    small = lam * norm <= 1.0
    c_quad = 0.0
    if np.any(small):
        c_quad = float(np.max(log_est[small] / ((lam[small] * norm) ** 2)))
    c_super = 0.0
    if np.any(~small):
        c_super = float(np.max(log_est[~small] / (lam[~small] ** f.q * integral)))
    bounds = []
    for i, lv in enumerate(lam):
        b = c_quad * (lv * norm) ** 2 if small[i] else c_super * lv ** f.q * integral
        se_log = se[i] / est[i] if np.isfinite(est[i]) and est[i] > 0 else 0.0
        bounds.append(log_est[i] - 3.0 * se_log <= b + 1e-12)
    return KhasminskiiReport(
        lambda_values=tuple(float(v) for v in lam),
        mc_estimates=tuple(est),
        mc_stderr=tuple(se),
        bound_quadratic=c_quad,
        bound_superlinear=c_super,
        regime_split=float(split),
        log_estimates=tuple(float(v) for v in log_est),
        ess=tuple(ess_arr),
        unreliable=tuple(bool(u) for u in unrel),
        bounds_hold=bool(all(bounds)),
        norm_spacetime=float(norm),
        time_integral_norm=float(integral),
    )
