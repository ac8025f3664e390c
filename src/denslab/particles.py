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

Every particle-facing operation runs the same Euler-Maruyama march
(`_march`), which yields each step and differs between callers only in the
grid density its drift reads: none, a frozen flow, or the ensemble KDE.  On
the steps, `euler_maruyama_mkv` records KDE snapshots, `girsanov_log_weights_mc`
sums the Girsanov log-weight, and `path_relative_entropy_mc` and
`khasminskii_mc` integrate f(r, X_r)^2 by the trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .dynamics import (
    DiffusionSpec,
    DriftSpec,
    drift_at_positions,
    in_integrability_class,
    power_singularity,
)
from .errors import InvalidParameterError, SolverFailureError

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
    mean, sigma) spec, or an explicit array; reflected into `grid` if given."""
    if isinstance(init, GridDensity):
        x = density_quantiles(init, raw_uniforms(seed, _STREAM_INIT, 0, n))
    elif isinstance(init, (tuple, list)) and len(init) == 3 and init[0] == "gaussian":
        _, mean, sigma = init
        x = float(mean) + float(sigma) * normal_increments(seed, _STREAM_INIT, 0, n)
    else:
        x = np.array(init, dtype=np.float64)
        if not (x.ndim == 1 and x.size == n):
            raise InvalidParameterError("unsupported initial sampling spec")
    return x if grid is None else _reflect(x, grid.x_min, grid.x_max)


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


def _density_rule(drift: DriftSpec, grid: Grid1D, flow: DensityFlow | None = None,
                  bandwidth_rule="silverman"):
    """The grid density `drift` reads at (t, positions): None for a
    density-free drift, the frozen `flow` when one is given, otherwise the
    ensemble's own KDE."""
    if not drift.density_dependent:
        return None
    if flow is not None:
        return lambda t, x: flow.values_at(t)
    return lambda t, x: kde(x, _bandwidth(bandwidth_rule, x), grid).values


class _Step(NamedTuple):
    """One Euler-Maruyama step from time t to t + dt."""

    t: float
    x: np.ndarray                # positions at t
    rho: np.ndarray | None       # grid density the drift read at t
    b: np.ndarray                # drift at (t, x)
    sigma: np.ndarray            # sqrt(a(t, x))
    dw: np.ndarray               # Brownian increments
    x_next: np.ndarray           # reflected positions at t + dt


def _march(x0: np.ndarray, drift: DriftSpec, diff: DiffusionSpec, grid: Grid1D,
           t_start: float, t_end: float, dt: float, seed: int, density):
    """Yield every step of the Euler-Maruyama march from x0; `density` is a
    `_density_rule`.  Step s draws its increments from (seed, s)."""
    n_steps = int(round((t_end - t_start) / dt))
    if abs(t_start + n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise InvalidParameterError("(t_end - t_start) must be a multiple of dt")
    sqrt_dt = math.sqrt(dt)
    x = x0
    for s in range(n_steps):
        t = t_start + s * dt
        rho = density(t, x) if density is not None else None
        b = drift_at_positions(drift, t, x, grid, rho)
        sigma = np.sqrt(np.asarray(diff.a(t, x), dtype=np.float64))
        if s == 0:
            cfl = float(np.max(np.abs(b))) * dt
            if cfl > grid.dx * (1.0 + 1e-9):
                raise InvalidParameterError(
                    f"dt * max|b| = {cfl:.3e} exceeds the grid scale {grid.dx:.3e}")
        dw = sqrt_dt * normal_increments(seed, _STREAM_EVOLVE, s, x.size)
        x_next = _reflect(x + b * dt + sigma * dw, grid.x_min, grid.x_max)
        if not np.all(np.isfinite(x_next)):
            raise SolverFailureError(f"non-finite particle position at step {s}")
        yield _Step(t, x, rho, b, sigma, dw, x_next)
        x = x_next


def _integral_sq(f, march, t_start: float, x0: np.ndarray, dt: float) -> np.ndarray:
    """Per-path trapezoid int f(r, X_r)^2 dr along a march started at x0."""
    total = np.zeros(x0.size)
    prev = f(t_start, x0) ** 2
    for st in march:
        cur = f(st.t + dt, st.x_next) ** 2
        total += 0.5 * (prev + cur) * dt
        prev = cur
    return total


def euler_maruyama_mkv(init, drift: DriftSpec, diff: DiffusionSpec, n_particles: int,
                       dt: float, T: float, grid: Grid1D, seed: int,
                       bandwidth_rule="silverman",
                       record_grid: TimeGrid | None = None):
    """Simulate the interacting system and return (final ensemble, KDE flow).

    Each step rebuilds the ensemble KDE on the grid, evaluates the drift per
    particle at (t, X_i, rho(X_i), rho-features), and advances with the
    particle's own normal increment; boundaries reflect so the truncated
    domain matches the PDE solver's no-flux choice.  The flow holds one KDE
    per distinct step that a record node rounds to, at that step's time.
    """
    if n_particles < 1 or dt <= 0 or T <= 0:
        raise InvalidParameterError("need n_particles >= 1, dt > 0, T > 0")
    if drift.density_dependent and n_particles < 1000:
        raise InvalidParameterError("density feedback needs at least 1000 particles")
    x = sample_initial(init, n_particles, seed, grid)
    tg = record_grid if record_grid is not None else TimeGrid.uniform(T, max(1, int(round(T / dt))))
    if tg.T > T * (1 + 1e-9):
        raise InvalidParameterError(f"record grid extends to {tg.T} beyond T = {T}")
    steps = sorted({int(round(t / dt)) for t in tg.nodes})
    snaps = [kde(x, _bandwidth(bandwidth_rule, x), grid)]   # node 0 is step 0
    march = _march(x, drift, diff, grid, 0.0, T, dt, seed,
                   _density_rule(drift, grid, bandwidth_rule=bandwidth_rule))
    for s, st in enumerate(march, start=1):
        x = st.x_next
        if s in steps:
            snaps.append(kde(x, _bandwidth(bandwidth_rule, x), grid))
    return (ParticleEnsemble(positions=x, time=T),
            DensityFlow(TimeGrid(np.array(steps) * dt), tuple(snaps)))


def girsanov_log_weights_mc(drift_ref: DriftSpec, drift_alt: DriftSpec, diff: DiffusionSpec,
                            init, t: float, n_paths: int, dt: float, grid: Grid1D,
                            seed: int, flow_ref: DensityFlow | None = None,
                            flow_alt: DensityFlow | None = None) -> np.ndarray:
    """log R_t for n_paths reference-drift paths (vectorized single pass).

    Without `flow_alt` the alternative drift reads the same density as the
    reference drift."""
    x0 = sample_initial(init, n_paths, seed, grid)
    log_r = np.zeros(n_paths)
    for st in _march(x0, drift_ref, diff, grid, 0.0, t, dt, seed,
                     _density_rule(drift_ref, grid, flow_ref)):
        rho_alt = flow_alt.values_at(st.t) if flow_alt is not None else st.rho
        xi = (drift_at_positions(drift_alt, st.t, st.x, grid, rho_alt) - st.b) / st.sigma
        log_r += xi * st.dw - 0.5 * xi * xi * dt
    return log_r


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

    def xi_fn(ts, xs):
        rho_a = flow_a.values_at(ts) if flow_a is not None else None
        rho_b = flow_b.values_at(ts) if flow_b is not None else None
        b_a = drift_at_positions(drift_a, ts, xs, grid, rho_a)
        b_b = drift_at_positions(drift_b, ts, xs, grid, rho_b)
        a_vals = np.asarray(diff.a(ts, xs), dtype=np.float64)
        return (b_a - b_b) / np.sqrt(a_vals)

    march = _march(x0, drift_a, diff, grid, 0.0, t, dt, seed,
                   _density_rule(drift_a, grid, flow_a))
    vals = 0.5 * _integral_sq(xi_fn, march, 0.0, x0, dt)
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
        return SpaceTimeField(fn=lambda t, x: power_singularity(x, center, coeff, gamma),
                              p=pp, q=qq, cap_coeff=coeff, cap_exponent=gamma,
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
    march = _march(x_init, drift, diff, grid, s, t, dt, seed, _density_rule(drift, grid))
    tau = _integral_sq(lambda tt, xx: f.evaluate(tt, xx, grid.dx), march, s, x_init, dt)
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
