"""Interacting-particle simulation and exponential moment estimation for the
density-dependent diffusion.

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
grid density its drift reads: none, or the ensemble's own KDE.  On the steps,
`euler_maruyama_mkv` records KDE snapshots and `khasminskii_mc` integrates
f(r, X_r)^2 by the trapezoid rule; its lambda sweep takes each exponential
moment with `metrics._logsumexp`.  The draws of a step depend only on (seed,
step), so the march computes step s + 1's increments on one helper thread
while step s runs.

A step's drift reads the grid density (and its features) at every particle by
the KDE deposit's own cloud-in-cell cells and weights, found once per step (twice
if a particle lies beyond an outer cell centre): linear interpolation, np.interp's
to within the rounding in the cell's floor.  The step's scratch arrays are
allocated once per march; the KDE deposit, gather and move work in them,
with the same roundings as the out-of-place formulas kept in the tests.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .density_core import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    _Scratch,
    _spacetime_norm,
    density_quantiles,
    kde,
)
from .dynamics import (
    _MAX_SUBSTEPS,
    DiffusionSpec,
    DriftSpec,
    SpaceTimeField,
    _family_params,
    drift_at_positions,
    power_singularity,
)
from .errors import InvalidParameterError, NumericalError, NumericOverflowError
from .metrics import _EXP_CAP, _logsumexp

_STREAM_INIT = 1
_STREAM_EVOLVE = 2
_MASK64 = (1 << 64) - 1
_FIELD_TIME_NODES = 129    # time nodes of field_spacetime_norm


def raw_uniforms(seed: int, tag: int, step: int, n: int) -> np.ndarray:
    """Deterministic uniforms in (0, 1): draw (seed, tag, step*block + i)."""
    res = 4 * ((n + 3) // 4)
    bg = np.random.Philox(key=np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64))
    bg.advance((step * res) >> 2)  # advance() skips 4 raw 64-bit words per unit
    raw = bg.random_raw(res)[:n]
    raw >>= np.uint64(11)
    u = raw.view(np.float64)
    np.copyto(u, raw, casting="unsafe")     # exact below 2**53; a 1-D forward cast in place
    u += 0.5
    u *= 2.0 ** -53
    return u


def normal_increments(seed: int, tag: int, step: int, n: int) -> np.ndarray:
    """Standard normals via the inverse CDF, deterministic per (seed, tag, step, i)."""
    u = raw_uniforms(seed, tag, step, n)
    return ndtri(u, out=u)


class ParticleEnsemble(NamedTuple):
    """Final particle positions of a march (finite, at time T)."""

    positions: np.ndarray


def sample_initial(init, n: int, seed: int, grid: Grid1D) -> np.ndarray:
    """Draw initial positions from a GridDensity (inverse CDF) or a
    ("gaussian", mean, sigma) spec, reflected into `grid`."""
    if isinstance(init, GridDensity):
        x = density_quantiles(init, raw_uniforms(seed, _STREAM_INIT, 0, n))
    elif isinstance(init, (tuple, list)) and len(init) == 3 and init[0] == "gaussian":
        _, mean, sigma = init
        x = float(mean) + float(sigma) * normal_increments(seed, _STREAM_INIT, 0, n)
    else:
        raise InvalidParameterError("unsupported initial sampling spec")
    return _reflect(x, grid.x_min, grid.x_max)


def _bandwidth(bandwidth: float, positions: np.ndarray, scratch=None) -> float:
    """`bandwidth`, or Silverman's rule (np.std's value, bit for bit) when it is 0."""
    if bandwidth != 0:
        return float(bandwidth)    # kde checks it
    n = positions.size
    (dev,) = (_Scratch() if scratch is None else scratch).take(n, float)
    mean = np.add.reduce(positions, keepdims=True) / n
    sd = math.sqrt(np.add.reduce(np.square(np.subtract(positions, mean, out=dev), out=dev)) / n)
    return 1.06 * max(sd, 1e-12) * n ** (-0.2)


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """A copy of x mirrored at hi, then at lo, then clipped to [lo, hi]."""
    x = np.where(x > hi, 2.0 * hi - x, x)
    return np.clip(np.where(x < lo, 2.0 * lo - x, x), lo, hi)


def _density_rule(drift: DriftSpec, grid: Grid1D, bandwidth: float = 0.0, scratch=None):
    """The grid density `drift` reads at (t, positions) and the cells to read it by:
    None for a density-free drift, else the ensemble's own KDE, which needs at
    least 1000 particles, and its deposit's cells or None (in `scratch`)."""
    def own(t, x):
        if x.size < 1000:
            raise InvalidParameterError("density feedback needs at least 1000 particles")
        d, cells = kde(x, _bandwidth(bandwidth, x, scratch), grid, scratch, _with_cells=True)
        return d.values, cells
    return own if drift.density_dependent else None


class _Step(NamedTuple):
    """One Euler-Maruyama step from time t to t + dt."""

    t: float
    x: np.ndarray                # positions at t
    rho: np.ndarray | None       # grid density the drift read at t, until the next step
    b: np.ndarray                # drift at (t, x)
    sigma: float                 # sqrt(a)
    dw: np.ndarray               # Brownian increments
    x_next: np.ndarray           # reflected positions at t + dt


def _march(x0: np.ndarray, drift: DriftSpec, diff: DiffusionSpec, grid: Grid1D,
           t_start: float, t_end: float, dt: float, seed: int, density, scratch=None):
    """Check the inputs and return a generator of every Euler-Maruyama step from x0,
    at most _MAX_SUBSTEPS of them; `density` of (t, positions) gives the grid density
    the drift reads and the cells to read it by, or is None (see `_density_rule`).
    Step s draws its increments from (seed, s).  A single-worker pool, made on the
    first step and shut down when the generator ends, fails or is closed, draws step
    s + 1's while step s runs.  The steps work in one `_Scratch`, `scratch` if given."""
    if x0.size < 1 or not 0 < dt < np.inf or not t_start < t_end < np.inf:
        raise InvalidParameterError(
            f"need n >= 1, 0 < dt < inf and t_start < t_end < inf, got n = {x0.size}, "
            f"dt = {dt}, [{t_start}, {t_end}]")
    n_steps = int(round(min((t_end - t_start) / dt, _MAX_SUBSTEPS + 1)))    # inf at a tiny dt
    if n_steps > _MAX_SUBSTEPS or abs(t_start + n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise InvalidParameterError(f"(t_end - t_start) / dt = {(t_end - t_start) / dt:.6g} "
                                    f"must be a whole number of steps, at most {_MAX_SUBSTEPS}")
    sqrt_dt, sigma = math.sqrt(dt), math.sqrt(diff.a)
    work = _Scratch() if scratch is None else scratch

    def steps(x):
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            ahead = pool.submit(normal_increments, seed, _STREAM_EVOLVE, 0, x.size)
            for s in range(n_steps):
                t = t_start + s * dt
                rho, cells = density(t, x) if density is not None else (None, None)
                b = drift_at_positions(drift, t, x, grid, rho, _scratch=work, _deposit=cells)
                cfl = max(float(b.max()), -float(b.min())) * dt
                if cfl > grid.dx * (1.0 + 1e-9):
                    raise InvalidParameterError(
                        f"dt * max|b| = {cfl:.3e} exceeds the grid scale {grid.dx:.3e} "
                        f"at step {s}")
                dw = ahead.result()
                dw *= sqrt_dt
                if s + 1 < n_steps:     # one draw in flight at most
                    ahead = pool.submit(normal_increments, seed, _STREAM_EVOLVE, s + 1, x.size)
                noise, mask = work.take(x.size, float, bool)
                x_next = np.multiply(b, dt)
                x_last = None       # old positions freed only now, so glibc reuses its heap top
                x_next += x                 # x + b dt, then + sigma dw: the same roundings
                x_next += np.multiply(sigma, dw, out=noise)
                if not grid.x_min <= x_next.min() <= x_next.max() <= grid.x_max:
                    x_next = _reflect(x_next, grid.x_min, grid.x_max)   # else all finite
                    if not np.isfinite(x_next, out=mask).all():
                        raise NumericalError(f"non-finite particle position at step {s}")
                yield _Step(t, x, rho, b, sigma, dw, x_next)
                x_last, x = x, x_next
                del rho, b, dw, x_next      # the caller holds what it keeps of a step
        finally:
            pool.shutdown(cancel_futures=True)

    return steps(x0)


def _integral_sq(f, march, t_start: float, x0: np.ndarray, dt: float) -> np.ndarray:
    """Per-path trapezoid int f(r, X_r)^2 dr along a march started at x0."""
    total, term = np.zeros(x0.size), np.empty(x0.size)
    prev = f(t_start, x0) ** 2
    for st in march:
        cur = f(st.t + dt, st.x_next) ** 2
        total += np.multiply(np.multiply(np.add(prev, cur, out=term), 0.5, out=term), dt, out=term)
        prev = cur
    return total


def euler_maruyama_mkv(init, drift: DriftSpec, diff: DiffusionSpec, n_particles: int,
                       dt: float, T: float, grid: Grid1D, seed: int,
                       bandwidth: float = 0.0,
                       record_grid: TimeGrid | None = None):
    """Simulate the interacting system and return (final ensemble, KDE flow).

    Each step rebuilds the ensemble KDE on the grid, evaluates the drift per
    particle at (t, X_i, rho(X_i), rho-features), and advances with the
    particle's own normal increment; boundaries reflect so the truncated
    domain matches the PDE solver's no-flux choice.  The flow holds one KDE
    per distinct step that a record node rounds to, at that step's time.
    The KDE bandwidth is `bandwidth`, or Silverman's rule when it is 0.
    """
    x = sample_initial(init, n_particles, seed, grid)
    march = _march(x, drift, diff, grid, 0.0, T, dt, seed,
                   _density_rule(drift, grid, bandwidth, work := _Scratch()), work)
    tg = record_grid if record_grid is not None else TimeGrid.uniform(T, max(1, int(round(T / dt))))
    if tg.T > T * (1 + 1e-9):
        raise InvalidParameterError(f"record grid extends to {tg.T} beyond T = {T}")
    steps = sorted({int(round(t / dt)) for t in tg.nodes})
    snaps = [kde(x, _bandwidth(bandwidth, x, work), grid, work)]   # node 0 is step 0
    for s, x in enumerate(map(attrgetter("x_next"), march), start=1):   # holds no past step
        if s in steps:      # between steps: the march is suspended and its scratch idle
            snaps.append(kde(x, _bandwidth(bandwidth, x, work), grid, work))
    return (ParticleEnsemble(x),
            DensityFlow(TimeGrid(np.array(steps) * dt), tuple(snaps)))


# ---------------------------------------------------------------------------
# exponential moment estimation (two-regime bound)
# ---------------------------------------------------------------------------

# field name -> {parameter: default}; config.SCHEMA holds one khasminskii.<parameter>
# key per name
FIELD_PARAMS = {
    "constant": {"c0": 0.5, "p": 4.0, "q": 4.0},
    "singular_power": {"coeff": 1.0, "gamma": 0.3, "p": 4.0, "q": 4.0},
}


def builtin_field(name: str, params: dict | None = None) -> SpaceTimeField:
    """Named fields of FIELD_PARAMS: the constant c0, or the power
    singularity coeff |x|^(-gamma) on |x| <= 1."""
    p = _family_params("field", FIELD_PARAMS, name, params)
    pp, qq = p["p"], p["q"]
    if not math.isfinite(qq):
        raise InvalidParameterError(f"(p, q) = ({pp}, {qq}): q must be finite")
    if name == "constant":
        c0 = p["c0"]
        return SpaceTimeField(fn=lambda t, x: np.full_like(np.asarray(x, float), c0),
                              p=pp, q=qq, name=name)
    coeff, gamma = p["coeff"], p["gamma"]
    if not coeff > 0:
        raise InvalidParameterError(f"singular_power: coeff must be positive, got {coeff}")
    return SpaceTimeField(fn=lambda t, x: power_singularity(x, 0.0, coeff, gamma),
                          p=pp, q=qq, cap_coeff=coeff, cap_exponent=gamma, name=name)


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


def field_spacetime_norm(f: SpaceTimeField, grid: Grid1D, s: float, t: float):
    """(||f||_{~L^p_q(s,t)}, int_s^t ||f_r||_{~L^p}^q dr) on the grid, capped."""
    times = np.linspace(s, t, _FIELD_TIME_NODES)
    vals = np.stack([f.evaluate(float(tt), grid.centers, grid.dx) for tt in times])
    if not np.all(np.isfinite(vals)):
        return float("inf"), float("inf")
    norm, per_node = _spacetime_norm(vals, times, f.p, f.q, grid)
    with np.errstate(over="ignore"):    # a q-th power past the float range is inf
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
    if lam.size < 2 or not lam[0] > 0 or not np.all(np.diff(lam) > 0):
        raise InvalidParameterError("lambda grid needs >= 2 positive, strictly increasing values")
    if not s >= 0:
        raise InvalidParameterError(f"need s >= 0, got {s}")
    if not grid.x_min <= x0 <= grid.x_max:
        raise InvalidParameterError(f"x0 = {x0} must lie in [{grid.x_min}, {grid.x_max}]")
    x_init = np.full(max(n_paths, 0), float(x0))     # empty for n_paths < 1: _march rejects it
    march = _march(x_init, drift, diff, grid, s, t, dt, seed,
                   _density_rule(drift, grid, 0.0, work := _Scratch()), work)
    norm, integral = field_spacetime_norm(f, grid, s, t)
    for what, v in (("localized space-time norm", norm),
                    ("time integral int ||f_r||^q dr", integral)):
        if not 0 < v < np.inf:
            raise InvalidParameterError(
                f"field has {what} {v:g} on the grid; it must be positive and finite")
    top = lam[-1]      # each power below is largest at the largest lambda
    with np.errstate(over="ignore"):
        if not max(top * top, (top * norm) ** 2, top ** f.q * integral) < np.inf:
            raise InvalidParameterError(f"lambda = {top:g}: lambda^2, (lambda ||f||)^2 or "
                                        "lambda^q int ||f_r||^q dr overflows")
    tau = _integral_sq(lambda tt, xx: f.evaluate(tt, xx, grid.dx), march, s, x_init, dt)
    with np.errstate(over="ignore"):     # and so is lambda^2 tau, on the path with the largest tau
        if not top * top * np.max(tau) < np.inf:
            raise NumericOverflowError(f"lambda^2 int f^2 dr overflows at lambda = {top:g}")
    log_est, est, se, ess = [], [], [], []
    for lv in lam:
        w = lv * lv * tau
        m = float(np.max(w))
        ew = np.exp(w - m)
        lme = _logsumexp(w) - math.log(n_paths)
        log_est.append(lme)
        est.append(float(np.exp(lme)) if lme < _EXP_CAP else np.inf)
        se.append(math.exp(m) * math.sqrt(np.var(ew) / n_paths) if m < _EXP_CAP else np.inf)
        ess.append(float(np.sum(ew) ** 2 / np.sum(ew ** 2)))     # ew is 1 at the max
    log_est = np.array(log_est)
    small = lam * norm <= 1.0
    c_quad = c_super = 0.0
    if np.any(small):
        c_quad = float(np.max(log_est[small] / ((lam[small] * norm) ** 2)))
    if np.any(~small):
        c_super = float(np.max(log_est[~small] / (lam[~small] ** f.q * integral)))
    bounds = []
    for i, lv in enumerate(lam):
        b = c_quad * (lv * norm) ** 2 if small[i] else c_super * lv ** f.q * integral
        se_log = se[i] / est[i] if np.isfinite(est[i]) and est[i] > 0 else 0.0
        bounds.append(log_est[i] - 3.0 * se_log <= b + 1e-12)
    return KhasminskiiReport(
        lambda_values=tuple(float(v) for v in lam), mc_estimates=tuple(est), mc_stderr=tuple(se),
        bound_quadratic=c_quad, bound_superlinear=c_super, regime_split=float(1.0 / norm),
        log_estimates=tuple(float(v) for v in log_est), ess=tuple(ess),
        unreliable=tuple(e < 100.0 for e in ess), bounds_hold=bool(all(bounds)),
        norm_spacetime=float(norm), time_integral_norm=float(integral))
