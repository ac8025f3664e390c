"""Independent reference routines that only the test suite uses.

Exact transport on small atomic measures (monotone coupling and a
transportation linear program), the expW calibration bisected on
`exp_wasserstein` itself, the localized measure distance, the unit-window
norm of one row by its own window sums, the space-time localized norm and
its p = inf value by scipy's maximum filter, the discounted flow distance, a
one-path Girsanov log-weight and the Monte Carlo Girsanov and path-entropy
estimators on the particle march, the particle step written out of place
(cloud-in-cell KDE and gather, np.where reflection, uniforms) with a march
built from it, the particle march drawing its normals serially and its rule
for reading a frozen flow, a single Fokker-Planck step, a frozen flow read
at one time by binary search, the reference steps that assemble the banded
matrix afresh and solve it as symmetric positive definite or by a pivoted
LU, the capped singular_well term, a writer for density CSVs and a reader
for the flow directories the CLI writes.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded, solveh_banded
from scipy.ndimage import maximum_filter1d
from scipy.optimize import linprog
from scipy.signal import fftconvolve
from scipy.special import ndtri

from denslab import particles
from denslab.dynamics import (
    DiffusionSpec,
    DriftSpec,
    _advance,
    _factor,
    _singular_sum,
    density_features,
    drift_at_positions,
)
from denslab.density_core import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    _rescaled,
    _spacetime_norm,
    _window_half_cells,
    _window_sums,
    _write_csv,
    load_density,
    normalize,
    tilde_norm,
)
from denslab.errors import InvalidParameterError, NumericalError, NumericOverflowError
from denslab.metrics import FlowMetricSpec, exp_wasserstein

_MASS_TOL = 1e-6


# ---------------------------------------------------------------------------
# atomic measures: exact quantile coupling and the LP oracle
# ---------------------------------------------------------------------------

def _check_atoms(xs, ws):
    xs = np.asarray(xs, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)
    if xs.shape != ws.shape or xs.ndim != 1:
        raise InvalidParameterError("atoms: positions and weights must be 1D and equal length")
    if np.any(ws < -1e-12) or abs(ws.sum() - 1.0) > _MASS_TOL:
        raise NumericalError("atom weights must be nonnegative and sum to 1")
    return xs, np.maximum(ws, 0.0)


def quantile_coupling_cost(xs, ws, ys, vs, cost) -> float:
    """Expected cost under the monotone coupling of two atomic measures.

    Exact: segments of the uniform variable are split at the merged CDF
    breakpoints of both measures.
    """
    xs, ws = _check_atoms(xs, ws)
    ys, vs = _check_atoms(ys, vs)
    ox, oy = np.argsort(xs, kind="stable"), np.argsort(ys, kind="stable")
    xs, ws, ys, vs = xs[ox], ws[ox], ys[oy], vs[oy]
    cw = np.concatenate(([0.0], np.cumsum(ws)))
    cv = np.concatenate(([0.0], np.cumsum(vs)))
    cw[-1] = cv[-1] = 1.0
    cuts = np.unique(np.concatenate((cw, cv)))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 1e-15:
            continue
        mid = 0.5 * (a + b)
        i = np.searchsorted(cw, mid, side="right") - 1
        j = np.searchsorted(cv, mid, side="right") - 1
        total += (b - a) * cost(xs[min(i, len(xs) - 1)], ys[min(j, len(ys) - 1)])
    return float(total)


def wasserstein_atoms(xs, ws, ys, vs, q: float = 1.0) -> float:
    """Exact q-Wasserstein distance between small atomic measures."""
    if q < 1:
        raise InvalidParameterError("q must be >= 1")
    cost = lambda x, y: abs(x - y) ** q
    return quantile_coupling_cost(xs, ws, ys, vs, cost) ** (1.0 / q)


def coupling_lp_cost(xs, ws, ys, vs, cost) -> float:
    """Optimal expected cost via an exact transportation linear program.

    Independent oracle for the quantile-coupling routines; supports arbitrary
    cost matrices but only desk-scale supports (<= ~50 atoms a side).
    """
    xs, ws = _check_atoms(xs, ws)
    ys, vs = _check_atoms(ys, vs)
    n, m = len(xs), len(ys)
    if n > 64 or m > 64:
        raise InvalidParameterError("LP oracle is for small supports (<= 64 atoms)")
    C = np.array([[cost(x, y) for y in ys] for x in xs])
    A_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        A_eq.append(row)
        b_eq.append(ws[i])
    for j in range(m - 1):  # last column constraint is redundant
        row = np.zeros(n * m)
        row[j::m] = 1.0
        A_eq.append(row)
        b_eq.append(vs[j])
    res = linprog(C.ravel(), A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise NumericalError(f"transportation LP infeasible: {res.message}")
    return float(res.fun)


def wasserstein_lp_oracle(xs, ws, ys, vs, q: float = 1.0) -> float:
    """Exact q-Wasserstein distance between atomic measures by linear programming."""
    if q < 1:
        raise InvalidParameterError("q must be >= 1")
    cost = lambda x, y: abs(x - y) ** q
    return coupling_lp_cost(xs, ws, ys, vs, cost) ** (1.0 / q)


# ---------------------------------------------------------------------------
# expW calibration by bisection on exp_wasserstein
# ---------------------------------------------------------------------------

def smallest_expw_constant(mu: GridDensity, nu: GridDensity, target: float) -> float:
    """Smallest c with exp_wasserstein(mu, nu, c) >= target (0 at noise level),
    each probe a full `exp_wasserstein` call; the Renyi experiment bisects
    the same way on the pair's quantile gap computed once."""
    if target <= 1e-12:
        return 0.0
    lo, hi = 0.0, 1e-6
    while exp_wasserstein(mu, nu, hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise NumericOverflowError("dominance calibration diverged")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= 0:
            break
        if exp_wasserstein(mu, nu, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# localized measure distance and space-time norm
# ---------------------------------------------------------------------------

def tilde_measure_distance_l1(mu: GridDensity, nu: GridDensity) -> float:
    """Localized total-variation-type distance: sup_z int_{[z-1,z+1]} |rho_mu - rho_nu|.

    The inner supremum over test functions |f| <= 1 is attained at
    f = sign(rho_mu - rho_nu), so this is the windowed L^1 norm of the
    density difference; it never exceeds the global L^1 distance.
    """
    if mu.grid != nu.grid:
        raise NumericalError("densities live on different grids")
    return tilde_norm(mu.values - nu.values, 1.0, mu.grid)


def reference_tilde_norm(values, k: float, grid: Grid1D) -> float:
    """`tilde_norm` of one row by its own window sums (the sup norm at k = inf),
    `_rescaled` where a power under- or overflows: what `_row_norms` must
    reproduce bit for bit."""
    m = _window_half_cells(grid)
    if np.isinf(k):
        return float(np.max(np.abs(values)))
    return float(_rescaled(np.abs(values),
                           lambda a: np.max(_window_sums(a ** k * grid.dx, m)) ** (1.0 / k)))


def tilde_spacetime_norm(values, times, p: float, q: float, grid: Grid1D) -> float:
    """Space-time localized norm: sup_z ( int ||f_r 1_{[z-1,z+1]}||_p^q dr )^(1/q).

    The supremum over z is joint: one window center for the whole time
    integral.  Time integration is the trapezoid rule over exactly the given
    node times; `values` is the (len(times), n_cells) array of node values.
    """
    return _spacetime_norm(values, times, p, q, grid)[0]


def reference_sup_spacetime_norm(values, times, q: float, grid: Grid1D) -> float:
    """The space-time norm at p = inf, each node's windowed sup norms taken by
    scipy.ndimage's maximum_filter1d over [i-m, i+m], 0 beyond the row: what
    `_spacetime_norm` must reproduce bit for bit."""
    m = _window_half_cells(grid)
    W = maximum_filter1d(np.abs(values), size=2 * m + 1, axis=-1, mode="constant", cval=0.0)
    if np.isinf(q):
        return float(np.max(W))
    return float(_rescaled(
        W, lambda b: np.max(np.trapezoid(b ** q, x=times, axis=0)) ** (1.0 / q)))


# ---------------------------------------------------------------------------
# discounted flow distance
# ---------------------------------------------------------------------------

def d_lambda(gamma: DensityFlow, eta: DensityFlow, spec: FlowMetricSpec) -> float:
    """Discounted sup-in-time distance between two density flows:
    max over nodes of exp(-lambda t) t^e ||gamma(t) - eta(t)||_{~L^k}
    (node 0 as in `FlowMetricSpec.weighted_sup`)."""
    if not np.array_equal(gamma.time_grid.nodes, eta.time_grid.nodes):
        raise NumericalError("flows live on different time grids")
    grid = gamma.snapshots[-1].grid
    if grid != eta.snapshots[-1].grid:
        raise NumericalError("flows live on different spatial grids")
    diffs = gamma.values_matrix() - eta.values_matrix()
    gaps = np.array([tilde_norm(row, spec.k, grid) for row in diffs])
    return spec.weighted_sup(gamma.time_grid.nodes, gaps)


# ---------------------------------------------------------------------------
# one stored path: Girsanov log-weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticlePath:
    """One stored trajectory with its Brownian increments."""

    times: np.ndarray
    positions: np.ndarray
    brownian_increments: np.ndarray


def girsanov_log_weight(path: ParticlePath, drift_ref: DriftSpec, drift_alt: DriftSpec,
                        diff: DiffusionSpec, grid: Grid1D,
                        flow_ref: DensityFlow | None = None,
                        flow_alt: DensityFlow | None = None) -> float:
    """log R along one stored path: sum xi dW - 1/2 sum xi^2 dt with
    xi = (b_alt - b_ref) / sqrt(a) evaluated at the step starts."""
    t, xs, dw = path.times, path.positions, path.brownian_increments
    if len(t) != len(xs) or len(dw) != len(t) - 1:
        raise InvalidParameterError("path arrays are inconsistent")
    total = 0.0
    for i in range(len(dw)):
        ti, xi_pos = float(t[i]), np.array([xs[i]])
        rho_ref = flow_ref.values_at(ti) if flow_ref is not None else None
        rho_alt = flow_alt.values_at(ti) if flow_alt is not None else None
        b_ref = drift_at_positions(drift_ref, ti, xi_pos, grid, rho_ref)[0]
        b_alt = drift_at_positions(drift_alt, ti, xi_pos, grid, rho_alt)[0]
        xi = (b_alt - b_ref) / math.sqrt(diff.a)
        if not np.isfinite(xi):
            raise NumericalError("non-finite Girsanov integrand along the path")
        total += xi * float(dw[i]) - 0.5 * xi * xi * float(t[i + 1] - t[i])
    return float(total)


# ---------------------------------------------------------------------------
# path estimators on the particle march: Girsanov log-weights, path entropy
# ---------------------------------------------------------------------------

def frozen_density_rule(drift: DriftSpec, flow: DensityFlow):
    """The particle march's density rule for `drift` reading the frozen `flow` at
    each step's time by a fresh `DensityFlow._reader`, with no cells; None for a
    density-free drift."""
    if not drift.density_dependent:
        return None
    read = flow._reader()
    return lambda t, x: (read(t), None)


def _path_density(drift: DriftSpec, grid: Grid1D, flow: DensityFlow | None):
    """The grid density a path estimator's drift reads: the frozen `flow`, or
    without one the ensemble's own KDE."""
    if flow is None:
        return particles._density_rule(drift, grid)
    return frozen_density_rule(drift, flow)


def girsanov_log_weights_mc(drift_ref: DriftSpec, drift_alt: DriftSpec, diff: DiffusionSpec,
                            init, t: float, n_paths: int, dt: float, grid: Grid1D,
                            seed: int, flow_ref: DensityFlow | None = None,
                            flow_alt: DensityFlow | None = None) -> np.ndarray:
    """log R_t for n_paths reference-drift paths (vectorized single pass).

    Without `flow_alt` the alternative drift reads the same density as the
    reference drift."""
    x0 = particles.sample_initial(init, n_paths, seed, grid)
    log_r = np.zeros(x0.size)       # empty for n_paths < 1, which _march rejects
    for st in particles._march(x0, drift_ref, diff, grid, 0.0, t, dt, seed,
                               _path_density(drift_ref, grid, flow_ref)):
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
    x0 = particles.sample_initial(init, n_paths, seed, grid)
    sigma = math.sqrt(diff.a)

    def xi_fn(ts, xs):
        rho_a = flow_a.values_at(ts) if flow_a is not None else None
        rho_b = flow_b.values_at(ts) if flow_b is not None else None
        b_a = drift_at_positions(drift_a, ts, xs, grid, rho_a)
        b_b = drift_at_positions(drift_b, ts, xs, grid, rho_b)
        return (b_a - b_b) / sigma

    march = particles._march(x0, drift_a, diff, grid, 0.0, t, dt, seed,
                             _path_density(drift_a, grid, flow_a))
    vals = 0.5 * particles._integral_sq(xi_fn, march, 0.0, x0, dt)
    return float(np.mean(vals)), float(np.std(vals) / math.sqrt(n_paths))


# ---------------------------------------------------------------------------
# the particle step, out of place, and a march built from it
# ---------------------------------------------------------------------------

def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: tells -0.0 from 0.0 and compares NaNs."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_uniforms(seed: int, tag: int, step: int, n: int) -> np.ndarray:
    """Uniforms of draw (seed, tag, step * block + i), block = n rounded up to
    a multiple of 4, with the arithmetic out of place."""
    block = 4 * ((n + 3) // 4)
    mask = (1 << 64) - 1
    bg = np.random.Philox(key=np.array([seed & mask, tag & mask], dtype=np.uint64))
    bg.advance((step * block) >> 2)
    raw = bg.random_raw(block)[:n]
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def reference_reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Mirror at hi, then at lo, then clip: three np.where passes."""
    x = np.where(x > hi, 2.0 * hi - x, x)
    x = np.where(x < lo, 2.0 * lo - x, x)
    return np.clip(x, lo, hi)


def reference_cells(x: np.ndarray, grid: Grid1D) -> tuple:
    """Cloud-in-cell: each position's lower cell floor((x - c[0]) / dx), as a
    float (NaN at a NaN x), and the remainder, its weight on the cell above."""
    dx = grid.dx
    rel = (x - (grid.x_min + 0.5 * dx)) / dx
    lower = np.floor(rel)
    return lower, rel - lower


def reference_gather(x: np.ndarray, grid: Grid1D, y: np.ndarray) -> np.ndarray:
    """y read at x clamped to [c[0], c[-1]] with `reference_cells`' weights:
    y[i0] + frac * (y[i0+1] - y[i0]), y[i0+1] being y[-1] at the last cell;
    NaN reads NaN."""
    c = grid.centers
    lower, frac = reference_cells(np.clip(x, c[0], c[-1]), grid)
    i0 = np.nan_to_num(lower).astype(np.int64)
    y_up = np.append(y[1:], y[-1])
    return y[i0] + frac * (y_up[i0] - y[i0])


def reference_drift_at_positions(drift: DriftSpec, t: float, x: np.ndarray, grid: Grid1D,
                                 rho_values: np.ndarray | None) -> np.ndarray:
    """The drift at x with the density and every feature read by `reference_gather`."""
    b = np.asarray(drift.b1(t, x), dtype=np.float64) + _singular_sum(drift, t, x, grid.dx)
    if drift.nemytskii is not None:
        r = reference_gather(x, grid, rho_values)
        feats_grid = density_features(rho_values, grid, drift)
        feats = {k: reference_gather(x, grid, v) for k, v in feats_grid.items()}
        b = b + np.asarray(drift.nemytskii(t, x, r, feats), dtype=np.float64)
    return b


def reference_power_singularity(x, center: float, coeff: float, gamma: float) -> np.ndarray:
    """coeff |x - center|^(-gamma) computed only where |x - center| <= 1
    (inf at the centre), 0 elsewhere."""
    r = np.abs(np.asarray(x, dtype=np.float64) - center)
    out = np.zeros_like(r)
    near = r <= 1.0
    with np.errstate(divide="ignore"):
        out[near] = coeff * r[near] ** (-gamma)
    out[~np.isfinite(out)] = np.inf
    return out


def reference_singular_sum(x, x0: float, coeff: float, gamma: float,
                           dx: float) -> np.ndarray:
    """The singular_well term -sign(x - x0) coeff |x - x0|^(-gamma) on
    |x - x0| <= 1 (0 at x0 itself), clipped to +-coeff dx^(-gamma)."""
    r = np.asarray(x, dtype=np.float64) - x0
    with np.errstate(invalid="ignore"):     # -sign(0) * inf at x0 is replaced by 0
        v = np.where(r == 0, 0.0, -np.sign(r) * reference_power_singularity(x, x0, coeff, gamma))
    cap = coeff * dx ** (-gamma)
    return np.minimum(np.maximum(v, -cap), cap)


def reference_kde(positions: np.ndarray, bandwidth: float, grid: Grid1D) -> GridDensity:
    """Cloud-in-cell deposit of the particles on the grid (those outside it
    dropped), by two np.add.at calls, then Gaussian smoothing by FFT."""
    x = np.asarray(positions, dtype=np.float64)
    xin = x[(x >= grid.x_min) & (x <= grid.x_max)]
    dx = grid.dx
    lower, frac = reference_cells(xin, grid)
    i0 = lower.astype(np.int64)
    hist = np.zeros(grid.n_cells)
    np.add.at(hist, np.clip(i0, 0, grid.n_cells - 1), 1.0 - frac)
    np.add.at(hist, np.clip(i0 + 1, 0, grid.n_cells - 1), frac)
    hist /= xin.size * dx
    half = int(np.ceil(8.0 * bandwidth / dx))
    u = np.arange(-half, half + 1) * dx
    kern = np.exp(-0.5 * (u / bandwidth) ** 2)
    kern /= kern.sum()
    smooth = fftconvolve(hist, kern, mode="same")
    return normalize(GridDensity(grid, np.maximum(smooth, 0.0)))


def serial_march(x0: np.ndarray, drift: DriftSpec, diff: DiffusionSpec, grid: Grid1D,
                 t_start: float, t_end: float, dt: float, seed: int, density):
    """The steps of `particles._march` from x0, each step's normals drawn on
    the calling thread when the step needs them, with the march's in-place
    roundings; the drift finds its own cells."""
    n_steps = int(round((t_end - t_start) / dt))
    sqrt_dt, sigma = math.sqrt(dt), math.sqrt(diff.a)
    x = x0
    for s in range(n_steps):
        t = t_start + s * dt
        rho = density(t, x)[0] if density is not None else None
        b = drift_at_positions(drift, t, x, grid, rho)
        cfl = max(float(b.max()), -float(b.min())) * dt
        if cfl > grid.dx * (1.0 + 1e-9):
            raise InvalidParameterError(
                f"dt * max|b| = {cfl:.3e} exceeds the grid scale {grid.dx:.3e} at step {s}")
        dw = particles.normal_increments(seed, particles._STREAM_EVOLVE, s, x.size)
        dw *= sqrt_dt
        move = b * dt
        move += x
        move += sigma * dw
        x_next = particles._reflect(move, grid.x_min, grid.x_max)
        if not np.all(np.isfinite(x_next)):
            raise NumericalError(f"non-finite particle position at step {s}")
        yield particles._Step(t, x, rho, b, sigma, dw, x_next)
        x = x_next


def reference_mkv(mean: float, sd: float, drift: DriftSpec, diff: DiffusionSpec, n: int,
                  dt: float, n_steps: int, grid: Grid1D, seed: int, bandwidth,
                  record_steps) -> tuple:
    """The interacting-particle march from a ("gaussian", mean, sd) start:
    each step reads the ensemble's KDE, gathers the drift by `reference_gather`,
    draws step s's normals from stream 2 and reflects.  Returns the final
    positions and the KDE values at step 0 and at each step in `record_steps`.
    `bandwidth` maps positions to the kernel width."""
    x = reference_reflect(mean + sd * ndtri(reference_uniforms(seed, 1, 0, n)),
                          grid.x_min, grid.x_max)
    snaps = [reference_kde(x, bandwidth(x), grid).values]
    for s in range(n_steps):
        t = s * dt
        rho = reference_kde(x, bandwidth(x), grid).values
        b = reference_drift_at_positions(drift, t, x, grid, rho)
        dw = math.sqrt(dt) * ndtri(reference_uniforms(seed, 2, s, n))
        x = reference_reflect(x + b * dt + math.sqrt(diff.a) * dw, grid.x_min, grid.x_max)
        if s + 1 in record_steps:
            snaps.append(reference_kde(x, bandwidth(x), grid).values)
    return x, snaps


# ---------------------------------------------------------------------------
# Fokker-Planck: one step
# ---------------------------------------------------------------------------

def step_work(n: int) -> tuple:
    """The work arrays `_advance` takes on n cells: face drift, flux, upwind mask."""
    return np.empty(n - 1), np.empty(n - 1), np.empty(n - 1, dtype=bool)


def fokker_planck_step(rho: GridDensity, drift_field_values: np.ndarray, a: float,
                       dt: float) -> GridDensity:
    """One conservative step: explicit upwind advection, implicit diffusion
    with the constant coefficient a."""
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    b = np.asarray(drift_field_values, dtype=np.float64)
    if not (np.all(np.isfinite(b)) and 0 < a < np.inf):
        raise NumericalError("non-finite coefficient field")
    dx = rho.grid.dx
    new = _advance(rho.values.copy(), b, _factor(a, dt, dx, b.size), dt, dx, step_work(b.size))
    return GridDensity(rho.grid, np.maximum(new, 0.0))


def reference_values_at(flow: DensityFlow, t: float) -> np.ndarray:
    """The flow at time t by binary search over its nodes: an end snapshot at
    or beyond an end node, else (1 - w) g_j + w g_{j+1} out of place, which
    `DensityFlow._reader` must reproduce bit for bit."""
    nodes = flow.time_grid.nodes
    if t <= nodes[0]:
        return flow.snapshots[0].values
    if t >= nodes[-1]:
        return flow.snapshots[-1].values
    j = int(np.searchsorted(nodes, t, side="right")) - 1
    w = (t - nodes[j]) / (nodes[j + 1] - nodes[j])
    return flow.snapshots[j].values * (1.0 - w) + flow.snapshots[j + 1].values * w


def _reference_system(v: np.ndarray, b: np.ndarray, a: float, dt: float,
                      dx: float) -> tuple:
    """The step `_advance` takes, assembled afresh: the right-hand side (v
    after the upwind flux) and the banded diffusion matrix, as the rows
    (super-diagonal, diagonal, sub-diagonal) of scipy's banded storage."""
    n = v.size
    bf = 0.5 * (b[:-1] + b[1:])
    flux = np.where(bf > 0, bf * v[:-1], bf * v[1:])
    rhs = v.copy()
    rhs[:-1] -= dt / dx * flux
    rhs[1:] += dt / dx * flux
    alpha = dt / (2.0 * dx * dx)
    ab = np.zeros((3, n))
    ab[0, 1:] = -alpha * a              # super-diagonal
    ab[2, :-1] = -alpha * a             # sub-diagonal
    ab[1, :] = 1.0
    ab[1, :-1] += alpha * a
    ab[1, 1:] += alpha * a
    return rhs, ab


def reference_step(v: np.ndarray, b: np.ndarray, a: float, dt: float,
                   dx: float) -> np.ndarray:
    """The step `_advance` takes, with the symmetric diffusion matrix passed to
    scipy's solveh_banded (LAPACK dptsv, which is dpttrf then dpttrs) afresh:
    what the factored march must reproduce bit for bit."""
    rhs, ab = _reference_system(v, b, a, dt, dx)
    return solveh_banded(ab[:2], rhs)


# The march's LDL^T solve against a general LU solve with partial pivoting
# (scipy's solve_banded, bit for bit the LAPACK dgttrf/dgttrs solve the march
# took before): max |difference| <= PIVOTED_RTOL * max |pivoted| per snapshot.
PIVOTED_RTOL = 1e-12


def pivoted_step(v: np.ndarray, b: np.ndarray, a: float, dt: float,
                 dx: float) -> np.ndarray:
    """The step `_advance` takes, solved by scipy's solve_banded (a general LU
    with partial pivoting): the march must agree with it to PIVOTED_RTOL."""
    rhs, ab = _reference_system(v, b, a, dt, dx)
    return solve_banded((1, 1), ab, rhs)


# ---------------------------------------------------------------------------
# flow directories
# ---------------------------------------------------------------------------

def save_density(d: GridDensity, path: str) -> None:
    """Write d as the density CSV that `load_density` and `denslab solve --mu` read."""
    _write_csv(path, "x,value", d.grid.centers, d.values)


def load_flow(in_dir: str) -> DensityFlow:
    manifest = np.loadtxt(os.path.join(in_dir, "timegrid.csv"), delimiter=",", skiprows=1)
    manifest = np.atleast_2d(manifest)
    nodes = manifest[:, 1]
    snaps = [load_density(os.path.join(in_dir, f"density_{i:04d}.csv"))
             for i in range(len(nodes))]
    return DensityFlow(TimeGrid(nodes), tuple(snaps))
