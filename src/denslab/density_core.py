"""Spatial grids, grid densities, time grids, density flows, and localized norms.

The recurring gauge here is the unit-window ("tilde") norm: the supremum over
window centers z of the L^k norm of a function restricted to the interval
[z-1, z+1].  It is a uniform local-integrability measure, finite for many
functions whose global L^k norm diverges, and every estimate verified by the
experiment harness is stated in it.  Window centers are restricted to the
cell-center lattice, which is exact up to one cell width.

Conventions:
  * all densities live on uniform 1D grids of cell centers; integrals are
    midpoint sums sum(values) * dx;
  * a probability density has unit mass after `normalize`;
  * time grids start at 0; the geometric refinement keeps a constant node
    ratio near 0 so singular-in-time rates t^(-theta) are resolved.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d
from scipy.signal import fftconvolve

from .errors import (
    DegenerateDensityError,
    DomainTooSmallError,
    GridMismatchError,
    InvalidParameterError,
)

log = logging.getLogger(__name__)

# Negative values below this are rejected outright; above it they are treated
# as numerical noise and may be clipped by `normalize`.
NEGATIVE_TOLERANCE = -1e-5


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of cell centers on [x_min, x_max]."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise InvalidParameterError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_cells < 8:
            raise InvalidParameterError(f"n_cells must be >= 8, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def centers(self) -> np.ndarray:
        c = self.__dict__.get("_centers")
        if c is None:
            c = self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx
            self.__dict__["_centers"] = c
        return c

    @property
    def edges(self) -> np.ndarray:
        e = self.__dict__.get("_edges")
        if e is None:
            e = self.x_min + np.arange(self.n_cells + 1) * self.dx
            self.__dict__["_edges"] = e
        return e


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative grid function with the normalization of a probability density.

    Raw solver or estimator output may carry tiny negative cells; those are
    tolerated down to NEGATIVE_TOLERANCE so that `normalize` can observe and
    clip them.  Anything more negative is an input error, not noise.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_cells,):
            raise InvalidParameterError(
                f"values shape {v.shape} does not match grid with {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("density values must be finite")
        if v.min(initial=0.0) < NEGATIVE_TOLERANCE:
            raise InvalidParameterError(
                f"density has a cell at {v.min():.3e}, below the tolerated noise floor"
            )
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < ... < t_M = T."""

    nodes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise InvalidParameterError("time grid needs at least two nodes")
        if t[0] != 0.0:
            raise InvalidParameterError("time grid must start at 0")
        if not np.all(np.diff(t) > 0):
            raise InvalidParameterError("time grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", t)

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return len(self.nodes)

    @staticmethod
    def uniform(T: float, n_steps: int) -> "TimeGrid":
        if T <= 0 or n_steps < 1:
            raise InvalidParameterError("uniform grid needs T > 0 and n_steps >= 1")
        return TimeGrid(np.linspace(0.0, T, n_steps + 1))

    @staticmethod
    def geometric(T: float, t_min: float | None = None, nodes_per_decade: int = 40) -> "TimeGrid":
        """0, t_min, t_min*r, ... with r = 10^(1/nodes_per_decade), ending exactly at T."""
        if T <= 0:
            raise InvalidParameterError("T must be positive")
        if t_min is None:
            t_min = 1e-4 * T
        if not 0 < t_min < T:
            raise InvalidParameterError("need 0 < t_min < T")
        if nodes_per_decade < 1:
            raise InvalidParameterError(f"nodes_per_decade must be >= 1, got {nodes_per_decade}")
        ratio = 10.0 ** (1.0 / nodes_per_decade)
        ts = [0.0]
        t = t_min
        while t < T * (1.0 - 1e-12):
            ts.append(t)
            t *= ratio
        # keep the last geometric node only if it leaves a non-trivial gap to T
        if ts[-1] > T / np.sqrt(ratio):
            ts[-1] = T
        else:
            ts.append(T)
        return TimeGrid(np.array(ts))


@dataclass(frozen=True)
class DensityFlow:
    """Time-indexed family of grid densities on a shared spatial grid, one
    snapshot per time-grid node."""

    time_grid: TimeGrid
    snapshots: tuple

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if len(snaps) != len(self.time_grid.nodes):
            raise GridMismatchError(
                f"{len(snaps)} snapshots for {len(self.time_grid.nodes)} time nodes"
            )
        g = snaps[0].grid
        for s in snaps:
            if s.grid != g:
                raise GridMismatchError("all snapshots must share one spatial grid")
        object.__setattr__(self, "snapshots", snaps)

    @property
    def grid(self) -> Grid1D:
        return self.snapshots[-1].grid

    def values_matrix(self) -> np.ndarray:
        return np.stack([s.values for s in self.snapshots])

    def values_at(self, t: float) -> np.ndarray:
        """Linear-in-time interpolation of snapshot values at time t."""
        nodes = self.time_grid.nodes
        if t <= nodes[0]:
            return self.snapshots[0].values
        if t >= nodes[-1]:
            return self.snapshots[-1].values
        j = int(np.searchsorted(nodes, t, side="right")) - 1
        w = (t - nodes[j]) / (nodes[j + 1] - nodes[j])
        return (1.0 - w) * self.snapshots[j].values + w * self.snapshots[j + 1].values


# ---------------------------------------------------------------------------
# localized (unit-window) norms
# ---------------------------------------------------------------------------

def _window_half_cells(grid: Grid1D) -> int:
    if grid.width < 2.0:
        raise DomainTooSmallError(
            f"grid width {grid.width} is smaller than the unit-ball window (length 2)"
        )
    return int(np.floor(1.0 / grid.dx + 1e-9))


def _as_values(f, grid: Grid1D | None):
    if isinstance(f, GridDensity):
        return f.values, f.grid
    if grid is None:
        raise InvalidParameterError("a raw array needs an explicit grid")
    v = np.asarray(f, dtype=np.float64)
    if v.shape != (grid.n_cells,):
        raise GridMismatchError("array length does not match the grid")
    return v, grid


def _window_sums(w: np.ndarray, m: int) -> np.ndarray:
    """Sliding sums of w over index windows [i-m, i+m], clipped to the array."""
    c = np.concatenate(([0.0], np.cumsum(w)))
    idx = np.arange(w.size)
    lo = np.maximum(idx - m, 0)
    hi = np.minimum(idx + m, w.size - 1)
    return c[hi + 1] - c[lo]


def tilde_norm(f, k: float, grid: Grid1D | None = None) -> float:
    """sup over window centers z of the L^k norm of f restricted to [z-1, z+1].

    O(n) via a sliding partial-sum structure; k = inf degenerates to the
    global sup norm since every point lies in some window.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    v, g = _as_values(f, grid)
    if np.isinf(k):
        if g.width < 2.0:
            raise DomainTooSmallError("grid narrower than the unit-ball window")
        return float(np.max(np.abs(v)))
    m = _window_half_cells(g)
    w = np.abs(v) ** k * g.dx
    return float(np.max(_window_sums(w, m)) ** (1.0 / k))


def _windowed_p_norms(v: np.ndarray, g: Grid1D, p: float, m: int) -> np.ndarray:
    """Per-center windowed L^p norms of one grid function."""
    if np.isinf(p):
        return maximum_filter1d(np.abs(v), size=2 * m + 1, mode="constant", cval=0.0)
    return _window_sums(np.abs(v) ** p * g.dx, m) ** (1.0 / p)


def tilde_spacetime_norm(flow, p: float, q: float, s: float, t: float,
                         time_grid: TimeGrid | None = None,
                         grid: Grid1D | None = None) -> float:
    """Space-time localized norm: sup_z ( int_s^t ||f_r 1_{[z-1,z+1]}||_p^q dr )^(1/q).

    The supremum over z is joint: one window center for the whole time
    integral.  Time integration is the trapezoid rule on the time-grid nodes
    inside [s, t].  `flow` is a DensityFlow or an (n_nodes, n_cells) array of
    node values (with `time_grid` and `grid` given).
    """
    if p < 1 or q < 1:
        raise InvalidParameterError("need p, q >= 1")
    if isinstance(flow, DensityFlow):
        mat = flow.values_matrix()
        tg, g = flow.time_grid, flow.grid
    else:
        if time_grid is None or grid is None:
            raise InvalidParameterError("raw flow values need time_grid and grid")
        mat = np.asarray(flow, dtype=np.float64)
        tg, g = time_grid, grid
    if mat.shape != (len(tg.nodes), g.n_cells):
        raise GridMismatchError("flow values do not match (time_grid, grid)")
    if not (0.0 <= s < t <= tg.T + 1e-12):
        raise InvalidParameterError(f"need 0 <= s < t <= T, got [{s}, {t}]")
    sel = (tg.nodes >= s - 1e-12) & (tg.nodes <= t + 1e-12)
    times = tg.nodes[sel]
    if times.size < 2:
        raise InvalidParameterError("empty time window: fewer than two nodes in [s, t]")
    m = _window_half_cells(g)
    W = np.stack([_windowed_p_norms(mat[i], g, p, m) for i in np.nonzero(sel)[0]])
    if np.isinf(q):
        return float(np.max(W))
    integrals = np.trapezoid(W ** q, x=times, axis=0)
    return float(np.max(integrals) ** (1.0 / q))


def tilde_measure_distance_l1(mu: GridDensity, nu: GridDensity) -> float:
    """Localized total-variation-type distance: sup_z int_{[z-1,z+1]} |rho_mu - rho_nu|.

    The inner supremum over test functions |f| <= 1 is attained at
    f = sign(rho_mu - rho_nu), so this is the windowed L^1 norm of the
    density difference; it never exceeds the global L^1 distance.
    """
    if mu.grid != nu.grid:
        raise GridMismatchError("densities live on different grids")
    return tilde_norm(mu.values - nu.values, 1.0, mu.grid)


# ---------------------------------------------------------------------------
# density constructors
# ---------------------------------------------------------------------------

def normalize(d: GridDensity) -> GridDensity:
    """Project onto unit-mass nonnegative densities: clip negatives, rescale.

    Clipped mass is reported through the module logger; zero total mass is an
    error rather than a silent NaN.
    """
    v = d.values.copy()
    neg = v < 0.0
    if np.any(neg):
        clipped = -float(np.sum(v[neg]) * d.grid.dx)
        v[neg] = 0.0
        log.info("normalize: clipped %.3e of negative mass", clipped)
    mass = float(np.sum(v) * d.grid.dx)
    if mass <= 0.0:
        raise DegenerateDensityError("density has no positive mass to normalize")
    v *= 1.0 / mass
    return GridDensity(d.grid, v)


def gaussian_density(grid: Grid1D, mean: float, sigma: float) -> GridDensity:
    """Normalized Gaussian sampled at cell centers."""
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    z = (grid.centers - mean) / sigma
    v = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))
    return normalize(GridDensity(grid, v))


def uniform_density(grid: Grid1D, lo: float, hi: float) -> GridDensity:
    """Normalized indicator of [lo, hi] sampled at cell centers."""
    if not lo < hi:
        raise InvalidParameterError("need lo < hi")
    v = ((grid.centers >= lo) & (grid.centers <= hi)).astype(np.float64)
    return normalize(GridDensity(grid, v))


def kde(positions: np.ndarray, bandwidth: float, grid: Grid1D) -> GridDensity:
    """Gaussian-kernel density estimate on the grid, normalized.

    Particles are deposited with linear (cloud-in-cell) binning and smoothed
    by FFT convolution against the discretized kernel, so the estimate is
    deterministic and O(n log n) regardless of sample size.  Mass falling
    outside the grid is reported via the module logger.
    """
    if bandwidth <= 0:
        raise InvalidParameterError("bandwidth must be positive")
    x = np.asarray(positions, dtype=np.float64)
    if x.size < 1:
        raise InvalidParameterError("need at least one particle")
    inside = (x >= grid.x_min) & (x <= grid.x_max)
    n_in = int(np.count_nonzero(inside))
    if n_in == 0:
        raise DegenerateDensityError("all particles fall outside the grid")
    if n_in < x.size:
        log.info("kde: %d of %d particles outside the grid", x.size - n_in, x.size)
    xin = x[inside]
    dx = grid.dx
    rel = (xin - (grid.x_min + 0.5 * dx)) / dx
    i0 = np.floor(rel).astype(np.int64)
    frac = rel - i0
    i0c = np.clip(i0, 0, grid.n_cells - 1)
    i1c = np.clip(i0 + 1, 0, grid.n_cells - 1)
    hist = np.zeros(grid.n_cells)
    np.add.at(hist, i0c, 1.0 - frac)
    np.add.at(hist, i1c, frac)
    hist /= n_in * dx
    half = int(np.ceil(8.0 * bandwidth / dx))
    u = np.arange(-half, half + 1) * dx
    kern = np.exp(-0.5 * (u / bandwidth) ** 2)
    kern /= kern.sum()
    smooth = fftconvolve(hist, kern, mode="same")
    return normalize(GridDensity(grid, np.maximum(smooth, 0.0)))


def density_quantiles(d: GridDensity, u: np.ndarray) -> np.ndarray:
    """Quantile function of a grid density via its piecewise-linear CDF.

    The CDF ramps linearly across each cell, making downstream transport
    distances second-order accurate in dx.  u must lie in (0, 1).
    """
    edges = d.grid.edges
    F = np.concatenate(([0.0], np.cumsum(d.values) * d.grid.dx))
    total = F[-1]
    if total <= 0:
        raise DegenerateDensityError("cannot invert the CDF of a massless density")
    F /= total
    u = np.asarray(u, dtype=np.float64)
    idx = np.searchsorted(F, u, side="right") - 1
    idx = np.clip(idx, 0, d.grid.n_cells - 1)
    dF = F[idx + 1] - F[idx]
    frac = np.where(dF > 0, (u - F[idx]) / np.where(dF > 0, dF, 1.0), 1.0)
    return edges[idx] + np.clip(frac, 0.0, 1.0) * d.grid.dx


# ---------------------------------------------------------------------------
# serialization: CSV with header `x,value`; flows as per-node CSVs + manifest
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_density(d: GridDensity, path: str) -> None:
    lines = ["x,value"]
    xs = d.grid.centers
    lines.extend(f"{_fmt(xs[j])},{_fmt(d.values[j])}" for j in range(d.grid.n_cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _snap(value: float) -> float:
    """Undo last-ulp drift from reconstructing grid bounds out of centers."""
    r = float(f"{value:.12g}")
    return r if abs(r - value) <= 1e-9 * max(1.0, abs(value)) else value


def load_density(path: str) -> GridDensity:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 8:
        raise InvalidParameterError(f"{path} is not a density CSV")
    xs, vs = data[:, 0], data[:, 1]
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    grid = Grid1D(_snap(float(xs[0] - 0.5 * dx)), _snap(float(xs[-1] + 0.5 * dx)), len(xs))
    return GridDensity(grid, vs)


def save_flow(flow: DensityFlow, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = ["index,t"]
    lines.extend(f"{i},{_fmt(t)}" for i, t in enumerate(flow.time_grid.nodes))
    _atomic_write(os.path.join(out_dir, "timegrid.csv"), "\n".join(lines) + "\n")
    for i, snap in enumerate(flow.snapshots):
        save_density(snap, os.path.join(out_dir, f"density_{i:04d}.csv"))


def load_flow(in_dir: str) -> DensityFlow:
    manifest = np.loadtxt(os.path.join(in_dir, "timegrid.csv"), delimiter=",", skiprows=1)
    manifest = np.atleast_2d(manifest)
    nodes = manifest[:, 1]
    snaps = [load_density(os.path.join(in_dir, f"density_{i:04d}.csv"))
             for i in range(len(nodes))]
    return DensityFlow(TimeGrid(nodes), tuple(snaps))
