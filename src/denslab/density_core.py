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
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import InvalidParameterError, NumericalError

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
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise InvalidParameterError(
                f"need finite x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_cells < 8:
            raise InvalidParameterError(f"n_cells must be >= 8, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


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
                f"values shape {v.shape} does not match grid with {self.grid.n_cells} cells")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("density values must be finite")
        if v.min(initial=0.0) < NEGATIVE_TOLERANCE:
            raise InvalidParameterError(
                f"density has a cell at {v.min():.3e}, below the tolerated noise floor")
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

    @staticmethod
    def uniform(T: float, n_steps: int) -> "TimeGrid":
        if not 0 < T < np.inf or n_steps < 1:
            raise InvalidParameterError("uniform grid needs a finite T > 0 and n_steps >= 1")
        return TimeGrid(np.linspace(0.0, T, n_steps + 1))

    @staticmethod
    def geometric(T: float, t_min: float = 0.0, nodes_per_decade: int = 40) -> "TimeGrid":
        """0, t_min, t_min*r, ... with r = 10^(1/nodes_per_decade), ending exactly at T;
        t_min = 0 means 1e-4 * T."""
        if not 0 < T < np.inf:
            raise InvalidParameterError(f"T must be positive and finite, got {T}")
        t_min = t_min or 1e-4 * T
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
            raise NumericalError(
                f"{len(snaps)} snapshots for {len(self.time_grid.nodes)} time nodes")
        g = snaps[0].grid
        for s in snaps:
            if s.grid != g:
                raise NumericalError("all snapshots must share one spatial grid")
        object.__setattr__(self, "snapshots", snaps)

    def values_at(self, t: float) -> np.ndarray:
        """Linear-in-time interpolation of snapshot values at time t: `_reader` at one time."""
        return self._reader()(t)

    def _reader(self):
        """The flow as a function of times that never decrease: an end snapshot
        itself at or beyond an end node, else (1 - w) g_j + w g_{j+1} between the
        bracketing snapshots, found by a forward cursor over the nodes once per
        node interval, in one buffer that each read overwrites.  A NaN time is
        InvalidParameterError."""
        nodes = self.time_grid.nodes.tolist()
        g = [s.values for s in self.snapshots]
        out, work = np.empty_like(g[0]), np.empty_like(g[0])
        j = 0

        def read(t):
            nonlocal j
            if not nodes[0] < t < nodes[-1]:     # an end, or NaN: off the interior path
                if not (t <= nodes[0] or t >= nodes[-1]):
                    raise InvalidParameterError(f"cannot read a density flow at t = {t}")
                return g[0] if t <= nodes[0] else g[-1]
            while nodes[j + 1] <= t:
                j += 1
            w = (t - nodes[j]) / (nodes[j + 1] - nodes[j])
            np.multiply(g[j], 1.0 - w, out=out)
            return np.add(out, np.multiply(g[j + 1], w, out=work), out=out)
        return read


# ---------------------------------------------------------------------------
# localized (unit-window) norms
# ---------------------------------------------------------------------------

def _require_window(grid: Grid1D) -> None:
    """InvalidParameterError unless the grid holds the unit-ball window."""
    if grid.width < 2.0:
        raise InvalidParameterError(
            f"grid width {grid.width} is smaller than the unit-ball window (length 2)")


def _window_half_cells(grid: Grid1D) -> int:
    _require_window(grid)
    return int(np.floor(1.0 / grid.dx + 1e-9))


def _window_sums(w: np.ndarray, m: int) -> np.ndarray:
    """Sliding sums of each row of w over index windows [i-m, i+m], clipped to
    the row: differences of its partial sums, padded with m + 1 zeros before
    and m copies of the total after."""
    c = np.cumsum(w, axis=-1)
    e = np.concatenate((np.zeros(w.shape[:-1] + (m + 1,)), c,
                        np.repeat(c[..., -1:], m, axis=-1)), axis=-1)
    return e[..., 2 * m + 1:] - e[..., :w.shape[-1]]


def _window_max(a: np.ndarray, m: int) -> np.ndarray:
    """Max of each row of a over index windows [i-m, i+m], 0 beyond the row: on the
    zero-padded rows, windows of s entries double while 2s <= 2m + 1, then two overlap."""
    n, w, s = a.shape[-1], 2 * m + 1, 1
    b = np.pad(a, ((0, 0), (m, m)))
    while 2 * s <= w:
        b, s = np.maximum(b[:, :-s], b[:, s:]), 2 * s
    return np.maximum(b[:, :n], b[:, w - s:w - s + n])


def _rescaled(a: np.ndarray, norm, r=None):
    """norm(a) for a >= 0 and a `norm` that scales linearly with a, entry by
    entry of its result (`r` when the caller has it).  Where a power under- or
    overflows at a huge exponent, so that an entry is 0, inf or NaN (from
    inf - inf) although a is nonzero and finite, that entry is M * norm(a / M)
    with M = max(a) instead; the two forms agree up to rounding elsewhere."""
    if r is None:
        with np.errstate(over="ignore", invalid="ignore"):
            r = norm(a)
    bad = ~((0 < r) & (r < np.inf))
    m = np.max(a) if np.any(bad) else 0.0
    if 0 < m < np.inf:
        r = np.where(bad, m * norm(a / m), r)
    return r


def tilde_norm(values, k: float, grid: Grid1D) -> float:
    """sup over window centers z of the L^k norm of values restricted to [z-1, z+1].

    O(n) via a sliding partial-sum structure; k = inf degenerates to the
    global sup norm since every point lies in some window.
    """
    if not k >= 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if np.shape(values) != (grid.n_cells,):
        raise NumericalError("array length does not match the grid")
    return float(_row_norms(np.reshape(values, (1, -1)), k, grid)[0])


def _row_norms(values, k: float, grid: Grid1D) -> np.ndarray:
    """`tilde_norm` of each row of `values`: each row's max window sum, then its
    root as a scalar power, with the window sums taken over blocks of at most 32
    rows and 2^15 entries (one row if longer); a row whose norm comes out 0, inf
    or NaN is `_rescaled`."""
    m = _window_half_cells(grid)
    rows = min(32, max(1, 2 ** 15 // grid.n_cells))     # temporaries of 256 kB, not of values
    tops = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(values), rows):
            a = np.abs(values[i:i + rows])
            tops.extend(np.max(a if np.isinf(k) else _window_sums(a ** k * grid.dx, m), axis=-1))
        if np.isinf(k):
            return np.array(tops)
        r = np.array([top ** (1.0 / k) for top in tops])
    bad = ~((0 < r) & (r < np.inf))
    def norm(a):      # one row's, as above
        return np.max(_window_sums(a ** k * grid.dx, m)) ** (1.0 / k)
    r[bad] = [_rescaled(np.abs(values[j]), norm, r[j]) for j in np.flatnonzero(bad)]
    return r


def _spacetime_norm(values, times, p: float, q: float, grid: Grid1D) -> tuple:
    """(sup_z (int ||f_r 1_{[z-1,z+1]}||_p^q dr)^(1/q), one z for the whole
    trapezoid time integral over the rows of `values`; every node's tilde_norm
    by `_row_norms`)."""
    if not (p >= 1 and q >= 1):
        raise InvalidParameterError("need p, q >= 1")
    if np.ndim(times) != 1 or np.size(times) < 2 or not np.all(np.diff(times) > 0):
        raise InvalidParameterError("need at least two strictly increasing node times")
    m = _window_half_cells(grid)
    a = np.abs(values)
    sup = _row_norms(a, p, grid)
    if np.isinf(p):    # windowed L^p norm of each node at each center
        W = _window_max(a, m)
    else:
        W = _rescaled(a, lambda b: _window_sums(b ** p * grid.dx, m) ** (1.0 / p))
    if np.isinf(q):
        return float(np.max(W)), sup
    return float(_rescaled(
        W, lambda b: np.max(np.trapezoid(b ** q, x=times, axis=0)) ** (1.0 / q))), sup


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
        raise NumericalError("density has no positive mass to normalize")
    v *= 1.0 / mass
    return GridDensity(d.grid, v)


def gaussian_density(grid: Grid1D, mean: float, sigma: float) -> GridDensity:
    """Normalized Gaussian sampled at cell centers."""
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    with np.errstate(over="ignore"):     # z or z * z past the float range: exp(-inf) = 0
        z = (grid.centers - mean) / sigma
        v = np.exp(-0.5 * z * z) / max(sigma * np.sqrt(2.0 * np.pi), np.finfo(float).tiny)
    return normalize(GridDensity(grid, v))


def uniform_density(grid: Grid1D, lo: float, hi: float) -> GridDensity:
    """Normalized indicator of [lo, hi] sampled at cell centers."""
    if not lo < hi:
        raise InvalidParameterError("need lo < hi")
    v = ((grid.centers >= lo) & (grid.centers <= hi)).astype(np.float64)
    return normalize(GridDensity(grid, v))


class _Scratch(dict):
    """Work arrays made on first use and reused; a march gives one set to all its steps.
    `take(n, *dtypes)` gives n-entry arrays, one per dtype, distinct within a call but
    shared between calls (float64 with intp) and stale: the taker's until it returns."""

    def take(self, n: int, *dtypes) -> list:
        out = []
        for dtype in map(np.dtype, dtypes):
            key = (dtype.itemsize, sum(a.itemsize == dtype.itemsize for a in out))
            if key not in self or self[key].size < n * dtype.itemsize:
                self[key] = np.empty(n * dtype.itemsize, dtype=np.uint8)
            out.append(self[key][:n * dtype.itemsize].view(dtype))
        return out


def _cells(x: np.ndarray, grid: Grid1D, frac, lower, i0) -> None:
    """The particle step's cloud-in-cell rule, one for the KDE deposit and the
    drift's gather: each position's lower cell floor((x - c[0]) / dx) into `i0`
    (the last cell for a NaN x, which casts no NaN), and the remainder, its
    weight on the cell above, into `frac` (which may be x).  `lower` is work."""
    np.subtract(x, grid.centers[0], out=frac)
    frac /= grid.dx
    np.floor(frac, out=lower)
    np.fmin(lower, grid.n_cells - 1, out=i0, casting="unsafe")
    frac -= lower


def kde(positions: np.ndarray, bandwidth: float, grid: Grid1D, _scratch=None, _with_cells=False):
    """Gaussian-kernel density estimate on the grid, normalized.

    Particles are deposited with linear (cloud-in-cell) binning and smoothed
    by FFT convolution against the discretized kernel, so the estimate is
    deterministic and O(n log n) regardless of sample size.  Every position must
    be finite and on [x_min, x_max]; `_scratch` holds the work.
    With `_with_cells` it returns (estimate, cells): the deposit's (frac, i0) in
    `_scratch` if every x lies between the outer centres, for the drift's gather.
    """
    if not (bandwidth > 0 and np.isfinite(bandwidth)):
        raise InvalidParameterError(f"bandwidth must be positive and finite, got {bandwidth}")
    if bandwidth > grid.width:
        raise InvalidParameterError(f"bandwidth {bandwidth:g} exceeds grid width {grid.width:g}")
    x = np.asarray(positions, dtype=np.float64)
    if x.size < 1:
        raise InvalidParameterError("need at least one particle")
    lo, hi = x.min(), x.max()       # NaN if any x is
    if not grid.x_min <= lo <= hi <= grid.x_max:
        raise InvalidParameterError(f"positions must lie in [{grid.x_min:g}, {grid.x_max:g}]")
    c, dx, n = grid.centers, grid.dx, grid.n_cells
    frac, lower, i0, i1 = (_Scratch() if _scratch is None else _scratch).take(
        x.size, float, float, np.intp, np.intp)
    _cells(x, grid, frac, lower, i0)
    np.add(i0, 1, out=i1)
    inner = c[0] <= lo and hi <= c[-1]      # x as the gather clamps it
    if not (inner and (hi - c[0]) / dx < n - 1):        # else each i0 is in [0, n - 2]
        for i in (i0, i1):
            np.clip(i, 0, n - 1, out=i)
    hist = np.zeros(n)
    np.add.at(hist, i0, np.subtract(1.0, frac, out=lower))
    np.add.at(hist, i1, frac)
    hist /= x.size * dx
    half = int(np.ceil(8.0 * bandwidth / dx))
    u = np.arange(-half, half + 1) * dx
    with np.errstate(over="ignore"):     # u / bandwidth past the float range: exp(-inf) = 0
        kern = np.exp(-0.5 * (u / bandwidth) ** 2)
    kern /= kern.sum()
    d = normalize(GridDensity(grid, np.maximum(_convolve_same(hist, kern), 0.0)))
    return (d, (frac, i0) if inner else None) if _with_cells else d


@cache
def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, scipy.fft.next_fast_len(n, True): p 2^a over odd p."""
    odd = [3 ** b * 5 ** c for b in range(n.bit_length()) for c in range(n.bit_length())]
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def _convolve_same(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """scipy.signal.fftconvolve(a, k, "same") for 1-D real a and k, by its own steps, bit
    for bit: a * k if either has one entry, else numpy's real FFTs of the next fast length."""
    n = a.size + k.size - 1
    if min(a.size, k.size) == 1:
        full = a * k
    else:
        size = _fast_len(n)
        full = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(k, size), size)[:n]
    return full[(full.size - a.size) // 2:][:a.size]


def density_quantiles(d: GridDensity, u: np.ndarray) -> np.ndarray:
    """Quantile function of a grid density via its piecewise-linear CDF.

    The CDF ramps linearly across each cell, making downstream transport
    distances second-order accurate in dx.  u must lie in (0, 1).
    """
    F = np.concatenate(([0.0], np.cumsum(d.values) * d.grid.dx))
    total = F[-1]
    if total <= 0:
        raise NumericalError("cannot invert the CDF of a massless density")
    F /= total
    u = np.asarray(u, dtype=np.float64)
    idx = np.searchsorted(F, u, side="right") - 1
    idx = np.clip(idx, 0, d.grid.n_cells - 1)
    dF = F[idx + 1] - F[idx]
    frac = np.where(dF > 0, (u - F[idx]) / np.where(dF > 0, dF, 1.0), 1.0)
    return d.grid.x_min + idx * d.grid.dx + np.clip(frac, 0.0, 1.0) * d.grid.dx


# ---------------------------------------------------------------------------
# serialization: CSV with header `x,value`; flows as per-node CSVs + manifest
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _formatted(column) -> list:
    """A CSV column as shortest round-trip reprs; a list is taken as formatted."""
    return column if isinstance(column, list) else list(map(repr, np.asarray(column).tolist()))


def _write_csv(path: str, header: str, *columns) -> None:
    """Atomic CSV: the header, then row i of every `_formatted` column."""
    rows = zip(*map(_formatted, columns))
    _atomic_write(path, "\n".join([header, *map(",".join, rows)]) + "\n")


def _snap(value: float) -> float:
    """Undo last-ulp drift from reconstructing grid bounds out of centers."""
    r = float(f"{value:.12g}")
    return r if abs(r - value) <= 1e-9 * max(1.0, abs(value)) else value


def load_density(path: str) -> GridDensity:
    """Read a density CSV.  Its x column must be the centers of a uniform grid to
    1e-3 of a cell: `_write_csv` of a grid's centers is off by at most 1.3e-6 of
    a cell (300 random grids, x_min in [-100, 100], width <= 200, <= 1e5 cells)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # loadtxt on an empty file
            data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise InvalidParameterError(f"{path} is not a density CSV: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 8:
        raise InvalidParameterError(f"{path} is not a density CSV")
    xs, vs = data[:, 0], data[:, 1]
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    grid = Grid1D(_snap(float(xs[0] - 0.5 * dx)), _snap(float(xs[-1] + 0.5 * dx)), len(xs))
    if not np.max(np.abs(xs - grid.centers)) <= 1e-3 * grid.dx:
        raise InvalidParameterError(f"{path}: the x column is not a uniform grid of cell centers")
    return GridDensity(grid, vs)


def save_flow(flow: DensityFlow, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    nodes = flow.time_grid.nodes
    _write_csv(os.path.join(out_dir, "timegrid.csv"), "index,t", np.arange(nodes.size), nodes)
    x = _formatted(flow.snapshots[0].grid.centers)     # shared by every snapshot
    for i, snap in enumerate(flow.snapshots):
        _write_csv(os.path.join(out_dir, f"density_{i:04d}.csv"), "x,value", x, snap.values)
