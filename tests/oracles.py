"""Independent reference routines that only the test suite uses.

Exact transport on small atomic measures (monotone coupling and a
transportation linear program), a one-path Girsanov log-weight, a single
Fokker-Planck step, and a probe of a diffusion coefficient's declared bounds.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from denslab.dynamics import DiffusionSpec, DriftSpec, _advance, drift_at_positions
from denslab.density_core import DensityFlow, Grid1D, GridDensity
from denslab.errors import (
    InvalidDriftError,
    InvalidParameterError,
    NotAProbabilityError,
    SolverFailureError,
)

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
        raise NotAProbabilityError("atom weights must be nonnegative and sum to 1")
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
        raise NotAProbabilityError(f"transportation LP infeasible: {res.message}")
    return float(res.fun)


def wasserstein_lp_oracle(xs, ws, ys, vs, q: float = 1.0) -> float:
    """Exact q-Wasserstein distance between atomic measures by linear programming."""
    if q < 1:
        raise InvalidParameterError("q must be >= 1")
    cost = lambda x, y: abs(x - y) ** q
    return coupling_lp_cost(xs, ws, ys, vs, cost) ** (1.0 / q)


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
        a_val = float(np.asarray(diff.a(ti, xi_pos))[0])
        xi = (b_alt - b_ref) / math.sqrt(a_val)
        if not np.isfinite(xi):
            raise SolverFailureError("non-finite Girsanov integrand along the path")
        total += xi * float(dw[i]) - 0.5 * xi * xi * float(t[i + 1] - t[i])
    return float(total)


# ---------------------------------------------------------------------------
# Fokker-Planck: one step, and the diffusion-coefficient bounds
# ---------------------------------------------------------------------------

def fokker_planck_step(rho: GridDensity, drift_field_values: np.ndarray,
                       a_field_values: np.ndarray, dt: float) -> GridDensity:
    """One conservative step: explicit upwind advection, implicit diffusion."""
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    b = np.asarray(drift_field_values, dtype=np.float64)
    a = np.asarray(a_field_values, dtype=np.float64)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(a))):
        raise SolverFailureError("non-finite coefficient field")
    new = _advance(rho.values, b, a, dt, rho.grid.dx)
    return GridDensity(rho.grid, np.maximum(new, 0.0))


def validate_diffusion(spec: DiffusionSpec, T: float, x_lo: float, x_hi: float,
                       n_probe: int = 200) -> None:
    """Probe a on an n_probe x n_probe lattice against the declared bounds."""
    ts = np.linspace(1e-12, T, n_probe)
    xs = np.linspace(x_lo, x_hi, n_probe)
    for t in ts:
        vals = np.asarray(spec.a(float(t), xs), dtype=np.float64)
        if vals.shape != xs.shape:
            raise InvalidDriftError("diffusion coefficient must be vectorized in x")
        if np.any(vals > spec.k_bound * (1 + 1e-9)):
            raise InvalidDriftError(
                f"sup a = {vals.max():.4g} exceeds declared bound {spec.k_bound}")
        if np.any(vals < 1.0 / spec.k_inv_bound * (1 - 1e-9)):
            raise InvalidDriftError(
                f"inf a = {vals.min():.4g} violates 1/a bound {spec.k_inv_bound}")
