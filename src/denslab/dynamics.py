"""Drift/diffusion specifications and the frozen-density Fokker-Planck solver.

The nonlinear diffusion under study has a drift that depends pointwise on the
solution's own time-marginal density.  Its law is constructed here as the
fixed point of the map Phi: freeze a candidate density flow gamma in the
drift's density slots, evolve the resulting *linear* Fokker-Planck equation

    d/dt rho = 1/2 d^2/dx^2 (a rho) - d/dx (b rho)

from the initial density, and return the marginal flow.  A march's drift
reads no density, the frozen flow by its `DensityFlow._reader` (linear in
time), or, with no flow frozen, its own current density: the self-consistent
march.  Phi is iterated to convergence (Picard); contraction is monitored in
the discounted flow metric with an adaptively escalated discount rate, since
the theoretically sufficient rate is not explicit.

Scheme: conservative finite volume, upwind advective flux (explicit) and
centered diffusive flux assembled implicitly, no-flux boundaries.  The
diffusion coefficient a is one positive number, so the tridiagonal diffusion
matrix is symmetric positive definite: it is factored as LDL^T, without
pivoting, once per node interval, and each sub-step is one solve with those
factors.  Mass is conserved to rounding; the implicit diffusion is
unconditionally stable and the explicit advection is kept under a CFL guard
checked at every sub-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .density_core import (DensityFlow, Grid1D, GridDensity, TimeGrid, _cells, _convolve_same,
                           _require_window, _row_norms, _Scratch)
from .errors import InvalidParameterError, NoConvergenceError, NumericalError, NumericOverflowError
from .metrics import FlowMetricSpec

_PROBE_SEED = 1234        # random probes of validate_drift
_MAX_ESCALATIONS = 6      # discount-rate doublings of picard_fixed_point
_MAX_SUBSTEPS = 10**6     # sub-steps of one node interval in frozen_semigroup


def in_integrability_class(p: float, q: float) -> bool:
    """Membership in the admissible exponent class: p, q > 2 and 1/p + 2/q < 1."""
    return p > 2 and q > 2 and 1.0 / p + 2.0 / q < 1.0


# ---------------------------------------------------------------------------
# coefficient specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionSpec:
    """Constant diffusion coefficient a = sigma^2, with 0 < a < inf."""

    a: float

    def __post_init__(self):
        if not 0 < self.a < np.inf:
            raise InvalidParameterError(
                f"diffusion coefficient must be positive and finite, got {self.a}")


def constant_diffusion(a0: float) -> DiffusionSpec:
    return DiffusionSpec(a=float(a0))


@dataclass(frozen=True)
class SpaceTimeField:
    """Space-time function f(t, x) in the integrability class (p, q): an
    x-singular drift term, or the field of a Khasminskii estimate.

    A positive cap_coeff caps |f| on a grid at cap_coeff * dx^{-cap_exponent},
    its value one cell away from the singularity: the cap keeps the discrete
    values representable while preserving the norm the estimates use.
    """

    fn: object                     # callable (t, x array) -> array
    p: float
    q: float
    cap_coeff: float = 0.0         # 0 disables the grid-scale cap
    cap_exponent: float = 0.0
    name: str = "field"

    def __post_init__(self):
        if not in_integrability_class(self.p, self.q):
            raise InvalidParameterError(
                f"(p, q) = ({self.p}, {self.q}) violates p, q > 2 and 1/p + 2/q < 1")

    def evaluate(self, t, x, dx: float) -> np.ndarray:
        v = np.asarray(self.fn(t, x), dtype=np.float64)
        if self.cap_coeff > 0:
            try:
                cap = self.cap_coeff * dx ** (-self.cap_exponent)
            except OverflowError:
                raise NumericOverflowError(f"field '{self.name}': grid cap coeff * dx^(-"
                                           f"{self.cap_exponent:g}) overflows") from None
            v = np.clip(v, -cap, cap)
        return v


@dataclass(frozen=True)
class FeatureKernel:
    """Named smoothing kernel; the drift may consume (kernel * rho)(x)."""

    name: str
    profile: object                # callable (u array) -> array, unit integral
    width: float


@dataclass(frozen=True)
class DriftSpec:
    """Decomposed drift b = b1 + density_term + sum of singular parts.

    b1(t, x) is the regular (Lipschitz) part, and each singular part is a
    capped SpaceTimeField.  `nemytskii(t, x, r, feats)` is the
    density-dependent part: r is the density value at x and feats maps kernel
    names to convolution values at x.  It must be Lipschitz in r with constant
    K t^tau, and in the density argument with the same t^tau decay.
    """

    b1: object
    nemytskii: object = None
    singular_parts: tuple = ()
    feature_kernels: tuple = ()
    K: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        if self.K < 0 or self.tau < 0:
            raise InvalidParameterError("K and tau must be nonnegative")

    @property
    def density_dependent(self) -> bool:
        return self.nemytskii is not None


def validate_drift(drift: DriftSpec, T: float, grid: Grid1D) -> None:
    """Probe-based admissibility checks on [0, T]; raises InvalidParameterError
    naming the violated inequality."""
    if not 0 < T < np.inf:
        raise InvalidParameterError(f"T must be positive and finite, got {T}")
    rng = np.random.default_rng(_PROBE_SEED)
    xs = grid.centers
    # b1 Lipschitz constant via random difference quotients
    for t in np.linspace(1e-6, T, 8):
        b = np.asarray(drift.b1(float(t), xs), dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise InvalidParameterError("b1 is not finite on the grid")
        slopes = np.abs(np.diff(b)) / grid.dx
        if slopes.max(initial=0.0) > drift.K * (1 + 1e-6) :
            raise InvalidParameterError(
                f"|grad b1| = {slopes.max():.4g} exceeds declared K = {drift.K}")
    for k in drift.feature_kernels:
        if not k.width <= grid.width:
            raise InvalidParameterError(
                f"feature kernel '{k.name}' width {k.width:g} exceeds the grid width "
                f"{grid.width:g}")
    if drift.nemytskii is not None:
        probes_x = rng.uniform(grid.x_min, grid.x_max, 64)
        feats = {k.name: np.zeros(64) for k in drift.feature_kernels}
        for t in rng.uniform(1e-4, T, 8):
            r1 = rng.uniform(0.0, 10.0, 64)
            r2 = rng.uniform(0.0, 10.0, 64)
            d1 = np.asarray(drift.nemytskii(float(t), probes_x, r1, feats))
            d2 = np.asarray(drift.nemytskii(float(t), probes_x, r2, feats))
            bound = drift.K * t ** drift.tau * np.abs(r1 - r2) + 1e-12
            if np.any(np.abs(d1 - d2) > bound * (1 + 1e-6)):
                raise InvalidParameterError(
                    "density term violates |b(t,x,r) - b(t,x,r')| <= K t^tau |r - r'|")


# ---------------------------------------------------------------------------
# drift evaluation
# ---------------------------------------------------------------------------

def density_features(rho_values: np.ndarray, grid: Grid1D, drift: DriftSpec) -> dict:
    """Per-cell values of (kernel * rho) for every registered kernel."""
    feats = {}
    for k in drift.feature_kernels:
        half = max(1, int(np.ceil(k.width / grid.dx)))
        u = np.arange(-half, half + 1) * grid.dx
        prof = np.asarray(k.profile(u), dtype=np.float64)
        s = prof.sum() * grid.dx
        if s <= 0:
            raise InvalidParameterError(f"feature kernel '{k.name}' has nonpositive mass")
        prof = prof / s
        feats[k.name] = _convolve_same(rho_values, prof) * grid.dx
    return feats


def _singular_sum(drift: DriftSpec, t: float, x: np.ndarray, dx: float):
    """Sum of the capped singular terms at x; the scalar 0.0 when there are none."""
    return sum((part.evaluate(t, x, dx) for part in drift.singular_parts), 0.0)


def drift_field(drift: DriftSpec, t: float, grid: Grid1D,
                rho_values: np.ndarray | None) -> np.ndarray:
    """Per-cell drift values given the frozen density at time t (or None); read
    only, since with no singular part and no density term it is b1's own array."""
    x = grid.centers
    b = np.asarray(drift.b1(t, x), dtype=np.float64)
    if drift.singular_parts:
        b = b + _singular_sum(drift, t, x, grid.dx)
    if drift.nemytskii is not None:
        if rho_values is None:
            raise InvalidParameterError("density-dependent drift needs a density")
        feats = density_features(rho_values, grid, drift)
        b = b + np.asarray(drift.nemytskii(t, x, rho_values, feats), dtype=np.float64)
    return b


def _gather(x: np.ndarray, grid: Grid1D, *ys: np.ndarray, _scratch=None, _deposit=None) -> list:
    """Each y (values at the cell centres) read at the 1-D positions x by the
    KDE deposit's cloud-in-cell rule (`_cells`) at x clamped to [c[0], c[-1]]:
    y[i0] + frac * (y[i0+1] - y[i0]), y[i0+1] being y[-1] at the last cell; NaN
    reads NaN.  That is np.interp's result to within the floor's rounding,
    16 * spacing(max(|x_min|, |x_max|)) / dx * max|y|.  The cells are found once
    for every y, or are `_deposit`, those `kde` deposited x with; the work and the
    values are in `_scratch`, in other slots than `kde`'s frac and i0."""
    c = grid.centers
    work = _Scratch() if _scratch is None else _scratch
    frac, up, i0, *vals = work.take(np.size(x), float, float, np.intp, *[float] * len(ys))
    if _deposit is None:
        _cells(np.clip(np.asarray(x, dtype=float), c[0], c[-1], out=frac), grid, frac, up, i0)
    else:
        frac, i0 = _deposit
    for y, v in zip(ys, vals):
        np.take(y, i0, out=v, mode="clip")      # every index is in range: no bounds check
        y[1:].take(i0, out=up, mode="clip")
        up -= v
        up *= frac
        v += up
    return vals


def drift_at_positions(drift: DriftSpec, t: float, x: np.ndarray, grid: Grid1D,
                       rho_values: np.ndarray | None, _scratch=None, _deposit=None) -> np.ndarray:
    """Drift evaluated at arbitrary positions, a new array.  The density and its
    features are read from the grid by the KDE's cloud-in-cell rule, in cells found
    once per call for all of them or handed over by the deposit (`_gather`)."""
    b = np.asarray(drift.b1(t, x), dtype=np.float64) + _singular_sum(drift, t, x, grid.dx)
    if drift.nemytskii is not None:
        if rho_values is None:
            raise InvalidParameterError("density-dependent drift needs a density")
        feats_grid = density_features(rho_values, grid, drift)
        r, *vals = _gather(x, grid, rho_values, *feats_grid.values(), _scratch=_scratch,
                           _deposit=_deposit)
        feats = dict(zip(feats_grid, vals))
        b += np.asarray(drift.nemytskii(t, x, r, feats), dtype=np.float64)
    return b


# ---------------------------------------------------------------------------
# built-in drifts
# ---------------------------------------------------------------------------

def power_singularity(x, center: float, coeff: float, gamma: float) -> np.ndarray:
    """coeff |x - center|^(-gamma) on |x - center| <= 1, 0 outside; inf at the
    centre and wherever the power overflows."""
    r = np.abs(np.asarray(x, dtype=np.float64) - center)
    with np.errstate(divide="ignore", over="ignore"):
        out = coeff * r ** (-gamma)
    out[~(r <= 1.0)] = 0.0          # beyond the unit window, and at a NaN x
    out[~np.isfinite(out)] = np.inf
    return out


def _bump_profile(u, width):
    z = np.clip(np.abs(u) / width, 0.0, 1.0)
    out = np.zeros_like(z)
    inner = z < 1.0
    out[inner] = np.exp(-1.0 / (1.0 - z[inner] ** 2))
    return out


# family name -> {parameter: default}; config.SCHEMA holds one drift.<parameter>
# key per name, so a name shared by several families has one default
DRIFT_PARAMS = {
    "zero": {},
    "linear_ou": {"theta": 1.0},
    "capped_density": {"theta": 1.0, "kappa": 0.1, "tau": 0.6, "cap": 5.0},
    "smoothed_interaction": {"theta": 1.0, "kappa": 0.1, "tau": 0.6, "kernel_width": 0.2},
    "singular_well": {"theta": 1.0, "gamma": 0.2, "coeff": 0.5, "center": 0.0,
                      "p2": 4.0, "q2": 4.0},
}


def _family_params(kind: str, families: dict, name: str, params: dict | None) -> dict:
    """The defaults of `families[name]` with `params` merged over them, as
    floats; InvalidParameterError for an unknown name or parameter."""
    if name not in families:
        raise InvalidParameterError(f"unknown {kind} name '{name}'")
    given = dict(params or {})
    unknown = sorted(set(given) - set(families[name]))
    if unknown:
        raise InvalidParameterError(f"unknown {name} parameters: {unknown}")
    return {k: float(v) for k, v in {**families[name], **given}.items()}


def builtin_drift(name: str, params: dict | None = None) -> DriftSpec:
    """Named drift families of DRIFT_PARAMS, each validated against the
    admissibility checks.

    zero:                 b = 0
    linear_ou:            b = -theta x
    capped_density:       b = -theta x + t^tau kappa min(r, cap)
    smoothed_interaction: b = -theta x + t^tau kappa (bump_h * rho)(x)
    singular_well:        linear_ou plus an attracting power singularity
                          -coeff sign(x - x0) |x - x0|^{-gamma} 1_{|x-x0|<=1},
                          admissible only when gamma * p2 < 1.
    """
    p = _family_params("drift", DRIFT_PARAMS, name, params)
    nonfinite = sorted(k for k, v in p.items() if not math.isfinite(v))
    if nonfinite:
        raise InvalidParameterError(f"{name}: parameters {nonfinite} must be finite")
    if name == "zero":
        return DriftSpec(b1=lambda t, x: np.zeros_like(x), K=0.0)
    theta = p["theta"]

    def ou(t, x):
        return -theta * x

    if name == "linear_ou":
        return DriftSpec(b1=ou, K=abs(theta))

    if name in ("capped_density", "smoothed_interaction"):
        kappa, tau = p["kappa"], p["tau"]
        if name == "capped_density":
            cap = p["cap"]
            if cap <= 0:
                raise InvalidParameterError("capped_density: cap must be positive")
            kernels = ()

            def nem(t, x, r, feats):
                out = np.minimum(r, cap)
                out *= (t ** tau) * kappa     # in place: (t^tau kappa) * min(r, cap), bit for bit
                return out
        else:
            width = p["kernel_width"]
            if width <= 0:
                raise InvalidParameterError("smoothed_interaction: kernel_width must be positive")
            kernels = (FeatureKernel("bump", lambda u: _bump_profile(u, width), width),)

            def nem(t, x, r, feats):
                return (t ** tau) * kappa * feats["bump"]

        return DriftSpec(b1=ou, nemytskii=nem, feature_kernels=kernels,
                         K=max(abs(theta), abs(kappa)), tau=tau)

    gamma, coeff, x0, p2, q2 = (p[k] for k in ("gamma", "coeff", "center", "p2", "q2"))
    if not 0 < gamma:
        raise InvalidParameterError("singular_well: gamma must be positive")
    if not 0 < coeff:
        raise InvalidParameterError(f"singular_well: coeff must be positive, got {coeff}")
    if gamma * p2 >= 1.0:
        raise InvalidParameterError(
            f"gamma * p2 = {gamma * p2:.3g} >= 1: |x|^(-gamma) is not "
            f"window-L^{p2:g} integrable")

    def well(t, x):
        # -sign(x - x0) coeff |x - x0|^(-gamma); 0 at the centre itself
        r = x - x0
        return np.multiply(-np.sign(r), power_singularity(x, x0, coeff, gamma),
                           out=np.zeros_like(r), where=r != 0)

    part = SpaceTimeField(fn=well, p=p2, q=q2, cap_coeff=coeff, cap_exponent=gamma, name=name)
    return DriftSpec(b1=ou, singular_parts=(part,), K=abs(theta))


# ---------------------------------------------------------------------------
# Fokker-Planck stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOptions:
    """Time-step selection for the forward solver.

    Sub-steps inside a node interval obey dt <= rel_dt * (t + t_init): the
    solution's smoothing scale grows linearly in t, so proportional steps keep
    the per-step relative perturbation uniform, which is what the singular
    t -> 0 region requires.  t_init is (initial width)^2 / a.
    cfl bounds the explicit upwind advection: dt <= cfl * dx / max|b|.
    dt_max caps every sub-step; 0 means T / 500 of the solve's time grid.
    """

    rel_dt: float = 0.002
    dt_max: float = 0.0
    cfl: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.rel_dt) and self.rel_dt > 0):
            raise InvalidParameterError(f"rel_dt must be finite and > 0, got {self.rel_dt}")
        if not 0 < self.cfl <= 1:
            raise InvalidParameterError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.dt_max >= 0:
            raise InvalidParameterError(f"dt_max must be >= 0, got {self.dt_max}")


def _factor(a: float, dt: float, dx: float, n: int) -> tuple:
    """LDL^T factors (LAPACK dpttrf) of the implicit-diffusion matrix
    I - dt/2 a d^2/dx^2 on n cells with no-flux faces, for `_advance`.  With
    one a > 0 the matrix is symmetric and strictly diagonally dominant with a
    positive diagonal, so it is positive definite and needs no pivoting."""
    alpha = dt / (2.0 * dx * dx)
    diag = np.ones(n)
    diag[:-1] += alpha * a
    diag[1:] += alpha * a
    d, e, info = dpttrf(diag, np.full(n - 1, -alpha * a), overwrite_d=1, overwrite_e=1)
    if info != 0:  # pragma: no cover - a > 0 keeps the matrix positive definite
        raise NumericalError(f"tridiagonal factorization failed (info = {info})")
    return d, e


def _advance(v: np.ndarray, b: np.ndarray, ldl: tuple, dt: float, dx: float,
             work: tuple) -> np.ndarray:
    """One step: explicit upwind advection with drift b (flux at the interior
    faces, none at the boundary), then the implicit diffusion solve with the
    factors `ldl = _factor(a, dt, dx, v.size)`.  The right-hand side is formed
    in v itself, face drift, flux and upwind mask in `work` (two float arrays
    and a bool one, each of v.size - 1); returns the solution, v solved in
    place."""
    bf, flux, up = work
    v_left, v_right = v[:-1], v[1:]
    np.add(b[:-1], b[1:], bf)
    bf *= 0.5
    np.greater(bf, 0.0, up)
    np.copyto(flux, v_right)
    np.copyto(flux, v_left, where=up)
    flux *= bf
    flux *= dt / dx
    v_left -= flux
    v_right += flux
    return dpttrs(*ldl, v, overwrite_b=1)[0]


def frozen_semigroup(mu: GridDensity, gamma: DensityFlow | None, drift: DriftSpec,
                     diff: DiffusionSpec, tg: TimeGrid,
                     options: SolverOptions | None = None) -> DensityFlow:
    """Marginal flow of the linear equation with density slots frozen at gamma:
    the conservative scheme from mu (snapshot 0) across the time grid, the drift
    evaluated at each sub-step start on no density, gamma's `_reader` or, with
    gamma None, the march's own current density (the self-consistent march).

    The sub-step is fixed within a node interval and a is constant, so the
    diffusion matrix is factored once per node interval.  Every sub-step must
    satisfy dt * max|b| <= dx, else NumericalError: dt comes from the
    drift at the interval start, which can grow inside it.  A node interval
    needing more than _MAX_SUBSTEPS sub-steps fails before it starts.
    """
    opts = options or SolverOptions()
    grid = mu.grid
    dx = grid.dx
    peak = float(mu.values.max())     # t_init = (initial width)^2 / a
    width = max(1.0 / (np.sqrt(2.0 * np.pi) * peak), dx) if peak > 0 else dx
    t_init = width ** 2 / diff.a
    dt_max = opts.dt_max or tg.T / 500.0
    v = mu.values.copy()      # owned: each sub-step overwrites it
    n = grid.n_cells
    work = (np.empty(n - 1), np.empty(n - 1), np.empty(n - 1, dtype=bool))
    b_abs, rho = np.empty(n), np.empty(n)
    snaps = [mu]
    nodes = tg.nodes
    read = None
    if drift.density_dependent:     # the frozen flow, or the march's own current v
        read = gamma._reader() if gamma is not None else lambda t: np.maximum(v, 0.0, out=rho)

    def field(t):     # drift at t and its max |b| (NaN if any is), reading the current v
        b = drift_field(drift, t, grid, read(t) if read is not None else None)
        return b, float(np.maximum.reduce(np.abs(b, b_abs)))

    for i in range(len(nodes) - 1):
        t0, t1 = float(nodes[i]), float(nodes[i + 1])
        gap = t1 - t0
        b0, max_b = field(t0)
        if not math.isfinite(max_b):
            raise NumericalError(f"non-finite drift at t = {t0:.4g}")
        dt_target = min(dt_max, max(opts.rel_dt * (t0 + t_init), 1e-14))
        if max_b > 0:
            dt_target = min(dt_target, opts.cfl * dx / max_b)
        n_sub = gap / dt_target - 1e-12
        if n_sub > _MAX_SUBSTEPS:
            raise NumericalError(
                f"node interval {i + 1} (t = {t0:.4g} to {t1:.4g}) needs {n_sub:.3g} "
                f"sub-steps, more than {_MAX_SUBSTEPS}")
        n_sub = max(1, int(math.ceil(n_sub)))
        dt = gap / n_sub
        ldl = _factor(diff.a, dt, dx, n)
        for sidx in range(n_sub):
            ts = t0 + sidx * dt
            if sidx > 0:
                b0, max_b = field(ts)
            if not dt * max_b <= dx * (1.0 + 1e-9):
                raise NumericalError(
                    f"dt * max|b| = {dt * max_b:.3e} exceeds the grid scale {dx:.3e} "
                    f"at t = {ts:.4g}")
            v = _advance(v, b0, ldl, dt, dx, work)
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"non-finite density after node {i + 1} (t = {t1:.4g})")
        snaps.append(GridDensity(grid, np.maximum(v, 0.0)))
    return DensityFlow(tg, tuple(snaps))


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardResult:
    flow: DensityFlow
    iterations: int
    contraction_factors: tuple
    lambda_used: float
    final_residual: float


def picard_fixed_point(mu: GridDensity, drift: DriftSpec, diff: DiffusionSpec,
                       tg: TimeGrid, spec: FlowMetricSpec, tol: float = 1e-6,
                       max_iter: int = 25, options: SolverOptions | None = None,
                       warm_start: bool = False) -> PicardResult:
    """Iterate the frozen-density map to its fixed point.

    The iteration starts from the flow of the regular reference drift (b1
    only), which already lies in the smoothing class the map preserves, or
    with `warm_start` from the self-consistent march, which is near the fixed
    point: fewer iterations, and fewer contraction factors to monitor.  The
    sup-in-time L^1 gap between successive iterates is the stopping residual.
    Contraction factors are recorded in the discounted metric; whenever an
    observed factor exceeds 0.9 the discount rate is doubled and the factors
    re-measured (the iterates themselves do not depend on it), up to
    _MAX_ESCALATIONS times.  Factors still >= 1 after that is a failure,
    reported with the diverging ratio sequence.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if max_iter < 2:
        raise InvalidParameterError("max_iter must be at least 2")
    _require_window(mu.grid)      # the gap norms need it; check before marching
    start = drift if warm_start else DriftSpec(b1=drift.b1, K=drift.K, tau=drift.tau)
    gamma = frozen_semigroup(mu, None, start, diff, tg, options)
    nodes = tg.nodes
    gap_norm_history = []     # per iteration: windowed-L^k gap at every node
    l1_history = []
    for _ in range(max_iter):
        new = frozen_semigroup(mu, gamma, drift, diff, tg, options)
        diffs = new.values_matrix()
        for row, old in zip(diffs, gamma.snapshots):    # in place: no second stack
            row -= old.values
        gap_norm_history.append(_row_norms(diffs, spec.k, mu.grid))
        l1_history.append(float(np.max(np.sum(np.abs(diffs), axis=1) * mu.grid.dx)))
        gamma = new
        if l1_history[-1] < tol:
            break
    iterations = len(l1_history)

    lam = spec.lam

    def factors(lam_val):
        ds = [replace(spec, lam=lam_val).weighted_sup(nodes, g) for g in gap_norm_history]
        out = []
        for i in range(1, len(ds)):
            # skip ratios once the gap is at the convergence floor: they are noise
            if l1_history[i - 1] <= 10.0 * tol:
                break
            if ds[i - 1] > 0:
                out.append(ds[i] / ds[i - 1])
        return out

    ratios = factors(lam)
    esc = 0
    while esc < _MAX_ESCALATIONS and any(r > 0.9 for r in ratios[1:]):
        lam *= 2.0
        esc += 1
        ratios = factors(lam)
    if not l1_history[-1] < tol:
        if any(r >= 1.0 for r in ratios[1:]):
            raise NoConvergenceError(
                f"no contraction after {esc} lambda escalations "
                f"(lambda = {lam:.3g}); ratio sequence: {ratios}", ratios=ratios)
        raise NoConvergenceError(
            f"residual {l1_history[-1]:.3e} above tol {tol:.1e} "
            f"after {iterations} iterations", ratios=ratios)
    return PicardResult(flow=gamma, iterations=iterations,
                        contraction_factors=tuple(ratios), lambda_used=lam,
                        final_residual=l1_history[-1])
