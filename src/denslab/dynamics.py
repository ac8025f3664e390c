"""Drift/diffusion specifications and the frozen-density Fokker-Planck solver.

The nonlinear diffusion under study has a drift that depends pointwise on the
solution's own time-marginal density.  Its law is constructed here as the
fixed point of the map Phi: freeze a candidate density flow gamma in the
drift's density slots, evolve the resulting *linear* Fokker-Planck equation

    d/dt rho = 1/2 d^2/dx^2 (a rho) - d/dx (b rho)

from the initial density, and return the marginal flow.  Phi is iterated to
convergence (Picard); contraction is monitored in the discounted flow metric
with an adaptively escalated discount rate, since the theoretically
sufficient rate is not explicit.

Scheme: conservative finite volume, upwind advective flux (explicit) and
centered diffusive flux assembled implicitly (one tridiagonal solve per
step), no-flux boundaries.  Mass is conserved to rounding; the implicit
diffusion is unconditionally stable and the explicit advection is kept under
a CFL guard.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import fftconvolve

from .density_core import DensityFlow, Grid1D, GridDensity, TimeGrid, tilde_norm
from .errors import (
    InvalidDriftError,
    InvalidParameterError,
    NoConvergenceError,
    SolverFailureError,
)
from .metrics import FlowMetricSpec

log = logging.getLogger(__name__)


def in_integrability_class(p: float, q: float) -> bool:
    """Membership in the admissible exponent class: p, q > 2 and 1/p + 2/q < 1."""
    return p > 2 and q > 2 and 1.0 / p + 2.0 / q < 1.0


# ---------------------------------------------------------------------------
# coefficient specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionSpec:
    """Diffusion coefficient a(t, x) = sigma sigma^T with two-sided bounds."""

    a: object                      # callable (t, x array) -> array
    k_bound: float                 # sup a
    k_inv_bound: float             # sup 1/a

    def __post_init__(self):
        if self.k_bound <= 0 or self.k_inv_bound <= 0:
            raise InvalidParameterError("diffusion bounds must be positive")


def constant_diffusion(a0: float) -> DiffusionSpec:
    if a0 <= 0:
        raise InvalidParameterError("constant diffusion must be positive")
    return DiffusionSpec(a=lambda t, x: np.full_like(np.asarray(x, dtype=float), a0),
                         k_bound=a0, k_inv_bound=1.0 / a0)


@dataclass(frozen=True)
class SingularPart:
    """One x-singular density-independent drift term with its declared envelope.

    `term` is the actual contribution b_i(t, x); `envelope` dominates |term|
    and must have finite localized space-time norm for the declared (p, q) in
    the admissible class.  On a grid, |term| is capped at its value one cell
    away from the singularity (cap_coeff * dx^{-cap_exponent}); the cap is
    what keeps the discrete drift representable while preserving the norm the
    estimates actually use.
    """

    term: object                   # callable (t, x array) -> array
    envelope: object               # callable (t, x array) -> array >= |term|
    p: float
    q: float
    cap_coeff: float = 0.0         # 0 disables the grid-scale cap
    cap_exponent: float = 0.0


@dataclass(frozen=True)
class FeatureKernel:
    """Named smoothing kernel; the drift may consume (kernel * rho)(x)."""

    name: str
    profile: object                # callable (u array) -> array, unit integral
    width: float


@dataclass(frozen=True)
class DriftSpec:
    """Decomposed drift b = b1 + density_term + sum of singular parts.

    b1(t, x) is the regular (Lipschitz) part.  `nemytskii(t, x, r, feats)` is
    the density-dependent part: r is the density value at x and feats maps
    kernel names to convolution values at x.  It must be Lipschitz in r with
    constant K t^tau, and in the density argument with the same t^tau decay.
    """

    b1: object
    nemytskii: object = None
    singular_parts: tuple = ()
    feature_kernels: tuple = ()
    K: float = 1.0
    tau: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        if self.K < 0 or self.tau < 0:
            raise InvalidParameterError("K and tau must be nonnegative")

    @property
    def density_dependent(self) -> bool:
        return self.nemytskii is not None

    def stripped(self) -> "DriftSpec":
        """Regular reference drift: b1 only (initialization of the iteration)."""
        return DriftSpec(b1=self.b1, K=self.K, tau=self.tau, name=self.name + "_reference")


def validate_drift(drift: DriftSpec, T: float, grid: Grid1D, rng_seed: int = 1234) -> None:
    """Probe-based admissibility checks; raises InvalidDriftError naming the
    violated inequality."""
    rng = np.random.default_rng(rng_seed)
    xs = grid.centers
    # b1 Lipschitz constant via random difference quotients
    for t in np.linspace(1e-6, T, 8):
        b = np.asarray(drift.b1(float(t), xs), dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise InvalidDriftError("b1 is not finite on the grid")
        slopes = np.abs(np.diff(b)) / grid.dx
        if slopes.max(initial=0.0) > drift.K * (1 + 1e-6) :
            raise InvalidDriftError(
                f"|grad b1| = {slopes.max():.4g} exceeds declared K = {drift.K}")
    for part in drift.singular_parts:
        if not in_integrability_class(part.p, part.q):
            raise InvalidDriftError(
                f"(p, q) = ({part.p}, {part.q}) violates p, q > 2 and 1/p + 2/q < 1")
        for t in np.linspace(1e-6, T, 4):
            tv = np.abs(np.asarray(part.term(float(t), xs)))
            ev = np.asarray(part.envelope(float(t), xs))
            if np.any(tv > ev * (1 + 1e-9) + 1e-12):
                raise InvalidDriftError("singular part exceeds its declared envelope")
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
                raise InvalidDriftError(
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
            raise InvalidDriftError(f"feature kernel '{k.name}' has nonpositive mass")
        prof = prof / s
        feats[k.name] = fftconvolve(rho_values, prof, mode="same") * grid.dx
    return feats


def _singular_sum(drift: DriftSpec, t: float, x: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(x)
    for part in drift.singular_parts:
        v = np.asarray(part.term(t, x), dtype=np.float64)
        if part.cap_coeff > 0:
            cap = part.cap_coeff * dx ** (-part.cap_exponent)
            v = np.clip(v, -cap, cap)
        out += v
    return out


def drift_field(drift: DriftSpec, t: float, grid: Grid1D,
                rho_values: np.ndarray | None) -> np.ndarray:
    """Per-cell drift values given the frozen density at time t (or None)."""
    x = grid.centers
    b = np.asarray(drift.b1(t, x), dtype=np.float64) + _singular_sum(drift, t, x, grid.dx)
    if drift.nemytskii is not None:
        if rho_values is None:
            raise InvalidParameterError("density-dependent drift needs a density")
        feats = density_features(rho_values, grid, drift)
        b = b + np.asarray(drift.nemytskii(t, x, rho_values, feats), dtype=np.float64)
    return b


def drift_at_positions(drift: DriftSpec, t: float, x: np.ndarray, grid: Grid1D,
                       rho_values: np.ndarray | None) -> np.ndarray:
    """Drift evaluated at arbitrary positions; density and features are
    linearly interpolated from the grid."""
    b = np.asarray(drift.b1(t, x), dtype=np.float64) + _singular_sum(drift, t, x, grid.dx)
    if drift.nemytskii is not None:
        if rho_values is None:
            raise InvalidParameterError("density-dependent drift needs a density")
        r = np.interp(x, grid.centers, rho_values)
        feats_grid = density_features(rho_values, grid, drift)
        feats = {k: np.interp(x, grid.centers, v) for k, v in feats_grid.items()}
        b = b + np.asarray(drift.nemytskii(t, x, r, feats), dtype=np.float64)
    return b


# ---------------------------------------------------------------------------
# built-in drifts
# ---------------------------------------------------------------------------

def power_singularity(x, center: float, coeff: float, gamma: float) -> np.ndarray:
    """coeff |x - center|^(-gamma) on |x - center| <= 1, inf at the centre, 0 outside."""
    r = np.abs(np.asarray(x, dtype=np.float64) - center)
    out = np.zeros_like(r)
    near = r <= 1.0
    with np.errstate(divide="ignore"):
        out[near] = coeff * r[near] ** (-gamma)
    out[~np.isfinite(out)] = np.inf
    return out


def _bump_profile(u, width):
    z = np.clip(np.abs(u) / width, 0.0, 1.0)
    out = np.zeros_like(z)
    inner = z < 1.0
    out[inner] = np.exp(-1.0 / (1.0 - z[inner] ** 2))
    return out


def builtin_drift(name: str, params: dict | None = None) -> DriftSpec:
    """Named drift families, each validated against the admissibility checks.

    linear_ou:            b = -theta x
    capped_density:       b = -theta x + t^tau kappa min(r, cap)
    smoothed_interaction: b = -theta x + t^tau kappa (bump_h * rho)(x)
    singular_well:        linear_ou plus an attracting power singularity
                          -coeff sign(x - x0) |x - x0|^{-gamma} 1_{|x-x0|<=1},
                          admissible only when gamma * p2 < 1.
    """
    p = dict(params or {})
    theta = float(p.pop("theta", 1.0))

    def ou(t, x):
        return -theta * x

    if name == "linear_ou":
        if p:
            raise InvalidDriftError(f"unknown linear_ou parameters: {sorted(p)}")
        return DriftSpec(b1=ou, K=abs(theta), name=name)

    if name == "capped_density":
        kappa = float(p.pop("kappa", 0.1))
        tau = float(p.pop("tau", 0.6))
        cap = float(p.pop("cap", 5.0))
        if p:
            raise InvalidDriftError(f"unknown capped_density parameters: {sorted(p)}")
        if cap <= 0:
            raise InvalidDriftError("capped_density: cap must be positive")

        def nem(t, x, r, feats):
            return (t ** tau) * kappa * np.minimum(r, cap)

        return DriftSpec(b1=ou, nemytskii=nem, K=max(abs(theta), abs(kappa)),
                         tau=tau, name=name)

    if name == "smoothed_interaction":
        kappa = float(p.pop("kappa", 0.1))
        tau = float(p.pop("tau", 0.6))
        width = float(p.pop("kernel_width", 0.2))
        if p:
            raise InvalidDriftError(f"unknown smoothed_interaction parameters: {sorted(p)}")
        if width <= 0:
            raise InvalidDriftError("smoothed_interaction: kernel_width must be positive")
        kern = FeatureKernel("bump", lambda u: _bump_profile(u, width), width)

        def nem(t, x, r, feats):
            return (t ** tau) * kappa * feats["bump"]

        return DriftSpec(b1=ou, nemytskii=nem, feature_kernels=(kern,),
                         K=max(abs(theta), abs(kappa)), tau=tau, name=name)

    if name == "singular_well":
        gamma = float(p.pop("gamma", 0.2))
        coeff = float(p.pop("coeff", 0.5))
        x0 = float(p.pop("center", 0.0))
        p2 = float(p.pop("p2", 4.0))
        q2 = float(p.pop("q2", 4.0))
        if p:
            raise InvalidDriftError(f"unknown singular_well parameters: {sorted(p)}")
        if not in_integrability_class(p2, q2):
            raise InvalidDriftError(
                f"(p2, q2) = ({p2}, {q2}) violates p, q > 2 and 1/p + 2/q < 1")
        if not 0 < gamma:
            raise InvalidDriftError("singular_well: gamma must be positive")
        if gamma * p2 >= 1.0:
            raise InvalidDriftError(
                f"gamma * p2 = {gamma * p2:.3g} >= 1: |x|^(-gamma) is not "
                f"window-L^{p2:g} integrable")

        def envelope(t, x):
            return power_singularity(x, x0, coeff, gamma)

        def well(t, x):
            # -sign(x - x0) times the envelope; 0 at the centre itself
            r = x - x0
            return np.multiply(-np.sign(r), envelope(t, x), out=np.zeros_like(r), where=r != 0)

        part = SingularPart(term=well, envelope=envelope, p=p2, q=q2,
                            cap_coeff=coeff, cap_exponent=gamma)
        return DriftSpec(b1=ou, singular_parts=(part,), K=abs(theta), name=name)

    raise InvalidDriftError(f"unknown drift name '{name}'")


# ---------------------------------------------------------------------------
# Fokker-Planck stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOptions:
    """Time-step selection for the forward solver.

    Sub-steps inside a node interval obey dt <= rel_dt * (t + t_init): the
    solution's smoothing scale grows linearly in t, so proportional steps keep
    the per-step relative perturbation uniform, which is what the singular
    t -> 0 region requires.  t_init is (initial width)^2 / sup a.
    cfl bounds the explicit upwind advection: dt <= cfl * dx / max|b|.
    """

    rel_dt: float = 0.002
    dt_max: float | None = None
    cfl: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.rel_dt) and self.rel_dt > 0):
            raise InvalidParameterError(f"rel_dt must be finite and > 0, got {self.rel_dt}")
        if not self.cfl > 0:
            raise InvalidParameterError(f"cfl must be > 0, got {self.cfl}")
        if self.dt_max is not None and not self.dt_max > 0:
            raise InvalidParameterError(f"dt_max must be > 0, got {self.dt_max}")


def _initial_time_scale(mu: GridDensity, diff: DiffusionSpec) -> float:
    peak = float(mu.values.max())
    width = max(1.0 / (np.sqrt(2.0 * np.pi) * peak), mu.grid.dx) if peak > 0 else mu.grid.dx
    return width ** 2 / diff.k_bound


def _advance(v: np.ndarray, b: np.ndarray, a: np.ndarray, dt: float, dx: float) -> np.ndarray:
    n = v.size
    # upwind advective flux at interior faces, zero at the boundary
    bf = 0.5 * (b[:-1] + b[1:])
    flux = np.where(bf > 0, bf * v[:-1], bf * v[1:])
    rhs = v.copy()
    rhs[:-1] -= dt / dx * flux
    rhs[1:] += dt / dx * flux
    # implicit diffusive flux (a rho)' / 2 at interior faces
    alpha = dt / (2.0 * dx * dx)
    ab = np.zeros((3, n))
    ab[0, 1:] = -alpha * a[1:]          # super-diagonal
    ab[2, :-1] = -alpha * a[:-1]        # sub-diagonal
    diag = np.ones(n)
    diag[:-1] += alpha * a[:-1]
    diag[1:] += alpha * a[1:]
    ab[1, :] = diag
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - a >= 1/K prevents this
        raise SolverFailureError(f"tridiagonal solve failed: {exc}") from exc


def frozen_semigroup(mu: GridDensity, gamma: DensityFlow | None, drift: DriftSpec,
                     diff: DiffusionSpec, tg: TimeGrid,
                     options: SolverOptions | None = None) -> DensityFlow:
    """Marginal flow of the linear equation with density slots frozen at gamma.

    Marches the conservative scheme across the time grid, evaluating the
    drift at each sub-step start with gamma's density interpolated in time;
    snapshot 0 is the initial density itself.
    """
    opts = options or SolverOptions()
    if drift.density_dependent and gamma is None:
        raise InvalidParameterError("density-dependent drift needs a frozen flow")
    grid = mu.grid
    dx = grid.dx
    x = grid.centers
    t_init = _initial_time_scale(mu, diff)
    dt_max = opts.dt_max if opts.dt_max is not None else tg.T / 500.0
    v = mu.values.copy()
    snaps = [mu]
    nodes = tg.nodes
    for i in range(len(nodes) - 1):
        t0, t1 = float(nodes[i]), float(nodes[i + 1])
        gap = t1 - t0
        rho_g = gamma.values_at(t0) if gamma is not None else None
        b0 = drift_field(drift, t0, grid, rho_g)
        max_b = float(np.max(np.abs(b0)))
        dt_target = min(dt_max, max(opts.rel_dt * (t0 + t_init), 1e-14))
        if max_b > 0:
            dt_target = min(dt_target, opts.cfl * dx / max_b)
        n_sub = max(1, int(math.ceil(gap / dt_target - 1e-12)))
        dt = gap / n_sub
        for sidx in range(n_sub):
            ts = t0 + sidx * dt
            if sidx > 0:
                rho_g = gamma.values_at(ts) if gamma is not None else None
                b0 = drift_field(drift, ts, grid, rho_g)
            a0 = np.asarray(diff.a(ts, x), dtype=np.float64)
            v = _advance(v, b0, a0, dt, dx)
        if not np.all(np.isfinite(v)):
            raise SolverFailureError(f"non-finite density after node {i + 1} (t = {t1:.4g})")
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
                       max_escalations: int = 6) -> PicardResult:
    """Iterate the frozen-density map to its fixed point.

    The iteration starts from the flow of the regular reference drift (b1
    only), which already lies in the smoothing class the map preserves.  The
    sup-in-time L^1 gap between successive iterates is the stopping residual.
    Contraction factors are recorded in the discounted metric; whenever an
    observed factor exceeds 0.9 the discount rate is doubled and the factors
    re-measured (the iterates themselves do not depend on it), up to
    `max_escalations` times.  Factors still >= 1 after that is a failure,
    reported with the diverging ratio sequence.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    if max_iter < 2:
        raise InvalidParameterError("max_iter must be at least 2")
    gamma = frozen_semigroup(mu, None, drift.stripped(), diff, tg, options)
    nodes = tg.nodes
    dx = mu.grid.dx
    gap_norm_history = []     # per iteration: windowed-L^k gap at every node
    l1_history = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        new = frozen_semigroup(mu, gamma, drift, diff, tg, options)
        diffs = new.values_matrix() - gamma.values_matrix()
        gap_norms = np.array([tilde_norm(diffs[i], spec.k, mu.grid)
                              for i in range(len(nodes))])
        l1_gap = float(np.max(np.sum(np.abs(diffs), axis=1) * dx))
        gap_norm_history.append(gap_norms)
        l1_history.append(l1_gap)
        gamma = new
        iterations += 1
        if l1_gap < tol:
            converged = True
            break

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
    while esc < max_escalations and any(r > 0.9 for r in ratios[1:]):
        lam *= 2.0
        esc += 1
        ratios = factors(lam)
    if not converged:
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
