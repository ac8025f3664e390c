"""Theorem-to-experiment harness: sweeps, scaling fits, pass/fail reports.

Each experiment checks one quantitative estimate at desk scale in two styles:
an exact-slope assertion on an analytically solvable control case (heat flow
or linear drift), and a bounded-ratio assertion with headroom on genuinely
nonlinear drifts, whose constants are not explicit.  Calibrated-constant
checks never reuse the calibration node for the violation measurement.

Experiments are deterministic given (config, seed), the particle-based one through
counter-based streams; the paired ones solve nu in a forked process beside mu.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .config import (
    RunConfig,
    build_diffusion,
    build_drift,
    build_field,
    build_grid,
    build_init_density,
    build_metric_spec,
    build_solver_options,
    build_time_grid,
)
from .density_core import DensityFlow, GridDensity, TimeGrid, _require_window, tilde_norm
from .dynamics import DriftSpec, frozen_semigroup, picard_fixed_point
from .errors import InvalidParameterError, NumericalError, NumericOverflowError
from .metrics import (
    _log_exp_moment,
    _quantile_gap,
    relative_entropy,
    renyi_entropy,
    wasserstein_1d,
)
from .particles import KhasminskiiReport, khasminskii_mc

_SPAN_DECADES = 2.0


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float


def fit_loglog(xs, ys) -> FitResult:
    """Ordinary least squares on (log x, log y)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 5:
        raise NumericalError("log-log fit needs >= 5 paired points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise NumericalError("log-log fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    return FitResult(float(slope), float(intercept))


@dataclass(frozen=True)
class ScalingReport:
    """Measured curve against a theoretical power law.

    max_ratio_violation is the worst measured / (constant * t^exponent) over
    the non-calibration nodes, with the constant calibrated at the first node.
    """

    quantity: str
    t_values: tuple
    measured: tuple
    theoretical_exponent: float
    fitted_exponent: float
    fitted_constant: float
    max_ratio_violation: float
    passed: bool
    degenerate: bool = False
    flags: tuple = ()


def _select_measure_nodes(cfg: RunConfig, tg: TimeGrid):
    """Node indices nearest to experiment.n_t log-spaced times in
    [experiment.t_lo, experiment.t_hi], and their times."""
    t_lo, t_hi, n_t = cfg["experiment.t_lo"], cfg["experiment.t_hi"], cfg["experiment.n_t"]
    if not (0 < t_lo < t_hi <= tg.T * (1 + 1e-9)):
        raise InvalidParameterError(f"bad measurement range [{t_lo}, {t_hi}] for T={tg.T}")
    if n_t < 1:
        raise InvalidParameterError(f"key 'experiment.n_t' must be >= 1, got {n_t}")
    targets = np.geomspace(t_lo, t_hi, n_t)
    idx = np.unique([int(np.argmin(np.abs(tg.nodes - tt))) for tt in targets])
    idx = idx[tg.nodes[idx] > 0]
    if idx.size < 2:
        raise InvalidParameterError("measurement grid collapses to fewer than 2 nodes")
    return idx, tg.nodes[idx]


def _fit_nodes(cfg: RunConfig):
    idx, t = _select_measure_nodes(cfg, build_time_grid(cfg))
    if t.size < 5:
        raise InvalidParameterError(f"log-log fit needs >= 5 measurement nodes, got {t.size}")
    tol = cfg["experiment.slope_tol"]
    if tol < 0:
        raise InvalidParameterError(f"key 'experiment.slope_tol' must be >= 0, got {tol}")
    if tol > 0 and t[-1] / t[0] < 10.0 ** _SPAN_DECADES * (1 - 1e-9):
        raise InvalidParameterError(
            f"slope fit needs >= {_SPAN_DECADES} decades, got span {t[-1] / t[0]:.3g}")
    return idx, t


def _solve_flow(cfg: RunConfig, mu: GridDensity, drift: DriftSpec) -> DensityFlow:
    diff = build_diffusion(cfg)
    tg = build_time_grid(cfg)
    opts = build_solver_options(cfg)
    if drift.density_dependent:    # from the self-consistent march: the flow is what counts
        return picard_fixed_point(mu, drift, diff, tg, build_metric_spec(cfg),
                                  tol=cfg["picard.tol"], max_iter=cfg["picard.max_iter"],
                                  options=opts, warm_start=True).flow
    return frozen_semigroup(mu, None, drift, diff, tg, opts)


def _beside(f, a, b):
    """(f(a), f(b)), f(b) in a forked child that pipes back its pickled result or exception and
    ends in os._exit, f(a) here: f(a)'s exception kills the child, else f(b)'s is raised here.
    The child is reaped on every path.  Without a working os.pipe and os.fork both run here."""
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()         # AttributeError where the platform has none
    except (AttributeError, OSError):
        for fd in fds:
            os.close(fd)
        return f(a), f(b)
    if pid == 0:                # the child: it never returns into the caller's stack
        try:
            os.close(fds[0])    # once the parent is gone, writing fails instead of blocking
            try:
                out = f(b)
            except Exception as exc:
                out = exc
            try:
                data = pickle.dumps(out)
            except Exception as exc:
                data = pickle.dumps(NumericalError(f"cannot pickle the forked outcome: {exc}"))
            with open(fds[1], "wb") as pipe:
                pipe.write(data)
            os._exit(0)
        finally:                # an exception, a broken pipe included: no whole result sent
            os._exit(1)
    os.close(fds[1])
    try:
        with open(fds[0], "rb") as pipe:
            first = f(a)
            data = pipe.read()
    except BaseException:       # f(a)'s exception or an interrupt: the child's is not read
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not data:     # a signal, an exit or a pickle cut short
        raise NumericalError(f"the forked solve ended without a result (wait status {status})")
    second = pickle.loads(data)
    if isinstance(second, Exception):
        raise second
    return first, second


def _paired_flows(cfg: RunConfig):
    """(mu, nu, flow_mu, flow_nu): the configured initial law mu, its copy nu shifted by
    experiment.delta, both evolved under the configured drift, nu's beside (`_beside`)."""
    grid = build_grid(cfg)
    mu = build_init_density(cfg, grid)
    nu = build_init_density(cfg, grid, shift=cfg["experiment.delta"])
    drift = build_drift(cfg)
    return (mu, nu, *_beside(lambda law: _solve_flow(cfg, law, drift), mu, nu))


def _ratio_report(quantity, t, measured, exponent, cfg, flags=(), degenerate=False):
    """Assemble a ScalingReport: slope fit plus first-node-calibrated ratios."""
    t = np.asarray(t, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    slope_tol = cfg["experiment.slope_tol"]
    headroom = cfg["experiment.headroom"]
    degenerate = bool(degenerate or np.all(measured <= 1e-14))
    slope = constant = max_ratio = 0.0
    if not degenerate:
        fit = fit_loglog(t, measured)
        slope, constant = fit.slope, float(np.exp(fit.intercept))
        const = measured[0] / t[0] ** exponent
        max_ratio = float(np.max(measured[1:] / (const * t[1:] ** exponent)))
    slope_ok = slope_tol <= 0 or abs(slope - exponent) <= slope_tol
    return ScalingReport(quantity=quantity, t_values=tuple(t), measured=tuple(measured),
                         theoretical_exponent=exponent, fitted_exponent=slope,
                         fitted_constant=constant, max_ratio_violation=max_ratio,
                         passed=degenerate or bool(slope_ok and max_ratio <= headroom),
                         degenerate=degenerate, flags=tuple(flags))


# ---------------------------------------------------------------------------
# smoothing: norm of the evolved law decays like t^(-1/2) from rough data
# ---------------------------------------------------------------------------

def experiment_smoothing(cfg: RunConfig) -> ScalingReport:
    """Sup-norm smoothing rate of the evolved flow from a narrow initial law.

    Measures ||flow(t)||_{~L^inf} on a log-spaced t grid; the d = 1, p = 1
    theoretical exponent is -1/2.  Control cases assert the fitted slope,
    nonlinear drifts assert calibrated boundedness of measured * t^(1/2).
    """
    grid = build_grid(cfg)
    _require_window(grid)                                       # before solving
    mu = build_init_density(cfg, grid)
    drift = build_drift(cfg)
    idx, t = _fit_nodes(cfg)
    flow = _solve_flow(cfg, mu, drift)
    measured = [tilde_norm(flow.snapshots[i].values, np.inf, grid) for i in idx]
    return _ratio_report("smoothing_sup_norm", t, measured, -0.5, cfg)


# ---------------------------------------------------------------------------
# super-continuity: initial W1 distance controls the evolved ~L^k distance
# ---------------------------------------------------------------------------

def experiment_supercontinuity(cfg: RunConfig) -> ScalingReport:
    """Rate at which the evolved laws of two nearby initial laws separate.

    Measures ||flow_mu(t) - flow_nu(t)||_{~L^k} / W_1(mu, nu) for translated
    initial Gaussians; theoretical exponent 1/(2k) - 1 (-3/4 at k = 2).
    """
    _require_window(build_grid(cfg))                            # before solving
    idx, t = _fit_nodes(cfg)
    mu, nu, flow_mu, flow_nu = _paired_flows(cfg)
    k = cfg["experiment.k"]
    exponent = 1.0 / (2.0 * k) - 1.0
    w1 = wasserstein_1d(mu, nu, 1.0)
    degenerate = w1 < 1e-12
    measured = []
    for i in idx:
        gap = tilde_norm(flow_mu.snapshots[i].values - flow_nu.snapshots[i].values, k, mu.grid)
        measured.append(gap / w1 if not degenerate else 0.0)
    return _ratio_report("supercontinuity_ratio", t, measured, exponent, cfg,
                         degenerate=degenerate)


# ---------------------------------------------------------------------------
# entropy cost: Ent(flow_mu(t) | flow_nu(t)) <= c W_2(mu, nu)^2 / t
# ---------------------------------------------------------------------------

def experiment_entropy_cost(cfg: RunConfig) -> ScalingReport:
    """Relative entropy of evolved laws against the transport cost of the
    initial laws; theoretical decay exponent -1 in t.

    Nodes where the discrete entropy is infinite (numerically disjoint
    supports) are dropped and flagged as resolution failures rather than
    counted as theorem violations.
    """
    idx, t_all = _fit_nodes(cfg)                                # before solving
    mu, nu, flow_mu, flow_nu = _paired_flows(cfg)
    degenerate = wasserstein_1d(mu, nu, 1.0) < 1e-12
    t_keep, measured, flags = [], [], []
    for i, tt in zip(idx, t_all):
        ent = relative_entropy(flow_mu.snapshots[i], flow_nu.snapshots[i])
        if not np.isfinite(ent):
            flags.append(f"resolution-failure@t={tt:.6g}")
            continue
        t_keep.append(tt)
        measured.append(ent)
    if len(t_keep) < 2:
        raise NumericalError("entropy infinite at nearly all nodes; grid under-resolved")
    return _ratio_report("relative_entropy", t_keep, measured, -1.0, cfg,
                         flags=flags, degenerate=degenerate)


# ---------------------------------------------------------------------------
# Renyi structure: monotone in alpha, KL limit, transport-term domination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RenyiReport:
    """Structural checks on the power divergence of evolved laws.

    dominance uses a single constant: the smallest making the transport term
    dominate on the even-index (calibration) nodes over the whole alpha grid,
    widened by a 5% interpolation margin, then verified on the held-out
    odd-index nodes.  A single finite constant working across two decades of
    t probes the 1/t scaling of the transport-term parameter, the structural
    content of the bound, since the true constant is not explicit.
    """

    alphas: tuple
    t_values: tuple
    ent_alpha: tuple             # ent_alpha[i_t][i_alpha]
    kl_values: tuple
    monotone_ok: bool
    limit_gap_max: float
    limit_ok: bool
    c_calibrated: float
    dominance_ok: bool
    dropped_t: tuple
    passed: bool
    flags: tuple = ()


def _smallest_expw_constant(gap2: np.ndarray, target: float) -> float:
    """Smallest c with exp_wasserstein(mu, nu, c) >= target (0 at noise level),
    given the pair's squared quantile gap `gap2 = _quantile_gap(mu, nu) ** 2`."""
    if target <= 1e-12:
        return 0.0
    lo, hi = 0.0, 1e-6
    while _log_exp_moment(gap2, hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise NumericOverflowError("dominance calibration diverged")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _log_exp_moment(gap2, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def experiment_renyi(cfg: RunConfig) -> RenyiReport:
    """Verify the three structural properties of the power divergence along
    the flow: monotonicity in alpha, the alpha -> 0 relative-entropy limit,
    and domination by the exponential-transport term with a 1/t parameter."""
    idx, t = _select_measure_nodes(cfg, build_time_grid(cfg))   # before solving
    alphas = tuple(sorted(cfg["experiment.alphas"]))
    if not alphas:
        raise InvalidParameterError("experiment.alphas is empty")
    mu, nu, flow_mu, flow_nu = _paired_flows(cfg)
    alpha_small = cfg["experiment.alpha_limit"]
    ent_matrix, kl_vals, limit_vals = [], [], []
    for i in idx:
        pair = flow_mu.snapshots[i], flow_nu.snapshots[i]
        ent_matrix.append([renyi_entropy(*pair, a) for a in alphas])
        kl_vals.append(relative_entropy(*pair))
        limit_vals.append(renyi_entropy(*pair, alpha_small))
    ent = np.array(ent_matrix)
    monotone_ok = bool(np.all(np.diff(ent, axis=1) >= -1e-10))
    limit_gap = float(np.max(np.abs(np.array(limit_vals) - np.array(kl_vals))))
    limit_ok = limit_gap <= 1e-3
    # calibrate the transport-term constant on the even-index nodes: the
    # smallest constant is monotone in its target, so each node's largest
    # alpha * Ent_alpha sets it for all of that node's alphas
    gap2 = _quantile_gap(mu, nu) ** 2
    c_cal = 0.0
    for i_t in range(0, len(t), 2):
        target = max(a * ent[i_t, j] for j, a in enumerate(alphas))
        c_cal = max(c_cal, _smallest_expw_constant(gap2, target) * 2.0 * float(t[i_t]))
    c_cal *= 1.05
    dominance_ok = True
    dropped, flags = [], []
    for i_t in range(1, len(t), 2):  # verify on the held-out odd-index nodes
        tt = float(t[i_t])
        try:        # 0.0 at c_cal = 0
            bound_base = _log_exp_moment(gap2, c_cal / (2.0 * tt))
        except NumericOverflowError:
            dropped.append(tt)
            flags.append(f"expw-overflow@t={tt:.6g}")
            continue
        for j, a in enumerate(alphas):
            if bound_base / a < ent[i_t, j] - 1e-9:
                dominance_ok = False
    passed = bool(monotone_ok and limit_ok and dominance_ok)
    return RenyiReport(alphas=alphas, t_values=tuple(float(v) for v in t),
                       ent_alpha=tuple(tuple(row) for row in ent_matrix),
                       kl_values=tuple(float(v) for v in kl_vals),
                       monotone_ok=monotone_ok, limit_gap_max=limit_gap,
                       limit_ok=limit_ok, c_calibrated=float(c_cal),
                       dominance_ok=dominance_ok, dropped_t=tuple(dropped),
                       passed=passed, flags=tuple(flags))


# ---------------------------------------------------------------------------
# exponential moments: two-regime growth in lambda
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KhasminskiiExperimentReport(KhasminskiiReport):
    """Exponential-moment sweep plus the growth/convexity verdicts.

    small_lambda_exponent fits log(log E) against log lambda on the small
    grid (quadratic regime, expect 2); large_lambda_exponent on the
    above-crossover grid, where theory caps the growth power at q.
    """

    small_lambda_exponent: float
    large_lambda_exponent: float
    convex_ok: bool
    constant_exact_ok: bool
    passed: bool


def _growth_exponent(lams: np.ndarray, log_est: np.ndarray) -> float:
    """Least-squares slope of log(log E) against log lambda; NaN below 2 points."""
    if lams.size < 2:
        return float("nan")
    if not np.all(log_est > 0):
        raise NumericalError("growth-exponent fit needs positive log estimates")
    return float(np.polyfit(np.log(lams), np.log(log_est), 1)[0])


def _khasminskii_run(cfg: RunConfig) -> KhasminskiiReport:
    """khasminskii_mc on the configured field, drift, diffusion and grid."""
    return khasminskii_mc(build_field(cfg), build_drift(cfg), build_diffusion(cfg),
                          cfg["khasminskii.s"], cfg["khasminskii.t"],
                          cfg["khasminskii.lambda_grid"], cfg["particles.n"],
                          cfg["khasminskii.dt"], build_grid(cfg), cfg["seed"],
                          x0=cfg["khasminskii.x0"])


def experiment_khasminskii(cfg: RunConfig) -> KhasminskiiExperimentReport:
    """Monte Carlo verification of the two-regime exponential moment bound."""
    rep = _khasminskii_run(cfg)
    f_name = cfg["khasminskii.f_name"]
    lams = np.array(rep.lambda_values)
    log_est = np.array(rep.log_estimates)
    est = np.array(rep.mc_estimates)
    se = np.array(rep.mc_stderr)
    with np.errstate(invalid="ignore"):
        se_log = np.where(np.isfinite(est) & (est > 0), se / est, 0.0)
    small = lams <= 0.5 + 1e-12
    large = lams * rep.norm_spacetime > 1.0
    small_exp = _growth_exponent(lams[small], log_est[small])
    large_exp = _growth_exponent(lams[large], log_est[large])
    slopes = np.diff(log_est) / np.diff(lams)
    slack = 3.0 * (se_log[:-1] + se_log[1:])
    gaps = np.diff(lams)
    tol = (slack[:-1] + slack[1:]) / np.minimum(gaps[:-1], gaps[1:])
    convex = bool(np.all(np.diff(slopes) >= -tol - 1e-12))    # nondecreasing, 3-s.e. slack
    constant_ok = True
    if f_name == "constant":    # log E = lambda^2 c0^2 (t - s), whose exp overflows at large lambda
        exact = (cfg["khasminskii.t"] - cfg["khasminskii.s"]) * cfg["khasminskii.c0"] ** 2 * lams ** 2
        constant_ok = bool(np.all(np.abs(log_est - exact) <= 3.0 * se_log + 1e-9))
    q = cfg["khasminskii.q"]
    passed = bool(rep.bounds_hold and convex and constant_ok
                  and (f_name != "singular_power" or abs(small_exp - 2.0) <= 0.2)
                  and (not np.any(large) or large_exp <= q + 0.3))
    return KhasminskiiExperimentReport(
        **vars(rep), small_lambda_exponent=float(small_exp),
        large_lambda_exponent=float(large_exp), convex_ok=convex,
        constant_exact_ok=constant_ok, passed=passed)
