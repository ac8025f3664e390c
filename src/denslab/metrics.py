"""Distances and divergences between densities and between density flows.

Transport distances use the 1D quantile representation: for cost functions
that are convex and increasing in |x - y| the monotone (quantile) coupling is
optimal, so W_q and the exponential-cost transport functional reduce to
one-dimensional integrals over the uniform quantile variable.  The test
suite checks them against an exact transportation linear program, which
lives with the tests in tests/oracles.py.

Entropy conventions:
  * relative entropy Ent(mu|nu) = int log(dmu/dnu) dmu, +inf when mu is not
    absolutely continuous w.r.t. nu at the resolution floor;
  * the power divergence Ent_alpha(mu|nu) = (1/alpha) log int (dmu/dnu)^alpha dmu
    (note the 1/alpha prefactor and integration against dmu); it increases in
    alpha and converges to relative entropy as alpha -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density_core import GridDensity, _rescaled, density_quantiles
from .errors import InvalidParameterError, NumericalError, NumericOverflowError

# Densities below this floor count as zero in entropy quotients; it separates
# "true zero" from double-precision underflow.
DENSITY_FLOOR = 1e-30

# Entropies are +inf only when the numerator mass sitting on sub-floor
# denominator cells is resolvable; far-tail cells holding less than this are
# excluded from the quotient (their true contribution is below double
# precision, and treating them as support mismatches would misreport smooth
# positive densities as mutually singular).
ABSORB_MASS_TOL = 1e-12

_MASS_TOL = 1e-6
_EXP_CAP = 700.0    # the exponential moments stop short of exp's overflow at 709.78


def _check_pair(mu: GridDensity, nu: GridDensity) -> None:
    if mu.grid != nu.grid:
        raise NumericalError("inputs live on different grids")


def _check_probability(d: GridDensity) -> None:
    if abs(d.mass() - 1.0) > _MASS_TOL:
        raise NumericalError(f"density mass {d.mass():.8f} is not 1")


def _quantile_gap(mu: GridDensity, nu: GridDensity) -> np.ndarray:
    """Monotone-coupling gap F_mu^-1(u) - F_nu^-1(u) on a uniform quantile
    grid of max(4 * cells, 1024) midpoints, for a checked probability pair."""
    _check_pair(mu, nu)
    _check_probability(mu)
    _check_probability(nu)
    n_u = max(4 * mu.grid.n_cells, 1024)
    u = (np.arange(n_u) + 0.5) / n_u
    return density_quantiles(mu, u) - density_quantiles(nu, u)


def wasserstein_1d(mu: GridDensity, nu: GridDensity, q: float = 1.0) -> float:
    """q-Wasserstein distance via piecewise-linear CDF inversion.

    In one dimension the coupling infimum is attained by the monotone map, so
    W_q^q = int_0^1 |F_mu^{-1}(u) - F_nu^{-1}(u)|^q du.
    """
    if not 1 <= q < np.inf:
        raise InvalidParameterError(f"q must be finite and >= 1, got {q}")
    return float(_rescaled(np.abs(_quantile_gap(mu, nu)), lambda a: np.mean(a ** q) ** (1.0 / q)))


def exp_wasserstein(mu: GridDensity, nu: GridDensity, c: float) -> float:
    """Exponential-cost transport functional: inf over couplings of
    log int exp(c |x-y|^2) d(pi).

    Evaluated on the monotone coupling, which is optimal in 1D because the
    cost is convex increasing in |x-y| (cross-checked against the LP oracle
    in the test suite).  A caller that needs many values of c for one pair
    squares `_quantile_gap` once and calls `_log_exp_moment` per c.
    """
    if not 0 < c < np.inf:
        raise InvalidParameterError(f"c must be positive and finite, got {c}")
    return _log_exp_moment(_quantile_gap(mu, nu) ** 2, c)


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a), leaving `a` as it is, by scipy.special.logsumexp's steps for
    real input, bit for bit: the m tied maxima leave the shifted sum s, and
    log1p(s / m) + log(m) + max adds them back.  A NaN or +inf in `a` (a lambda
    sweep's weights past the float range) gives scipy's value, and no warning."""
    a_max = a.max()
    tied = a == a_max
    m = np.count_nonzero(tied)
    with np.errstate(divide="ignore"):      # log(m = 0) when a_max is NaN
        s = np.exp(np.where(tied, -np.inf, a) - a_max).sum()
        return float(np.log1p(s / m) + np.log(m) + a_max)


def _log_exp_moment(gap2: np.ndarray, c: float) -> float:
    """log of the mean of exp(c * gap2): `exp_wasserstein` for c > 0."""
    a = c * gap2
    if a.max() > _EXP_CAP:
        raise NumericOverflowError(f"c * max_gap^2 = {a.max():.1f} > {_EXP_CAP:g} would overflow")
    return _logsumexp(a) - float(np.log(gap2.size))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def _entropy_support(mu: GridDensity, nu: GridDensity):
    """Cells entering an entropy quotient, or None when the divergence is +inf
    (mu carries resolvable mass where nu sits at the zero floor)."""
    a, b = mu.values, nu.values
    live = a > DENSITY_FLOOR
    mismatch = live & (b <= DENSITY_FLOOR)
    if np.sum(a[mismatch]) * mu.grid.dx > ABSORB_MASS_TOL:
        return None
    return live & (b > DENSITY_FLOOR)


def relative_entropy(mu: GridDensity, nu: GridDensity) -> float:
    """int log(dmu/dnu) dmu on the grid; +inf if mu puts mass where nu has none."""
    _check_pair(mu, nu)
    keep = _entropy_support(mu, nu)
    if keep is None:
        return float("inf")
    aa, bb = mu.values[keep], nu.values[keep]
    return float(np.sum(aa * np.log(aa / bb)) * mu.grid.dx)


def renyi_entropy(mu: GridDensity, nu: GridDensity, alpha: float) -> float:
    """(1/alpha) log int (dmu/dnu)^alpha dmu with the same floor convention.

    Computed in log space through `_logsumexp` so large density ratios stay
    representable.
    """
    if not 0 < alpha < np.inf:
        raise InvalidParameterError(f"alpha must be positive and finite, got {alpha}")
    _check_pair(mu, nu)
    keep = _entropy_support(mu, nu)
    if keep is None:
        return float("inf")
    la = np.log(mu.values[keep])
    lb = np.log(nu.values[keep])
    return _logsumexp((1.0 + alpha) * la - alpha * lb + np.log(mu.grid.dx)) / alpha


# ---------------------------------------------------------------------------
# flow metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowMetricSpec:
    """Parameters of the discounted flow metric: weight exp(-lambda t) t^e with
    e = (k - p) / (2 p k) in dimension 1."""

    lam: float
    p: float
    k: float

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise InvalidParameterError(f"lambda weight must be finite and >= 0, got {self.lam}")
        if not (1.0 <= self.p <= self.k):
            raise InvalidParameterError(f"need 1 <= p <= k, got p={self.p}, k={self.k}")

    @property
    def exponent(self) -> float:
        if np.isinf(self.k):
            return 1.0 / (2.0 * self.p)
        return (self.k - self.p) / (2.0 * self.p * self.k)

    def weighted_sup(self, nodes: np.ndarray, gap_norms: np.ndarray) -> float:
        """max over time nodes of exp(-lambda t) t^e gap_norms(t).

        The t = 0 node is skipped whenever e > 0 (its weight has limit 0
        there); for e = 0 it participates with weight 1.
        """
        e = self.exponent
        start = 1 if e > 0 else 0
        t = nodes[start:]
        return float(np.max(np.exp(-self.lam * t) * t ** e * gap_norms[start:]))


def total_variation(mu: GridDensity, nu: GridDensity) -> float:
    """Variation-norm distance sup_{|f|<=1} |mu(f) - nu(f)| = int |rho_mu - rho_nu|."""
    _check_pair(mu, nu)
    return float(np.sum(np.abs(mu.values - nu.values)) * mu.grid.dx)
