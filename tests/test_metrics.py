"""Transport distances, entropies, and the discounted flow metric."""

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from denslab.density_core import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    gaussian_density,
    normalize,
    tilde_norm,
    uniform_density,
)
from denslab.errors import InvalidParameterError, NumericalError, NumericOverflowError
from denslab.metrics import (
    FlowMetricSpec,
    _log_exp_moment,
    _logsumexp,
    _quantile_gap,
    exp_wasserstein,
    relative_entropy,
    renyi_entropy,
    total_variation,
    wasserstein_1d,
)
from oracles import (
    coupling_lp_cost,
    d_lambda,
    quantile_coupling_cost,
    same_bits,
    tilde_measure_distance_l1,
    wasserstein_atoms,
    wasserstein_lp_oracle,
)

GRID = Grid1D(-8.0, 8.0, 4000)


def random_atoms(rng, n):
    xs = rng.uniform(-2.0, 2.0, n)
    ws = rng.uniform(0.1, 1.0, n)
    return xs, ws / ws.sum()


class TestWasserstein1d:
    def test_identical(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        assert wasserstein_1d(d, d, 2.0) <= 1e-12

    def test_translation_any_q(self):
        # shift aligned to the cell lattice so the quantile gap is exactly c
        c = 175 * GRID.dx
        a = uniform_density(GRID, 0.0, 1.0)
        b = uniform_density(GRID, c, 1.0 + c)
        for q in (1.0, 2.0, 3.0):
            assert wasserstein_1d(a, b, q) == pytest.approx(c, abs=1e-6)

    def test_gaussian_mean_shift(self):
        m = 0.7
        a = gaussian_density(GRID, 0.0, 1.0)
        b = gaussian_density(GRID, m, 1.0)
        assert wasserstein_1d(a, b, 2.0) == pytest.approx(m, abs=1e-4)

    def test_gaussian_closed_form_w2(self):
        # W2^2 = (m1-m2)^2 + (s1-s2)^2 for 1D Gaussians
        a = gaussian_density(GRID, -0.3, 0.8)
        b = gaussian_density(GRID, 0.5, 1.3)
        exact = np.sqrt(0.8**2 + 0.5**2)
        assert wasserstein_1d(a, b, 2.0) == pytest.approx(exact, abs=1e-4)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(21)
        g = Grid1D(-4.0, 4.0, 400)
        for _ in range(40):
            ds = [normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-3))
                  for _ in range(3)]
            ab = wasserstein_1d(ds[0], ds[1], 2.0)
            bc = wasserstein_1d(ds[1], ds[2], 2.0)
            ac = wasserstein_1d(ds[0], ds[2], 2.0)
            assert ac <= ab + bc + 1e-8

    def test_not_a_probability(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        bad = GridDensity(GRID, d.values * 2.0)
        with pytest.raises(NumericalError, match=r"density mass \S+ is not 1"):
            wasserstein_1d(d, bad, 1.0)


class TestLpOracle:
    def test_identical_atoms(self):
        xs = np.array([0.0, 1.0, 2.0])
        ws = np.array([0.2, 0.5, 0.3])
        assert wasserstein_lp_oracle(xs, ws, xs, ws, 1.0) <= 1e-10

    def test_half_mass_moves(self):
        # {0: 1/2, 1: 1/2} vs {0: 1/2, 2: 1/2}: half a unit of mass moves by 1
        val = wasserstein_lp_oracle([0.0, 1.0], [0.5, 0.5], [0.0, 2.0], [0.5, 0.5], 1.0)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_lp_matches_quantile_coupling(self):
        # dual-route check: network LP vs exact monotone coupling, random atoms
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs, ws = random_atoms(rng, 10)
            ys, vs = random_atoms(rng, 10)
            for q in (1.0, 2.0):
                lp = wasserstein_lp_oracle(xs, ws, ys, vs, q)
                qc = wasserstein_atoms(xs, ws, ys, vs, q)
                assert lp == pytest.approx(qc, abs=1e-6)

    def test_grid_wasserstein_matches_lp_on_discretized_atoms(self):
        rng = np.random.default_rng(17)
        fine = Grid1D(-3.0, 3.0, 65536)
        for _ in range(3):
            xs, ws = random_atoms(rng, 8)
            ys, vs = random_atoms(rng, 8)
            va = np.zeros(fine.n_cells)
            vb = np.zeros(fine.n_cells)
            ia = ((xs - fine.x_min) / fine.dx).astype(int)
            ib = ((ys - fine.x_min) / fine.dx).astype(int)
            np.add.at(va, ia, ws / fine.dx)
            np.add.at(vb, ib, vs / fine.dx)
            a = GridDensity(fine, va)
            b = GridDensity(fine, vb)
            for q in (1.0, 2.0):
                grid_val = wasserstein_1d(a, b, q)
                lp_val = wasserstein_lp_oracle(xs, ws, ys, vs, q)
                assert grid_val == pytest.approx(lp_val, abs=1e-4)


class TestRelativeEntropy:
    def test_identical(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        assert abs(relative_entropy(d, d)) <= 1e-12

    def test_gaussian_closed_form(self):
        s = 0.9
        m1, m2 = -0.2, 0.55
        a = gaussian_density(GRID, m1, s)
        b = gaussian_density(GRID, m2, s)
        exact = (m1 - m2) ** 2 / (2 * s**2)
        assert relative_entropy(a, b) == pytest.approx(exact, abs=1e-4)

    def test_disjoint_supports(self):
        g = Grid1D(-1.0, 4.0, 500)
        a = uniform_density(g, 0.0, 1.0)
        b = uniform_density(g, 2.0, 3.0)
        assert relative_entropy(a, b) == np.inf

    def test_gibbs_nonnegative(self):
        rng = np.random.default_rng(2)
        g = Grid1D(-4.0, 4.0, 300)
        for _ in range(100):
            a = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-4))
            b = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-4))
            ent = relative_entropy(a, b)
            assert ent >= -1e-10
            assert relative_entropy(a, a) <= 1e-12


class TestRenyiEntropy:
    def test_identical_any_alpha(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        for alpha in (0.1, 1.0, 3.0):
            assert abs(renyi_entropy(d, d, alpha)) <= 1e-10

    def test_alpha_one_vs_quadrature_oracle(self):
        # (1/1) log int (dmu/dnu) dmu by direct high-resolution quadrature
        m = 0.6
        a = gaussian_density(GRID, 0.0, 1.0)
        b = gaussian_density(GRID, m, 1.0)
        fine = np.linspace(-8, 8, 200001)
        pa = np.exp(-0.5 * fine**2) / np.sqrt(2 * np.pi)
        pb = np.exp(-0.5 * (fine - m) ** 2) / np.sqrt(2 * np.pi)
        oracle = np.log(np.trapezoid(pa**2 / pb, fine))
        assert renyi_entropy(a, b, 1.0) == pytest.approx(oracle, abs=1e-5)

    def test_small_alpha_limit_is_relative_entropy(self):
        a = gaussian_density(GRID, 0.0, 0.9)
        b = gaussian_density(GRID, 0.4, 1.1)
        gap = abs(renyi_entropy(a, b, 1e-3) - relative_entropy(a, b))
        assert gap <= 1e-3

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(9)
        g = Grid1D(-4.0, 4.0, 300)
        alphas = (0.1, 0.5, 1.0, 2.0, 4.0)
        for _ in range(100):
            a = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-4))
            b = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-4))
            vals = [renyi_entropy(a, b, al) for al in alphas]
            for lo, hi in zip(vals[:-1], vals[1:]):
                assert lo <= hi + 1e-10

    def test_disjoint_supports(self):
        g = Grid1D(-1.0, 4.0, 500)
        a = uniform_density(g, 0.0, 1.0)
        b = uniform_density(g, 2.0, 3.0)
        for alpha in (0.5, 1.0, 2.0):
            assert renyi_entropy(a, b, alpha) == np.inf

    def test_invalid_alpha(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            renyi_entropy(d, d, 0.0)

    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_non_finite_alpha(self, alpha):
        d = gaussian_density(GRID, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            renyi_entropy(d, d, alpha)


class TestExpWasserstein:
    def test_identical(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        assert exp_wasserstein(d, d, 2.0) <= 1e-10

    def test_translation_closed_form(self):
        h = 64 * GRID.dx
        c = 3.0
        a = uniform_density(GRID, 0.0, 1.0)
        b = uniform_density(GRID, h, 1.0 + h)
        assert exp_wasserstein(a, b, c) == pytest.approx(c * h * h, abs=1e-6)

    def test_overflow_guard(self):
        a = gaussian_density(GRID, -5.0, 0.3)
        b = gaussian_density(GRID, 5.0, 0.3)
        with pytest.raises(NumericOverflowError):
            exp_wasserstein(a, b, 50.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_non_positive_or_non_finite_c(self, c):
        d = gaussian_density(GRID, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            exp_wasserstein(d, d, c)

    def test_log_exp_moment_bitwise_equal_to_scipy(self):
        # real squared quantile gaps, and random arrays with tied maxima
        rng = np.random.default_rng(23)
        g = Grid1D(-6.0, 6.0, 500)
        gaps = [_quantile_gap(gaussian_density(g, rng.uniform(-1, 1), rng.uniform(0.1, 0.5)),
                              gaussian_density(g, rng.uniform(-1, 1), rng.uniform(0.1, 0.5))) ** 2
                for _ in range(10)]
        for n in rng.integers(1, 3000, 30):
            gap2 = np.round(rng.uniform(0.0, 1.0, n) ** 2, int(rng.integers(1, 4)))
            gap2[rng.integers(0, n, 3)] = gap2.max()
            gaps.append(gap2)
        gaps.append(np.zeros(7))
        for gap2 in gaps:
            for c in np.append(10.0 ** rng.uniform(-8, 2, 20), 0.0):
                if c * gap2.max() <= 700.0:
                    expected = logsumexp(c * gap2) - np.log(gap2.size)
                    assert same_bits(_log_exp_moment(gap2, c), expected)

    def test_logsumexp_bitwise_equal_to_scipy(self):
        # Renyi exponents (1 + alpha) log mu - alpha log nu + log dx of Gaussian
        # pairs, negative for close pairs; random arrays with tied maxima; one
        # entry; every entry tied, as the constant Khasminskii field gives every
        # path the same tau; and +inf or NaN entries, as a lambda sweep's
        # weights past the float range give; the argument is left unchanged
        rng = np.random.default_rng(29)
        g = Grid1D(-6.0, 6.0, 500)
        arrays = []
        for _ in range(10):
            mu = gaussian_density(g, rng.uniform(-1, 1), rng.uniform(0.1, 0.5))
            nu = gaussian_density(g, rng.uniform(-1, 1), rng.uniform(0.1, 0.5))
            keep = (mu.values > 1e-30) & (nu.values > 1e-30)
            alpha = 10.0 ** rng.uniform(-4, 1)
            arrays.append((1.0 + alpha) * np.log(mu.values[keep])
                          - alpha * np.log(nu.values[keep]) + np.log(g.dx))
        for n in rng.integers(1, 3000, 30):
            a = np.round(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n), int(rng.integers(0, 3)))
            a[rng.integers(0, n, 3)] = a.max()
            arrays.append(a)
        arrays += [np.array([-3.5]), np.full(1000, 0.0123), np.array([np.inf, 1.0]),
                   np.array([np.inf, np.inf]), np.array([np.nan, 1.0]), np.array([np.nan, np.inf])]
        for a in arrays:
            kept = a.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _logsumexp(a)
            assert same_bits(np.float64(got), logsumexp(a))
            assert same_bits(a, kept)

    def test_jensen_vs_w2(self):
        # log E e^{c g^2} >= c E[g^2] = c W2^2 under the same coupling
        rng = np.random.default_rng(31)
        g = Grid1D(-4.0, 4.0, 400)
        for _ in range(100):
            a = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-3))
            b = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-3))
            c = rng.uniform(0.1, 1.0)
            lhs = exp_wasserstein(a, b, c)
            rhs = c * wasserstein_1d(a, b, 2.0) ** 2
            assert lhs >= rhs - 1e-8

    def test_monotone_coupling_optimal_vs_lp(self):
        # module-level theorem: monotone coupling minimizes the exp cost in 1D
        rng = np.random.default_rng(13)
        for _ in range(20):
            xs, ws = random_atoms(rng, 5)
            ys, vs = random_atoms(rng, 5)
            c = rng.uniform(0.2, 1.5)
            cost = lambda x, y: np.exp(c * (x - y) ** 2)
            lp = coupling_lp_cost(xs, ws, ys, vs, cost)
            mono = quantile_coupling_cost(xs, ws, ys, vs, cost)
            assert mono == pytest.approx(lp, abs=1e-6)


class TestDLambda:
    def _flows(self, scale=1.0):
        g = Grid1D(-4.0, 4.0, 400)
        tg = TimeGrid.uniform(1.0, 8)
        base = gaussian_density(g, 0.0, 1.0)
        other = gaussian_density(g, 0.3 * scale, 1.0)
        fa = DensityFlow(tg, tuple(base for _ in tg.nodes))
        fb = DensityFlow(tg, tuple(other for _ in tg.nodes))
        return g, tg, base, other, fa, fb

    def test_identical_flows(self):
        _, _, _, _, fa, _ = self._flows()
        spec = FlowMetricSpec(lam=1.0, p=2.0, k=4.0)
        assert d_lambda(fa, fa, spec) == 0.0

    def test_constant_difference_lambda_zero(self):
        g, tg, base, other, fa, fb = self._flows()
        spec = FlowMetricSpec(lam=0.0, p=2.0, k=4.0)
        e = spec.exponent
        expected = tg.T**e * tilde_norm(base.values - other.values, 4.0, g)
        assert d_lambda(fa, fb, spec) == pytest.approx(expected, rel=1e-12)

    def test_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(40)
        g = Grid1D(-4.0, 4.0, 200)
        tg = TimeGrid.uniform(1.0, 6)
        for _ in range(50):
            snaps_a = tuple(normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-3))
                            for _ in tg.nodes)
            snaps_b = tuple(normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells) + 1e-3))
                            for _ in tg.nodes)
            fa, fb = DensityFlow(tg, snaps_a), DensityFlow(tg, snaps_b)
            lams = [0.0, 0.5, 1.0, 3.0]
            vals = [d_lambda(fa, fb, FlowMetricSpec(l, 2.0, 4.0)) for l in lams]
            for lo, hi in zip(vals[1:], vals[:-1]):
                assert lo <= hi + 1e-12

    def test_bounded_by_undiscounted_sup(self):
        g, tg, base, other, fa, fb = self._flows()
        spec = FlowMetricSpec(lam=2.0, p=2.0, k=4.0)
        sup_norm = max(tilde_norm(a.values - b.values, 4.0, g)
                       for a, b in zip(fa.snapshots, fb.snapshots))
        assert d_lambda(fa, fb, spec) <= tg.T**spec.exponent * sup_norm + 1e-12

    def test_node_zero_counts_only_when_exponent_is_zero(self):
        # flows that differ only at t = 0: p = k gives e = 0 and node 0 enters
        # with weight 1; p < k gives e > 0 and node 0 is skipped
        g, tg, base, other, fa, _ = self._flows()
        fb = DensityFlow(tg, (other,) + fa.snapshots[1:])
        spec = FlowMetricSpec(lam=1.0, p=2.0, k=2.0)
        assert spec.exponent == 0.0
        expected = tilde_norm(base.values - other.values, 2.0, g)
        assert expected > 0
        assert d_lambda(fa, fb, spec) == pytest.approx(expected, rel=1e-12)
        assert d_lambda(fa, fb, FlowMetricSpec(lam=1.0, p=2.0, k=4.0)) == 0.0

    def test_time_grid_mismatch(self):
        g, tg, base, other, fa, fb = self._flows()
        tg2 = TimeGrid.uniform(1.0, 9)
        fb2 = DensityFlow(tg2, tuple(fb.snapshots[:1]) * len(tg2.nodes))
        spec = FlowMetricSpec(lam=1.0, p=2.0, k=4.0)
        with pytest.raises(NumericalError, match="flows live on different time grids"):
            d_lambda(fa, fb2, spec)


class TestTotalVariation:
    def test_bound_on_window_distance(self):
        g = Grid1D(-4.0, 4.0, 300)
        a = gaussian_density(g, 0.0, 0.5)
        b = gaussian_density(g, 1.0, 0.7)
        assert tilde_measure_distance_l1(a, b) <= total_variation(a, b) + 1e-12


class TestFlowMetricSpec:
    def test_exponent(self):
        assert FlowMetricSpec(1.0, 1.0, 2.0).exponent == pytest.approx(0.25)
        assert FlowMetricSpec(1.0, 2.0, np.inf).exponent == pytest.approx(0.25)
        assert FlowMetricSpec(1.0, 2.0, 2.0).exponent == 0.0

    def test_invariants(self):
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match="lambda weight"):
                FlowMetricSpec(lam, 2.0, 4.0)
        with pytest.raises(InvalidParameterError):
            FlowMetricSpec(1.0, 4.0, 2.0)
