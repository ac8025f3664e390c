"""Grids, densities, localized norms: examples pinned to independent oracles."""

import numpy as np
import pytest

from denslab import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    gaussian_density,
    kde,
    load_density,
    load_flow,
    normalize,
    save_density,
    save_flow,
    tilde_measure_distance_l1,
    tilde_norm,
    tilde_spacetime_norm,
    uniform_density,
)
from denslab.errors import (
    DegenerateDensityError,
    DomainTooSmallError,
    GridMismatchError,
    InvalidParameterError,
)


def brute_force_tilde_norm(values, grid, k):
    """Reference: direct summation over every window center on the lattice."""
    if np.isinf(k):
        return np.max(np.abs(values))
    best = 0.0
    for i in range(grid.n_cells):
        mask = np.abs(grid.centers - grid.centers[i]) <= 1.0
        best = max(best, float(np.sum(np.abs(values[mask]) ** k) * grid.dx))
    return best ** (1.0 / k)


class TestGrid:
    def test_basic(self):
        g = Grid1D(-4.0, 4.0, 100)
        assert g.dx == pytest.approx(0.08)
        assert len(g.centers) == 100
        assert g.centers[0] == pytest.approx(-4.0 + 0.04)
        assert g.dx * g.n_cells == pytest.approx(g.width, abs=1e-15)

    def test_invariants(self):
        with pytest.raises(InvalidParameterError):
            Grid1D(1.0, -1.0, 100)
        with pytest.raises(InvalidParameterError):
            Grid1D(0.0, 1.0, 4)


class TestTimeGrid:
    def test_uniform(self):
        tg = TimeGrid.uniform(2.0, 10)
        assert tg.nodes[0] == 0.0
        assert tg.T == 2.0
        assert len(tg) == 11

    def test_geometric_prefix_ratio(self):
        tg = TimeGrid.geometric(1.0, t_min=1e-4, nodes_per_decade=40)
        assert tg.nodes[1] == pytest.approx(1e-4)
        ratios = tg.nodes[2:-1] / tg.nodes[1:-2]
        assert np.allclose(ratios, 10 ** (1 / 40), rtol=1e-12)
        assert tg.nodes[-1] == 1.0

    def test_invariants(self):
        with pytest.raises(InvalidParameterError):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(InvalidParameterError):
            TimeGrid(np.array([0.0, 0.2, 0.2]))
        with pytest.raises(InvalidParameterError):
            TimeGrid.geometric(1.0, nodes_per_decade=0)


class TestTildeNorm:
    def test_uniform_unit_support(self):
        g = Grid1D(-4.0, 4.0, 800)
        d = uniform_density(g, 0.0, 1.0)
        # window of length 2 covers the whole unit support
        assert tilde_norm(d, 1.0) == pytest.approx(1.0, abs=g.dx)

    def test_uniform_wide_support(self):
        g = Grid1D(-1.0, 5.0, 1200)
        d = uniform_density(g, 0.0, 4.0)
        # value 1/4, best window captures mass 1/4 * 2
        assert tilde_norm(d, 1.0) == pytest.approx(0.5, abs=g.dx)

    def test_gaussian_k2_vs_quadrature_oracle(self):
        g = Grid1D(-6.0, 6.0, 2400)
        d = gaussian_density(g, 0.0, 1.0)
        # oracle: direct quadrature at 10x resolution, window centered anywhere
        fine = Grid1D(-6.0, 6.0, 24000)
        phi = np.exp(-0.5 * fine.centers**2) / np.sqrt(2 * np.pi)
        best = 0.0
        for z in np.linspace(-2.0, 2.0, 2001):
            mask = np.abs(fine.centers - z) <= 1.0
            best = max(best, np.sum(phi[mask] ** 2) * fine.dx)
        oracle = np.sqrt(best)
        assert tilde_norm(d, 2.0) == pytest.approx(oracle, rel=1e-3)

    def test_infinity_norm(self):
        g = Grid1D(-4.0, 4.0, 400)
        d = gaussian_density(g, 0.3, 0.5)
        assert tilde_norm(d, np.inf) == pytest.approx(d.values.max())

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for n_cells in (64, 333, 10_000):
            g = Grid1D(-3.0, 3.0, n_cells)
            v = rng.uniform(-1.0, 2.0, n_cells)
            for k in (1.0, 2.0, 3.5):
                fast = tilde_norm(v, k, g)
                slow = brute_force_tilde_norm(v, g, k)
                assert fast == pytest.approx(slow, rel=1e-10)

    def test_holder_monotonicity_in_k(self):
        # || f ||_{~L^k1} <= |window|^(1/k1 - 1/k2) || f ||_{~L^k2} for k1 <= k2
        rng = np.random.default_rng(11)
        g = Grid1D(-4.0, 4.0, 500)
        win = 2.0 + g.dx
        for _ in range(100):
            v = rng.uniform(0.0, 1.0, g.n_cells) * rng.integers(0, 2, g.n_cells)
            for k1, k2 in ((1.0, 2.0), (2.0, 4.0), (1.5, 8.0)):
                lhs = tilde_norm(v, k1, g)
                rhs = win ** (1 / k1 - 1 / k2) * tilde_norm(v, k2, g)
                assert lhs <= rhs * (1 + 1e-12)

    def test_guards(self):
        g = Grid1D(-0.5, 0.5, 64)
        with pytest.raises(DomainTooSmallError):
            tilde_norm(np.ones(64), 2.0, g)
        g2 = Grid1D(-2.0, 2.0, 64)
        with pytest.raises(InvalidParameterError):
            tilde_norm(np.ones(64), 0.5, g2)


class TestSpacetimeNorm:
    def test_constant_in_time(self):
        g = Grid1D(-4.0, 4.0, 800)
        d = uniform_density(g, 0.0, 1.0)
        tg = TimeGrid.uniform(1.0, 50)
        mat = np.tile(d.values, (len(tg), 1))
        val = tilde_spacetime_norm(mat, 1.0, 2.0, 0.0, 1.0, time_grid=tg, grid=g)
        assert val == pytest.approx(1.0, abs=2 * g.dx)

    def test_zero(self):
        g = Grid1D(-4.0, 4.0, 100)
        tg = TimeGrid.uniform(1.0, 10)
        mat = np.zeros((len(tg), g.n_cells))
        assert tilde_spacetime_norm(mat, 2.0, 2.0, 0.0, 1.0, time_grid=tg, grid=g) == 0.0

    def test_time_singular_profile(self):
        # f_r = r^{-1/4} 1_[0,1], p=1, q=2 -> (int_0^1 r^{-1/2} dr)^(1/2) = sqrt(2)
        g = Grid1D(-4.0, 4.0, 800)
        ind = ((g.centers >= 0) & (g.centers <= 1)).astype(float)
        tg = TimeGrid.geometric(1.0, t_min=1e-5, nodes_per_decade=60)
        mat = np.zeros((len(tg), g.n_cells))
        mat[1:] = tg.nodes[1:, None] ** (-0.25) * ind[None, :]
        val = tilde_spacetime_norm(mat, 1.0, 2.0, 0.0, 1.0, time_grid=tg, grid=g)
        assert val == pytest.approx(np.sqrt(2.0), rel=0.02)

    def test_empty_window_error(self):
        g = Grid1D(-4.0, 4.0, 100)
        tg = TimeGrid.uniform(1.0, 10)
        mat = np.zeros((len(tg), g.n_cells))
        with pytest.raises(InvalidParameterError):
            tilde_spacetime_norm(mat, 1.0, 2.0, 0.501, 0.55, time_grid=tg, grid=g)


class TestMeasureDistance:
    def test_identical(self):
        g = Grid1D(-4.0, 4.0, 400)
        d = gaussian_density(g, 0.0, 1.0)
        assert tilde_measure_distance_l1(d, d) == 0.0

    def test_far_supports_single_window(self):
        # supports >= 2 apart: one length-2 window sees only one of them
        g = Grid1D(-1.0, 5.0, 1200)
        a = uniform_density(g, 0.0, 1.0)
        b = uniform_density(g, 3.0, 4.0)
        diff = np.abs(a.values - b.values)
        oracle = brute_force_tilde_norm(diff, g, 1.0)
        val = tilde_measure_distance_l1(a, b)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(1.0, abs=2 * g.dx)

    def test_overlapping_supports(self):
        g = Grid1D(-1.0, 5.0, 1200)
        a = uniform_density(g, 0.0, 1.0)
        b = uniform_density(g, 0.5, 1.5)
        oracle = brute_force_tilde_norm(np.abs(a.values - b.values), g, 1.0)
        val = tilde_measure_distance_l1(a, b)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(1.0, abs=2 * g.dx)

    def test_below_l1_distance(self):
        rng = np.random.default_rng(3)
        g = Grid1D(-4.0, 4.0, 300)
        for _ in range(100):
            a = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells)))
            b = normalize(GridDensity(g, rng.uniform(0, 1, g.n_cells)))
            l1 = np.sum(np.abs(a.values - b.values)) * g.dx
            assert tilde_measure_distance_l1(a, b) <= l1 + 1e-12

    def test_grid_mismatch(self):
        a = gaussian_density(Grid1D(-4, 4, 100), 0, 1)
        b = gaussian_density(Grid1D(-4, 4, 200), 0, 1)
        with pytest.raises(GridMismatchError):
            tilde_measure_distance_l1(a, b)


class TestNormalize:
    def test_idempotent(self):
        g = Grid1D(-4.0, 4.0, 200)
        d = gaussian_density(g, 0.0, 1.0)
        d2 = normalize(d)
        assert abs(d2.mass() - 1.0) <= 1e-12
        assert np.allclose(d2.values, normalize(d2).values, rtol=0, atol=1e-15)

    def test_constant_rescale(self):
        g = Grid1D(0.0, 4.0, 160)
        v = np.where((g.centers >= 0) & (g.centers <= 1), 2.0, 0.0)
        d = normalize(GridDensity(g, v))
        inside = v > 0
        assert np.allclose(d.values[inside], 1.0, atol=1e-12)

    def test_clips_negative_noise(self):
        g = Grid1D(-4.0, 4.0, 200)
        v = gaussian_density(g, 0.0, 1.0).values.copy()
        v[10] = -1e-6
        d = normalize(GridDensity(g, v))
        assert d.values.min() >= 0.0
        assert abs(d.mass() - 1.0) <= 1e-12

    def test_zero_mass(self):
        g = Grid1D(-4.0, 4.0, 100)
        with pytest.raises(DegenerateDensityError):
            normalize(GridDensity(g, np.zeros(100)))


class TestKde:
    def test_single_particle_is_kernel(self):
        g = Grid1D(-4.0, 4.0, 1600)
        h = 0.25
        d = kde(np.array([0.0]), h, g)
        expected = gaussian_density(g, 0.0, h)
        assert np.sum(np.abs(d.values - expected.values)) * g.dx < 5 * g.dx

    def test_two_cluster_symmetry(self):
        g = Grid1D(-4.0, 4.0, 1600)
        pts = np.array([-1.0, -1.0, 1.0, 1.0])
        d = kde(pts, 0.3, g)
        assert np.max(np.abs(d.values - d.values[::-1])) <= 1e-12

    def test_large_sample_l1_accuracy(self):
        n = 100_000
        from denslab.particles import normal_increments
        samples = normal_increments(99, 1, 0, n)
        g = Grid1D(-6.0, 6.0, 2000)
        d = kde(samples, n ** (-0.2), g)
        phi = gaussian_density(g, 0.0, 1.0)
        l1 = np.sum(np.abs(d.values - phi.values)) * g.dx
        assert l1 <= 0.05

    def test_bit_reproducible(self):
        g = Grid1D(-4.0, 4.0, 500)
        pts = np.random.default_rng(5).normal(size=2000)
        a = kde(pts, 0.1, g)
        b = kde(pts, 0.1, g)
        assert np.array_equal(a.values, b.values)

    def test_all_outside(self):
        g = Grid1D(-1.0, 1.0, 64)
        with pytest.raises(DegenerateDensityError):
            kde(np.array([5.0, 6.0]), 0.1, g)


class TestSerialization:
    def test_density_roundtrip(self, tmp_path):
        g = Grid1D(-4.0, 4.0, 123)
        d = gaussian_density(g, 0.3, 0.7)
        path = str(tmp_path / "d.csv")
        save_density(d, path)
        d2 = load_density(path)
        assert d2.grid == g
        assert np.array_equal(d2.values, d.values)

    def test_flow_roundtrip(self, tmp_path):
        g = Grid1D(-4.0, 4.0, 64)
        tg = TimeGrid.uniform(1.0, 3)
        snaps = tuple(gaussian_density(g, 0.0, 0.5 + 0.1 * i) for i in range(4))
        flow = DensityFlow(tg, snaps)
        save_flow(flow, str(tmp_path / "flow"))
        flow2 = load_flow(str(tmp_path / "flow"))
        assert np.array_equal(flow2.time_grid.nodes, tg.nodes)
        for a, b in zip(flow.snapshots, flow2.snapshots):
            assert np.array_equal(a.values, b.values)
