"""Grids, densities, localized norms: examples pinned to independent oracles."""

import numpy as np
import pytest
from scipy.signal import fftconvolve

from denslab.density_core import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    _convolve_same,
    _fast_len,
    _row_norms,
    _Scratch,
    _spacetime_norm,
    _window_half_cells,
    gaussian_density,
    kde,
    load_density,
    normalize,
    save_flow,
    tilde_norm,
    uniform_density,
)
from denslab.errors import InvalidParameterError, NumericalError
from oracles import (
    load_flow,
    reference_kde,
    reference_sup_spacetime_norm,
    reference_tilde_norm,
    reference_values_at,
    same_bits,
    save_density,
    tilde_measure_distance_l1,
    tilde_spacetime_norm,
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
        assert len(tg.nodes) == 11

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


class TestDensityFlow:
    NODES = np.array([0.0, 0.1, 0.25, 0.7])

    def flow(self):
        rng = np.random.default_rng(9)
        g = Grid1D(-4.0, 4.0, 64)
        return DensityFlow(TimeGrid(self.NODES), tuple(
            normalize(GridDensity(g, rng.uniform(0.0, 1.0, g.n_cells))) for _ in self.NODES))

    def test_values_at_bitwise_equal_to_reference(self):
        # before, at and beyond the ends, at every node and a float away from one
        flow = self.flow()
        times = [-1.0, 0.0, 1e-300, 0.05, 0.1, np.nextafter(0.1, 1.0), 0.3,
                 np.nextafter(0.7, 0.0), 0.7, 2.0, *np.random.default_rng(4).uniform(0, 0.7, 20)]
        for t in times:
            assert same_bits(flow.values_at(t), reference_values_at(flow, t))
        read = flow._reader()       # one cursor over the times in order
        for t in sorted(times + times):
            assert same_bits(read(t), reference_values_at(flow, t))

    def test_nan_time_is_invalid(self):
        flow = self.flow()
        with pytest.raises(InvalidParameterError, match="t = nan"):
            flow.values_at(float("nan"))
        read = flow._reader()
        read(0.2)
        with pytest.raises(InvalidParameterError, match="t = nan"):
            read(np.nan)


class TestTildeNorm:
    def test_uniform_unit_support(self):
        g = Grid1D(-4.0, 4.0, 800)
        d = uniform_density(g, 0.0, 1.0)
        # window of length 2 covers the whole unit support
        assert tilde_norm(d.values, 1.0, g) == pytest.approx(1.0, abs=g.dx)

    def test_uniform_wide_support(self):
        g = Grid1D(-1.0, 5.0, 1200)
        d = uniform_density(g, 0.0, 4.0)
        # value 1/4, best window captures mass 1/4 * 2
        assert tilde_norm(d.values, 1.0, g) == pytest.approx(0.5, abs=g.dx)

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
        assert tilde_norm(d.values, 2.0, g) == pytest.approx(oracle, rel=1e-3)

    def test_infinity_norm(self):
        g = Grid1D(-4.0, 4.0, 400)
        d = gaussian_density(g, 0.3, 0.5)
        assert tilde_norm(d.values, np.inf, g) == pytest.approx(d.values.max())

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
        with pytest.raises(InvalidParameterError, match="smaller than the unit-ball window"):
            tilde_norm(np.ones(64), 2.0, g)
        g2 = Grid1D(-2.0, 2.0, 64)
        with pytest.raises(InvalidParameterError):
            tilde_norm(np.ones(64), 0.5, g2)


class TestSpacetimeNorm:
    def test_constant_in_time(self):
        g = Grid1D(-4.0, 4.0, 800)
        d = uniform_density(g, 0.0, 1.0)
        tg = TimeGrid.uniform(1.0, 50)
        mat = np.tile(d.values, (len(tg.nodes), 1))
        val = tilde_spacetime_norm(mat, tg.nodes, 1.0, 2.0, g)
        assert val == pytest.approx(1.0, abs=2 * g.dx)

    def test_zero(self):
        g = Grid1D(-4.0, 4.0, 100)
        tg = TimeGrid.uniform(1.0, 10)
        mat = np.zeros((len(tg.nodes), g.n_cells))
        assert tilde_spacetime_norm(mat, tg.nodes, 2.0, 2.0, g) == 0.0

    def test_time_singular_profile(self):
        # f_r = r^{-1/4} 1_[0,1], p=1, q=2 -> (int_0^1 r^{-1/2} dr)^(1/2) = sqrt(2)
        g = Grid1D(-4.0, 4.0, 800)
        ind = ((g.centers >= 0) & (g.centers <= 1)).astype(float)
        tg = TimeGrid.geometric(1.0, t_min=1e-5, nodes_per_decade=60)
        mat = np.zeros((len(tg.nodes), g.n_cells))
        mat[1:] = tg.nodes[1:, None] ** (-0.25) * ind[None, :]
        val = tilde_spacetime_norm(mat, tg.nodes, 1.0, 2.0, g)
        assert val == pytest.approx(np.sqrt(2.0), rel=0.02)

    @pytest.mark.parametrize("p, q, c", [(1e5, 4.0, 0.5), (4.0, 1e5, 0.5),
                                         (1e300, 1e300, 0.5), (4.0, 4.0, 1e200)])
    def test_constant_in_time_at_huge_exponents_and_values(self, p, q, c):
        # |f| ** p or W ** q under- or overflows in every cell here; a
        # time-constant f has norm T^(1/q) times its tilde norm
        g = Grid1D(-6.0, 6.0, 300)
        times = np.linspace(0.0, 0.1, 21)
        row = c * np.exp(-g.centers ** 2)
        val = tilde_spacetime_norm(np.tile(row, (times.size, 1)), times, p, q, g)
        assert val == pytest.approx(0.1 ** (1 / q) * tilde_norm(row, p, g), rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 7.3, 1e5, 1e300, np.inf])
    def test_node_norms_bitwise_equal_to_tilde_norm(self, p):
        # the per-node norms come from window sums over blocks of rows (70
        # rows: blocks of 32 at 500 cells, of 10 at 3000), of the signed rows
        # or of the space-time norm's |rows|; here with a zero node and nodes
        # whose powers under- or overflow
        rng = np.random.default_rng(3)
        for g in (Grid1D(-6.0, 6.0, 500), Grid1D(-6.0, 6.0, 3000)):
            rows = rng.normal(0.0, 1.0, (70, g.n_cells))
            rows[1] = 0.0
            rows[2] *= 1e200
            rows[3] *= 1e-200
            rows[4, :250] = 0.0
            rows[40] *= 1e200
            rows[69] = 0.0
            want = np.array([reference_tilde_norm(row, p, g) for row in rows])
            assert same_bits(np.array([tilde_norm(row, p, g) for row in rows]), want)
            _, norms = _spacetime_norm(rows, np.linspace(0.0, 1.0, 70), p, 4.0, g)
            assert same_bits(norms, want)
            assert same_bits(_row_norms(rows, p, g), want)

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0, 1e300, np.inf])
    def test_sup_norm_bitwise_equal_to_maximum_filter(self, q):
        # p = inf: each node's sup over the window [i-m, i+m] around each cell,
        # with a window of 51 of 300 cells and one of 65 over a 64-cell row.  The
        # nodes are sparse spikes, and the tallest sit at alternate nodes on two
        # cells 2m apart (the row's ends on the 64-cell row), which only a whole
        # window holds both of
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 1.0, 40)
        for g in (Grid1D(-6.0, 6.0, 300), Grid1D(-1.0, 1.0, 64)):
            m, shape = _window_half_cells(g), (times.size, g.n_cells)
            rows = rng.normal(0.0, 1.0, shape) * (rng.random(shape) < 4.0 / g.n_cells)
            lo = max(0, (g.n_cells - 1 - 2 * m) // 2)
            rows[0::2, lo] = rows[1::2, min(lo + 2 * m, g.n_cells - 1)] = 5.0
            rows[5] = 0.0
            val, _ = _spacetime_norm(rows, times, np.inf, q, g)
            assert same_bits(val, reference_sup_spacetime_norm(rows, times, q, g))

    def test_empty_window_error(self):
        # fewer than two node times, or times that do not increase strictly
        g = Grid1D(-4.0, 4.0, 100)
        for times in ([0.5], [0.0, 0.5, 0.5], [0.0, 0.6, 0.5]):
            mat = np.zeros((len(times), g.n_cells))
            with pytest.raises(InvalidParameterError):
                tilde_spacetime_norm(mat, times, 1.0, 2.0, g)

    def test_exponents_below_one_or_nan_rejected(self):
        g = Grid1D(-4.0, 4.0, 100)
        mat = np.zeros((2, g.n_cells))
        for p, q in ((np.nan, 2.0), (2.0, np.nan), (0.5, 2.0)):
            with pytest.raises(InvalidParameterError, match="need p, q >= 1"):
                tilde_spacetime_norm(mat, [0.0, 1.0], p, q, g)


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
        with pytest.raises(NumericalError, match="densities live on different grids"):
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
        with pytest.raises(NumericalError, match="no positive mass to normalize"):
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

    @pytest.mark.parametrize("spread", [0.8, 3.0])
    def test_bitwise_equal_to_reference(self, spread):
        # at spread 3.0 part of the sample is clipped onto the ends of [-4, 4]
        g = Grid1D(-4.0, 4.0, 500)
        pts = np.random.default_rng(6).normal(0.0, spread, 20_000).clip(g.x_min, g.x_max)
        pts[:3] = [g.x_min, g.x_max, g.centers[7]]
        assert (np.count_nonzero(np.abs(pts) == 4.0) > 2) == (spread > 1.0)
        assert same_bits(kde(pts, 0.1, g).values, reference_kde(pts, 0.1, g).values)

    def test_reused_scratch_bitwise_equal_to_reference(self):
        # successive calls on one scratch set, each with another number of
        # particles, so the deposit runs on stale buffers of other sizes
        g = Grid1D(-4.0, 4.0, 500)
        rng = np.random.default_rng(7)
        scratch = _Scratch()
        for n in (20_000, 19_963, 17_500, 20_000, 19_999):
            pts = rng.normal(0.0, 1.0, n).clip(-3.9, 3.9)
            pts[:2] = [g.x_min, g.x_max]
            assert same_bits(kde(pts, 0.1, g, scratch).values, reference_kde(pts, 0.1, g).values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(4.0, np.inf),
                                     np.nextafter(-4.0, -np.inf)])
    def test_nonfinite_or_off_grid_position_rejected(self, bad):
        g = Grid1D(-4.0, 4.0, 500)
        pts = np.append(np.random.default_rng(8).uniform(g.x_min, g.x_max, 1000), bad)
        with pytest.raises(InvalidParameterError, match=r"must lie in \[-4, 4\]"):
            kde(pts, 0.1, g)

    def test_bandwidth_wider_than_the_grid_rejected(self):
        g = Grid1D(-1.0, 1.0, 64)
        assert kde(np.zeros(3), g.width, g).mass() == pytest.approx(1.0)
        for h in (np.nextafter(g.width, np.inf), 1e300):
            with pytest.raises(InvalidParameterError, match="exceeds grid width"):
                kde(np.zeros(3), h, g)

    def test_bandwidth_far_below_a_cell_is_the_deposit(self):
        # u / bandwidth overflows beside the centre: weight exp(-inf) = 0, and no warning
        g = Grid1D(-1.0, 1.0, 64)
        want = np.zeros(g.n_cells)
        want[10] = 1.0 / g.dx
        d = kde(np.array([g.centers[10]]), 1e-300, g)
        assert np.max(np.abs(d.values - want)) <= 1e-12 * want[10]

    def test_all_outside(self):
        g = Grid1D(-1.0, 1.0, 64)
        with pytest.raises(InvalidParameterError, match="must lie in"):
            kde(np.array([5.0, 6.0]), 0.1, g)


class TestConvolveSame:
    def test_fast_length_is_scipy_next_fast_len(self):
        # the 5-smooth rule of scipy.fft.next_fast_len for real input; only
        # this test imports scipy.fft
        from scipy.fft import next_fast_len
        assert [_fast_len(n) for n in range(1, 20_001)] == [
            next_fast_len(n, True) for n in range(1, 20_001)]

    def test_bitwise_equal_to_fftconvolve(self):
        # the KDE kernel reaches 8 grid widths and a feature kernel one: 240
        # random length pairs, with one-entry kernels and signals among them
        rng = np.random.default_rng(13)
        for i in range(240):
            n = 1 if i % 40 == 0 else int(rng.integers(2, 700))
            nk = 1 if i % 12 == 0 else int(rng.integers(2, 8 * n + 3))
            a, k = rng.random(n) * 10.0 ** rng.integers(-5, 6), rng.random(nk)
            assert same_bits(_convolve_same(a, k), fftconvolve(a, k, mode="same")), (n, nk)


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
