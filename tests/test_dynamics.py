"""Forward solver, drift admissibility, frozen flows, and the fixed point."""

import warnings

import numpy as np
import pytest

from denslab import (
    DensityFlow,
    DiffusionSpec,
    DriftSpec,
    FlowMetricSpec,
    Grid1D,
    GridDensity,
    SolverOptions,
    TimeGrid,
    builtin_drift,
    constant_diffusion,
    frozen_semigroup,
    gaussian_density,
    normalize,
    picard_fixed_point,
    tilde_norm,
    validate_drift,
    wasserstein_1d,
)
from denslab.dynamics import in_integrability_class
from denslab.errors import InvalidDriftError, InvalidParameterError, NoConvergenceError
from oracles import fokker_planck_step, validate_diffusion

DIFF2 = constant_diffusion(2.0)


def l1_distance(a, b, grid):
    return float(np.sum(np.abs(a - b)) * grid.dx)


def random_flow(grid, tg, rng):
    snaps = tuple(normalize(GridDensity(grid, rng.uniform(0.2, 1.0, grid.n_cells)))
                  for _ in tg.nodes)
    return DensityFlow(tg, snaps)


class TestBuiltinDrifts:
    def test_linear_ou(self):
        d = builtin_drift("linear_ou", {"theta": 1.0})
        assert d.K == 1.0 and not d.density_dependent and not d.singular_parts
        validate_drift(d, 1.0, Grid1D(-6, 6, 500))

    def test_capped_density_zero_coupling_matches_ou(self):
        grid = Grid1D(-6, 6, 500)
        mu = gaussian_density(grid, 0.0, 0.4)
        tg = TimeGrid.uniform(0.2, 20)
        cd0 = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.0,
                                               "tau": 0.6, "cap": 5.0})
        ou = builtin_drift("linear_ou", {"theta": 1.0})
        gamma = DensityFlow(tg, tuple(mu for _ in tg.nodes))
        fa = frozen_semigroup(mu, gamma, cd0, DIFF2, tg)
        fb = frozen_semigroup(mu, None, ou, DIFF2, tg)
        gaps = [l1_distance(a.values, b.values, grid)
                for a, b in zip(fa.snapshots, fb.snapshots)]
        assert max(gaps) <= 1e-12

    def test_singular_well_integrability_enforced(self):
        with pytest.raises(InvalidDriftError):
            builtin_drift("singular_well", {"gamma": 0.3, "p2": 4.0, "q2": 4.0})
        d = builtin_drift("singular_well", {"gamma": 0.2, "p2": 4.0, "q2": 4.0})
        assert d.singular_parts[0].p == 4.0

    def test_singular_well_at_its_centre_is_zero_without_warnings(self):
        d = builtin_drift("singular_well", {"gamma": 0.2, "coeff": 0.5, "center": 0.25})
        part = d.singular_parts[0]
        x = np.array([-0.75, 0.0, 0.25, 0.5, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            term, env = part.term(0.0, x), part.envelope(0.0, x)
        assert term[2] == 0.0 and env[2] == np.inf
        assert np.array_equal(np.abs(term[[0, 1, 3, 4]]), env[[0, 1, 3, 4]])
        assert np.all(np.sign(term[[0, 1, 3]]) == [1.0, 1.0, -1.0])

    @staticmethod
    def _power_law_quadrature(fn, p):
        # log-spaced abscissae resolve the integrable singularity at 0
        xs = np.geomspace(1e-12, 1.0, 200_001)
        half = np.trapezoid(fn(xs) ** p, xs)
        return 2.0 * half

    def test_singular_well_envelope_norm_by_quadrature(self):
        # window-L^4 norm of the envelope c|x|^(-gamma) is finite for gamma*p < 1
        d = builtin_drift("singular_well", {"gamma": 0.2, "coeff": 0.5,
                                            "p2": 4.0, "q2": 4.0})
        part = d.singular_parts[0]
        quad = self._power_law_quadrature(lambda x: part.envelope(0.0, x), 4.0)
        exact = 2 * 0.5**4 / (1 - 0.8)
        assert quad == pytest.approx(exact, rel=5e-3)

    def test_cap_preserves_envelope_norm_when_mildly_singular(self):
        # grid-scale cap changes the window-L^p norm by <= 2% for gamma*p <= 0.5
        gamma, p, coeff = 0.1, 4.0, 0.5
        grid = Grid1D(-6, 6, 2000)
        d = builtin_drift("singular_well", {"gamma": gamma, "coeff": coeff,
                                            "p2": p, "q2": 4.0})
        part = d.singular_parts[0]
        vals = np.abs(part.term(0.0, grid.centers))
        cap = coeff * grid.dx ** (-gamma)
        capped = np.minimum(vals, cap)
        norm_capped = (np.sum(capped**p) * grid.dx) ** (1 / p)
        exact = self._power_law_quadrature(lambda x: coeff * x**-gamma, p) ** (1 / p)
        assert norm_capped == pytest.approx(exact, rel=0.02)

    def test_unknown_name_and_params(self):
        with pytest.raises(InvalidDriftError):
            builtin_drift("nope")
        with pytest.raises(InvalidDriftError):
            builtin_drift("linear_ou", {"kapa": 0.1})

    def test_lipschitz_probe_rejects_understated_k(self):
        bad = DriftSpec(b1=lambda t, x: -5.0 * x, K=1.0, name="bad")
        with pytest.raises(InvalidDriftError):
            validate_drift(bad, 1.0, Grid1D(-6, 6, 500))

    def test_integrability_class(self):
        assert in_integrability_class(4.0, 4.0)
        assert not in_integrability_class(2.0, 4.0)
        assert not in_integrability_class(4.0, 2.0)
        assert not in_integrability_class(3.0, 3.0)  # 1/3 + 2/3 = 1


class TestFokkerPlanckStep:
    def test_mass_conserved_per_step(self):
        grid = Grid1D(-6, 6, 1000)
        d = gaussian_density(grid, 0.5, 0.7)
        b = -grid.centers
        a = np.full(grid.n_cells, 2.0)
        stepped = fokker_planck_step(d, b, a, 1e-3)
        assert abs(stepped.mass() - d.mass()) <= 1e-12

    def test_heat_kernel(self):
        # b = 0, a = 2: N(0, s^2) -> N(0, s^2 + 2t)
        grid = Grid1D(-8, 8, 2000)
        mu = gaussian_density(grid, 0.0, 0.5)
        tg = TimeGrid.uniform(0.25, 50)
        flow = frozen_semigroup(mu, None, builtin_drift("linear_ou", {"theta": 0.0}),
                                DIFF2, tg, SolverOptions(rel_dt=0.002))
        exact = gaussian_density(grid, 0.0, np.sqrt(0.25 + 0.5))
        assert l1_distance(flow.snapshots[-1].values, exact.values, grid) <= 1e-3

    def test_constant_drift_advects_mean(self):
        grid = Grid1D(-8, 8, 2000)
        mu = gaussian_density(grid, -1.0, 0.4)
        v = 0.7
        drift = DriftSpec(b1=lambda t, x: np.full_like(x, v), K=0.0, name="const")
        tg = TimeGrid.uniform(1.0, 200)
        flow = frozen_semigroup(mu, None, drift, DIFF2, tg, SolverOptions())
        mean = float(np.sum(flow.snapshots[-1].values * grid.centers) * grid.dx)
        assert mean == pytest.approx(-1.0 + v, abs=1e-4)

    def test_positivity(self):
        grid = Grid1D(-6, 6, 800)
        mu = gaussian_density(grid, 0.0, 0.05)
        tg = TimeGrid.geometric(0.5, nodes_per_decade=30)
        flow = frozen_semigroup(mu, None, builtin_drift("linear_ou", {"theta": 1.0}),
                                DIFF2, tg, SolverOptions())
        for snap in flow.snapshots:
            assert snap.values.min() >= -1e-12


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs", [{"rel_dt": 0.0}, {"rel_dt": -1e-3},
                                        {"rel_dt": float("nan")}, {"rel_dt": float("inf")},
                                        {"cfl": 0.0}, {"cfl": float("nan")}])
    def test_rejects_nonpositive_or_nan_steps(self, kwargs):
        # constructed only: a solve at rel_dt = 0 would crawl at the 1e-14 step floor
        with pytest.raises(InvalidParameterError):
            SolverOptions(**kwargs)


class TestFrozenSemigroup:
    def test_ou_stationarity(self):
        grid = Grid1D(-6, 6, 4000)
        mu = gaussian_density(grid, 0.0, 1.0)
        tg = TimeGrid.geometric(1.0, nodes_per_decade=40)
        flow = frozen_semigroup(mu, None, builtin_drift("linear_ou", {"theta": 1.0}),
                                DIFF2, tg, SolverOptions())
        errs = [l1_distance(s.values, mu.values, grid) for s in flow.snapshots]
        assert max(errs) <= 1e-3

    def test_gamma_independent_when_density_free(self):
        grid = Grid1D(-6, 6, 400)
        mu = gaussian_density(grid, 0.0, 0.5)
        tg = TimeGrid.uniform(0.2, 10)
        rng = np.random.default_rng(8)
        drift = builtin_drift("linear_ou", {"theta": 1.0})
        fa = frozen_semigroup(mu, random_flow(grid, tg, rng), drift, DIFF2, tg)
        fb = frozen_semigroup(mu, random_flow(grid, tg, rng), drift, DIFF2, tg)
        gaps = [l1_distance(a.values, b.values, grid)
                for a, b in zip(fa.snapshots, fb.snapshots)]
        assert max(gaps) <= 1e-12

    def test_mass_one_at_every_node(self):
        grid = Grid1D(-6, 6, 500)
        mu = gaussian_density(grid, 0.0, 0.3)
        tg = TimeGrid.uniform(0.5, 25)
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        gamma = DensityFlow(tg, tuple(mu for _ in tg.nodes))
        flow = frozen_semigroup(mu, gamma, cd, DIFF2, tg)
        for snap in flow.snapshots:
            assert abs(snap.mass() - 1.0) <= 1e-9

    def test_grid_convergence_first_order(self):
        # halving dx (and dt with it) shrinks the t = T error
        drift = builtin_drift("linear_ou", {"theta": 1.0})
        errs = []
        for n in (500, 1000):
            grid = Grid1D(-8, 8, n)
            mu = gaussian_density(grid, 0.4, 0.3)
            tg = TimeGrid.uniform(0.5, 50)
            flow = frozen_semigroup(mu, None, drift, DIFF2, tg,
                                    SolverOptions(rel_dt=0.001))
            # exact OU: mean 0.4 e^{-t}, var 1 + (0.09 - 1) e^{-2t}
            m = 0.4 * np.exp(-0.5)
            v = 1.0 + (0.09 - 1.0) * np.exp(-1.0)
            exact = gaussian_density(grid, m, np.sqrt(v))
            errs.append(l1_distance(flow.snapshots[-1].values, exact.values, grid))
        assert errs[1] <= 0.7 * errs[0]
        assert errs[1] <= 0.5 * (16.0 / 1000)  # <= C dx with C pinned by pilot


class TestPicard:
    GRID = Grid1D(-6, 6, 1000)
    SPEC = FlowMetricSpec(lam=1.0, p=2.0, k=4.0)

    def test_density_independent_converges_immediately(self):
        mu = gaussian_density(self.GRID, 0.0, 0.4)
        tg = TimeGrid.uniform(0.3, 30)
        res = picard_fixed_point(mu, builtin_drift("linear_ou", {"theta": 1.0}),
                                 DIFF2, tg, self.SPEC, tol=1e-6)
        assert res.iterations == 1
        assert res.final_residual <= 1e-12

    def test_capped_density_fixed_point(self):
        mu = gaussian_density(self.GRID, 0.0, 0.3)
        tg = TimeGrid.geometric(0.5, nodes_per_decade=30)
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        res = picard_fixed_point(mu, cd, DIFF2, tg, self.SPEC, tol=1e-6)
        assert res.final_residual <= 1e-6
        assert all(r < 0.9 for r in res.contraction_factors[1:])
        # self-consistency: re-applying the map moves nothing beyond 2 tol
        again = frozen_semigroup(mu, res.flow, cd, DIFF2, tg)
        gap = max(l1_distance(a.values, b.values, self.GRID)
                  for a, b in zip(again.snapshots, res.flow.snapshots))
        assert gap <= 2e-6
        # halving the tolerance changes nothing structural, only the residual
        res_half = picard_fixed_point(mu, cd, DIFF2, tg, self.SPEC, tol=5e-7)
        assert res_half.final_residual <= 5e-7
        assert res_half.iterations <= res.iterations + 1

    def test_divergent_coupling_reports_ratios(self):
        grid = Grid1D(-4, 4, 300)
        mu = gaussian_density(grid, 0.0, 0.2)
        tg = TimeGrid.uniform(0.3, 12)
        wild = builtin_drift("capped_density", {"theta": 0.0, "kappa": 30.0,
                                                "tau": 0.0, "cap": 2.0})
        with pytest.raises(NoConvergenceError) as err:
            picard_fixed_point(mu, wild, DIFF2, tg, self.SPEC, tol=1e-10, max_iter=6)
        assert len(err.value.ratios) >= 1


class TestRateInvariants:
    def test_smoothing_product_bounded(self):
        # sup-norm times t^(1/2) stays within 3x of its value at t = 1e-3
        grid = Grid1D(-6, 6, 2000)
        mu = gaussian_density(grid, 0.0, 0.02)
        tg = TimeGrid.geometric(1.0, nodes_per_decade=30)
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        res = picard_fixed_point(mu, cd, DIFF2, tg, FlowMetricSpec(1.0, 2.0, 4.0),
                                 tol=1e-5)
        sel = [i for i, t in enumerate(tg.nodes) if 1e-3 <= t <= 1.0]
        prods = [tilde_norm(res.flow.snapshots[i], np.inf) * np.sqrt(tg.nodes[i])
                 for i in sel]
        assert max(prods) <= 3.0 * prods[0]

    def test_supercontinuity_ratio_constant_for_heat_flow(self):
        # pure heat flow: ||P_t mu - P_t nu||_{~L^2} / (W1 t^{-3/4}) constant +-15%
        grid = Grid1D(-4, 4, 4000)
        diff = constant_diffusion(0.5)
        drift = builtin_drift("linear_ou", {"theta": 0.0})
        mu = gaussian_density(grid, 0.0, 0.01)
        nu = gaussian_density(grid, 0.02, 0.01)
        tg = TimeGrid.geometric(0.2, t_min=2e-5, nodes_per_decade=30)
        fm = frozen_semigroup(mu, None, drift, diff, tg, SolverOptions())
        fn = frozen_semigroup(nu, None, drift, diff, tg, SolverOptions())
        w1 = wasserstein_1d(mu, nu, 1.0)
        sel = [i for i, t in enumerate(tg.nodes) if 2e-3 <= t <= 0.2]
        ratios = []
        for i in sel:
            gap = tilde_norm(fm.snapshots[i].values - fn.snapshots[i].values, 2.0, grid)
            ratios.append(gap / (w1 * tg.nodes[i] ** -0.75))
        mid = 0.5 * (max(ratios) + min(ratios))
        assert max(ratios) <= 1.15 * mid
        assert min(ratios) >= 0.85 * mid


class TestDiffusionSpec:
    def test_bounds_probe(self):
        spec = DiffusionSpec(a=lambda t, x: 1.0 + 0.5 * np.sin(x), k_bound=1.5,
                             k_inv_bound=2.0)
        validate_diffusion(spec, 1.0, -6.0, 6.0)
        bad = DiffusionSpec(a=lambda t, x: 1.0 + 0.5 * np.sin(x), k_bound=1.2,
                            k_inv_bound=2.0)
        with pytest.raises(InvalidDriftError):
            validate_diffusion(bad, 1.0, -6.0, 6.0)

    def test_variable_diffusion_heat_balance(self):
        # a(t,x) bounded two-sided: solver stays conservative and positive
        grid = Grid1D(-6, 6, 800)
        spec = DiffusionSpec(a=lambda t, x: 1.5 + 0.4 * np.cos(x), k_bound=1.9,
                             k_inv_bound=1.0)
        mu = gaussian_density(grid, 0.0, 0.4)
        tg = TimeGrid.uniform(0.3, 30)
        flow = frozen_semigroup(mu, None, builtin_drift("linear_ou", {"theta": 0.5}),
                                spec, tg)
        assert abs(flow.snapshots[-1].mass() - 1.0) <= 1e-9
        assert flow.snapshots[-1].values.min() >= -1e-12
