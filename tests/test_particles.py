"""Particle engine: reproducible streams, moments, Girsanov, exponential moments."""

import numpy as np
import pytest

from denslab import (
    DensityFlow,
    Grid1D,
    TimeGrid,
    builtin_drift,
    builtin_field,
    constant_diffusion,
    euler_maruyama_mkv,
    gaussian_density,
    girsanov_log_weights_mc,
    khasminskii_mc,
    path_relative_entropy_mc,
    relative_entropy,
)
from denslab.dynamics import DriftSpec
from denslab.errors import InvalidParameterError
from denslab.particles import (
    field_spacetime_norm,
    normal_increments,
    raw_uniforms,
    sample_initial,
)
from oracles import ParticlePath, girsanov_log_weight

GRID = Grid1D(-6.0, 6.0, 2000)
DIFF1 = constant_diffusion(1.0)
DIFF2 = constant_diffusion(2.0)
ZERO_DRIFT = builtin_drift("linear_ou", {"theta": 0.0})


def shift_drift(v):
    return DriftSpec(b1=lambda t, x: np.full_like(x, v), K=0.0, name="shift")


class TestStreams:
    def test_reproducible(self):
        a = normal_increments(42, 2, 17, 1000)
        b = normal_increments(42, 2, 17, 1000)
        assert np.array_equal(a, b)

    def test_block_slicing_matches_full_draw(self):
        # draw (seed, tag, step, i) is a pure counter function: a worker that
        # generates the full block and slices gets the shard's exact values
        full = raw_uniforms(9, 2, 3, 1024)
        for a, b in ((0, 128), (128, 512), (512, 1024)):
            again = raw_uniforms(9, 2, 3, 1024)[a:b]
            assert np.array_equal(full[a:b], again)

    def test_steps_do_not_overlap(self):
        a = normal_increments(5, 2, 0, 256)
        b = normal_increments(5, 2, 1, 256)
        assert not np.any(np.isin(a, b))

    def test_sampling_from_density(self):
        d = gaussian_density(GRID, 0.5, 0.7)
        x = sample_initial(d, 200_000, seed=3, grid=GRID)
        assert np.mean(x) == pytest.approx(0.5, abs=0.01)
        assert np.std(x) == pytest.approx(0.7, abs=0.01)


class TestEulerMaruyama:
    def test_brownian_variance(self):
        # b = 0, a = 2: Var X_t = s^2 + 2 t
        n = 100_000
        ens, _ = euler_maruyama_mkv(("gaussian", 0.0, 0.3), ZERO_DRIFT, DIFF2, n,
                                    1e-3, 0.5, GRID, seed=7)
        target = 0.09 + 2 * 0.5
        se = target * np.sqrt(2.0 / n)
        assert abs(np.var(ens.positions) - target) <= 3 * se

    def test_zero_coupling_bitwise_equal(self):
        cd0 = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.0,
                                               "tau": 0.6, "cap": 5.0})
        ou = builtin_drift("linear_ou", {"theta": 1.0})
        e1, _ = euler_maruyama_mkv(("gaussian", 0.0, 0.3), cd0, DIFF2, 2000,
                                   1e-3, 0.1, GRID, seed=3)
        e2, _ = euler_maruyama_mkv(("gaussian", 0.0, 0.3), ou, DIFF2, 2000,
                                   1e-3, 0.1, GRID, seed=3)
        assert np.array_equal(e1.positions, e2.positions)

    def test_same_seed_same_ensemble(self):
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        e1, f1 = euler_maruyama_mkv(("gaussian", 0.0, 0.3), cd, DIFF2, 2000,
                                    1e-3, 0.1, GRID, seed=11)
        e2, f2 = euler_maruyama_mkv(("gaussian", 0.0, 0.3), cd, DIFF2, 2000,
                                    1e-3, 0.1, GRID, seed=11)
        assert np.array_equal(e1.positions, e2.positions)
        assert np.array_equal(f1.snapshots[-1].values, f2.snapshots[-1].values)

    def test_positions_stay_in_domain(self):
        ens, _ = euler_maruyama_mkv(("gaussian", 0.0, 2.0), ZERO_DRIFT, DIFF2, 5000,
                                    1e-3, 0.5, GRID, seed=1)
        assert np.all(ens.positions >= GRID.x_min)
        assert np.all(ens.positions <= GRID.x_max)

    def test_cfl_guard(self):
        fast = DriftSpec(b1=lambda t, x: np.full_like(x, 50.0), K=0.0, name="fast")
        with pytest.raises(InvalidParameterError):
            euler_maruyama_mkv(("gaussian", 0.0, 0.3), fast, DIFF2, 100,
                               1e-2, 0.1, GRID, seed=1)

    def test_record_times_are_step_times(self):
        # a geometric record grid is far finer than dt near 0: one snapshot
        # per distinct step, labelled with that step's time
        dt = 1e-2
        rec = TimeGrid.geometric(0.5, nodes_per_decade=10)
        _, flow = euler_maruyama_mkv(("gaussian", 0.0, 0.3), ZERO_DRIFT, DIFF2, 1000,
                                     dt, 0.5, GRID, seed=2, record_grid=rec)
        t = flow.time_grid.nodes
        assert len(t) < len(rec.nodes)
        assert np.array_equal(t, np.round(t / dt) * dt)
        snaps = [s.values for s in flow.snapshots]
        for i in range(len(snaps)):
            for j in range(i):
                assert not np.array_equal(snaps[i], snaps[j])

    def test_feedback_needs_ensemble(self):
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        with pytest.raises(InvalidParameterError):
            euler_maruyama_mkv(("gaussian", 0.0, 0.3), cd, DIFF2, 100,
                               1e-3, 0.1, GRID, seed=1)


class TestGirsanov:
    def test_identical_drifts_zero_weight(self):
        times = np.linspace(0.0, 1.0, 11)
        rng = np.random.default_rng(0)
        dw = rng.normal(0, np.sqrt(0.1), 10)
        path = ParticlePath(times, np.cumsum(np.concatenate(([0.0], dw))), dw)
        lw = girsanov_log_weight(path, ZERO_DRIFT, ZERO_DRIFT, DIFF1, GRID)
        assert lw == 0.0

    def test_single_path_closed_form(self):
        # b_ref = 0, b_alt = v, a = 1: log R = v W_t - v^2 t / 2
        v = 0.8
        times = np.linspace(0.0, 1.0, 101)
        rng = np.random.default_rng(4)
        dw = rng.normal(0, np.sqrt(0.01), 100)
        w = np.cumsum(np.concatenate(([0.0], dw)))
        path = ParticlePath(times, w, dw)
        lw = girsanov_log_weight(path, ZERO_DRIFT, shift_drift(v), DIFF1, GRID)
        assert lw == pytest.approx(v * w[-1] - 0.5 * v**2, abs=1e-12)

    def test_identical_density_dependent_drifts_zero_weights(self):
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        mu = gaussian_density(GRID, 0.0, 0.3)
        flow = DensityFlow(TimeGrid.uniform(0.05, 1), (mu, gaussian_density(GRID, 0.0, 0.5)))
        for flows in ({}, {"flow_ref": flow, "flow_alt": flow}):
            lw = girsanov_log_weights_mc(cd, cd, DIFF2, mu, 0.05, 2000, 1e-3, GRID,
                                         seed=4, **flows)
            assert lw.shape == (2000,) and np.all(lw == 0.0)

    def test_martingale_property(self):
        n = 100_000
        lw = girsanov_log_weights_mc(ZERO_DRIFT, shift_drift(0.5), DIFF1,
                                     ("gaussian", 0.0, 1.0), 1.0, n, 1e-3, GRID, seed=11)
        r = np.exp(lw)
        se = np.std(r) / np.sqrt(n)
        assert abs(np.mean(r) - 1.0) <= 3 * se

    def test_log_weight_mean(self):
        # E log R = -v^2 t / 2 under the reference law
        n = 50_000
        v, t = 0.5, 1.0
        lw = girsanov_log_weights_mc(ZERO_DRIFT, shift_drift(v), DIFF1,
                                     ("gaussian", 0.0, 1.0), t, n, 1e-3, GRID, seed=12)
        se = np.std(lw) / np.sqrt(n)
        assert abs(np.mean(lw) + 0.5 * v**2 * t) <= 3 * se


class TestPathEntropy:
    def test_identical_drifts(self):
        est, se = path_relative_entropy_mc(ZERO_DRIFT, ZERO_DRIFT, DIFF1,
                                           ("gaussian", 0.0, 1.0), 0.5, 1000,
                                           1e-3, GRID, seed=5)
        assert est == 0.0

    def test_constant_shift_closed_form(self):
        # xi = v / sqrt(a): entropy = v^2 t / 2
        v, t = 0.5, 1.0
        est, se = path_relative_entropy_mc(shift_drift(v), ZERO_DRIFT, DIFF1,
                                           ("gaussian", 0.0, 1.0), t, 20_000,
                                           1e-3, GRID, seed=6)
        assert abs(est - 0.5 * v**2 * t) <= 3 * se + 1e-12

    def test_data_processing_inequality(self):
        # marginal KL at time t is dominated by the path-space estimate
        from denslab import FlowMetricSpec, frozen_semigroup, picard_fixed_point
        t_end = 0.4
        drift_a = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                                   "tau": 0.6, "cap": 5.0})
        drift_b = builtin_drift("linear_ou", {"theta": 1.0})
        mu = gaussian_density(GRID, 0.0, 0.3)
        tg = TimeGrid.geometric(t_end, nodes_per_decade=30)
        res = picard_fixed_point(mu, drift_a, DIFF2, tg, FlowMetricSpec(1.0, 2.0, 4.0),
                                 tol=1e-6)
        flow_b = frozen_semigroup(mu, None, drift_b, DIFF2, tg)
        est, se = path_relative_entropy_mc(drift_a, drift_b, DIFF2, mu, t_end,
                                           20_000, 1e-3, GRID, seed=9,
                                           flow_a=res.flow, flow_b=flow_b)
        marginal = relative_entropy(res.flow.snapshots[-1], flow_b.snapshots[-1])
        assert marginal <= est + 3 * se + 1e-9


class TestKhasminskii:
    def test_constant_field_exact(self):
        f = builtin_field("constant", {"c0": 0.5, "p": 4.0, "q": 4.0})
        lam = [0.2, 0.5, 1.0, 1.5, 2.0]
        rep = khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 1.0, lam, 5000, 1e-3,
                             GRID, seed=3)
        for lv, est, se in zip(rep.lambda_values, rep.mc_estimates, rep.mc_stderr):
            exact = np.exp(lv**2 * 0.25)
            assert abs(est - exact) <= 3 * se + 1e-9 * exact
        assert all(e >= 1.0 for e in rep.mc_estimates)
        assert rep.bounds_hold

    def test_singular_field_regimes(self):
        f = builtin_field("singular_power", {"coeff": 1.0, "gamma": 0.3,
                                             "p": 4.0, "q": 4.0})
        lam = [0.1, 0.15, 0.22, 0.33, 0.5, 0.8, 1.2, 1.8, 2.7, 4.0]
        rep = khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 1.0, lam, 20_000, 1e-3,
                             GRID, seed=5)
        assert np.isfinite(rep.norm_spacetime)
        assert 0.2 < rep.regime_split < 1.0
        # convexity of lambda -> log estimate is exact with shared samples
        slopes = np.diff(rep.log_estimates) / np.diff(rep.lambda_values)
        assert np.all(np.diff(slopes) >= -1e-9)
        # ESS honesty: the largest lambdas must carry the unreliable flag
        assert rep.unreliable[-1]
        assert not rep.unreliable[0]

    def test_spacetime_norm_of_constant_field(self):
        # time-constant f: ||f||_{~L^p_q(s,t)} = (t-s)^{1/q} ||f||_{~L^p}
        f = builtin_field("constant", {"c0": 0.5, "p": 4.0, "q": 4.0})
        norm, integral = field_spacetime_norm(f, GRID, 0.0, 1.0)
        spatial = (0.5**4 * 2.0) ** 0.25  # window of length 2
        assert norm == pytest.approx(spatial, rel=2e-2)
        assert integral == pytest.approx(spatial**4, rel=2e-2)

    def test_tower_property_midpoint_split(self):
        # conditioning at the midpoint and bounding the second half by its
        # worst starting point (the singularity center) dominates the full run
        f = builtin_field("singular_power", {"coeff": 0.8, "gamma": 0.3,
                                             "p": 4.0, "q": 4.0})
        lam = [0.3, 0.6]
        n = 20_000
        full = khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 1.0, lam, n, 1e-3,
                              GRID, seed=21, x0=0.0)
        left = khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 0.5, lam, n, 1e-3,
                              GRID, seed=22, x0=0.0)
        right = khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.5, 1.0, lam, n, 1e-3,
                               GRID, seed=23, x0=0.0)
        for i in range(len(lam)):
            prod = left.mc_estimates[i] * right.mc_estimates[i]
            slack = 3 * (full.mc_stderr[i]
                         + left.mc_stderr[i] * right.mc_estimates[i]
                         + right.mc_stderr[i] * left.mc_estimates[i])
            assert full.mc_estimates[i] <= prod + slack

    def test_infinite_norm_rejected(self):
        # uncapped singular field evaluated where a cell center hits the
        # singularity exactly: the localized space-time norm is infinite
        from denslab.particles import SpaceTimeField
        grid_odd = Grid1D(-6.0, 6.0, 2001)  # one center lands exactly at 0

        def fn(t, x):
            with np.errstate(divide="ignore"):
                return np.where(np.abs(x) <= 1, np.abs(x) ** -0.3, 0.0)

        f = SpaceTimeField(fn=fn, p=4.0, q=4.0, name="uncapped")
        with pytest.raises(InvalidParameterError):
            khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 1.0, [0.1, 0.2], 100, 1e-2,
                           grid_odd, seed=1)
