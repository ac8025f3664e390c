"""Particle engine: reproducible streams, moments, Girsanov, exponential moments."""

import dataclasses
import threading

import numpy as np
import pytest

from denslab import density_core, dynamics, particles
from denslab.density_core import DensityFlow, Grid1D, TimeGrid, _Scratch, gaussian_density
from denslab.dynamics import DriftSpec, SpaceTimeField, builtin_drift, constant_diffusion
from denslab.errors import InvalidParameterError, NumericalError, NumericOverflowError
from denslab.metrics import relative_entropy
from denslab.particles import (
    _bandwidth,
    _reflect,
    builtin_field,
    euler_maruyama_mkv,
    field_spacetime_norm,
    khasminskii_mc,
    normal_increments,
    raw_uniforms,
    sample_initial,
)
from oracles import (
    ParticlePath,
    frozen_density_rule,
    girsanov_log_weight,
    girsanov_log_weights_mc,
    path_relative_entropy_mc,
    reference_mkv,
    reference_reflect,
    reference_uniforms,
    same_bits,
    serial_march,
)

GRID = Grid1D(-6.0, 6.0, 2000)
DIFF1 = constant_diffusion(1.0)
DIFF2 = constant_diffusion(2.0)
ZERO_DRIFT = builtin_drift("linear_ou", {"theta": 0.0})


def shift_drift(v):
    return DriftSpec(b1=lambda t, x: np.full_like(x, v), K=0.0)


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

    @pytest.mark.parametrize("seed,tag,step,n", [(9, 2, 3, 1024), (1, 1, 0, 7),
                                                 (2 ** 63 + 5, 2, 999, 100_001)])
    def test_uniforms_bitwise_equal_to_reference(self, seed, tag, step, n):
        assert same_bits(raw_uniforms(seed, tag, step, n),
                         reference_uniforms(seed, tag, step, n))

    def test_sampling_from_density(self):
        d = gaussian_density(GRID, 0.5, 0.7)
        x = sample_initial(d, 200_000, seed=3, grid=GRID)
        assert np.mean(x) == pytest.approx(0.5, abs=0.01)
        assert np.std(x) == pytest.approx(0.7, abs=0.01)

    @pytest.mark.parametrize("spec", [np.zeros(10), ("uniform", 0.0, 1.0), ("gaussian", 0.0),
                                      "gaussian"],
                             ids=["positions-array", "uniform-tuple", "two-tuple", "bare-name"])
    def test_unsupported_spec_rejected(self, spec):
        with pytest.raises(InvalidParameterError, match="unsupported initial sampling spec"):
            sample_initial(spec, 10, seed=3, grid=GRID)


class TestReflect:
    @pytest.mark.parametrize("lo,hi", [(GRID.x_min, GRID.x_max), (0.0, 1.0), (-1.0, -0.0)])
    def test_bitwise_equal_to_reference(self, lo, hi):
        # up to 1.5 domain widths out: some positions still lie outside after
        # both mirrors and are clipped
        w = hi - lo
        x = np.concatenate((np.random.default_rng(4).uniform(lo - 1.5 * w, hi + 1.5 * w, 20_000),
                            [lo, hi, -0.0, 0.0, np.nextafter(hi, np.inf),
                             np.nextafter(lo, -np.inf), np.nan, np.inf, -np.inf]))
        assert same_bits(_reflect(x, lo, hi), reference_reflect(x, lo, hi))

    def test_input_not_mutated(self):
        x = np.array([-7.0, -6.0, 0.5, 6.0, 6.5, 30.0])
        before = x.copy()
        _reflect(x, GRID.x_min, GRID.x_max)
        assert same_bits(x, before)


def _silverman(x):
    return 1.06 * max(np.std(x), 1e-12) * x.size ** -0.2


class TestBandwidth:
    """Silverman's rule reads np.std bit for bit, in fresh or reused work
    arrays; the sizes straddle np.sum's pairwise blocks of 128."""

    @pytest.mark.parametrize("n", [1, 7, 128, 129, 100_003])
    def test_silverman_bitwise_equal_to_np_std(self, n):
        rng = np.random.default_rng(n)
        scratch = _Scratch()
        spread = [rng.normal(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0), n)
                  for _ in range(40)]    # enough draws that a rounding slip shows
        for x in (np.full(n, 2.7), rng.uniform(0.9e150, 1.1e150, n), -rng.lognormal(0.0, 3.0, n),
                  *spread):
            want = np.float64(_silverman(x))
            assert same_bits(np.float64(_bandwidth(0.0, x)), want)
            assert same_bits(np.float64(_bandwidth(0.0, x, scratch)), want)

    def test_given_bandwidth_returned(self):
        assert _bandwidth(0.25, np.zeros(3)) == 0.25


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
        fast = DriftSpec(b1=lambda t, x: np.full_like(x, 50.0), K=0.0)
        with pytest.raises(InvalidParameterError):
            euler_maruyama_mkv(("gaussian", 0.0, 0.3), fast, DIFF2, 100,
                               1e-2, 0.1, GRID, seed=1)

    @pytest.mark.parametrize("jump, caught", [(1.5, False), (3.0, True)])
    def test_cfl_guard_at_every_step(self, jump, caught):
        # dt * |b| is half a cell at step 0, then the drift jumps at t = 0.05
        dt = 1e-2
        v = 0.5 * GRID.dx / dt
        steps = DriftSpec(b1=lambda t, x: np.full_like(x, v * (jump if t >= 0.05 else 1.0)),
                          K=0.0)
        run = lambda: euler_maruyama_mkv(("gaussian", 0.0, 0.3), steps, DIFF2, 100,
                                         dt, 0.1, GRID, seed=1)
        if caught:
            with pytest.raises(InvalidParameterError, match="at step 5"):
                run()
        else:
            run()

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

    @pytest.mark.parametrize("name,params", [
        ("capped_density", {"theta": 1.0, "kappa": 0.5, "tau": 0.6, "cap": 5.0}),
        ("smoothed_interaction", {"theta": 1.0, "kappa": 0.5, "kernel_width": 0.2}),
    ])
    def test_march_bitwise_equal_to_reference(self, name, params):
        # the in-place step, the one-floor gather and the KDE deposit against
        # the out-of-place oracles, over 20 steps and 3 record nodes
        drift = builtin_drift(name, params)
        dt, n_steps, n = 1e-3, 20, 2000
        ens, flow = euler_maruyama_mkv(("gaussian", 0.1, 0.4), drift, DIFF2, n, dt,
                                       n_steps * dt, GRID, seed=17,
                                       record_grid=TimeGrid(np.array([0.0, 0.007, 0.02])))
        silverman = lambda x: 1.06 * max(float(np.std(x)), 1e-12) * x.size ** (-0.2)
        x_ref, snaps_ref = reference_mkv(0.1, 0.4, drift, DIFF2, n, dt, n_steps, GRID,
                                         17, silverman, {7, 20})
        assert same_bits(ens.positions, x_ref)
        assert len(flow.snapshots) == len(snaps_ref) == 3
        for snap, ref in zip(flow.snapshots, snaps_ref):
            assert same_bits(snap.values, ref)

    def test_feedback_needs_ensemble(self):
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        with pytest.raises(InvalidParameterError):
            euler_maruyama_mkv(("gaussian", 0.0, 0.3), cd, DIFF2, 100,
                               1e-3, 0.1, GRID, seed=1)


def _march_args(drift, flow=None, n=1200):
    """Arguments of `particles._march` (and `serial_march`) for 20 steps of
    n particles from a seeded Gaussian start; each call builds a fresh
    density rule."""
    x0 = sample_initial(("gaussian", 0.1, 0.4), n, 17, GRID)
    density = (particles._density_rule(drift, GRID) if flow is None else
               frozen_density_rule(drift, flow))
    return (x0, drift, DIFF2, GRID, 0.0, 0.02, 1e-3, 17, density)


_CAPPED = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.5, "tau": 0.6, "cap": 5.0})
_FLOW = DensityFlow(TimeGrid.uniform(0.02, 1), (gaussian_density(GRID, 0.0, 0.3),
                                                gaussian_density(GRID, 0.1, 0.5)))


def _jump_drift(value):
    """A constant drift of 0 that becomes `value` from t = 0.005 (step 5) on."""
    return DriftSpec(b1=lambda t, x: np.full_like(x, value if t >= 0.005 else 0.0), K=0.0)


class TestMarchPipeline:
    """The march draws step s + 1's normals on a helper thread while step s
    runs; that must change no bit, no error and leave no thread behind."""

    @pytest.mark.parametrize("drift,flow", [(ZERO_DRIFT, None), (_CAPPED, None), (_CAPPED, _FLOW)],
                             ids=["density-free", "own-kde", "frozen-flow"])
    def test_steps_bitwise_equal_to_serial_march(self, drift, flow):
        steps = list(particles._march(*_march_args(drift, flow=flow)))
        ref = list(serial_march(*_march_args(drift, flow=flow)))
        assert len(steps) == len(ref) == 20
        for st, rs in zip(steps, ref):
            assert st.t == rs.t
            for a, b in ((st.dw, rs.dw), (st.x_next, rs.x_next), (st.b, rs.b)):
                assert same_bits(a, b)

    def test_reflecting_steps_bitwise_equal_to_serial_march(self):
        # a grid a few standard deviations wide: particles leave it at both
        # ends on every step and the march mirrors them back
        grid = Grid1D(-0.3, 0.3, 64)
        x0 = sample_initial(("gaussian", 0.0, 0.2), 1200, 5, grid)
        args = (x0, _CAPPED, DIFF2, grid, 0.0, 0.02, 1e-3, 5)
        steps = list(particles._march(*args, particles._density_rule(_CAPPED, grid)))
        ref = list(serial_march(*args, particles._density_rule(_CAPPED, grid)))
        assert len(steps) == len(ref) == 20
        for st, rs in zip(steps, ref):
            for a, b in ((st.dw, rs.dw), (st.x_next, rs.x_next), (st.b, rs.b)):
                assert same_bits(a, b)
            moved = st.x + st.b * 1e-3 + st.sigma * st.dw
            assert np.any(moved < grid.x_min) and np.any(moved > grid.x_max)

    @pytest.mark.parametrize("drift", [ZERO_DRIFT, _CAPPED], ids=["density-free", "own-kde"])
    def test_steps_share_no_memory_and_leave_x0_alone(self, drift):
        # every step works in one scratch set; what a step hands out is new
        # (n = 1201 makes each dw a view of a draw of 1204)
        x0, *rest = _march_args(drift, n=1201)
        kept = x0.copy()
        fresh = [[a for a in (st.x_next, st.b, st.dw, st.rho) if a is not None]
                 for st in particles._march(x0, *rest)]
        assert len(fresh) == 20
        for i, mine in enumerate(fresh):
            assert not any(np.shares_memory(x0, a) for a in mine)
            for other in fresh[i + 1:]:
                assert not any(np.shares_memory(a, b) for a in mine for b in other)
        assert same_bits(x0, kept)

    def test_density_step_finds_cells_once(self, monkeypatch):
        # the drift reads the density with the cells of the KDE deposit
        calls, cells = [], density_core._cells

        def counted(*args):
            calls.append(1)
            return cells(*args)
        monkeypatch.setattr(dynamics, "_cells", counted)
        monkeypatch.setattr(density_core, "_cells", counted)
        assert len(list(particles._march(*_march_args(_CAPPED)))) == len(calls) == 20

    def test_integral_sq_bitwise_equal_to_out_of_place_trapezoid(self):
        def f(t, x):
            return np.cos(3.0 * x) + t

        x0, *rest = _march_args(_CAPPED)
        got = particles._integral_sq(f, particles._march(x0, *rest), 0.0, x0, 1e-3)
        want, prev = np.zeros(x0.size), f(0.0, x0) ** 2
        for st in serial_march(*_march_args(_CAPPED)):
            cur = f(st.t + 1e-3, st.x_next) ** 2
            want += 0.5 * (prev + cur) * 1e-3
            prev = cur
        assert same_bits(got, want)

    def test_one_draw_ahead_on_one_helper_thread(self, monkeypatch):
        called, threads = [], set()
        draw = particles.normal_increments

        def traced(seed, tag, step, n):
            called.append(step)
            threads.add(threading.get_ident())
            return draw(seed, tag, step, n)

        args = _march_args(ZERO_DRIFT)      # its start draws on this thread
        monkeypatch.setattr(particles, "normal_increments", traced)
        for s, _ in enumerate(particles._march(*args)):
            assert max(called) <= s + 1         # step s + 1's draw at most is made
        assert called == list(range(20))       # each step's draw once, none past the end
        assert len(threads) == 1 and threading.get_ident() not in threads

    @pytest.mark.parametrize("drift,error,match", [
        (_jump_drift(3.0 * GRID.dx / 1e-3), InvalidParameterError, "at step 5"),
        (_jump_drift(np.nan), NumericalError, "non-finite particle position at step 5"),
    ], ids=["cfl", "non-finite"])
    def test_failure_mid_march_as_serial_and_no_thread_left(self, drift, error, match):
        base = threading.active_count()
        with pytest.raises(error, match=match) as got:
            for _ in particles._march(*_march_args(drift)):
                pass
        with pytest.raises(error) as want:
            for _ in serial_march(*_march_args(drift)):
                pass
        assert str(got.value) == str(want.value)
        assert threading.active_count() == base

    def test_closed_dropped_or_unstarted_march_leaves_no_thread(self):
        base = threading.active_count()
        march = particles._march(*_march_args(ZERO_DRIFT))
        assert threading.active_count() == base      # built, not iterated: no pool yet
        next(march)
        assert threading.active_count() == base + 1
        march.close()
        assert threading.active_count() == base
        march = particles._march(*_march_args(ZERO_DRIFT))
        next(march)
        del march                                     # dropped: the generator closes
        assert threading.active_count() == base
        # khasminskii_mc builds its march, then rejects the zero field unmarched
        with pytest.raises(InvalidParameterError, match="localized space-time norm 0"):
            khasminskii_mc(builtin_field("constant", {"c0": 0.0}), ZERO_DRIFT, DIFF1, 0.0, 0.1,
                           [0.2, 0.5], 10, 1e-2, GRID, seed=3)
        assert threading.active_count() == base


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
        from denslab.dynamics import frozen_semigroup, picard_fixed_point
        from denslab.metrics import FlowMetricSpec
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

    def test_density_feedback_report_unchanged_by_shared_scratch(self, monkeypatch):
        # the own-KDE rule and the march work in one scratch set; a set that
        # hands out new arrays on every take gives the same report, field by field
        class FreshScratch(_Scratch):
            def take(self, n, *dtypes):
                return [np.empty(n, dtype=dtype) for dtype in dtypes]

        f = builtin_field("singular_power", {"coeff": 0.8, "gamma": 0.3})
        args = (f, _CAPPED, DIFF1, 0.0, 0.05, [0.2, 0.6, 1.5, 3.0], 2000, 1e-3, GRID)
        shared = khasminskii_mc(*args, seed=4, x0=0.2)
        monkeypatch.setattr(particles, "_Scratch", FreshScratch)
        fresh = khasminskii_mc(*args, seed=4, x0=0.2)
        for field in dataclasses.fields(shared):
            assert same_bits(getattr(shared, field.name), getattr(fresh, field.name)), field.name

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

    @pytest.mark.parametrize("lam", [[0.2], [0.5, 0.2], [0.2, 0.2, 0.5], [0.0, 0.5],
                                     [-0.1, 0.5], [0.2, np.nan], [np.nan, 0.2]])
    def test_bad_lambda_grid_rejected_before_marching(self, monkeypatch, lam):
        # the experiment's convexity check reads the grid as sorted and distinct
        marches = []
        monkeypatch.setattr(particles, "_march", lambda *a, **k: marches.append(1))
        f = builtin_field("constant", {"c0": 0.5})
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 0.1, lam, 10, 1e-2, GRID, seed=3)
        assert marches == []

    @pytest.mark.parametrize("lam", [[0.5, 1e100], [1e200, 2e200]], ids=["lambda^q", "lambda^2"])
    def test_overflowing_lambda_grid_rejected_before_marching(self, monkeypatch, lam):
        marches = []
        monkeypatch.setattr(particles, "_integral_sq", lambda *a, **k: marches.append(1))
        f = builtin_field("constant", {"c0": 0.5})
        with pytest.raises(InvalidParameterError, match="overflows"):
            khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 0.1, lam, 10, 1e-2, GRID, seed=3)
        assert marches == []

    def test_overflowing_sweep_is_numeric_error(self):
        # f is 1e150 at x0 = 0 only, which no cell centre is: the grid norms are
        # those of f = 1, while lambda^2 int f^2 dr overflows at lambda = 1e10
        f = SpaceTimeField(fn=lambda t, x: np.where(x == 0.0, 1e150, 1.0), p=4.0, q=4.0)
        assert not np.any(GRID.centers == 0.0)
        with pytest.raises(NumericOverflowError, match="lambda = 1e\\+10"):
            khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 0.1, [0.5, 1e10], 10, 1e-2, GRID, seed=3)

    @pytest.mark.parametrize("x0", [np.inf, -np.inf, np.nan, 6.5, -6.0 - 1e-9])
    def test_x0_off_the_grid_rejected_before_marching(self, monkeypatch, x0):
        marches = []
        monkeypatch.setattr(particles, "_march", lambda *a, **k: marches.append(1))
        f = builtin_field("constant", {"c0": 0.5})
        with pytest.raises(InvalidParameterError, match="x0"):
            khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 0.1, [0.2, 0.5], 10, 1e-2, GRID,
                           seed=3, x0=x0)
        assert marches == []

    def test_x0_on_the_grid_edge_accepted(self):
        f = builtin_field("constant", {"c0": 0.5})
        rep = khasminskii_mc(f, ZERO_DRIFT, DIFF1, 0.0, 0.1, [0.2, 0.5], 10, 1e-2, GRID,
                             seed=3, x0=GRID.x_max)
        assert rep.bounds_hold

    def test_cap_overflow_names_the_field(self):
        f = builtin_field("singular_power", {"gamma": 1e300})
        with pytest.raises(NumericOverflowError, match=r"'singular_power'.*1e\+300"):
            f.evaluate(0.0, np.array([0.0, 0.5]), 0.25)

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


_ESTIMATORS = {
    "euler_maruyama_mkv": lambda n, dt, t: euler_maruyama_mkv(
        ("gaussian", 0.0, 0.3), ZERO_DRIFT, DIFF1, n, dt, t, GRID, seed=1),
    "girsanov_log_weights_mc": lambda n, dt, t: girsanov_log_weights_mc(
        ZERO_DRIFT, shift_drift(0.1), DIFF1, ("gaussian", 0.0, 0.3), t, n, dt, GRID, seed=1),
    "path_relative_entropy_mc": lambda n, dt, t: path_relative_entropy_mc(
        ZERO_DRIFT, shift_drift(0.1), DIFF1, ("gaussian", 0.0, 0.3), t, n, dt, GRID, seed=1),
    "khasminskii_mc": lambda n, dt, t: khasminskii_mc(
        builtin_field("constant"), ZERO_DRIFT, DIFF1, 0.0, t, [0.2, 0.5], n, dt, GRID, seed=1),
}


_FEEDBACK = builtin_drift("capped_density")
_FEEDBACK_ESTIMATORS = {
    "euler_maruyama_mkv": lambda n: euler_maruyama_mkv(
        ("gaussian", 0.0, 0.3), _FEEDBACK, DIFF1, n, 0.01, 0.1, GRID, seed=1),
    "girsanov_log_weights_mc": lambda n: girsanov_log_weights_mc(
        _FEEDBACK, _FEEDBACK, DIFF1, ("gaussian", 0.0, 0.3), 0.1, n, 0.01, GRID, seed=1),
    "khasminskii_mc": lambda n: khasminskii_mc(
        builtin_field("constant"), _FEEDBACK, DIFF1, 0.0, 0.1, [0.2, 0.5], n, 0.01, GRID,
        seed=1),
}


@pytest.mark.parametrize("name", sorted(_FEEDBACK_ESTIMATORS))
def test_ensemble_density_feedback_needs_1000_particles(name):
    with pytest.raises(InvalidParameterError, match="at least 1000 particles"):
        _FEEDBACK_ESTIMATORS[name](999)


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_estimators_reject_bad_march_inputs(name):
    run = _ESTIMATORS[name]
    run(10, 0.01, 0.1)      # the valid base
    for n, dt, t in ((10, 0.0, 0.1), (10, np.nan, 0.1), (10, -1e-3, 0.1),
                     (0, 0.01, 0.1), (-1, 0.01, 0.1), (10, 0.01, np.inf),
                     (10, 1e-300, 0.1), (10, 1e-7, 0.1000001), (10, 5e-324, 1.0)):
        with pytest.raises(InvalidParameterError):
            run(n, dt, t)
