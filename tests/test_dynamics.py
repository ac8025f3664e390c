"""Forward solver, drift admissibility, frozen flows, and the fixed point."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from denslab import dynamics
from denslab.density_core import (
    DensityFlow,
    Grid1D,
    GridDensity,
    TimeGrid,
    _Scratch,
    gaussian_density,
    kde,
    normalize,
    tilde_norm,
)
from denslab.dynamics import (
    DiffusionSpec,
    DriftSpec,
    SolverOptions,
    SpaceTimeField,
    _advance,
    _factor,
    _gather,
    builtin_drift,
    constant_diffusion,
    density_features,
    drift_at_positions,
    drift_field,
    frozen_semigroup,
    picard_fixed_point,
    power_singularity,
    validate_drift,
)
from denslab.errors import InvalidParameterError, NoConvergenceError, NumericalError
from denslab.metrics import FlowMetricSpec, wasserstein_1d
from oracles import (
    PIVOTED_RTOL,
    fokker_planck_step,
    pivoted_step,
    reference_drift_at_positions,
    reference_gather,
    reference_kde,
    reference_power_singularity,
    reference_singular_sum,
    reference_step,
    reference_tilde_norm,
    reference_values_at,
    same_bits,
    step_work,
    values_matrix,
)

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
        with pytest.raises(InvalidParameterError, match=r"gamma \* p2 = 1.2 >= 1"):
            builtin_drift("singular_well", {"gamma": 0.3, "p2": 4.0, "q2": 4.0})
        d = builtin_drift("singular_well", {"gamma": 0.2, "p2": 4.0, "q2": 4.0})
        assert d.singular_parts[0].p == 4.0

    def test_singular_well_at_its_centre_is_zero_without_warnings(self):
        d = builtin_drift("singular_well", {"gamma": 0.2, "coeff": 0.5, "center": 0.25})
        part = d.singular_parts[0]
        x = np.array([-0.75, 0.0, 0.25, 0.5, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            term, env = part.fn(0.0, x), power_singularity(x, 0.25, 0.5, 0.2)
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
        quad = self._power_law_quadrature(lambda x: power_singularity(x, 0.0, 0.5, 0.2), 4.0)
        exact = 2 * 0.5**4 / (1 - 0.8)
        assert quad == pytest.approx(exact, rel=5e-3)

    def test_cap_preserves_envelope_norm_when_mildly_singular(self):
        # grid-scale cap changes the window-L^p norm by <= 2% for gamma*p <= 0.5
        gamma, p, coeff = 0.1, 4.0, 0.5
        grid = Grid1D(-6, 6, 2000)
        d = builtin_drift("singular_well", {"gamma": gamma, "coeff": coeff,
                                            "p2": p, "q2": 4.0})
        part = d.singular_parts[0]
        vals = np.abs(part.fn(0.0, grid.centers))
        cap = coeff * grid.dx ** (-gamma)
        capped = np.minimum(vals, cap)
        norm_capped = (np.sum(capped**p) * grid.dx) ** (1 / p)
        exact = self._power_law_quadrature(lambda x: coeff * x**-gamma, p) ** (1 / p)
        assert norm_capped == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize("gamma", [0.2, 0.24])
    def test_singular_well_cap_bitwise_equal_to_reference(self, gamma):
        # 2001 cells on [-6, 6]: one cell centre sits on the singularity
        grid = Grid1D(-6.0, 6.0, 2001)
        assert np.count_nonzero(grid.centers == 0.0) == 1
        d = builtin_drift("singular_well", {"theta": 1.0, "gamma": gamma, "coeff": 0.5})
        x = np.concatenate((probe_positions(grid, np.random.default_rng(5)),
                            [0.0, 1e-300, -1e-300, 1.0, -1.0, np.nextafter(1.0, 2.0)]))
        for t, at in ((0.0, grid.centers), (0.4, x)):
            want = -at + reference_singular_sum(at, 0.0, 0.5, gamma, grid.dx)
            got = (drift_field(d, t, grid, None) if at is grid.centers
                   else drift_at_positions(d, t, at, grid, None))
            assert same_bits(got, want)

    def test_capped_density_term_bitwise_and_leaves_its_input(self):
        # the cap is scaled in place: t^tau kappa min(r, cap) to the bit
        tau, kappa, cap = 0.6, 0.37, 2.5
        d = builtin_drift("capped_density", {"kappa": kappa, "tau": tau, "cap": cap})
        r = np.random.default_rng(2).uniform(0.0, 5.0, 4000)
        kept = r.copy()
        for t in (0.0, 1e-3, 0.31, 2.0):
            got = d.nemytskii(t, None, r, {})
            assert same_bits(got, (t ** tau) * kappa * np.minimum(r, cap))
        assert same_bits(r, kept)

    def test_unknown_name_and_params(self):
        with pytest.raises(InvalidParameterError, match="unknown drift name 'nope'"):
            builtin_drift("nope")
        with pytest.raises(InvalidParameterError,
                           match=r"unknown linear_ou parameters: \['kapa'\]"):
            builtin_drift("linear_ou", {"kapa": 0.1})

    @pytest.mark.parametrize("name, params", [
        ("singular_well", {"coeff": np.inf}),
        ("capped_density", {"kappa": np.inf}),
        ("linear_ou", {"theta": np.nan}),
        ("smoothed_interaction", {"tau": -np.inf}),
    ])
    def test_non_finite_parameter_rejected(self, name, params):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            builtin_drift(name, params)

    def test_lipschitz_probe_rejects_understated_k(self):
        bad = DriftSpec(b1=lambda t, x: -5.0 * x, K=1.0)
        with pytest.raises(InvalidParameterError,
                           match=r"\|grad b1\| = .* exceeds declared K = 1.0"):
            validate_drift(bad, 1.0, Grid1D(-6, 6, 500))

    def test_integrability_class(self):
        # a field's (p, q) must satisfy p, q > 2 and 1/p + 2/q < 1
        assert SpaceTimeField(fn=np.zeros_like, p=4.0, q=4.0).p == 4.0
        for p, q in ((2.0, 4.0), (4.0, 2.0), (3.0, 3.0)):   # 1/3 + 2/3 = 1
            with pytest.raises(InvalidParameterError, match=r"violates p, q > 2 and 1/p \+ 2/q"):
                SpaceTimeField(fn=np.zeros_like, p=p, q=q)


class TestFokkerPlanckStep:
    def test_mass_conserved_per_step(self):
        grid = Grid1D(-6, 6, 1000)
        d = gaussian_density(grid, 0.5, 0.7)
        b = -grid.centers
        stepped = fokker_planck_step(d, b, 2.0, 1e-3)
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
        drift = DriftSpec(b1=lambda t, x: np.full_like(x, v), K=0.0)
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


class TestFactoredStep:
    """The march factors the diffusion matrix once per node interval; each
    step must equal the reference that assembles and solves it afresh, and
    agree with a pivoted LU solve to PIVOTED_RTOL."""

    DIFFUSIONS = {"constant": DIFF2, "weak": constant_diffusion(0.05)}

    def test_step_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 600))
            v = rng.uniform(0.0, 2.0, n)
            b = rng.normal(0.0, 3.0, n)
            a = float(rng.uniform(0.2, 4.0))
            dt, dx = 10.0 ** rng.uniform(-6, -2), 10.0 ** rng.uniform(-3, -1)
            w = v.copy()
            assert np.array_equal(_advance(w, b, _factor(a, dt, dx, w), dt, dx, step_work(n)),
                                  reference_step(v, b, a, dt, dx))

    @pytest.mark.parametrize("diff_name", sorted(DIFFUSIONS))
    def test_march_bitwise_equal_to_reference(self, monkeypatch, diff_name):
        diff = self.DIFFUSIONS[diff_name]
        rng = np.random.default_rng(5)
        grid = Grid1D(-5.0, 5.0, int(rng.integers(150, 400)))
        tg = TimeGrid.geometric(0.2, nodes_per_decade=int(rng.integers(4, 10)))
        mu = normalize(GridDensity(grid, rng.uniform(0.0, 1.0, grid.n_cells)))
        cd = builtin_drift("capped_density", {"theta": float(rng.uniform(0.5, 2.0)),
                                              "kappa": 0.3, "tau": 0.6, "cap": 5.0})
        gamma = random_flow(grid, tg, rng)
        factored = frozen_semigroup(mu, gamma, cd, diff, tg)
        self.replace_step(monkeypatch, reference_step, diff)
        reference = frozen_semigroup(mu, gamma, cd, diff, tg)
        assert np.array_equal(values_matrix(factored), values_matrix(reference))

    @staticmethod
    def replace_step(monkeypatch, step, diff):
        """Make the march take `step(v, b, a, dt, dx)` in place of its factored solve."""
        monkeypatch.setattr(dynamics, "_factor", lambda a, dt, dx, v: None)
        monkeypatch.setattr(dynamics, "_advance", lambda v, b, solve, dt, dx, work:
                            step(v, b, diff.a, dt, dx))

    @staticmethod
    def assert_near_pivoted(flow, pivoted):
        for got, want in zip(flow.snapshots, pivoted.snapshots):
            scale = np.max(np.abs(want.values))
            assert np.max(np.abs(got.values - want.values)) <= PIVOTED_RTOL * scale

    @pytest.mark.parametrize("diff_name", sorted(DIFFUSIONS))
    @pytest.mark.parametrize("frozen", [True, False])
    def test_march_within_tolerance_of_pivoted_solve(self, monkeypatch, diff_name, frozen):
        diff = self.DIFFUSIONS[diff_name]
        rng = np.random.default_rng(8)
        grid = Grid1D(-5.0, 5.0, 2000)
        tg = TimeGrid.geometric(0.5, nodes_per_decade=8)
        mu = gaussian_density(grid, 0.3, 0.05)
        cd = builtin_drift("capped_density", {"kappa": 0.5})
        gamma = random_flow(grid, tg, rng) if frozen else None
        factored = frozen_semigroup(mu, gamma, cd, diff, tg)
        self.replace_step(monkeypatch, pivoted_step, diff)
        self.assert_near_pivoted(factored, frozen_semigroup(mu, gamma, cd, diff, tg))

    def test_picard_within_tolerance_of_pivoted_solve(self, monkeypatch):
        grid = Grid1D(-6.0, 6.0, 1000)
        mu = gaussian_density(grid, 0.0, 0.3)
        tg = TimeGrid.geometric(0.5, nodes_per_decade=10)
        cd = builtin_drift("capped_density", {"kappa": 1.0})
        spec = FlowMetricSpec(lam=1.0, p=2.0, k=4.0)
        factored = picard_fixed_point(mu, cd, DIFF2, tg, spec, warm_start=True)
        self.replace_step(monkeypatch, pivoted_step, DIFF2)
        pivoted = picard_fixed_point(mu, cd, DIFF2, tg, spec, warm_start=True)
        assert factored.iterations == pivoted.iterations
        self.assert_near_pivoted(factored.flow, pivoted.flow)

    # frozen flows on the march's own nodes, coarser ones, finer nodes offset
    # from them, and nodes that end before the march's T = 0.2
    FLOW_NODES = {
        "own": TimeGrid.geometric(0.2, nodes_per_decade=6).nodes,
        "coarser": TimeGrid.uniform(0.2, 3).nodes,
        "finer-offset": np.concatenate(([0.0], np.linspace(0.0013, 0.2113, 41))),
        "ends-early": TimeGrid.uniform(0.11, 5).nodes,
    }

    @staticmethod
    def bracket_drift(name):
        if name != "custom":
            return builtin_drift(name, {"kappa": 0.4})
        well = builtin_drift("singular_well", {"gamma": 0.2, "coeff": 0.5, "center": 0.3})
        return DriftSpec(b1=well.b1, singular_parts=well.singular_parts,
                         nemytskii=lambda t, x, r, feats: 0.4 * np.minimum(r, 3.0) * np.cos(x),
                         K=1.0)

    @pytest.mark.parametrize("drift_name", ["capped_density", "smoothed_interaction", "custom"])
    @pytest.mark.parametrize("flow_nodes", sorted(FLOW_NODES))
    def test_frozen_bracket_bitwise_equal_to_values_at(self, monkeypatch, drift_name,
                                                       flow_nodes):
        rng = np.random.default_rng(17)
        grid = Grid1D(-5.0, 5.0, 240)
        tg = TimeGrid.geometric(0.2, nodes_per_decade=6)
        mu = normalize(GridDensity(grid, rng.uniform(0.0, 1.0, grid.n_cells)))
        gamma = random_flow(grid, TimeGrid(self.FLOW_NODES[flow_nodes]), rng)
        for snap in gamma.snapshots:     # a blend can turn -0.0 into 0.0, an end snapshot does not
            snap.values[rng.uniform(size=grid.n_cells) < 0.3] = -0.0
        drift = self.bracket_drift(drift_name)
        calls = {"values_at": [], "drift_field": [], "read": []}

        def recorded(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args[1])     # the time
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        def read_by(reader):     # a `DensityFlow._reader` that records its times
            def _reader(flow):
                read = reader(flow)

                def recorded_read(t):
                    calls["read"].append(t)
                    return read(t)
                return recorded_read
            return _reader

        recorded(DensityFlow, "values_at")
        recorded(dynamics, "drift_field")
        monkeypatch.setattr(DensityFlow, "_reader", read_by(DensityFlow._reader))
        lean = frozen_semigroup(mu, gamma, drift, DIFF2, tg)
        times = calls["drift_field"]
        assert calls["values_at"] == [] and len(times) > 2 * (len(tg.nodes) - 1)
        assert calls["read"] == times
        read = gamma._reader()
        assert all(same_bits(read(t), reference_values_at(gamma, t)) for t in times)
        for name in calls:
            calls[name] = []
        monkeypatch.setattr(DensityFlow, "_reader",
                            read_by(lambda flow: lambda t: reference_values_at(flow, t)))
        reference = frozen_semigroup(mu, gamma, drift, DIFF2, tg)
        assert calls["read"] == calls["drift_field"] == times
        assert same_bits(values_matrix(lean), values_matrix(reference))

    @pytest.mark.parametrize("diff_name", sorted(DIFFUSIONS))
    def test_factorizations_per_node_interval(self, monkeypatch, diff_name):
        counts = {"dpttrf": 0, "dpttrs": 0}

        def counted(name):
            fn = getattr(dynamics, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(dynamics, name, counted(name))
        grid = Grid1D(-5.0, 5.0, 200)
        tg = TimeGrid.uniform(0.1, 7)
        frozen_semigroup(gaussian_density(grid, 0.0, 0.5), None,
                         builtin_drift("linear_ou", {"theta": 1.0}),
                         self.DIFFUSIONS[diff_name], tg)
        assert counts["dpttrs"] > 2 * (len(tg.nodes) - 1)       # several sub-steps each
        assert counts["dpttrf"] == len(tg.nodes) - 1

    def test_numpy_wheel_lapack_in_use(self):
        # numpy's wheel exports both routines: no silent fall back to scipy's
        assert dynamics._NUMPY_LAPACK
        assert (dynamics.dpttrf.__name__, dynamics.dpttrs.__name__) == (
            "scipy_dpttrf_64_", "scipy_dpttrs_64_")

    @pytest.mark.parametrize("diff_name", sorted(DIFFUSIONS))
    def test_scipy_fallback_march_bitwise_equal_to_default_and_reference(self, monkeypatch,
                                                                         diff_name):
        from scipy.linalg import lapack
        diff = self.DIFFUSIONS[diff_name]
        rng = np.random.default_rng(9)
        grid = Grid1D(-5.0, 5.0, 317)
        tg = TimeGrid.geometric(0.2, nodes_per_decade=7)
        mu = normalize(GridDensity(grid, rng.uniform(0.0, 1.0, grid.n_cells)))
        cd = builtin_drift("capped_density", {"kappa": 0.4})
        gamma = random_flow(grid, tg, rng)
        default = frozen_semigroup(mu, gamma, cd, diff, tg)
        for name, value in (("dpttrf", lapack.dpttrf), ("dpttrs", lapack.dpttrs),
                            ("_NUMPY_LAPACK", False)):
            monkeypatch.setattr(dynamics, name, value)
        fallback = frozen_semigroup(mu, gamma, cd, diff, tg)
        self.replace_step(monkeypatch, reference_step, diff)
        reference = frozen_semigroup(mu, gamma, cd, diff, tg)
        assert same_bits(values_matrix(fallback), values_matrix(default))
        assert same_bits(values_matrix(fallback), values_matrix(reference))

    @pytest.mark.parametrize("v", [np.zeros(8, dtype=np.float32), np.zeros(16)[::2],
                                   np.zeros((2, 4))], ids=["float32", "strided", "2-d"])
    def test_solve_rejects_a_vector_it_cannot_solve_in_place(self, v):
        with pytest.raises(ValueError, match="writeable contiguous float64 vector"):
            _factor(2.0, 1e-3, 0.1, v)


def probe_positions(grid, rng, n_random=20_000):
    """Random positions on and a cell beyond the grid, every centre, both
    bounds, the half-cells beyond the outer centres, and the float
    neighbours of each centre and bound."""
    c = grid.centers
    ends = np.array([grid.x_min, grid.x_max])
    half_cells = np.concatenate((rng.uniform(grid.x_min, c[0], 50),
                                 rng.uniform(c[-1], grid.x_max, 50)))
    special = np.concatenate((c, ends, half_cells))
    return np.concatenate((rng.uniform(grid.x_min - grid.dx, grid.x_max + grid.dx, n_random),
                           special, np.nextafter(special, np.inf),
                           np.nextafter(special, -np.inf)))


def near_interp(got, x, grid, y) -> bool:
    """got is np.interp(x, grid.centers, y), NaN where it is NaN and elsewhere
    within the gather's stated tolerance: the rounding in the floor's argument,
    16 * spacing(max(|x_min|, |x_max|)) / dx * max|y|."""
    want = np.interp(x, grid.centers, y)
    tol = 16 * np.spacing(max(abs(grid.x_min), abs(grid.x_max))) / grid.dx * np.max(np.abs(y))
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and bool(np.all(np.abs(got - want)[~nan] <= tol))


class TestGather:
    """The particle drift reads grid arrays at the positions by the KDE's
    cloud-in-cell rule: bit for bit the out-of-place `reference_gather`, and
    np.interp's result to within the stated tolerance."""

    @pytest.mark.parametrize("lo,hi,n", [(-6.0, 6.0, 2000), (-1.0, 3.0, 8),
                                         (0.1, 0.7, 37), (1e3, 1e3 + 1.0, 1000)])
    def test_one_array_bitwise_equal_to_interp(self, lo, hi, n):
        grid = Grid1D(lo, hi, n)
        rng = np.random.default_rng(n)
        y = rng.normal(size=n)
        y[3], y[4] = -0.0, 0.0
        x = probe_positions(grid, rng)
        (got,) = _gather(x, grid, y)
        assert same_bits(got, reference_gather(x, grid, y))
        assert near_interp(got, x, grid, y)

    def test_density_and_features_bitwise_equal_to_interp(self):
        grid = Grid1D(-6.0, 6.0, 2000)
        rng = np.random.default_rng(8)
        drift = builtin_drift("smoothed_interaction", {"kappa": 0.3, "kernel_width": 0.2})
        rho = reference_kde(rng.normal(0.0, 0.5, 5000), 0.1, grid).values
        feats = density_features(rho, grid, drift)
        x = probe_positions(grid, rng)
        got = _gather(x, grid, rho, *feats.values())
        ys = (rho, *feats.values())
        assert len(got) == 2
        assert all(same_bits(g, reference_gather(x, grid, y)) for g, y in zip(got, ys))
        assert all(near_interp(g, x, grid, y) for g, y in zip(got, ys))

    def test_reused_scratch_bitwise_equal_to_interp(self):
        # one scratch set for successive calls, two arrays then one, so each
        # call starts from the last one's values
        grid = Grid1D(-6.0, 6.0, 2000)
        rng = np.random.default_rng(21)
        drift = builtin_drift("smoothed_interaction", {"kappa": 0.3, "kernel_width": 0.2})
        rho = reference_kde(rng.normal(0.0, 0.5, 5000), 0.1, grid).values
        bump = density_features(rho, grid, drift)["bump"]
        n = probe_positions(grid, rng).size
        scratch = _Scratch()
        for ys in ((rho, bump), (bump,), (rho, bump)):
            x = probe_positions(grid, rng)
            x[rng.integers(0, n, 5)] = np.nan
            got = _gather(x, grid, *ys, _scratch=scratch)
            assert len(got) == len(ys)
            assert all(same_bits(g, reference_gather(x, grid, y)) for g, y in zip(got, ys))
            assert all(near_interp(g, x, grid, y) for g, y in zip(got, ys))

    @pytest.mark.parametrize("lo,hi,n", [(-6.0, 6.0, 2000), (0.1, 0.7, 37),
                                         (-2.0, 0.248868312607725, 979)])
    def test_deposit_cells_read_as_the_gathers_own(self, lo, hi, n):
        # kde hands over its deposit's cells when every position lies between
        # the outer centres, where the gather's clamp leaves them as they are.
        # Beyond an outer centre it hands none: there the clamp changes frac,
        # and on the 979-cell grid, where (c[-1] - c[0]) / dx rounds below
        # n - 1, the cell as well.  Either way the read is the self-found one.
        # One float past x_min or x_max, kde takes no position at all.
        grid = Grid1D(lo, hi, n)
        c = grid.centers
        rng = np.random.default_rng(n)
        y = rng.normal(size=n)
        ends = np.array([grid.x_min, grid.x_max, c[0], c[-1]])
        interior = rng.uniform(c[0], c[-1], 2000)
        handed = rejected = 0
        for end in np.concatenate((ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf))):
            x = np.append(interior, end)
            scratch = _Scratch()
            if not grid.x_min <= end <= grid.x_max:
                with pytest.raises(InvalidParameterError, match="must lie in"):
                    kde(x, grid.width / 8, grid, scratch, _with_cells=True)
                rejected += 1
                continue
            _, cells = kde(x, grid.width / 8, grid, scratch, _with_cells=True)
            assert (cells is not None) == (c[0] <= end <= c[-1])
            handed += cells is not None
            for ys in ((y,), (y, y[::-1].copy())):
                got = _gather(x, grid, *ys, _scratch=scratch, _deposit=cells)
                assert all(same_bits(g, w) for g, w in zip(got, _gather(x, grid, *ys)))
        assert handed == 4      # both outer centres and their inner neighbours
        assert rejected == 2

    def test_nonfinite_positions_as_interp(self):
        # NaN reads NaN and +-inf the end values, with no RuntimeWarning
        grid = Grid1D(-1.0, 1.0, 16)
        y = np.linspace(0.0, 1.0, 16) ** 2
        x = np.array([np.nan, np.inf, -np.inf, 0.0])
        (got,) = _gather(x, grid, y)
        assert same_bits(got, reference_gather(x, grid, y))
        assert near_interp(got, x, grid, y)
        assert np.isnan(got[0]) and got[1] == y[-1] and got[2] == y[0]

    @pytest.mark.parametrize("name,params", [
        ("linear_ou", {"theta": 1.3}),
        ("capped_density", {"kappa": 0.4, "cap": 0.6}),
        ("smoothed_interaction", {"kappa": 0.3, "kernel_width": 0.2}),
        ("singular_well", {"gamma": 0.2, "coeff": 0.5, "center": 0.3}),
    ])
    def test_drift_at_positions_bitwise_equal_to_reference(self, name, params):
        grid = Grid1D(-6.0, 6.0, 2000)
        rng = np.random.default_rng(13)
        drift = builtin_drift(name, params)
        rho = reference_kde(rng.normal(0.0, 0.5, 5000), 0.1, grid).values
        x = probe_positions(grid, rng)
        for t in (0.0, 0.37):
            assert same_bits(drift_at_positions(drift, t, x, grid, rho),
                             reference_drift_at_positions(drift, t, x, grid, rho))

    def test_power_singularity_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(3)
        x = np.concatenate((rng.uniform(-3.0, 3.0, 10_000),
                            [0.5, -0.5, 1.5, np.nextafter(1.5, 0.0), 2.5, np.nan, np.inf]))
        for gamma in (0.3, 0.45):
            assert same_bits(power_singularity(x, 0.5, 2.0, gamma),
                             reference_power_singularity(x, 0.5, 2.0, gamma))


class TestStabilityGuard:
    GRID = Grid1D(-6.0, 6.0, 200)
    # steps as long as the CFL bound allows, so dt * max|b| = cfl * dx at t = 0
    OPTS = SolverOptions(rel_dt=10.0, dt_max=1.0)

    @pytest.mark.parametrize("jump, caught", [(1.5, False), (3.0, True)])
    def test_drift_growing_inside_a_node_interval(self, jump, caught):
        grow = DriftSpec(b1=lambda t, x: -(jump if t >= 0.05 else 1.0) * x, K=3.0)
        mu = gaussian_density(self.GRID, 0.0, 0.5)
        tg = TimeGrid.uniform(0.1, 1)
        run = lambda: frozen_semigroup(mu, None, grow, DIFF2, tg, self.OPTS)
        if caught:
            with pytest.raises(NumericalError, match="exceeds the grid scale"):
                run()
        else:
            assert abs(run().snapshots[-1].mass() - 1.0) <= 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frozen", [True, False])
    def test_non_finite_drift_inside_a_node_interval(self, bad, frozen):
        # the density term turns non-finite in one cell from t = 0.07, strictly
        # inside the node interval [0.05, 0.1]: the sub-step guard must catch it
        def nem(t, x, r, feats):
            out = 0.2 * np.minimum(r, 5.0)
            if t > 0.07:
                out[100] = bad
            return out

        drift = DriftSpec(b1=lambda t, x: -x, nemytskii=nem, K=1.0)
        mu = gaussian_density(self.GRID, 0.0, 0.5)
        tg = TimeGrid.uniform(0.1, 2)
        gamma = DensityFlow(tg, (mu,) * 3) if frozen else None
        with pytest.raises(NumericalError, match="exceeds the grid scale") as err:
            frozen_semigroup(mu, gamma, drift, DIFF2, tg)
        assert 0.07 < float(re.search(r"at t = (\S+)$", str(err.value)).group(1)) < 0.1

    def test_non_finite_drift_is_solver_failure(self):
        blowup = DriftSpec(b1=lambda t, x: np.where(np.abs(x) < 0.1, np.inf, -x), K=1.0)
        mu = gaussian_density(self.GRID, 0.0, 0.5)
        with pytest.raises(NumericalError, match="non-finite drift"):
            frozen_semigroup(mu, None, blowup, DIFF2, TimeGrid.uniform(0.01, 2))


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs", [{"rel_dt": 0.0}, {"rel_dt": -1e-3},
                                        {"rel_dt": float("nan")}, {"rel_dt": float("inf")},
                                        {"cfl": 0.0}, {"cfl": float("nan")}, {"cfl": 1.5}])
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

    def test_gap_norms_bitwise_equal_to_per_node_tilde_norm(self, monkeypatch):
        # the blocked gap norms against the reference norm of each node
        grid = Grid1D(-6, 6, 400)
        mu = gaussian_density(grid, 0.0, 0.3)
        tg = TimeGrid.geometric(0.5, nodes_per_decade=20)      # 82 nodes: three blocks
        cd = builtin_drift("capped_density", {"kappa": 1.0})
        spec = FlowMetricSpec(lam=1.0, p=1.0, k=1.5)

        def per_node_norms(values, k, g):
            return np.array([reference_tilde_norm(row, k, g) for row in values])

        same, row_norms = [], dynamics._row_norms

        def checked(values, k, g):
            got = row_norms(values, k, g)
            same.append(same_bits(got, per_node_norms(values, k, g)))
            return got

        monkeypatch.setattr(dynamics, "_row_norms", checked)
        blocked = picard_fixed_point(mu, cd, DIFF2, tg, spec)
        assert len(same) == blocked.iterations >= 3 and all(same)
        monkeypatch.setattr(dynamics, "_row_norms", per_node_norms)
        per_node = picard_fixed_point(mu, cd, DIFF2, tg, spec)
        for got, want in ((blocked.contraction_factors, per_node.contraction_factors),
                          (blocked.lambda_used, per_node.lambda_used),
                          (blocked.final_residual, per_node.final_residual),
                          (values_matrix(blocked.flow), values_matrix(per_node.flow))):
            assert same_bits(got, want)

    def test_gaps_formed_a_block_at_a_time_hold_under_three_flows(self, monkeypatch):
        # the particle benchmark's reference solve: with the gaps stacked and
        # their absolute values taken whole, the traced peak was 4.04 flows; with
        # them formed a block of rows at a time it is the old iterate, the new
        # flow and a block.  Every outcome is the stacked form's, bit for bit
        grid = Grid1D(-6.0, 6.0, 2000)
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                              "tau": 0.6, "cap": 5.0})
        mu = gaussian_density(grid, 0.0, 0.3)
        tg = TimeGrid.geometric(0.5, nodes_per_decade=40)
        tracemalloc.start()
        try:
            lazy = picard_fixed_point(mu, cd, DIFF2, tg, self.SPEC, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * tg.nodes.size * grid.n_cells * 8
        stacks = []

        def stacked(new, old):
            stacks.append(values_matrix(new) - values_matrix(old))
            return stacks[-1]

        monkeypatch.setattr(dynamics, "_Gaps", stacked)
        ref = picard_fixed_point(mu, cd, DIFF2, tg, self.SPEC, tol=1e-6)
        assert len(lazy.contraction_factors) >= 2
        for got, want in ((lazy.contraction_factors, ref.contraction_factors),
                          (lazy.final_residual, ref.final_residual),
                          (lazy.lambda_used, ref.lambda_used),
                          (values_matrix(lazy.flow), values_matrix(ref.flow))):
            assert same_bits(got, want)
        # and the residual is the max of the stack's row sums, taken whole
        assert same_bits(lazy.final_residual,
                         float(np.max(np.sum(np.abs(stacks[-1]), axis=1) * grid.dx)))

    def test_divergent_coupling_reports_ratios(self):
        grid = Grid1D(-4, 4, 300)
        mu = gaussian_density(grid, 0.0, 0.2)
        tg = TimeGrid.uniform(0.3, 12)
        wild = builtin_drift("capped_density", {"theta": 0.0, "kappa": 30.0,
                                                "tau": 0.0, "cap": 2.0})
        with pytest.raises(NoConvergenceError) as err:
            picard_fixed_point(mu, wild, DIFF2, tg, self.SPEC, tol=1e-10, max_iter=6)
        assert len(err.value.ratios) >= 1


class TestWarmStart:
    """Picard from the self-consistent march (`warm_start`) against the
    b1-only reference start."""

    GRID = Grid1D(-6, 6, 300)
    SPEC = FlowMetricSpec(lam=1.0, p=2.0, k=4.0)

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 3.0])
    def test_same_fixed_point_in_fewer_iterations(self, kappa):
        mu = gaussian_density(self.GRID, 0.0, 0.3)
        tg = TimeGrid.geometric(0.5, nodes_per_decade=10)
        cd = builtin_drift("capped_density", {"theta": 1.0, "kappa": kappa,
                                              "tau": 0.6, "cap": 5.0})
        tol = 1e-6
        cold = picard_fixed_point(mu, cd, DIFF2, tg, self.SPEC, tol=tol)
        warm = picard_fixed_point(mu, cd, DIFF2, tg, self.SPEC, tol=tol, warm_start=True)
        gap = max(l1_distance(a.values, b.values, self.GRID)
                  for a, b in zip(cold.flow.snapshots, warm.flow.snapshots))
        assert gap < tol
        assert warm.iterations < cold.iterations
        assert warm.final_residual < tol

    def test_own_density_rule_leaves_a_density_free_drift_alone(self):
        mu = gaussian_density(self.GRID, 0.2, 0.4)
        tg = TimeGrid.uniform(0.2, 6)
        ou = builtin_drift("linear_ou", {"theta": 1.0})
        plain = frozen_semigroup(mu, None, ou, DIFF2, tg)
        # the self-consistent march of a density term that is identically 0
        cd0 = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.0})
        coupled = frozen_semigroup(mu, None, cd0, DIFF2, tg)
        assert same_bits(values_matrix(coupled), values_matrix(plain))

    @pytest.mark.parametrize("warm_start", [False, True])
    def test_narrow_grid_fails_before_marching(self, monkeypatch, warm_start):
        marches = []
        monkeypatch.setattr(dynamics, "frozen_semigroup", lambda *a, **k: marches.append(1))
        grid = Grid1D(-0.9, 0.9, 200)
        with pytest.raises(InvalidParameterError, match="smaller than the unit-ball window"):
            picard_fixed_point(gaussian_density(grid, 0.0, 0.1),
                               builtin_drift("capped_density"), DIFF2,
                               TimeGrid.uniform(0.1, 4), self.SPEC, warm_start=warm_start)
        assert marches == []


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
        prods = [tilde_norm(res.flow.snapshots[i].values, np.inf, grid) * np.sqrt(tg.nodes[i])
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
    @pytest.mark.parametrize("a0", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_non_positive_or_non_finite(self, a0):
        with pytest.raises(InvalidParameterError):
            constant_diffusion(a0)
        with pytest.raises(InvalidParameterError):
            DiffusionSpec(a=a0)
