"""Experiment harness: fits, reports, and the control-case assertions at
reduced desk scale (full-scale runs live in the acceptance suite)."""

import numpy as np
import pytest

from denslab import dynamics, experiments, metrics
from denslab.config import parse_config
from denslab.density_core import Grid1D, gaussian_density, uniform_density
from denslab.errors import InvalidParameterError, NumericalError
from denslab.experiments import (
    _paired_flows,
    _smallest_expw_constant,
    experiment_entropy_cost,
    experiment_khasminskii,
    experiment_renyi,
    experiment_smoothing,
    experiment_supercontinuity,
    fit_loglog,
)
from denslab.metrics import _quantile_gap, wasserstein_1d
from oracles import smallest_expw_constant


def _forbid_solves(monkeypatch, marches):
    """Record a call of `frozen_semigroup` in `marches` instead of solving: it is
    looked up in `dynamics` (by Picard) and in `experiments`, which imports it."""
    for module in (dynamics, experiments):
        monkeypatch.setattr(module, "frozen_semigroup", lambda *a, **k: marches.append(1))


def _r_squared(xs, ys, fit) -> float:
    """Coefficient of determination of `fit` on (log x, log y)."""
    lx, ly = np.log(xs), np.log(ys)
    ss_res = np.sum((ly - (fit.slope * lx + fit.intercept)) ** 2)
    return float(1.0 - ss_res / np.sum((ly - np.mean(ly)) ** 2))


class TestFitLoglog:
    def test_identity(self):
        xs = np.linspace(1.0, 10.0, 8)
        fit = fit_loglog(xs, xs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert _r_squared(xs, xs, fit) == pytest.approx(1.0, abs=1e-12)

    def test_exact_power_law(self):
        xs = np.geomspace(0.01, 10.0, 9)
        ys = 3.0 * xs**-0.5
        fit = fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)

    def test_noisy_power_law_within_ci(self):
        rng = np.random.default_rng(77)
        xs = np.geomspace(0.01, 1.0, 40)
        ys = 2.0 * xs**-0.75 * np.exp(rng.normal(0, 0.05, 40))
        fit = fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(-0.75, abs=0.05)
        assert _r_squared(xs, ys, fit) > 0.98

    def test_guards(self):
        with pytest.raises(NumericalError, match="needs >= 5 paired points"):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(NumericalError, match="needs strictly positive data"):
            fit_loglog([1, 2, 3, 4, -5], [1, 2, 3, 4, 5])


def small_cfg(**overrides):
    base = {
        "grid.cells": 1000,
        "time.nodes_per_decade": 30,
        "experiment.n_t": 15,
        "picard.tol": 1e-5,
    }
    base.update(overrides)
    return parse_config(base=base)


class TestSmoothing:
    def test_heat_control_slope(self):
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": 0.02,
                           "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0,
                           "experiment.slope_tol": 0.05})
        rep = experiment_smoothing(cfg)
        assert rep.passed
        assert rep.fitted_exponent == pytest.approx(-0.5, abs=0.05)
        assert rep.theoretical_exponent == -0.5

    def test_insufficient_span(self):
        cfg = small_cfg(**{"drift.name": "zero", "experiment.t_lo": 0.5,
                           "experiment.t_hi": 1.0, "experiment.slope_tol": 0.05})
        with pytest.raises(InvalidParameterError, match="slope fit needs >= 2.0 decades"):
            experiment_smoothing(cfg)

    def test_bounded_only_short_span_allowed(self):
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": 0.05,
                           "experiment.t_lo": 0.05, "experiment.t_hi": 1.0,
                           "experiment.slope_tol": 0.0})
        rep = experiment_smoothing(cfg)
        assert rep.passed and rep.max_ratio_violation <= 3.0


@pytest.mark.parametrize("drift_name", ["zero", "capped_density"])
@pytest.mark.parametrize("experiment", [experiment_smoothing, experiment_supercontinuity],
                         ids=["smoothing", "supercontinuity"])
def test_narrow_grid_fails_before_solving(monkeypatch, experiment, drift_name):
    # every solve, frozen or Picard, goes through frozen_semigroup
    marches = []
    _forbid_solves(monkeypatch, marches)
    cfg = small_cfg(**{"drift.name": drift_name, "grid.x_min": -0.9, "grid.x_max": 0.9,
                       "grid.cells": 200, "init.sigma": 0.05})
    with pytest.raises(InvalidParameterError, match="smaller than the unit-ball window"):
        experiment(cfg)
    assert marches == []


@pytest.mark.parametrize("experiment", [experiment_smoothing, experiment_supercontinuity,
                                        experiment_entropy_cost],
                         ids=["smoothing", "supercontinuity", "entropy-cost"])
def test_short_span_fails_before_solving(monkeypatch, experiment):
    marches = []
    _forbid_solves(monkeypatch, marches)
    cfg = small_cfg(**{"drift.name": "zero", "experiment.slope_tol": 0.05,
                       "experiment.t_lo": 0.05, "experiment.t_hi": 0.2, "time.T": 0.2})
    with pytest.raises(InvalidParameterError, match="slope fit needs >= 2.0 decades"):
        experiment(cfg)
    assert marches == []


@pytest.mark.parametrize("experiment", [experiment_smoothing, experiment_supercontinuity,
                                        experiment_entropy_cost],
                         ids=["smoothing", "supercontinuity", "entropy-cost"])
def test_negative_slope_tol_fails_before_solving(monkeypatch, experiment):
    # 0 is the documented "no slope assertion"; below 0 is a config error
    marches = []
    _forbid_solves(monkeypatch, marches)
    cfg = small_cfg(**{"drift.name": "zero", "experiment.slope_tol": -1.0,
                       "experiment.t_lo": 2e-3, "experiment.t_hi": 0.2, "time.T": 0.2})
    with pytest.raises(InvalidParameterError, match="experiment.slope_tol"):
        experiment(cfg)
    assert marches == []


@pytest.mark.parametrize("experiment", [experiment_smoothing, experiment_supercontinuity,
                                        experiment_entropy_cost],
                         ids=["smoothing", "supercontinuity", "entropy-cost"])
def test_too_few_nodes_fail_before_solving(monkeypatch, experiment):
    # the log-log fit needs 5 nodes, so the node count is checked before solving
    marches = []
    _forbid_solves(monkeypatch, marches)
    cfg = small_cfg(**{"drift.name": "zero", "experiment.n_t": 4})
    with pytest.raises(InvalidParameterError, match="needs >= 5 measurement nodes, got 4"):
        experiment(cfg)
    assert marches == []


def test_empty_alphas_fail_before_solving(monkeypatch):
    # no alpha would make every Renyi check pass vacuously
    marches = []
    _forbid_solves(monkeypatch, marches)
    cfg = small_cfg(**{"drift.name": "zero", "experiment.alphas": ()})
    with pytest.raises(InvalidParameterError, match="experiment.alphas"):
        experiment_renyi(cfg)
    assert marches == []


class TestPairedFlows:
    def test_nu_is_the_configured_law_shifted(self):
        # a uniform initial law is translated by experiment.delta, not
        # replaced by a Gaussian
        cfg = parse_config(base={"drift.name": "zero", "grid.cells": 400,
                                 "init.kind": "uniform", "experiment.delta": 0.1,
                                 "time.T": 0.01, "time.refine": "uniform",
                                 "time.uniform_nodes": 4, "experiment.t_lo": 1e-3,
                                 "experiment.t_hi": 0.01})
        mu, nu, *_ = _paired_flows(cfg)
        assert wasserstein_1d(mu, nu, 1.0) == pytest.approx(0.1, abs=mu.grid.dx)
        assert np.array_equal(nu.values, uniform_density(mu.grid, 0.1, 1.1).values)


class TestSupercontinuity:
    def test_degenerate_pair(self):
        cfg = small_cfg(**{"drift.name": "zero", "experiment.delta": 0.0,
                           "init.sigma": 0.05, "experiment.t_lo": 1e-2,
                           "experiment.t_hi": 1.0})
        rep = experiment_supercontinuity(cfg)
        assert rep.degenerate and rep.passed

    def test_heat_control_slope(self):
        cfg = small_cfg(**{"drift.name": "zero", "diffusion.a": 0.5,
                           "init.sigma": 0.01, "experiment.delta": 0.02,
                           "time.T": 0.2, "grid.x_min": -4.0, "grid.x_max": 4.0,
                           "grid.cells": 2000, "experiment.t_lo": 2e-3,
                           "experiment.t_hi": 0.2, "experiment.slope_tol": 0.07})
        rep = experiment_supercontinuity(cfg)
        assert rep.passed
        assert rep.fitted_exponent == pytest.approx(-0.75, abs=0.07)


class TestEntropyCost:
    def test_heat_control_matches_closed_form(self):
        s, delta = 0.05, 0.1
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": s,
                           "experiment.delta": delta, "experiment.t_lo": 1e-2,
                           "experiment.t_hi": 1.0, "experiment.slope_tol": 0.1,
                           "grid.cells": 2000})
        rep = experiment_entropy_cost(cfg)
        assert rep.passed
        t = np.array(rep.t_values)
        m = np.array(rep.measured)
        exact = delta**2 / (2.0 * (s**2 + 2.0 * t))
        assert np.max(np.abs(m - exact) / exact) <= 0.02
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.1)
        assert not rep.flags

    def test_disjoint_nodes_are_flagged_not_measured(self):
        # delta = 1 against sigma = 0.05: the flows stay numerically disjoint
        # for the first few nodes, whose entropies are infinite
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": 0.05, "experiment.delta": 1.0,
                           "grid.cells": 400, "time.nodes_per_decade": 8, "experiment.n_t": 12,
                           "experiment.t_lo": 1e-3, "experiment.t_hi": 1.0})
        rep = experiment_entropy_cost(cfg)
        assert rep.flags[0] == "resolution-failure@t=0.001"
        assert all(f.startswith("resolution-failure@t=") for f in rep.flags)
        assert len(rep.t_values) >= 5 and np.all(np.isfinite(rep.measured))


class TestRenyi:
    def test_control_structure(self):
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": 0.05,
                           "experiment.delta": 0.1, "experiment.t_lo": 1e-2,
                           "experiment.t_hi": 1.0, "grid.cells": 2000})
        rep = experiment_renyi(cfg)
        assert rep.monotone_ok and rep.limit_ok and rep.dominance_ok and rep.passed
        assert rep.limit_gap_max <= 1e-3
        ent = np.array(rep.ent_alpha)
        assert np.all(np.diff(ent, axis=1) >= -1e-10)

    def test_degenerate_pair_trivial(self):
        cfg = small_cfg(**{"drift.name": "zero", "experiment.delta": 0.0,
                           "init.sigma": 0.05, "experiment.t_lo": 1e-2,
                           "experiment.t_hi": 1.0})
        rep = experiment_renyi(cfg)
        assert rep.passed
        assert max(max(row) for row in rep.ent_alpha) <= 1e-8

    def test_wide_initial_law_fails_dominance(self):
        # sigma = 1 against a * t: t / (sigma^2 + a t) grows fourfold from the
        # calibration node t = 0.1 to the held-out node t = 1
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": 1.0, "experiment.delta": 0.1,
                           "grid.cells": 400, "time.nodes_per_decade": 8, "experiment.n_t": 2,
                           "experiment.t_lo": 0.1, "experiment.t_hi": 1.0})
        rep = experiment_renyi(cfg)
        assert rep.monotone_ok and rep.limit_ok and not rep.dropped_t
        assert not rep.dominance_ok and not rep.passed

    def test_expw_overflow_drops_the_node(self):
        # the constant calibrated at t = 1 is scaled by 1 / (2 t) at the
        # held-out node t = 1e-3, where exp(c |gap|^2) overflows
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": 0.3, "experiment.delta": 1.0,
                           "grid.cells": 400, "time.nodes_per_decade": 8, "experiment.n_t": 3,
                           "time.t_min": 1e-7, "experiment.t_lo": 1e-6,
                           "experiment.t_hi": 1.0})
        rep = experiment_renyi(cfg)
        assert rep.dropped_t == pytest.approx((1e-3,))
        assert rep.flags == ("expw-overflow@t=0.001",)

    def test_calibration_on_the_shared_gap_matches_exp_wasserstein(self):
        grid = Grid1D(-6.0, 6.0, 500)
        mu = gaussian_density(grid, 0.0, 0.3)
        nu = gaussian_density(grid, 0.25, 0.4)
        gap2 = _quantile_gap(mu, nu) ** 2
        for target in (0.0, 1e-13, 1e-6, 0.01, 0.3, 2.0):
            assert _smallest_expw_constant(gap2, target) == smallest_expw_constant(mu, nu, target)

    def test_quantiles_computed_once_per_pair(self, monkeypatch):
        calls = []
        quantiles = metrics.density_quantiles

        def counted(*args, **kwargs):
            calls.append(1)
            return quantiles(*args, **kwargs)

        monkeypatch.setattr(metrics, "density_quantiles", counted)
        cfg = small_cfg(**{"drift.name": "zero", "init.sigma": 0.05, "grid.cells": 400,
                           "time.nodes_per_decade": 10, "experiment.n_t": 5,
                           "experiment.delta": 0.1, "experiment.t_lo": 1e-2,
                           "experiment.t_hi": 1.0})
        rep = experiment_renyi(cfg)
        assert rep.c_calibrated > 0
        assert len(calls) <= 4


class TestKhasminskiiExperiment:
    def test_constant_field(self):
        cfg = small_cfg(**{"drift.name": "zero", "diffusion.a": 1.0,
                           "khasminskii.f_name": "constant", "khasminskii.c0": 0.5,
                           "particles.n": 5000})
        rep = experiment_khasminskii(cfg)
        assert rep.constant_exact_ok and rep.convex_ok and rep.bounds_hold
        assert rep.passed

    def test_singular_field_exponents(self):
        cfg = small_cfg(**{"drift.name": "zero", "diffusion.a": 1.0,
                           "khasminskii.f_name": "singular_power",
                           "khasminskii.gamma": 0.3, "particles.n": 20000})
        rep = experiment_khasminskii(cfg)
        assert abs(rep.small_lambda_exponent - 2.0) <= 0.2
        assert rep.large_lambda_exponent <= 4.0 + 0.3
        assert rep.convex_ok and rep.passed
