"""Acceptance suite: every quantitative exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> [PASS|FAIL] <what>` line (visible with
pytest -s; always evaluated).  Scales and tolerances are fixed here, not
calibrated at runtime: control cases assert exact slopes / closed forms,
nonlinear cases assert calibrated bounded ratios with headroom 3.
"""

import time

import numpy as np

from denslab.cli import main
from denslab.config import parse_config
from denslab.density_core import Grid1D, TimeGrid, gaussian_density
from denslab.dynamics import (
    DriftSpec,
    SolverOptions,
    builtin_drift,
    constant_diffusion,
    frozen_semigroup,
    picard_fixed_point,
)
from denslab.experiments import (
    experiment_entropy_cost,
    experiment_khasminskii,
    experiment_renyi,
    experiment_smoothing,
    experiment_supercontinuity,
)
from denslab.metrics import FlowMetricSpec, relative_entropy, wasserstein_1d
from denslab.particles import euler_maruyama_mkv
from oracles import girsanov_log_weights_mc, path_relative_entropy_mc

GRID = Grid1D(-6.0, 6.0, 2000)
DIFF2 = constant_diffusion(2.0)
CAPPED = {"drift.name": "capped_density", "drift.theta": 1.0, "drift.kappa": 0.1,
          "drift.tau": 0.6, "drift.cap": 5.0}


def report(num, ok, what):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {what}")
    assert ok, f"criterion {num}: {what}"


def test_criterion_1_fokker_planck_heat_flow():
    t0 = time.perf_counter()
    mu = gaussian_density(GRID, 0.0, 0.02)
    flow = frozen_semigroup(mu, None, builtin_drift("linear_ou", {"theta": 0.0}),
                            DIFF2, TimeGrid.geometric(1.0, nodes_per_decade=40),
                            SolverOptions())
    runtime = time.perf_counter() - t0
    exact = gaussian_density(GRID, 0.0, np.sqrt(0.02**2 + 2.0))
    l1 = float(np.sum(np.abs(flow.snapshots[-1].values - exact.values)) * GRID.dx)
    mass_drift = abs(flow.snapshots[-1].mass() - 1.0)
    ok = l1 <= 1e-3 and mass_drift <= 1e-9 and runtime <= 10.0
    report(1, ok, f"heat flow L1={l1:.2e} (<=1e-3), mass drift={mass_drift:.1e} "
                  f"(<=1e-9), runtime={runtime:.1f}s (<=10s)")


def test_criterion_2_picard_fixed_point():
    t0 = time.perf_counter()
    mu = gaussian_density(GRID, 0.0, 0.3)
    drift = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                             "tau": 0.6, "cap": 5.0})
    tg = TimeGrid.geometric(1.0, nodes_per_decade=40)
    res = picard_fixed_point(mu, drift, DIFF2, tg, FlowMetricSpec(1.0, 2.0, 4.0),
                             tol=1e-6, max_iter=25)
    again = frozen_semigroup(mu, res.flow, drift, DIFF2, tg)
    reapply = max(float(np.sum(np.abs(a.values - b.values)) * GRID.dx)
                  for a, b in zip(again.snapshots, res.flow.snapshots))
    runtime = time.perf_counter() - t0
    ratios_ok = len(res.contraction_factors) > 0 and \
        all(r < 0.9 for r in res.contraction_factors)
    ok = res.final_residual <= 1e-6 and ratios_ok and reapply <= 2e-6 and runtime <= 60.0
    report(2, ok, f"picard iters={res.iterations} ratios={[f'{r:.3f}' for r in res.contraction_factors]} "
                  f"(<0.9), reapply={reapply:.1e} (<=2e-6), runtime={runtime:.1f}s (<=60s)")


def test_criterion_3_smoothing_rate():
    control = experiment_smoothing(parse_config(base={
        "drift.name": "zero", "init.sigma": 0.02,
        "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0,
        "experiment.slope_tol": 0.05}))
    slope_ok = abs(control.fitted_exponent + 0.5) <= 0.05
    nonlinear = experiment_smoothing(parse_config(base={
        **CAPPED, "init.sigma": 0.02,
        "experiment.t_lo": 1e-3, "experiment.t_hi": 1.0}))
    ok = control.passed and slope_ok and nonlinear.passed and \
        nonlinear.max_ratio_violation <= 3.0
    report(3, ok, f"smoothing control slope={control.fitted_exponent:.3f} (-0.50+-0.05), "
                  f"nonlinear ratio={nonlinear.max_ratio_violation:.2f} (<=3)")


def test_criterion_4_supercontinuity():
    control = experiment_supercontinuity(parse_config(base={
        "drift.name": "zero", "diffusion.a": 0.5, "init.sigma": 0.01,
        "experiment.delta": 0.02, "time.T": 0.2, "grid.x_min": -4.0,
        "grid.x_max": 4.0, "grid.cells": 4000, "experiment.t_lo": 2e-3,
        "experiment.t_hi": 0.2, "experiment.slope_tol": 0.07}))
    slope_ok = abs(control.fitted_exponent + 0.75) <= 0.07
    nonlinear = experiment_supercontinuity(parse_config(base={
        **CAPPED, "init.sigma": 0.05, "experiment.delta": 0.02,
        "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0}))
    ok = control.passed and slope_ok and nonlinear.passed and \
        nonlinear.max_ratio_violation <= 3.0
    report(4, ok, f"supercontinuity control slope={control.fitted_exponent:.3f} "
                  f"(-0.75+-0.07), nonlinear ratio={nonlinear.max_ratio_violation:.2f} (<=3)")


def test_criterion_5_entropy_cost():
    t0 = time.perf_counter()
    s, delta = 0.05, 0.1
    control = experiment_entropy_cost(parse_config(base={
        "drift.name": "zero", "init.sigma": s, "experiment.delta": delta,
        "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0,
        "experiment.slope_tol": 0.1}))
    t = np.array(control.t_values)
    m = np.array(control.measured)
    node_err = float(np.max(np.abs(m - delta**2 / (2 * (s**2 + 2 * t)))
                            / (delta**2 / (2 * (s**2 + 2 * t)))))
    nonlinear = experiment_entropy_cost(parse_config(base={
        **CAPPED, "init.sigma": s, "experiment.delta": delta,
        "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0}))
    runtime = time.perf_counter() - t0
    ok = control.passed and node_err <= 0.02 and \
        abs(control.fitted_exponent + 1.0) <= 0.1 and \
        nonlinear.passed and nonlinear.max_ratio_violation <= 3.0 and runtime <= 300.0
    report(5, ok, f"entropy-cost node err={node_err*100:.2f}% (<=2%), "
                  f"slope={control.fitted_exponent:.3f} (-1.0+-0.1), nonlinear "
                  f"ratio={nonlinear.max_ratio_violation:.2f} (<=3), runtime={runtime:.0f}s")


def test_criterion_6_renyi_suite():
    results = []
    for base in ({"drift.name": "zero"}, CAPPED):
        rep = experiment_renyi(parse_config(base={
            **base, "init.sigma": 0.05, "experiment.delta": 0.1,
            "experiment.t_lo": 1e-2, "experiment.t_hi": 1.0}))
        results.append(rep)
    ok = all(r.monotone_ok and r.limit_gap_max <= 1e-3 and r.dominance_ok and r.passed
             for r in results)
    report(6, ok, f"renyi monotone+limit+dominance on control and nonlinear runs "
                  f"(limit gaps {[f'{r.limit_gap_max:.1e}' for r in results]}, "
                  f"c_cal {[f'{r.c_calibrated:.2f}' for r in results]})")


def test_criterion_7_khasminskii():
    t0 = time.perf_counter()
    # 2.0 and 2.5 lie past the crossover 1 / ||f|| = 1.68: the large-lambda fit's two points
    const = experiment_khasminskii(parse_config(base={
        "drift.name": "zero", "diffusion.a": 1.0, "particles.n": 100_000,
        "khasminskii.f_name": "constant", "khasminskii.c0": 0.5,
        "khasminskii.lambda_grid": (0.2, 0.5, 1.0, 1.5, 2.0, 2.5)}))
    singular = experiment_khasminskii(parse_config(base={
        "drift.name": "zero", "diffusion.a": 1.0, "particles.n": 100_000,
        "khasminskii.f_name": "singular_power", "khasminskii.gamma": 0.3}))
    runtime = time.perf_counter() - t0
    ok = const.constant_exact_ok and const.convex_ok and \
        abs(singular.small_lambda_exponent - 2.0) <= 0.2 and \
        singular.large_lambda_exponent <= 4.0 + 0.3 and \
        singular.convex_ok and singular.bounds_hold and runtime <= 300.0
    report(7, ok, f"khasminskii exact const, small-lambda exp="
                  f"{singular.small_lambda_exponent:.2f} (2.0+-0.2), large exp="
                  f"{singular.large_lambda_exponent:.2f} (<=4.3), convex, "
                  f"runtime={runtime:.0f}s (<=300s)")


def test_criterion_8_particle_pde_consistency():
    drift = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                             "tau": 0.6, "cap": 5.0})
    mu = gaussian_density(GRID, 0.0, 0.3)
    tg = TimeGrid.geometric(0.5, nodes_per_decade=40)
    res = picard_fixed_point(mu, drift, DIFF2, tg, FlowMetricSpec(1.0, 2.0, 4.0),
                             tol=1e-6)
    _, kde_flow = euler_maruyama_mkv(mu, drift, DIFF2, 100_000, 1e-3, 0.5, GRID,
                                     seed=2024, record_grid=TimeGrid.uniform(0.5, 5))
    w1 = wasserstein_1d(kde_flow.snapshots[-1], res.flow.snapshots[-1], 1.0)
    ok = w1 <= 0.05
    report(8, ok, f"particle/PDE consistency W1={w1:.4f} (<=0.05) at t=0.5, N=1e5")


def test_criterion_9_girsanov_suite():
    diff1 = constant_diffusion(1.0)
    zero = builtin_drift("linear_ou", {"theta": 0.0})
    v = 0.5
    shift = DriftSpec(b1=lambda t, x: np.full_like(x, v), K=0.0)
    n = 100_000
    lw = girsanov_log_weights_mc(zero, shift, diff1, ("gaussian", 0.0, 1.0),
                                 1.0, n, 1e-3, GRID, seed=11)
    r = np.exp(lw)
    se_r = float(np.std(r) / np.sqrt(n))
    martingale_ok = abs(float(np.mean(r)) - 1.0) <= 3 * se_r

    est, se = path_relative_entropy_mc(shift, zero, diff1, ("gaussian", 0.0, 1.0),
                                       1.0, 20_000, 1e-3, GRID, seed=6)
    closed_ok = abs(est - 0.5 * v**2) <= 3 * se + 1e-12

    drift_a = builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                               "tau": 0.6, "cap": 5.0})
    drift_b = builtin_drift("linear_ou", {"theta": 1.0})
    mu = gaussian_density(GRID, 0.0, 0.3)
    tg = TimeGrid.geometric(0.4, nodes_per_decade=30)
    flow_a = picard_fixed_point(mu, drift_a, DIFF2, tg, FlowMetricSpec(1.0, 2.0, 4.0),
                                tol=1e-6).flow
    flow_b = frozen_semigroup(mu, None, drift_b, DIFF2, tg)
    path_est, path_se = path_relative_entropy_mc(drift_a, drift_b, DIFF2, mu, 0.4,
                                                 20_000, 1e-3, GRID, seed=9,
                                                 flow_a=flow_a, flow_b=flow_b)
    marginal = relative_entropy(flow_a.snapshots[-1], flow_b.snapshots[-1])
    dpi_ok = marginal <= path_est + 3 * path_se + 1e-9
    ok = martingale_ok and closed_ok and dpi_ok
    report(9, ok, f"girsanov E[R]={np.mean(r):.4f}+-{se_r:.4f} (=1), path entropy "
                  f"{est:.5f} (exp {0.5*v**2:.5f}), data processing "
                  f"{marginal:.2e} <= {path_est:.2e}+3se")


def test_criterion_10_determinism(tmp_path):
    args = ["experiment", "smoothing",
            "--set", "drift.name=zero", "--set", "init.sigma=0.05",
            "--set", "grid.cells=500", "--set", "time.nodes_per_decade=20",
            "--set", "experiment.t_lo=0.05", "--set", "experiment.t_hi=1.0",
            "--set", "experiment.n_t=8", "--seed", "4242"]
    blobs = []
    for i, threads in enumerate((1, 8)):
        out = tmp_path / f"d{i}"
        rc = main(args + ["--threads", str(threads), "--out", str(out)])
        assert rc == 0
        blobs.append((out / "report.json").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(10, ok, f"identical (config, seed) across thread counts: "
                   f"byte-identical report.json ({len(blobs[0])} bytes)")
