"""Tests of the benchmark's own machinery, on inputs small enough to run in seconds.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import hashlib
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from denslab import cli, density_core, dynamics, experiments, metrics, particles  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = ["--set", "grid.cells=200", "--set", "time.T=0.05", "--set", "time.nodes_per_decade=10"]


def _picard(out_dir):
    rc = cli.main(["picard", "--out", str(out_dir)] + SMALL)
    digest, _ = workloads._digest_outputs(str(out_dir))
    return rc, digest


def _particles():
    grid = density_core.Grid1D(-6.0, 6.0, 200)
    drift = dynamics.builtin_drift("capped_density", {"theta": 1.0, "kappa": 0.1,
                                                      "tau": 0.6, "cap": 5.0})
    ens, _ = particles.euler_maruyama_mkv(density_core.gaussian_density(grid, 0.0, 0.3), drift,
                                          dynamics.constant_diffusion(2.0), 2000, 1e-3, 0.02,
                                          grid, 7, record_grid=density_core.TimeGrid.uniform(0.02, 2))
    return hashlib.sha256(ens.positions.tobytes()).hexdigest()


def test_install_rebinds_every_lookup_and_uninstall_restores():
    originals = (cli.save_flow, particles.kde, experiments.picard_fixed_point,
                 metrics.density_quantiles, cli.EXPERIMENTS["renyi"],
                 density_core.DensityFlow.values_at, particles.SpaceTimeField.evaluate)
    tr = tracer.Tracer()
    tr.install()
    try:
        patched = (cli.save_flow, particles.kde, experiments.picard_fixed_point,
                   metrics.density_quantiles, cli.EXPERIMENTS["renyi"],
                   density_core.DensityFlow.values_at, particles.SpaceTimeField.evaluate)
        for new, old in zip(patched, originals):
            assert new.__wrapped__ is old
        assert particles.kde is density_core.kde
    finally:
        tr.uninstall()
    restored = (cli.save_flow, particles.kde, experiments.picard_fixed_point,
                metrics.density_quantiles, cli.EXPERIMENTS["renyi"],
                density_core.DensityFlow.values_at, particles.SpaceTimeField.evaluate)
    assert all(a is b for a, b in zip(restored, originals))


def test_install_fails_on_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("dynamics", "no_such", "x"),))
    tr = tracer.Tracer()
    with pytest.raises(AttributeError):
        tr.install()
    tr.uninstall()
    assert not hasattr(dynamics.drift_field, "__wrapped__")


def test_tracing_leaves_picard_cli_outputs_unchanged(tmp_path):
    rc, plain = _picard(tmp_path / "plain")
    tr = tracer.Tracer()
    tr.op = 0
    tr.install()
    try:
        rc_traced, traced = _picard(tmp_path / "traced")
    finally:
        tr.uninstall()
    assert rc == rc_traced == 0
    assert traced == plain
    m = tracer.layer_metrics(tr, 0)
    n_nodes = len(os.listdir(tmp_path / "plain" / "flow")) - 1   # minus timegrid.csv
    assert m["dynamics.picard_fixed_point.calls"] == 1
    assert m["dynamics.frozen_semigroup.calls"] == m["dynamics.picard.iterations"] + 1
    assert m["dynamics.substeps"] >= n_nodes - 1
    assert m["density_core.save_flow.files"] == n_nodes + 1
    assert m["density_core.kde.calls"] == 0 and m["particles.steps"] == 0


def test_tracing_leaves_particle_positions_unchanged():
    plain = _particles()
    tr = tracer.Tracer()
    tr.op = 0
    tr.install()
    try:
        traced = _particles()
    finally:
        tr.uninstall()
    assert traced == plain
    m = tracer.layer_metrics(tr, 0)
    assert m["particles.steps"] == 20
    assert m["dynamics.drift_at_positions.calls"] == 20
    assert m["density_core.kde.calls"] == 20 + 3    # one per step plus one per record node
    assert m["density_core.density_quantiles.distinct_frac"] == 1.0


def test_self_time_subtracts_wrapped_children():
    tr = tracer.Tracer()
    # cli.main [0, 10] > picard [1, 9] > frozen [2, 6] > drift_field [3, 4]
    tr.spans[:] = [["cli.main", -1, 0, 0.0, 10.0],
                   ["dynamics.picard_fixed_point", 0, 0, 1.0, 9.0],
                   ["dynamics.frozen_semigroup", 1, 0, 2.0, 6.0],
                   ["dynamics.drift_field", 2, 0, 3.0, 4.0],
                   ["dynamics.drift_field", -1, 1, 0.0, 5.0]]      # another operation
    m = tracer.layer_metrics(tr, 0)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["dynamics.picard_fixed_point.self_s"] == pytest.approx(4.0)
    assert m["dynamics.frozen_semigroup.self_s"] == pytest.approx(3.0)
    assert m["dynamics.drift_field.total_s"] == pytest.approx(1.0)
    assert m["dynamics.substeps"] == 1
    assert m["dynamics.substep_us"] == pytest.approx(3e6)


def test_w1_on_grid_matches_denslab():
    grid = density_core.Grid1D(-6.0, 6.0, 2000)
    a = density_core.gaussian_density(grid, 0.0, 0.3)
    b = density_core.gaussian_density(grid, 0.05, 0.35)
    ours = workloads.w1_on_grid(a.values, b.values, grid.dx)
    assert ours == pytest.approx(metrics.wasserstein_1d(a, b, 1.0), abs=1e-4)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "picard_cli",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
