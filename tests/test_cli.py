"""Config ingestion, subcommand dispatch, exit statuses, artifact determinism."""

import dataclasses
import json
import os

import pytest

from denslab import Grid1D, KhasminskiiReport, gaussian_density, load_flow, save_density
from denslab.cli import main
from denslab.config import parse_config
from denslab.errors import ConfigError


class TestParseConfig:
    def test_defaults_resolved(self):
        cfg = parse_config()
        assert cfg["drift.name"] == "capped_density"
        assert cfg["grid.cells"] == 2000
        assert cfg["time.T"] == 1.0

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides=["drift.kapa=0.2"])
        assert "drift.kapa" in str(err.value)

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides=["grid.cells=many"])
        assert "grid.cells" in str(err.value) and "int" in str(err.value)

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ntime.T = 1.5\ndrift.kappa = 0.3\n")
        cfg = parse_config(str(path), overrides=["time.T=2.0"])
        assert cfg["time.T"] == 2.0
        assert cfg["drift.kappa"] == 0.3

    def test_unknown_key_in_file_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("drift.name = linear_ou\nnonsense.key = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert "nonsense.key" in str(err.value) and ":2" in str(err.value)

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            parse_config(overrides=["schema.version=99"])

    def test_nan_rejected_inf_kept(self):
        for ov in ("solver.rel_dt=nan", "experiment.alphas=0.5,nan"):
            with pytest.raises(ConfigError) as err:
                parse_config(overrides=[ov])
            assert ov.split("=")[0] in str(err.value)
        assert parse_config(overrides=["experiment.k=inf"])["experiment.k"] == float("inf")

    def test_float_list(self):
        cfg = parse_config(overrides=["experiment.alphas=0.1, 0.5,2"])
        assert cfg["experiment.alphas"] == (0.1, 0.5, 2.0)

    def test_resolved_text_roundtrip(self, tmp_path):
        cfg = parse_config(overrides=["time.T=1.25"])
        path = tmp_path / "resolved"
        path.write_text(cfg.resolved_text())
        cfg2 = parse_config(str(path))
        assert cfg2.data == cfg.data


class TestExitCodes:
    def test_invalid_grid_is_config_error(self, tmp_path):
        rc = main(["experiment", "smoothing", "--set", "grid.cells=4",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        rc = main(["experiment", "smoothing", "--set", "drift.kapa=1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_picard_divergence_is_numeric_error(self, tmp_path):
        rc = main(["picard", "--drift", "capped_density",
                   "--set", "drift.kappa=30", "--set", "drift.tau=0.0",
                   "--set", "drift.theta=0.0", "--set", "drift.cap=2.0",
                   "--set", "grid.cells=300", "--set", "grid.x_min=-4",
                   "--set", "grid.x_max=4", "--set", "time.T=0.3",
                   "--set", "time.refine=uniform", "--set", "time.uniform_nodes=12",
                   "--set", "picard.max_iter=6", "--set", "init.sigma=0.2",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["picard", "--set", "drift.cap=-1"],
        ["solve", "--drift", "singular_well", "--set", "drift.gamma=0.3"],
        ["solve", "--drift", "linear_ou", "--set", "solver.cfl=0"],
        ["solve", "--drift", "linear_ou", "--set", "time.nodes_per_decade=0"],
        ["solve", "--drift", "linear_ou", "--set", "solver.rel_dt=nan"],
        ["solve", "--drift", "linear_ou", "--set", "solver.dt_max=-1"],
        ["solve", "--drift", "linear_ou", "--threads", "-3"],
        ["experiment", "smoothing"],   # experiment.t_hi = 1.0 beyond time.T = 0.01
    ], ids=["negative-cap", "singular-well-gamma", "zero-cfl", "zero-nodes-per-decade",
            "nan-rel-dt", "negative-dt-max", "negative-threads", "t-hi-beyond-T"])
    def test_invalid_value_is_config_error(self, tmp_path, argv):
        rc = main(argv + ["--set", "grid.cells=100", "--set", "time.T=0.01",
                          "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_solve_rejects_density_dependent_drift(self, tmp_path):
        rc = main(["solve", "--drift", "capped_density", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_failed_assertion_is_exit_one(self, tmp_path):
        # completes numerically but the (absurdly tight) slope assertion fails
        rc = main(["experiment", "smoothing",
                   "--set", "drift.name=zero", "--set", "grid.cells=500",
                   "--set", "time.nodes_per_decade=20",
                   "--set", "experiment.t_lo=0.01", "--set", "experiment.t_hi=1.0",
                   "--set", "experiment.n_t=10",
                   "--set", "experiment.slope_tol=0.0005",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_single_point_grid_is_insufficient_span(self, tmp_path):
        rc = main(["experiment", "smoothing",
                   "--set", "drift.name=zero", "--set", "grid.cells=500",
                   "--set", "time.nodes_per_decade=20",
                   "--set", "experiment.t_lo=0.4", "--set", "experiment.t_hi=0.41",
                   "--set", "experiment.n_t=1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3


class TestArtifacts:
    def test_solve_writes_flow_and_config(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["solve", "--drift", "linear_ou", "--T", "0.2",
                   "--cells", "400", "--set", "init.sigma=0.4",
                   "--set", "time.refine=uniform", "--set", "time.uniform_nodes=10",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "resolved_config").exists()
        assert (out / "report.json").exists()
        flow = load_flow(str(out / "flow"))
        assert len(flow.time_grid.nodes) == 11
        assert abs(flow.snapshots[-1].mass() - 1.0) <= 1e-9

    def test_metrics_prints_number(self, tmp_path, capsys):
        g = Grid1D(-6.0, 6.0, 500)
        a_path, b_path = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_density(gaussian_density(g, 0.0, 1.0), a_path)
        save_density(gaussian_density(g, 0.5, 1.0), b_path)
        rc = main(["metrics", "--a", a_path, "--b", b_path, "--metric", "w2"])
        assert rc == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(0.5, abs=1e-3)
        rc = main(["metrics", "--a", a_path, "--b", b_path, "--metric", "renyi:0.5"])
        assert rc == 0
        float(capsys.readouterr().out.strip())

    def test_metrics_bad_arguments(self, tmp_path):
        g = Grid1D(-6.0, 6.0, 500)
        a_path = str(tmp_path / "a.csv")
        save_density(gaussian_density(g, 0.0, 1.0), a_path)
        assert main(["metrics", "--a", a_path, "--b", a_path, "--metric", "wq"]) == 2
        assert main(["metrics", "--a", a_path, "--b", a_path, "--metric", "wq:x"]) == 2
        assert main(["metrics", "--a", str(tmp_path / "missing.csv"), "--b", a_path,
                     "--metric", "w1"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--a", a_path, "--b", a_path, "--metric", "w1",
                  "--set", "nonsense.key=1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("metric", ["tilde:2", "tilde:1", "w1"])
    def test_metrics_grid_mismatch_is_numeric_error(self, tmp_path, metric):
        a_path = str(tmp_path / "a.csv")
        save_density(gaussian_density(Grid1D(-6.0, 6.0, 500), 0.0, 1.0), a_path)
        for i, grid in enumerate((Grid1D(-6.0, 6.0, 400), Grid1D(-5.0, 7.0, 500))):
            b_path = str(tmp_path / f"b{i}.csv")
            save_density(gaussian_density(grid, 0.0, 1.0), b_path)
            assert main(["metrics", "--a", a_path, "--b", b_path, "--metric", metric]) == 3

    def test_particles_writes_ensemble(self, tmp_path):
        out = tmp_path / "p"
        rc = main(["particles", "--drift", "linear_ou", "--N", "2000",
                   "--dt", "0.001", "--T", "0.05", "--set", "init.sigma=0.4",
                   "--set", "time.refine=uniform", "--set", "time.uniform_nodes=5",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = (out / "ensemble_final.csv").read_text().strip().split("\n")
        assert lines[0] == "position"
        assert len(lines) == 2001

    def test_experiment_entropy_cost_end_to_end(self, tmp_path):
        out = tmp_path / "ec"
        rc = main(["experiment", "entropy-cost",
                   "--set", "drift.name=zero", "--set", "grid.cells=1000",
                   "--set", "time.nodes_per_decade=30", "--set", "experiment.n_t=12",
                   "--set", "experiment.slope_tol=0.1", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["pass"] is True
        assert rep["quantity"] == "relative_entropy"
        curve = (out / "curve.csv").read_text().strip().split("\n")
        assert curve[0] == "t,measured,bound"
        assert len(curve) == len(rep["t_values"]) + 1
        t0, m0, b0 = (float(v) for v in curve[1].split(","))
        assert t0 == rep["t_values"][0] and m0 == rep["measured"][0] and b0 > 0

    def test_khasminskii_report_fields(self, tmp_path):
        out = tmp_path / "k"
        rc = main(["khasminskii", "--f", "constant", "--N", "2000",
                   "--lambda-grid", "0.2,0.5,1.0", "--seed", "3",
                   "--set", "khasminskii.dt=0.002", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        for key in ("lambda_values", "mc_estimates", "mc_stderr", "bound_quadratic",
                    "bound_superlinear", "regime_split"):
            assert key in rep

    def test_experiment_khasminskii_report_extends_khasminskii_report(self, tmp_path):
        out = tmp_path / "k"
        rc = main(["experiment", "khasminskii", "--set", "particles.n=2000",
                   "--set", "khasminskii.t=0.1", "--set", "khasminskii.lambda_grid=0.2,0.5,1.0",
                   "--set", "grid.cells=400", "--seed", "3", "--out", str(out)])
        assert rc in (0, 1)
        rep = json.loads((out / "report.json").read_text())
        verdicts = {"small_lambda_exponent", "large_lambda_exponent", "convex_ok",
                    "constant_exact_ok", "pass"}
        assert set(rep) == {f.name for f in dataclasses.fields(KhasminskiiReport)} | verdicts


SMALL_EXPERIMENT = ["experiment", "smoothing",
                    "--set", "drift.name=zero", "--set", "init.sigma=0.05",
                    "--set", "grid.cells=500", "--set", "time.nodes_per_decade=20",
                    "--set", "experiment.t_lo=0.05", "--set", "experiment.t_hi=1.0",
                    "--set", "experiment.n_t=8", "--seed", "77"]


class TestDeterminism:
    def test_reports_byte_identical_across_runs_and_threads(self, tmp_path):
        outs = []
        for i, threads in enumerate((1, 4)):
            out = tmp_path / f"r{i}"
            rc = main(SMALL_EXPERIMENT + ["--threads", str(threads), "--out", str(out)])
            assert rc == 0
            outs.append((out / "report.json").read_bytes())
            assert (out / "curve.csv").exists()
            assert (out / "run_meta.json").exists()
        assert outs[0] == outs[1]

    def test_report_json_has_verbatim_fields(self, tmp_path):
        out = tmp_path / "r"
        rc = main(SMALL_EXPERIMENT + ["--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        expected = {"quantity", "t_values", "measured", "theoretical_exponent",
                    "fitted_exponent", "fitted_constant", "max_ratio_violation",
                    "pass", "degenerate", "flags"}
        assert expected <= set(rep)
        assert "runtime_seconds" not in rep
        meta = json.loads((out / "run_meta.json").read_text())
        assert "runtime_seconds" in meta
