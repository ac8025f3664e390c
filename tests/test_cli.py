"""Config ingestion, subcommand dispatch, exit statuses, artifact determinism."""

import dataclasses
import inspect
import json
import os
import warnings

import numpy as np
import pytest

from denslab import particles
from denslab.cli import EXPERIMENT_DEFAULTS, main
from denslab.config import SCHEMA, parse_config
from denslab.density_core import Grid1D, GridDensity, TimeGrid, gaussian_density
from denslab.dynamics import DRIFT_PARAMS, SolverOptions, builtin_drift, picard_fixed_point
from denslab.errors import (
    DenslabError,
    InvalidParameterError,
    NoConvergenceError,
    NumericalError,
    NumericOverflowError,
)
from denslab.particles import (
    FIELD_PARAMS,
    KhasminskiiReport,
    builtin_field,
    euler_maruyama_mkv,
    khasminskii_mc,
)
from oracles import load_flow, save_density


class TestParseConfig:
    def test_defaults_resolved(self):
        cfg = parse_config()
        assert cfg["drift.name"] == "capped_density"
        assert cfg["grid.cells"] == 2000
        assert cfg["time.T"] == 1.0

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_DEFAULTS))
    def test_experiment_defaults_change_the_schema_defaults(self, name):
        # an entry that restates its SCHEMA default is a second place deciding it
        for key, val in EXPERIMENT_DEFAULTS[name].items():
            assert val != SCHEMA[key][1], (name, key)

    def test_unknown_key_named(self):
        with pytest.raises(InvalidParameterError, match="unknown key 'drift.kapa'"):
            parse_config(overrides=["drift.kapa=0.2"])

    def test_type_mismatch_named(self):
        with pytest.raises(InvalidParameterError, match="'grid.cells' expects type int"):
            parse_config(overrides=["grid.cells=many"])

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ntime.T = 1.5\ndrift.kappa = 0.3\n")
        cfg = parse_config(str(path), overrides=["time.T=2.0"])
        assert cfg["time.T"] == 2.0
        assert cfg["drift.kappa"] == 0.3

    def test_unknown_key_in_file_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("drift.name = linear_ou\nnonsense.key = 3\n")
        with pytest.raises(InvalidParameterError, match=r":2: unknown key 'nonsense\.key'"):
            parse_config(str(path))

    def test_schema_version_checked(self):
        with pytest.raises(InvalidParameterError, match="schema.version 99 does not match 1"):
            parse_config(overrides=["schema.version=99"])

    def test_nan_rejected_inf_kept(self):
        for ov in ("solver.rel_dt=nan", "experiment.alphas=0.5,nan"):
            with pytest.raises(InvalidParameterError,
                               match=f"key '{ov.split('=')[0]}' must not be NaN"):
                parse_config(overrides=[ov])
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

    @pytest.mark.parametrize("section, table, build", [
        ("drift", DRIFT_PARAMS, builtin_drift),
        ("khasminskii", FIELD_PARAMS, builtin_field),
    ], ids=["drift", "field"])
    def test_every_family_builds_from_its_schema_defaults(self, section, table, build):
        for name, params in table.items():
            implicit, explicit = build(name), build(name, params)
            if section == "drift":      # a DriftSpec has no name: compare its K and tau
                assert (implicit.K, implicit.tau) == (explicit.K, explicit.tau)
            else:
                assert implicit.name == name == explicit.name
            for key, default in params.items():
                # one schema key per parameter name, so shared names share a default
                assert SCHEMA[f"{section}.{key}"] == ("float", default), (name, key)

    def test_drift_keys_are_the_table_keys(self):
        keys = {k for k in SCHEMA if k.startswith("drift.")} - {"drift.name"}
        assert keys == {f"drift.{k}" for params in DRIFT_PARAMS.values() for k in params}

    def test_library_defaults_are_the_schema_defaults(self):
        # one spelling of every default, 0 meaning automatic in both places
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        pairs = [(getattr(SolverOptions(), f.name), f"solver.{f.name}")
                 for f in dataclasses.fields(SolverOptions)]
        pairs += [(default(TimeGrid.geometric, "t_min"), "time.t_min"),
                  (default(TimeGrid.geometric, "nodes_per_decade"), "time.nodes_per_decade"),
                  (default(picard_fixed_point, "tol"), "picard.tol"),
                  (default(picard_fixed_point, "max_iter"), "picard.max_iter"),
                  (default(euler_maruyama_mkv, "bandwidth"), "particles.bandwidth"),
                  (default(khasminskii_mc, "x0"), "khasminskii.x0")]
        for value, key in pairs:
            assert value == SCHEMA[key][1], key


# tiny bases for the schema sweep: 16 cells and a handful of steps each
_TINY = ["--set", "grid.cells=16", "--set", "grid.x_min=-2", "--set", "grid.x_max=2",
         "--set", "init.sigma=0.5", "--set", "solver.rel_dt=0.1", "--set", "solver.dt_max=0.01",
         "--set", "time.T=0.01", "--set", "time.refine=uniform", "--set", "time.uniform_nodes=2",
         "--set", "particles.n=10", "--set", "particles.dt=0.005",
         "--set", "khasminskii.t=0.01", "--set", "khasminskii.dt=0.005"]
_KHASMINSKII = ["khasminskii", "--f", "constant", "--lambda-grid", "0.2,0.5,1.0",
                "--set", "khasminskii.t=0.1", "--set", "khasminskii.dt=0.005",
                "--set", "particles.n=2000", "--set", "grid.cells=300"]
SWEEP_BASES = {
    "solve": ["solve", "--drift", "linear_ou"] + _TINY,
    "particles": ["particles", "--drift", "linear_ou"] + _TINY,
    "khasminskii": ["khasminskii"] + _TINY,
    "experiment-smoothing": ["experiment", "smoothing", "--set", "drift.name=zero",
                             "--set", "grid.cells=16", "--set", "grid.x_min=-2",
                             "--set", "grid.x_max=2", "--set", "init.sigma=0.5",
                             "--set", "solver.rel_dt=0.5", "--set", "solver.dt_max=1",
                             "--set", "time.nodes_per_decade=2", "--set", "experiment.n_t=5"],
}


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
        ["particles", "--set", "particles.bandwidth=inf"],
        ["particles", "--set", "particles.bandwidth=1e300"],
        ["khasminskii", "--set", "particles.n=0"],
        ["khasminskii", "--set", "particles.n=-1"],
        ["khasminskii", "--set", "khasminskii.dt=0"],
        ["experiment", "smoothing", "--set", "experiment.t_lo=0.001",
         "--set", "experiment.t_hi=0.01", "--set", "experiment.n_t=0"],
        ["experiment", "smoothing", "--set", "experiment.t_lo=0.001",
         "--set", "experiment.t_hi=0.01", "--set", "experiment.n_t=-1"],
        ["solve", "--drift", "singular_well", "--set", "drift.coeff=inf"],
        ["picard", "--set", "drift.kappa=inf"],
        ["solve", "--drift", "linear_ou", "--set", "solver.cfl=1.5"],
        ["experiment", "renyi", "--set", "experiment.alpha_limit=inf",
         "--set", "experiment.t_lo=0.001", "--set", "experiment.t_hi=0.01"],
        ["solve", "--drift", "linear_ou", "--set", "diffusion.a=0"],
        ["solve", "--drift", "linear_ou", "--set", "diffusion.a=inf"],
        ["picard", "--set", "grid.x_min=-0.9", "--set", "grid.x_max=0.9"],
        ["solve", "--drift", "singular_well", "--set", "drift.coeff=0"],
        ["picard", "--drift", "smoothed_interaction", "--set", "drift.kernel_width=1e300"],
        ["khasminskii", "--f", "constant", "--set", "khasminskii.c0=0"],
        ["solve", "--drift", "linear_ou", "--set", "drift.kappa=5"],
        ["solve", "--drift", "zero", "--set", "drift.theta=2"],
        ["picard", "--set", "drift.gamma=0.3"],
        ["khasminskii", "--f", "constant", "--set", "khasminskii.gamma=0.5"],
        ["experiment", "smoothing", "--set", "experiment.slope_tol=-1",
         "--set", "experiment.t_lo=0.0001", "--set", "experiment.t_hi=0.01"],
        ["experiment", "renyi", "--set", "experiment.alphas=",
         "--set", "experiment.t_lo=0.001", "--set", "experiment.t_hi=0.01"],
        ["khasminskii", "--set", "drift.name=capped_density", "--N", "50"],
    ], ids=["negative-cap", "singular-well-gamma", "zero-cfl", "zero-nodes-per-decade",
            "nan-rel-dt", "negative-dt-max", "negative-threads", "t-hi-beyond-T",
            "infinite-bandwidth", "wide-bandwidth", "zero-paths", "negative-paths",
            "zero-khasminskii-dt", "zero-n-t", "negative-n-t", "infinite-well-coeff",
            "infinite-kappa", "cfl-above-one", "infinite-alpha-limit", "zero-diffusion",
            "infinite-diffusion", "narrow-grid", "zero-well-coeff", "wide-kernel", "zero-field",
            "kappa-under-linear-ou", "theta-under-zero", "gamma-under-capped-density",
            "gamma-under-constant-field", "negative-slope-tol", "empty-alphas",
            "khasminskii-kde-floor"])
    def test_invalid_value_is_config_error(self, tmp_path, argv):
        rc = main(argv + ["--set", "grid.cells=100", "--set", "time.T=0.01",
                          "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("command", sorted(SWEEP_BASES))
    def test_schema_sweep_exits_with_a_contract_code(self, tmp_path, command):
        # every non-string key at 0, -1, nan and (float keys only) inf
        for key, (kind, _) in SCHEMA.items():
            if kind == "str":
                continue
            for val in ("0", "-1", "nan") + (("inf",) if kind == "float" else ()):
                argv = SWEEP_BASES[command] + ["--set", f"{key}={val}",
                                               "--out", str(tmp_path / "o")]
                try:
                    rc = main(argv)
                except Exception as exc:
                    pytest.fail(f"{command} {key}={val} raised {exc!r}")
                assert rc in (0, 1, 2, 3), (command, key, val, rc)

    @pytest.mark.parametrize("argv", [
        ["solve", "--drift", "linear_ou", "--set", "drift.theta=1e300"],
        ["picard", "--set", "drift.kappa=1e300"],
        ["picard", "--set", "drift.tau=1e300", "--set", "time.T=2"],
        ["khasminskii", "--set", "khasminskii.gamma=1e300"],
    ], ids=["substep-cap-theta", "substep-cap-kappa", "tau-overflow", "field-gamma-overflow"])
    def test_runaway_value_is_numeric_error(self, tmp_path, argv):
        # the case's own --set follow _TINY's, so they win
        assert main(argv[:1] + _TINY + argv[1:] + ["--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("section, table", [("drift", DRIFT_PARAMS),
                                                ("khasminskii", FIELD_PARAMS)],
                             ids=["drift", "field"])
    def test_family_sweep(self, tmp_path, section, table):
        # each family's own keys at 0, -1, nan, inf and 1e300 on a 17-cell base,
        # which puts a cell centre on the singularity at x = 0
        for name, params in table.items():
            if section == "khasminskii":
                base = ["khasminskii", "--f", name]
            else:
                command = "picard" if builtin_drift(name).density_dependent else "solve"
                base = [command, "--drift", name]
            for key in params:
                for val in ("0", "-1", "nan", "inf", "1e300"):
                    argv = base + _TINY + ["--set", "grid.cells=17",
                                           "--set", f"{section}.{key}={val}",
                                           "--out", str(tmp_path / "o")]
                    try:
                        rc = main(argv)
                    except Exception as exc:
                        pytest.fail(f"{name} {key}={val} raised {exc!r}")
                    assert rc in (0, 1, 2, 3), (name, key, val, rc)

    def test_params_alias_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--params", "run.cfg", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

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

    def test_field_cap_overflow_names_the_field(self, tmp_path, capsys):
        rc = main(["khasminskii", "--set", "khasminskii.gamma=1e300", "--set", "grid.cells=16",
                   "--set", "particles.n=100", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "field 'singular_power'" in capsys.readouterr().err

    def test_bandwidth_far_below_a_cell_leaves_stderr_empty(self, tmp_path, capsys):
        # the kernel's u / bandwidth overflows beside its centre: a zero weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["particles", "--N", "1000", "--T", "0.01", "--set", "grid.cells=100",
                       "--set", "particles.bandwidth=1e-300", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("sigma", ["1e-160", "1e-300", "5e-324"])
    def test_tiny_initial_sigma_is_numeric_error_in_one_line(self, tmp_path, capsys, sigma):
        # z = x / sigma or z * z overflows beside the mean: exp(-inf) = 0 in every
        # cell, with no warning, and the density has no mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["picard", "--set", "grid.cells=200", "--set", f"init.sigma={sigma}",
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: density has no positive mass to normalize\n")

    @pytest.mark.parametrize("sigma", ["1e-320", "5e-324"])
    def test_subnormal_initial_sigma_on_a_centre_is_a_one_cell_delta(self, tmp_path, sigma):
        # a cell centre on the mean: 1 / (sigma sqrt(2 pi)) overflowed there and
        # the density was rejected as not finite; it is 1e-300's one-cell delta
        snaps = []
        for s in (sigma, "1e-300"):
            out = tmp_path / s
            assert main(["picard", "--set", "grid.cells=201", "--set", f"init.sigma={s}",
                         "--out", str(out)]) == 0
            snaps.append((out / "flow" / "density_0000.csv").read_bytes())
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("command", [["khasminskii"], ["experiment", "khasminskii"]])
    @pytest.mark.parametrize("lambdas", ["2,1,0.5,0.3,0.2,0.1", "0.1,0.1,0.2,0.3,0.5,1,2"])
    def test_unsorted_or_repeated_lambda_grid_is_config_error(self, tmp_path, capsys,
                                                              command, lambdas):
        # the convexity check failed a descending grid on valid data, and a
        # repeated lambda divided by a zero lambda gap
        out = tmp_path / "o"
        rc = main(command + ["--set", f"khasminskii.lambda_grid={lambdas}",
                             "--set", "particles.n=2000", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: lambda grid needs >= 2 positive, strictly increasing values\n")
        assert not out.exists()

    def test_overflowing_lambda_grid_is_config_error(self, tmp_path, capsys):
        # lambda^4 = 1.6e401 overflows: the bound loop warned and the run exited 1
        out = tmp_path / "o"
        rc = main(_KHASMINSKII + ["--lambda-grid", "1e100,2e100", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: lambda = 2e+100: lambda^2, (lambda ||f||)^2 or lambda^q "
            "int ||f_r||^q dr overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["particles", "--N", "1000", "--T", "0.01", "--set", "particles.dt=1e-300"],
        ["khasminskii", "--set", "khasminskii.dt=1e-300"]], ids=["particles", "khasminskii"])
    def test_more_than_a_million_steps_is_config_error(self, tmp_path, capsys, argv):
        # 1e298 or 1e300 steps: the march never ended
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "must be a whole number of steps, at most 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", ["inf", "-inf", "6.5"])
    def test_khasminskii_x0_off_the_grid_is_config_error(self, tmp_path, capsys, x0):
        # off the grid, the paths were reflected onto the boundary, where the
        # field is 0: every log estimate was 0 and the bounds "held"
        out = tmp_path / "o"
        rc = main(["khasminskii", "--set", f"khasminskii.x0={x0}", "--set", "particles.n=2000",
                   "--set", "grid.cells=300", "--set", "khasminskii.t=0.1",
                   "--set", "khasminskii.dt=0.005", "--lambda-grid", "0.2,0.5,1.0",
                   "--out", str(out)])
        assert rc == 2
        assert "x0" in capsys.readouterr().err
        assert not out.exists()

    def test_khasminskii_time_integral_underflow_is_config_error(self, tmp_path, capsys):
        # int ||f_r||^q dr = 0.1 * 0.59 ** 1e4 underflows to 0
        rc = main(_KHASMINSKII + ["--set", "khasminskii.q=1e4", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "time integral" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas", ["0.1,0.2,0.3", "0.1,0.15,0.2,0.3,0.4,0.5"])
    def test_unreached_field_is_numeric_error(self, tmp_path, lambdas):
        # no path from x0 = 5 reaches the field on |x| <= 1: every log estimate
        # is 0, and the growth fit refuses it on either grid size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["experiment", "khasminskii", "--set", "khasminskii.x0=5",
                       "--set", "particles.n=2000", "--set", "grid.cells=300",
                       "--set", "khasminskii.t=0.1", "--set", "khasminskii.dt=0.005",
                       "--set", f"khasminskii.lambda_grid={lambdas}",
                       "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_single_point_grid_is_insufficient_span(self, tmp_path):
        rc = main(["experiment", "smoothing",
                   "--set", "drift.name=zero", "--set", "grid.cells=500",
                   "--set", "time.nodes_per_decade=20",
                   "--set", "experiment.t_lo=0.4", "--set", "experiment.t_hi=0.41",
                   "--set", "experiment.n_t=1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_entropy_infinite_at_nearly_all_nodes_is_numeric_error(self, tmp_path, capsys):
        # delta = 1 against sigma = 0.05: up to t = 0.01 the two flows are
        # numerically disjoint, so every entropy is infinite
        rc = main(["experiment", "entropy-cost", "--set", "drift.name=zero",
                   "--set", "experiment.delta=1", "--set", "grid.cells=400",
                   "--set", "time.T=0.01", "--set", "time.nodes_per_decade=8",
                   "--set", "experiment.t_lo=1e-3", "--set", "experiment.t_hi=0.01",
                   "--set", "experiment.n_t=6", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "entropy infinite at nearly all nodes" in capsys.readouterr().err

    def test_mu_on_another_grid_is_config_error(self, tmp_path, capsys):
        mu = str(tmp_path / "mu.csv")
        save_density(gaussian_density(Grid1D(-6.0, 6.0, 300), 0.0, 1.0), mu)
        assert main(["solve", "--mu", mu, "--drift", "linear_ou", "--cells", "200",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--mu density grid does not match" in capsys.readouterr().err

    @staticmethod
    def _density_csv_commands(tmp_path, path):
        """`metrics` and `solve --mu` on the density CSV at path, whose grid is
        meant to be the 120-cell grid on [-6, 6]."""
        good = str(tmp_path / "good.csv")
        save_density(gaussian_density(Grid1D(-6.0, 6.0, 120), 0.0, 1.0), good)
        return (["metrics", "--a", path, "--b", good, "--metric", "w1"],
                ["solve", "--mu", path, "--drift", "linear_ou", "--cells", "120",
                 "--T", "0.01", "--set", "time.refine=uniform",
                 "--set", "time.uniform_nodes=2", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("broken", ["empty", "non-numeric"])
    def test_unreadable_density_csv_is_config_error(self, tmp_path, capsys, broken):
        bad = tmp_path / "bad.csv"
        save_density(gaussian_density(Grid1D(-6.0, 6.0, 120), 0.0, 1.0), str(bad))
        rows = bad.read_text().splitlines()
        rows[8] = rows[8].split(",")[0] + ",abc"
        bad.write_text("" if broken == "empty" else "\n".join(rows) + "\n")
        for argv in self._density_csv_commands(tmp_path, str(bad)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")      # numpy warns on an empty file
                assert main(argv) == 2
            assert "is not a density CSV" in capsys.readouterr().err

    def test_non_uniform_density_csv_is_config_error(self, tmp_path, capsys):
        # the end rows are the 120-cell grid's end centers; the rows between
        # are off their centers by 0.3 of a cell, alternately left and right
        g = Grid1D(-6.0, 6.0, 120)
        xs = g.centers.copy()
        xs[1:-1] += 0.3 * g.dx * (-1.0) ** np.arange(1, 119)
        values = gaussian_density(g, 0.0, 1.0).values
        bad = tmp_path / "uneven.csv"
        rows = "".join(f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(), values.tolist()))
        bad.write_text("x,value\n" + rows)
        for argv in self._density_csv_commands(tmp_path, str(bad)):
            assert main(argv) == 2
            assert "not a uniform grid" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code, prefix", [
        (DenslabError, 3, "numerical failure"),
        (InvalidParameterError, 2, "config error"),
        (NumericalError, 3, "numerical failure"),
        (NumericOverflowError, 3, "numerical failure"),
        (NoConvergenceError, 3, "numerical failure"),
        (OSError, 2, "config error"),
        (OverflowError, 3, "numerical failure"),
        (MemoryError, 3, "numerical failure"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_each_error_class_has_one_exit_code(self, tmp_path, capsys, monkeypatch,
                                                error, code, prefix):
        def compute(cfg, args):
            raise error("boom")
        monkeypatch.setattr("denslab.cli._solve", compute)
        assert main(["solve", "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{prefix}: boom\n"

    @pytest.mark.parametrize("argv", [
        ["metrics", "--metric", "tilde:nan"],
        ["metrics", "--metric", "wq:nan"],
        ["metrics", "--metric", "wq:inf"],
        ["picard", "--set", "picard.lambda0=inf"] + _TINY,
    ], ids=["tilde-nan", "wq-nan", "wq-inf", "infinite-lambda0"])
    def test_non_finite_exponent_is_config_error(self, tmp_path, capsys, argv):
        g = Grid1D(-6.0, 6.0, 200)
        a_path, b_path = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_density(gaussian_density(g, 0.0, 1.0), a_path)
        save_density(gaussian_density(g, 0.5, 1.0), b_path)
        extra = (["--a", a_path, "--b", b_path] if argv[0] == "metrics"
                 else ["--out", str(tmp_path / "o")])
        assert main(argv + extra) == 2
        assert capsys.readouterr().err.startswith("config error: ")


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

    @pytest.mark.parametrize("metric, mean_b, sigma", [
        ("wq:1e5", 0.5, 0.5), ("wq:1e300", 0.5, 0.5), ("wq:1e300", 2.0, 0.5),
        ("tilde:1e5", 0.5, 0.5), ("tilde:1e300", 0.5, 0.5), ("tilde:1e300", 0.5, 0.1),
    ])
    def test_metrics_huge_exponent_tends_to_the_sup(self, tmp_path, capsys, metric,
                                                    mean_b, sigma):
        # |gap| ** q under- or overflows in every cell at these exponents
        g = Grid1D(-6.0, 6.0, 200)
        a_path, b_path = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_density(gaussian_density(g, 0.0, sigma), a_path)
        save_density(gaussian_density(g, mean_b, sigma), b_path)

        def run(m):
            assert main(["metrics", "--a", a_path, "--b", b_path, "--metric", m]) == 0
            return float(capsys.readouterr().out)

        sup = mean_b if metric.startswith("wq") else run("tilde:inf")
        assert run(metric) == pytest.approx(sup, rel=0.01)

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

    def test_solve_from_mu_csv_matches_the_configured_law(self, tmp_path):
        mu = str(tmp_path / "mu.csv")
        save_density(gaussian_density(Grid1D(-6.0, 6.0, 200), 0.0, 1.0), mu)
        argv = ["solve", "--drift", "linear_ou", "--cells", "200", "--T", "0.05",
                "--set", "init.sigma=1", "--set", "time.refine=uniform",
                "--set", "time.uniform_nodes=4"]
        finals = []
        for extra in ([], ["--mu", mu]):
            out = tmp_path / f"o{len(finals)}"
            assert main(argv + extra + ["--out", str(out)]) == 0
            finals.append(load_flow(str(out / "flow")).snapshots[-1].values)
        assert np.max(np.abs(finals[1] - finals[0])) <= 1e-12

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

    def test_khasminskii_huge_p_reads_the_space_time_norm(self, tmp_path):
        # the constant 0.5 on [0, 0.1] at p -> inf: 0.5 * 0.1 ** (1/4)
        out = tmp_path / "k"
        assert main(_KHASMINSKII + ["--set", "khasminskii.p=1e5", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["norm_spacetime"] == pytest.approx(0.2812, abs=1e-3)

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


class TestLogLevel:
    """--log-level routes the denslab.* loggers to stderr; without it stderr
    stays empty."""

    @pytest.mark.parametrize("level, shown", [(None, False), ("warning", False), ("info", True)])
    def test_kde_reports_particles_outside_the_grid(self, tmp_path, capsys, monkeypatch,
                                                    level, shown):
        # the march reflects every particle into the grid, so only a start
        # outside it reaches the kde message: three of 1000 start past x_max
        start = particles.sample_initial

        def outside(init, n, seed, grid):
            x = start(init, n, seed, grid)
            x[:3] = grid.x_max + 1.0
            return x

        monkeypatch.setattr(particles, "sample_initial", outside)
        argv = ["particles", "--drift", "zero", "--N", "1000", "--dt", "0.01", "--T", "0.02",
                "--set", "grid.cells=400", "--out", str(tmp_path / "run")]
        assert main(argv + (["--log-level", level] if level else [])) == 0
        err = capsys.readouterr().err
        line = "INFO denslab.density_core: kde: 3 of 1000 particles outside the grid\n"
        assert err == (line if shown else "")

    def test_normalize_reports_clipped_mass(self, tmp_path, capsys):
        g = Grid1D(-6.0, 6.0, 200)
        values = gaussian_density(g, 0.0, 1.0).values.copy()
        values[0] = -1e-10
        a_path, b_path = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_density(GridDensity(g, values), a_path)
        save_density(gaussian_density(g, 0.5, 1.0), b_path)
        argv = ["metrics", "--a", a_path, "--b", b_path, "--metric", "w1"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert main(argv + ["--log-level", "info"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("INFO denslab.density_core: normalize: clipped ")
        assert err.count("\n") == 1
