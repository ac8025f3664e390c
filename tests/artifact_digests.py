"""Digest the artifacts of a fixed list of small CLI runs, to show that a
refactor leaves every output byte-identical.

    python tests/artifact_digests.py SRC > digests.txt
    python tests/artifact_digests.py SRC_A SRC_B

SRC is a directory holding the `denslab` package, such as the `src` of this
checkout or of another commit's.  Each run is `python -m denslab ...` with
PYTHONPATH=SRC in a fresh temporary directory.  For each run the script
prints its name and exit code, `sha256  <stdout>` and `sha256  <stderr>`
(with SRC and the temporary directory replaced by fixed names), then
`sha256  path` for every file the run wrote except `run_meta.json`, which
holds wall-clock times.  Two trees that print the same lines wrote the same
bytes.  The 46 runs take about 16 s on a two-core machine.

Given two trees, the script runs each run in both and prints only the runs
whose lines differ: the name, then `-` before each line only SRC_A printed
and `+` before each line only SRC_B printed.  It exits 1 if any run differs.
pytest does not collect this file.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

_PDE = ["--set", "grid.cells=300", "--set", "time.T=0.1", "--set", "time.refine=uniform",
        "--set", "time.uniform_nodes=8", "--set", "init.sigma=0.3"]
_PARTICLES = ["--set", "particles.n=2000", "--set", "particles.dt=0.002",
              "--set", "grid.cells=300", "--seed", "11"]
_EXPERIMENT = ["--set", "grid.cells=400", "--set", "time.nodes_per_decade=8",
               "--set", "experiment.n_t=6"]

RUNS = {
    "solve-linear_ou": ["solve", "--drift", "linear_ou"] + _PDE,
    "solve-singular_well": ["solve", "--drift", "singular_well"] + _PDE,
    "solve-zero": ["solve", "--drift", "zero"] + _PDE,
    "picard-capped_density": ["picard", "--drift", "capped_density"] + _PDE,
    "picard-smoothed_interaction": ["picard", "--drift", "smoothed_interaction"] + _PDE,
    "particles-capped_density": ["particles", "--drift", "capped_density", "--T", "0.05",
                                 "--set", "time.refine=uniform",
                                 "--set", "time.uniform_nodes=4"] + _PARTICLES,
    "particles-smoothed_interaction": ["particles", "--drift", "smoothed_interaction",
                                       "--T", "0.05", "--set", "time.refine=uniform",
                                       "--set", "time.uniform_nodes=4"] + _PARTICLES,
    "khasminskii-constant": ["khasminskii", "--f", "constant", "--lambda-grid", "0.2,0.5,1.0",
                             "--set", "khasminskii.t=0.1", "--set", "khasminskii.dt=0.005"]
                            + _PARTICLES,
    "khasminskii-singular_power": ["khasminskii", "--f", "singular_power",
                                   "--lambda-grid", "0.2,0.5,1.0",
                                   "--set", "khasminskii.t=0.1",
                                   "--set", "khasminskii.dt=0.005"] + _PARTICLES,
    "experiment-smoothing": ["experiment", "smoothing", "--set", "drift.name=zero",
                             "--set", "init.sigma=0.05"] + _EXPERIMENT,
    "experiment-supercontinuity": ["experiment", "supercontinuity", "--set", "drift.name=zero",
                                   "--set", "grid.cells=800", "--set", "time.nodes_per_decade=8",
                                   "--set", "experiment.n_t=6"],
    "experiment-entropy-cost": ["experiment", "entropy-cost", "--set", "time.T=0.2",
                                "--set", "experiment.t_hi=0.2"] + _EXPERIMENT,
    "experiment-renyi": ["experiment", "renyi", "--set", "time.T=0.2",
                         "--set", "experiment.t_hi=0.2"] + _EXPERIMENT,
    "experiment-renyi-smoothed": ["experiment", "renyi", "--set", "time.T=0.2",
                                  "--set", "experiment.t_hi=0.2",
                                  "--set", "drift.name=smoothed_interaction"] + _EXPERIMENT,
    "experiment-khasminskii": ["experiment", "khasminskii", "--set", "grid.cells=300",
                               "--set", "khasminskii.t=0.1", "--set", "khasminskii.dt=0.005",
                               "--set", "khasminskii.lambda_grid=0.2,0.5,1.0"] + _PARTICLES,
    "experiment-khasminskii-two-large-lambdas": [
        "experiment", "khasminskii", "--set", "grid.cells=300", "--set", "khasminskii.t=0.1",
        "--set", "khasminskii.dt=0.005", "--set", "khasminskii.lambda_grid=0.2,0.5,1.0,2.0"]
        + _PARTICLES,
    "error-zero-diffusion": ["solve", "--drift", "linear_ou", "--set", "diffusion.a=0"] + _PDE,
    "error-infinite-diffusion": ["solve", "--drift", "linear_ou",
                                 "--set", "diffusion.a=inf"] + _PDE,
    "error-negative-cap": ["picard", "--set", "drift.cap=-1"] + _PDE,
    "error-zero-cfl": ["solve", "--drift", "linear_ou", "--set", "solver.cfl=0"] + _PDE,
    "error-unknown-key": ["solve", "--drift", "linear_ou", "--set", "drift.kapa=1"] + _PDE,
    "error-field-cap-overflow": ["khasminskii", "--set", "khasminskii.gamma=1e300",
                                 "--set", "grid.cells=16", "--set", "particles.n=100"],
    "experiment-khasminskii-unreached": ["experiment", "khasminskii", "--set", "khasminskii.x0=5",
                                         "--set", "khasminskii.lambda_grid=0.1,0.2,0.3",
                                         "--set", "khasminskii.t=0.1",
                                         "--set", "khasminskii.dt=0.005"] + _PARTICLES,
    "error-khasminskii-x0-inf": ["khasminskii", "--set", "khasminskii.x0=inf",
                                 "--lambda-grid", "0.2,0.5,1.0", "--set", "khasminskii.t=0.1",
                                 "--set", "khasminskii.dt=0.005"] + _PARTICLES,
    "error-negative-slope-tol": ["experiment", "smoothing", "--set", "drift.name=zero",
                                 "--set", "experiment.slope_tol=-1"] + _EXPERIMENT,
    "error-narrow-grid": ["picard", "--set", "grid.x_min=-0.9", "--set", "grid.x_max=0.9"] + _PDE,
    "error-short-span": ["experiment", "smoothing", "--set", "drift.name=zero",
                         "--set", "experiment.slope_tol=0.05", "--set", "experiment.t_lo=0.05",
                         "--set", "experiment.t_hi=0.2", "--set", "time.T=0.2"] + _EXPERIMENT,
    "error-measure-collapse": ["experiment", "renyi"] + _EXPERIMENT
                              + ["--set", "experiment.n_t=1"],
    "error-picard-no-convergence": ["picard", "--drift", "capped_density",
                                    "--set", "drift.kappa=30", "--set", "drift.theta=0",
                                    "--set", "drift.tau=0", "--set", "drift.cap=2",
                                    "--set", "picard.max_iter=3",
                                    "--set", "picard.tol=1e-12"] + _PDE,
    "error-substep-limit": ["solve", "--drift", "linear_ou",
                            "--set", "solver.rel_dt=1e-12"] + _PDE,
    "khasminskii-huge-p": ["khasminskii", "--f", "constant", "--lambda-grid", "0.2,0.5,1.0",
                           "--set", "khasminskii.t=0.1", "--set", "khasminskii.dt=0.005",
                           "--set", "khasminskii.p=1e5"] + _PARTICLES,
    "error-empty-alphas": ["experiment", "renyi", "--set", "time.T=0.2",
                           "--set", "experiment.t_hi=0.2",
                           "--set", "experiment.alphas="] + _EXPERIMENT,
    "error-khasminskii-kde-floor": ["khasminskii", "--set", "drift.name=capped_density",
                                    "--N", "50", "--lambda-grid", "0.2,0.5,1.0",
                                    "--set", "khasminskii.t=0.1", "--set", "khasminskii.dt=0.005",
                                    "--set", "grid.cells=300", "--seed", "11"],
    "error-tiny-sigma": ["picard", "--set", "grid.cells=200", "--set", "init.sigma=1e-300"],
    "error-wide-bandwidth": ["particles", "--N", "1000", "--T", "0.01", "--set", "grid.cells=100",
                             "--set", "particles.bandwidth=1e300"],
    "error-descending-lambda-grid": ["experiment", "khasminskii", "--set", "khasminskii.t=0.1",
                                     "--set", "khasminskii.dt=0.005",
                                     "--set", "khasminskii.lambda_grid=1.0,0.5,0.2"]
                                    + _PARTICLES,
    "error-repeated-lambda-grid": ["khasminskii", "--lambda-grid", "0.2,0.2,0.5",
                                   "--set", "khasminskii.t=0.1",
                                   "--set", "khasminskii.dt=0.005"] + _PARTICLES,
    "error-few-nodes": ["experiment", "smoothing", "--set", "drift.name=zero"] + _EXPERIMENT
                       + ["--set", "experiment.n_t=3"],
    "picard-subnormal-sigma": ["picard"] + _PDE + ["--set", "grid.cells=201",
                                                   "--set", "init.sigma=1e-320"],
    "particles-narrow-reflecting": ["particles", "--drift", "capped_density", "--T", "0.05",
                                    "--set", "time.refine=uniform",
                                    "--set", "time.uniform_nodes=4"] + _PARTICLES
                                   + ["--set", "grid.cells=64", "--set", "grid.x_min=-0.4",
                                      "--set", "grid.x_max=0.4", "--set", "init.sigma=0.3"],
    "error-lambda-overflow": ["khasminskii", "--f", "constant", "--lambda-grid", "1e100,2e100",
                              "--set", "khasminskii.t=0.1",
                              "--set", "khasminskii.dt=0.005"] + _PARTICLES,
    "experiment-khasminskii-constant-huge-lambda": [
        "experiment", "khasminskii", "--set", "khasminskii.f_name=constant",
        "--set", "khasminskii.lambda_grid=0.2,0.5,1000", "--set", "khasminskii.t=0.1",
        "--set", "khasminskii.dt=0.005", "--set", "particles.n=2000", "--set", "grid.cells=300"],
    "error-khasminskii-one-small-lambda": [
        "experiment", "khasminskii", "--set", "khasminskii.f_name=singular_power",
        "--set", "khasminskii.lambda_grid=0.3,1.0,2.0", "--set", "khasminskii.t=0.1",
        "--set", "khasminskii.dt=0.005", "--set", "particles.n=2000", "--set", "grid.cells=300"],
    "experiment-khasminskii-nan-and-infinity": [       # strings in strict JSON
        "experiment", "khasminskii", "--set", "khasminskii.f_name=constant",
        "--set", "khasminskii.lambda_grid=0.3,500,1000", "--set", "khasminskii.t=0.1",
        "--set", "khasminskii.dt=0.005", "--set", "particles.n=2000", "--set", "grid.cells=300"],
    "error-supercontinuity-k-zero": ["experiment", "supercontinuity", "--set", "drift.name=zero",
                                     "--set", "grid.cells=800", "--set", "time.nodes_per_decade=8",
                                     "--set", "experiment.n_t=6", "--set", "experiment.k=0"],
    "error-smoothing-zero-headroom": ["experiment", "smoothing", "--set", "drift.name=zero",
                                      "--set", "init.sigma=0.05",
                                      "--set", "experiment.headroom=0"] + _EXPERIMENT,
}


def digest_run(src: str, argv: list) -> list:
    """Exit code line, stdout and stderr lines, and one `sha256  path` line
    per artifact of one run."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run([sys.executable, "-m", "denslab", *argv, "--out", out],
                              cwd=tmp, env=env, capture_output=True)
        lines = [f"  exit {proc.returncode}"]
        for stream, text in (("<stdout>", proc.stdout), ("<stderr>", proc.stderr)):
            text = text.replace(src.encode(), b"SRC").replace(tmp.encode(), b"TMP")
            lines.append(f"  {hashlib.sha256(text).hexdigest()}  {stream}")
        for root, _, files in sorted(os.walk(out)):
            for name in sorted(files):
                if name == "run_meta.json":
                    continue
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append(f"  {digest}  {os.path.relpath(path, out)}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    if len(args) not in (1, 2) or not all(os.path.isdir(os.path.join(a, "denslab"))
                                          for a in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    differ = False
    for name, run in RUNS.items():
        lines = [digest_run(src, run) for src in args]
        if len(lines) == 1:
            print(name)
            print("\n".join(lines[0]), flush=True)
        elif lines[0] != lines[1]:
            differ = True
            a, b = lines
            print(name)
            print("\n".join([f"-{line}" for line in a if line not in b]
                            + [f"+{line}" for line in b if line not in a]), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
