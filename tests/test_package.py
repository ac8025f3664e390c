"""The package's size and surface: the line budget of `src/denslab`, the
empty top-level namespace, each name having one import path in its submodule,
no scipy module loaded by importing the CLI or by a PDE-only run, and the one
log-sum-exp."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import denslab

LINE_BUDGET = 2700


def test_source_within_line_budget():
    files = sorted(Path(denslab.__file__).parent.glob("*.py"))
    lines = {f.name: len(f.read_text().splitlines()) for f in files}
    assert "dynamics.py" in lines
    assert sum(lines.values()) <= LINE_BUDGET, lines


def _fresh_python(code: str) -> str:
    """stdout of `code` run by a fresh interpreter on this `denslab`: in this one
    the tests have imported the submodules and scipy's test-only subpackages."""
    src = str(Path(denslab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_defines_no_public_name():
    assert _fresh_python(
        "import denslab; print(sorted(n for n in vars(denslab) if not n.startswith('_')))") == "[]"


def test_cli_import_leaves_slow_scipy_subpackages_out():
    # scipy.signal took 1.05 s of a 1.64 s `import denslab.cli` and brought
    # scipy.stats and scipy.ndimage; the KDE's FFTs are numpy's, scipy.special's
    # ndtri is imported where the particles first draw, and the LDL^T solve
    # calls the LAPACK in numpy's wheel, so the CLI loads no scipy module at all
    assert _fresh_python(
        "import sys, denslab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    ) == "[]"


def test_pde_only_runs_load_no_scipy(tmp_path):
    # a run that draws no normals never imports scipy.special, and the LDL^T
    # solve calls numpy's LAPACK, not scipy.linalg's: no scipy module is loaded
    runs = [["solve", "--drift", "linear_ou"], ["picard"],
            *[["experiment", name] for name in ("smoothing", "supercontinuity",
                                                 "entropy-cost", "renyi")]]
    tiny = ["--set", "grid.cells=200", "--set", "time.T=0.05", "--set", "experiment.t_lo=0.005",
            "--set", "experiment.t_hi=0.05", "--set", "time.nodes_per_decade=5",
            "--set", "experiment.n_t=5", "--set", "grid.x_min=-4", "--set", "grid.x_max=4"]
    loaded = _fresh_python(
        "import sys\nfrom denslab.cli import main\n"
        f"codes = [main(argv + {tiny} + ['--out', {str(tmp_path)!r} + '/' + str(i)])"
        f" for i, argv in enumerate({runs})]\n"
        "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert loaded == f"{[0] * len(runs)} []", loaded


def test_no_module_uses_scipy_logsumexp():
    # metrics._logsumexp is the library's one log-sum-exp, for the Renyi
    # entropy, the expW calibration and the Khasminskii sweep; scipy's is its
    # reference in the tests
    users = []
    for f in sorted(Path(denslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = [alias.name for alias in node.names]
            else:
                names = [node.attr] if isinstance(node, ast.Attribute) else []
            if "logsumexp" in names:
                users.append(f.name)
    assert users == []
