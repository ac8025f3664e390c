"""The package's size and surface: the line budget of `src/denslab`, the
empty top-level namespace, each name having one import path in its submodule,
the scipy subpackages that importing the CLI loads, and the one log-sum-exp."""

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
    # scipy.stats and scipy.ndimage; the library needs scipy.fft, scipy.special
    # and scipy.linalg.lapack
    slow = ["scipy.signal", "scipy.ndimage", "scipy.stats", "scipy.optimize"]
    assert _fresh_python(
        f"import sys, denslab.cli; print([m for m in {slow} if m in sys.modules])") == "[]"


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
