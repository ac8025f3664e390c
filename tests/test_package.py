"""The package's size and surface: the line budget of `src/denslab` and the
empty top-level namespace, each name having one import path in its submodule."""

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


def test_import_defines_no_public_name():
    # a fresh interpreter: in this one the tests have imported the submodules,
    # which then are attributes of the package
    src = str(Path(denslab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import denslab; print(sorted(n for n in vars(denslab) if not n.startswith('_')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
