"""The demos use only names the package still defines.

Each demo is parsed, not run (running them all takes seconds): every
name it imports from coarsehom.*, and every attribute it reads off an
imported coarsehom module (``dy.action_groupoid``), must exist.  The
window solver demo, which prints an obstruction's exact position, is
also run, and its output compared with a recorded copy.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# stdout of demos/05_window_solver.py, recorded while every window was
# solved by one dense Smith form of the whole window
WINDOW_SOLVER_OUTPUT = """\
verdict: True window: {'x_radius': 4, 'tuple_radius': 4, 'columns': 729}
preimage re-checked: True

point mass verdict: False
obstruction: {'kind': 'out-of-image', 'position': 12, 'value': 1}

distance-10 difference, window 3: False | window 10: True
"""


def _missing_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}          # local name -> imported coarsehom module
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "coarsehom"):
            continue
        for alias in node.names:
            try:
                modules[alias.asname or alias.name] = \
                    importlib.import_module(f"{node.module}.{alias.name}")
            except ModuleNotFoundError:
                if not hasattr(importlib.import_module(node.module),
                               alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in modules and \
                not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{node.value.id}.{node.attr}")
    return missing


def test_every_demo_is_checked():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_names_exist(path):
    assert _missing_names(path) == []


def test_window_solver_demo_output():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "demos/05_window_solver.py"],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout == WINDOW_SOLVER_OUTPUT
