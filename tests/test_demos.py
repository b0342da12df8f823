"""The demos use only names the package still defines.

Each demo is parsed, not run (running them all takes seconds): every
name it imports from coarsehom.*, and every attribute it reads off an
imported coarsehom module (``dy.action_groupoid``), must exist.  The
window solver demo, which prints an obstruction's exact position, and
the groupoid homology demo, which builds a coupling's G x H action
itself, are also run, and their output compared with recorded copies.
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

# stdout of demos/07_groupoid_homology.py, recorded while the G x H action
# of a coupling came from Coupling.combined_action
GROUPOID_HOMOLOGY_OUTPUT = """\
translation groupoid of Z/4 on itself:
   {'degree': 0, 'ring': 'Z', 'betti': 1, 'torsion': []}
   {'degree': 1, 'ring': 'Z', 'betti': 0, 'torsion': []}
   {'degree': 2, 'ring': 'Z', 'betti': 0, 'torsion': []}

one-unit groupoid on Z/2, homology then cohomology:
   {'degree': 0, 'ring': 'Z', 'betti': 1, 'torsion': []}
   {'degree': 1, 'ring': 'Z', 'betti': 0, 'torsion': [2]}
   {'degree': 2, 'ring': 'Z', 'betti': 0, 'torsion': []}
   {'degree': 0, 'ring': 'Z', 'betti': 1, 'torsion': []}
   {'degree': 1, 'ring': 'Z', 'betti': 0, 'torsion': []}
   {'degree': 2, 'ring': 'Z', 'betti': 0, 'torsion': [2]}

Morita check on the product coupling: {'subset_size': 4, 'units': 8, \
'homology_equal': True, 'cohomology_equal': True, 'ok': True}

Kakutani-restricted groupoids agree: True
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


def _demo_stdout(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, f"demos/{name}"], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True).stdout


def test_window_solver_demo_output():
    assert _demo_stdout("05_window_solver.py") == WINDOW_SOLVER_OUTPUT


def test_groupoid_homology_demo_output():
    assert _demo_stdout("07_groupoid_homology.py") == \
        GROUPOID_HOMOLOGY_OUTPUT
