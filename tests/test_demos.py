"""The demos use only names the package still defines.

Each demo is parsed, not run (running them all takes seconds): every
name it imports from coarsehom.*, and every attribute it reads off an
imported coarsehom module (``dy.action_groupoid``), must exist.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


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
