"""The benchmark's tracer wraps library callables by module and
attribute path (perfbench/tracer.py, SPANS); every path must still
resolve, and the size functions must read what the library returns."""

import importlib
import importlib.util
import pathlib

import pytest

from coarsehom.complexes import Chain, boundary
from coarsehom.groups import IntLattice, cyclic_group
from coarsehom.homology import (assemble_boundary_matrix, is_boundary_window,
                                smith_normal_form)
from coarsehom.rings import ring_from_name

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench/tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("name", sorted(tracer.SPANS))
def test_span_path_resolves(name):
    home, path, _, _ = tracer.SPANS[name]
    obj = importlib.import_module(f"coarsehom.{home}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj), name


def test_tracer_binds_every_span():
    # the tracer reads a method from its own class's __dict__, so a
    # method inherited from a base class resolves by getattr above but
    # fails here, as it would fail a traced run
    bound = {attr for _, attr, _, _ in tracer.Tracer()._collect()}
    assert bound >= {path.split(".")[-1]
                     for _, path, _, _ in tracer.SPANS.values()}


def test_size_functions_read_library_results():
    A = [[2, 4], [6, 8]]
    assert tracer._smith((A,), {}, smith_normal_form(A)) == \
        {"cells": 4, "promotions": 0}
    # group-ring d_1 of Z/2: the two columns (x, e) are zero
    asm = assemble_boundary_matrix(cyclic_group(2), 1)
    assert tracer._assemble((), {}, asm) == {"cells": 8, "nnz": 4}
    c = Chain(IntLattice(1), ring_from_name("Z"), 1, 1)
    c.add_at((0,), ((1,),), (1,))
    res = is_boundary_window(boundary(c), 2, 2)
    assert tracer._window((), {}, res) == \
        {"columns": res["window"]["columns"], "found": 1}
