"""Integer Smith reduction with certificates, finite homology against
closed-form oracles, the window boundary solver, and induced maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsehom.complexes import Chain, boundary
from coarsehom.errors import (InvalidElementError, NotACycleError,
                              ResourceLimitError)
from coarsehom.gallery import get_map
from coarsehom.groups import IntLattice, cyclic_group, trivial_group
from coarsehom.homology import (_component_count, assemble_boundary_matrix,
                                bareiss_det, h0_coinvariants, homology_finite,
                                induced_map_on_homology, is_boundary_window,
                                matrix_from_json, matrix_to_json,
                                smith_normal_form)
from coarsehom.rings import ring_from_name

import oracles

Z = IntLattice(1)
ZR = ring_from_name("Z")
QR = ring_from_name("Q")


# -- Smith normal form -------------------------------------------------------

def test_snf_frozen_divisors():
    assert smith_normal_form(np.array([[2, 4], [6, 8]])).divisors == [2, 4]
    assert smith_normal_form(np.array([[4, 0], [0, 6]])).divisors == [2, 12]
    s = smith_normal_form(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    assert s.divisors == [1, 3, 0]
    assert s.rank == 2
    assert s.elementary_divisors() == [1, 3]


def test_snf_degenerate_shapes():
    assert smith_normal_form(np.array([[0]])).rank == 0
    assert smith_normal_form(np.zeros((0, 3), dtype=np.int64)).rank == 0
    assert smith_normal_form(np.zeros((3, 0), dtype=np.int64)).rank == 0


@st.composite
def int_matrices(draw):
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    rows = [[draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)]
    return np.array(rows, dtype=np.int64)


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_snf_certificates_and_chain(A):
    s = smith_normal_form(A)
    assert s.verify(A)
    divs = s.elementary_divisors()
    assert all(d > 0 for d in divs)
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0
    # all diagonal entries past the rank are zero
    assert all(d == 0 for d in s.divisors[s.rank:])


@pytest.mark.parametrize("shape,big", [((3, 5), False), ((3, 5), True),
                                       ((4, 70), False)])
def test_snf_verify_rejects_a_changed_certificate(shape, big):
    # 70 columns take the random-probe check of V V^-1; big entries
    # take the object-dtype path
    A = np.random.default_rng(7).integers(-9, 10, size=shape).astype(object)
    if big:
        A = A * 2 ** 40
    for name in ("U", "V", "Vinv"):
        s = smith_normal_form(A)
        assert s.verify(A)
        getattr(s, name)[0, 0] += 1
        assert not s.verify(A), name


@given(int_matrices())
@settings(max_examples=50, deadline=None)
def test_snf_kernel_annihilated(A):
    s = smith_normal_form(A)
    K = s.kernel_basis()
    prod = np.asarray(A, dtype=object) @ np.asarray(K, dtype=object)
    assert np.all(prod == 0)
    # coordinates of a kernel vector round-trip through the basis
    if K.shape[1]:
        w = [int(t) for t in np.asarray(K, dtype=object) @
             np.array([1] * K.shape[1], dtype=object)]
        coords = s.kernel_coordinates(w)
        back = np.asarray(K, dtype=object) @ np.array(list(coords),
                                                      dtype=object)
        assert [int(t) for t in back] == w


@given(int_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_snf_solve_recovers_an_image(A, data):
    z = data.draw(st.lists(st.integers(-9, 9), min_size=A.shape[1],
                           max_size=A.shape[1]))
    Ao = np.asarray(A, dtype=object)
    b = [int(t) for t in Ao @ np.array(z, dtype=object)]
    s = smith_normal_form(A)
    x, m, obstruction = s.solve(b, "Z")
    assert obstruction is None and m == 1
    assert [int(t) for t in Ao @ np.array(x, dtype=object)] == b
    x, m, obstruction = s.solve(b, "Q")
    assert obstruction is None and m >= 1
    assert [int(t) for t in Ao @ np.array(x, dtype=object)] == \
        [m * t for t in b]


def test_kernel_coordinates_rejects_non_kernel_vector():
    A = np.array([[1, 0], [0, 1]])
    s = smith_normal_form(A)
    with pytest.raises(NotACycleError):
        s.kernel_coordinates([1, 0])


def test_bareiss_det_frozen():
    assert bareiss_det(np.array([[1, 2], [3, 4]])) == -2
    assert bareiss_det(np.array([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30
    assert bareiss_det(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_bareiss_det_matches_leibniz(rows):
    assert bareiss_det(np.array(rows, dtype=np.int64)) == \
        oracles.perm_det(rows)


# -- homology of finite complexes ---------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_cyclic_trivial_homology_matches_oracle(m):
    got = homology_finite(cyclic_group(m), 3, module="trivial")
    for n, h in enumerate(got):
        want = oracles.cyclic_homology(m, n)
        assert h["betti"] == want["betti"], (m, n)
        assert h["torsion"] == want["torsion"], (m, n)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_group_ring_homology_vanishes(m):
    got = homology_finite(cyclic_group(m), 2, module="group-ring")
    for n, h in enumerate(got):
        want = oracles.group_ring_homology(n)
        assert h["betti"] == want["betti"]
        assert h["torsion"] == want["torsion"]


@pytest.mark.parametrize("m,p", [(2, 2), (2, 3), (3, 3), (4, 2), (6, 2),
                                 (6, 3), (6, 5)])
def test_cyclic_mod_p_dimensions_match_oracle(m, p):
    got = homology_finite(cyclic_group(m), 3, ring_name=f"Z/{p}",
                          module="trivial")
    for n, h in enumerate(got):
        assert h["betti"] == oracles.cyclic_homology_mod_p(m, n, p), (m, p, n)
        assert h["torsion"] == []


def test_rational_homology_of_cyclic_group():
    got = homology_finite(cyclic_group(4), 3, ring_name="Q",
                          module="trivial")
    assert [h["betti"] for h in got] == [1, 0, 0, 0]


def test_homology_ring_restrictions():
    with pytest.raises(InvalidElementError):
        homology_finite(cyclic_group(2), 1, ring_name="Z/4")
    with pytest.raises(InvalidElementError):
        homology_finite(cyclic_group(2), 1, ring_name="Z/6")


def test_homology_needs_finite_group():
    with pytest.raises(ResourceLimitError):
        homology_finite(Z, 1)


def test_h0_coinvariants_agrees():
    rep = h0_coinvariants(cyclic_group(4))
    assert rep["betti"] == 1 and rep["torsion"] == [] and rep["agrees"]
    rep2 = h0_coinvariants(cyclic_group(3), rank=2)
    assert rep2["betti"] == 2 and rep2["orbit_count"] == 2 and rep2["agrees"]
    rep3 = h0_coinvariants(trivial_group(), module="trivial")
    assert rep3["betti"] == 1 and rep3["agrees"]


def test_component_count_joins_faces_of_each_column():
    # columns join rows 0-1 and 2-3; the zero column joins nothing
    d1 = np.array([[1, 0, 0], [-1, 0, 0], [0, -1, 0], [0, 1, 0]])
    assert _component_count(d1) == 2
    assert _component_count(np.zeros((3, 2), dtype=np.int64)) == 3


def test_boundary_matrix_squares_to_zero():
    for m in (2, 3):
        G = cyclic_group(m)
        for module in ("group-ring", "trivial"):
            d1 = assemble_boundary_matrix(G, 1, module=module)["matrix"]
            d2 = assemble_boundary_matrix(G, 2, module=module)["matrix"]
            prod = np.asarray(d1, dtype=object) @ np.asarray(d2, dtype=object)
            assert np.all(prod == 0)


def test_matrix_json_roundtrip():
    M = np.array([[1, -2], [0, 5], [7, 0]], dtype=np.int64)
    back = matrix_from_json(matrix_to_json(M))
    assert back.shape == M.shape and np.all(back == M)


# -- window boundary solving ---------------------------------------------------

def test_window_finds_verified_preimage():
    c = Chain(Z, ZR, 1, 2)
    c.add_at((0,), ((1,), (2,)), (1,))
    c.add_at((3,), ((2,), (1,)), (-2,))
    cycle = boundary(c)
    res = is_boundary_window(cycle, 4, 4)
    assert res["verdict"] is True
    assert res["obstruction"] is None
    assert boundary(res["preimage"]) == cycle


def test_window_obstruction_for_nontrivial_class():
    # a point mass in degree 0 has augmentation 1, never a boundary
    c = Chain(Z, ZR, 1, 0)
    c.add_at((0,), (), (1,))
    res = is_boundary_window(c, 3, 3)
    assert res["verdict"] is False
    assert res["preimage"] is None
    assert res["obstruction"]["kind"] in ("divisibility", "out-of-image")


def test_window_too_small_then_large_enough():
    c = Chain(Z, ZR, 1, 0)
    c.add_at((10,), (), (1,))
    c.add_at((0,), (), (-1,))
    small = is_boundary_window(c, 3, 3)
    assert small["verdict"] is False
    assert small["obstruction"]["kind"] == "out-of-image"
    big = is_boundary_window(c, 10, 10)
    assert big["verdict"] is True
    assert boundary(big["preimage"]) == c


def test_window_over_rationals():
    from fractions import Fraction
    c = Chain(Z, QR, 1, 1)
    c.add_at((0,), ((2,),), (Fraction(1, 2),))
    cycle = boundary(c)
    res = is_boundary_window(cycle, 3, 3)
    assert res["verdict"] is True
    assert boundary(res["preimage"]) == cycle


def test_window_guards():
    not_cycle = Chain(Z, ZR, 1, 1)
    not_cycle.add_at((0,), ((1,),), (1,))
    with pytest.raises(NotACycleError):
        is_boundary_window(not_cycle, 2, 2)
    modp = Chain(Z, ring_from_name("Z/5"), 1, 0)
    with pytest.raises(InvalidElementError):
        is_boundary_window(modp, 2, 2)
    wide = Chain(Z, ZR, 1, 0)
    wide.add_at((0,), (), (1,))
    with pytest.raises(ResourceLimitError):
        is_boundary_window(wide, 3, 3, column_cap=5)


# -- induced maps on homology ----------------------------------------------------

@pytest.mark.parametrize("name", ["triv-into-z2", "z2-to-z3-const",
                                  "z4-mod-z2"])
def test_induced_map_is_iso_on_group_ring_homology(name):
    rep = induced_map_on_homology(get_map(name), 2)
    assert rep["iso_all"], rep
    for d in rep["degrees"]:
        assert d["chain_map_ok"]
        assert d["structure_source"] == d["structure_target"]
        assert d["surjective"]


def test_induced_map_needs_finite_groups():
    with pytest.raises(ResourceLimitError):
        induced_map_on_homology(get_map("z-double"), 1)
