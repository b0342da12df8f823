"""Chains, boundaries, cochains, induced maps, homotopies."""

import pytest
from hypothesis import example, given, settings, strategies as st

from coarsehom.coarsemaps import compose, identity_map, omega
from coarsehom.complexes import Chain, Cochain, bar_boundary, boundary, \
    chi, chi_inv, coboundary, cochain_from_chain, homotopy_k, \
    homotopy_k_cochain, homotopy_l, homotopy_l_cochain, \
    induced_chain_map, induced_cochain_map, random_chain
from coarsehom.errors import GroupMismatchError
from coarsehom.gallery import get_map
from coarsehom.groups import FreeGroup, InfiniteDihedral, IntLattice, \
    cyclic_group
from coarsehom.rings import ring_from_name

Z = IntLattice(1)
ZR = ring_from_name("Z")
GROUPS = [IntLattice(1), IntLattice(2), FreeGroup(2),
          InfiniteDihedral(), cyclic_group(6)]


def test_boundary_degree1_frozen():
    # face 0 of (x, (g,)) is g^-1 x, face 1 is x
    c = Chain(Z, ZR, 1, 1)
    c.add_at((5,), ((2,),), (1,))
    b = boundary(c)
    want = Chain(Z, ZR, 1, 0)
    want.add_at((3,), (), (1,))
    want.add_at((5,), (), (-1,))
    assert b == want


def test_boundary_degree2_frozen():
    # faces of (x, (g1, g2)): (g1^-1 x, (g2,)), (x, (g1 g2,)), (x, (g1,))
    c = Chain(Z, ZR, 1, 2)
    c.add_at((0,), ((1,), (2,)), (1,))
    b = boundary(c)
    want = Chain(Z, ZR, 1, 1)
    want.add_at((-1,), ((2,),), (1,))
    want.add_at((0,), ((3,),), (-1,))
    want.add_at((0,), ((1,),), (1,))
    assert b == want


@given(st.sampled_from(GROUPS), st.sampled_from(["Z", "Q", "Z/5"]),
       st.integers(2, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_boundary_squares_to_zero(group, ring_name, degree, seed):
    c = random_chain(group, ring_from_name(ring_name), 1, degree, 2,
                     terms=4, seed=seed)
    assert boundary(boundary(c)).is_zero()


@given(st.sampled_from(GROUPS), st.sampled_from(["Z", "Q", "Z/5"]),
       st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_two_boundary_routes_agree(group, ring_name, degree, seed):
    c = random_chain(group, ring_from_name(ring_name), 1, degree, 2,
                     terms=4, seed=seed)
    assert boundary(c) == bar_boundary(c)


def test_chi_roundtrip_frozen():
    c = Chain(Z, ZR, 2, 1)
    c.add_at((0,), ((1,),), (1, 0))
    c.add_at((2,), ((1,),), (0, 3))
    slices = chi_inv(c)
    assert set(slices) == {((1,),)}
    f = slices[((1,),)]
    assert f[(0,)] == (1, 0) and f[(2,)] == (0, 3)
    assert chi(Z, ZR, 2, 1, slices) == c


@given(st.sampled_from(GROUPS), st.integers(0, 10**6), st.integers(0, 4))
@example(cyclic_group(6), 0, 0)
@settings(max_examples=40, deadline=None)
def test_chain_json_roundtrip(group, seed, terms):
    # terms = 0 is the zero chain, whose JSON has no slices
    c = random_chain(group, ZR, 2, 2, 2, terms=terms, seed=seed)
    assert Chain.from_json(group, c.to_json()) == c


def test_induced_map_frozen():
    phi = get_map("z-double")
    c = Chain(Z, ZR, 1, 1)
    c.add_at((1,), ((2,),), (3,))
    img = induced_chain_map(phi, c)
    want = Chain(Z, ZR, 1, 1)
    want.add_at((2,), ((4,),), (3,))
    assert img == want


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_chain_map_commutes(seed, degree):
    phi = get_map("z-to-dihedral")
    c = random_chain(phi.source, ZR, 1, degree, 3, terms=4, seed=seed)
    assert boundary(induced_chain_map(phi, c)) == \
        induced_chain_map(phi, boundary(c))


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_functoriality(seed, degree):
    phi = get_map("z-double")
    psi = get_map("z-into-z2")
    c = random_chain(phi.source, ZR, 1, degree, 3, terms=4, seed=seed)
    assert induced_chain_map(compose(psi, phi), c) == \
        induced_chain_map(psi, induced_chain_map(phi, c))


def _homotopy_defect(phi, psi, c):
    lhs = boundary(homotopy_k(phi, psi, c))
    if c.degree >= 1:
        lhs = lhs + homotopy_k(phi, psi, boundary(c))
    rhs = induced_chain_map(psi, c) - induced_chain_map(phi, c)
    return lhs, rhs


@given(st.integers(0, 10**6), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_homotopy_identity_close_pair(seed, degree):
    phi, psi = get_map("z-double"), get_map("z-double-shift")
    c = random_chain(phi.source, ZR, 1, degree, 3, terms=3, seed=seed)
    lhs, rhs = _homotopy_defect(phi, psi, c)
    assert lhs == rhs


@given(st.integers(0, 10**6), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_homotopy_identity_any_pair(seed, degree):
    # the prism identity never needs closeness
    phi, psi = identity_map(Z), get_map("z-double")
    c = random_chain(Z, ZR, 1, degree, 3, terms=3, seed=seed)
    lhs, rhs = _homotopy_defect(phi, psi, c)
    assert lhs == rhs


@given(st.integers(0, 10**6), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_omega_homotopy_identity(seed, degree):
    phi = get_map("z-double")
    om, _ = omega(phi, 10)
    c = random_chain(phi.target, ZR, 1, degree, 3, terms=3, seed=seed)
    lhs = boundary(homotopy_l(phi, om, c))
    if degree >= 1:
        lhs = lhs + homotopy_l(phi, om, boundary(c))
    rhs = induced_chain_map(compose(phi, om), c) - c
    assert lhs == rhs


def test_cochain_window_equality():
    f = Cochain(Z, ZR, 1, 1, lambda gvec, x: (gvec[0][0],))
    g = Cochain(Z, ZR, 1, 1, lambda gvec, x: (gvec[0][0],))
    h = Cochain(Z, ZR, 1, 1, lambda gvec, x: (gvec[0][0] + x[0],))
    assert f.equal_on_window(g, 3)
    assert not f.equal_on_window(h, 3)


def test_coboundary_squares_to_zero_pointwise():
    f = Cochain(Z, ZR, 1, 0, lambda gvec, x: (x[0] * x[0],))
    dd = coboundary(coboundary(f))
    assert dd.is_zero_on_window(2)


def test_coboundary_frozen_degree0():
    # (d f)(g; x) = f(g^-1 x) - f(x) on functions of the point
    f = Cochain(Z, ZR, 1, 0, lambda gvec, x: (x[0],))
    df = coboundary(f)
    assert df.value(((3,),), (10,)) == (-3,)


def test_induced_cochain_map_window():
    phi = get_map("z-double")
    f = Cochain(phi.target, ZR, 1, 1, lambda gvec, x: (gvec[0][0],))
    pf = induced_cochain_map(phi, f)
    assert pf.value(((1,),), (0,)) == (2,)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_cochain_homotopy_identity_on_window(seed):
    phi, psi = get_map("z-double"), get_map("z-double-shift")
    f = Cochain(Z, ZR, 1, 1,
                lambda gvec, x, s=seed: ((gvec[0][0] * 2 + x[0] + s) % 7,))
    kd = homotopy_k_cochain(phi, psi, coboundary(f))
    dk = coboundary(homotopy_k_cochain(phi, psi, f))
    lhs = kd + dk
    rhs = induced_cochain_map(psi, f) - induced_cochain_map(phi, f)
    assert lhs.equal_on_window(rhs, 2)


def test_degree_mismatch_raises():
    c = Chain(Z, ZR, 1, 1)
    c2 = Chain(Z, ZR, 1, 2)
    with pytest.raises(GroupMismatchError):
        c + c2


def test_random_chain_deterministic():
    a = random_chain(Z, ZR, 1, 2, 3, terms=5, seed=99)
    b = random_chain(Z, ZR, 1, 2, 3, terms=5, seed=99)
    assert a == b
    c = random_chain(Z, ZR, 1, 2, 3, terms=5, seed=100)
    assert a != c
