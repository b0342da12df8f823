"""Chains, boundaries, cochains, induced maps, homotopies."""

import pytest
from hypothesis import example, given, settings, strategies as st

from coarsehom.coarsemaps import CoarseMap, compose, identity_map, omega
from coarsehom.complexes import Chain, Cochain, bar_boundary, boundary, \
    chi, chi_inv, coboundary, cochain_from_chain, homotopy_k, \
    homotopy_k_cochain, homotopy_l, homotopy_l_cochain, \
    induced_chain_map, induced_cochain_map, random_chain
from coarsehom.errors import GroupMismatchError, InvalidElementError
from coarsehom.gallery import get_group, get_map, group_names
from coarsehom.groups import FreeGroup, InfiniteDihedral, IntLattice, \
    cyclic_group
from coarsehom.resmodules import FinSupFun
from coarsehom.rings import ring_from_name

import oracles

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


def test_chain_and_function_do_not_mix():
    # a chain's keys are points (x, gvec), a function's are elements: a
    # sum of the two would store a key that was never validated
    c = Chain(Z, ZR, 1, 1, {((0,), ((1,),)): (1,)})
    f = FinSupFun(Z, ZR, 1, {(0,): (1,)})
    with pytest.raises(GroupMismatchError):
        f + c
    with pytest.raises(GroupMismatchError):
        c + f
    assert f != c and c != f
    assert not f == c and not c == f


def test_random_chain_deterministic():
    a = random_chain(Z, ZR, 1, 2, 3, terms=5, seed=99)
    b = random_chain(Z, ZR, 1, 2, 3, terms=5, seed=99)
    assert a == b
    c = random_chain(Z, ZR, 1, 2, 3, terms=5, seed=100)
    assert a != c


# -- validated at the boundary, trusted inside ----------------------------------

def _no_zero_values(obj):
    return all(any(c != 0 for c in v) for v in obj.data.values())


@pytest.mark.parametrize("key,value", [
    ((("a",), ((1,),)), (1,)),          # x is not an element
    (((0,), ((1, 2),)), (1,)),          # an entry of gvec is not
    (((0,), ((1,), (2,))), (1,)),       # gvec has the wrong length
    (((0,), ()), (1,)),
    (((0,), ((1,),)), (1, 2)),          # the value has the wrong rank
    (((0,), ((1,),)), ()),
], ids=["bad-x", "bad-g", "long-gvec", "short-gvec", "long-value",
        "empty-value"])
def test_chain_entry_points_reject_bad_input(key, value):
    c = Chain(Z, ZR, 1, 1)
    with pytest.raises(InvalidElementError):
        c[key] = value
    with pytest.raises(InvalidElementError):
        c.add_at(*key, value)
    with pytest.raises(InvalidElementError):
        Chain(Z, ZR, 1, 1, {key: value})
    assert c.is_zero()


def test_chain_from_json_rejects_bad_input():
    c = Chain(Z, ZR, 1, 1, {((0,), ((1,),)): (2,), ((3,), ((1,),)): (1,)})
    good = c.to_json()
    assert Chain.from_json(Z, good) == c

    def bad(edit):
        obj = c.to_json()
        edit(obj)
        with pytest.raises(InvalidElementError):
            Chain.from_json(Z, obj)

    bad(lambda o: o["slices"].append(o["slices"][0]))       # duplicate tuple
    bad(lambda o: o["slices"][0][1]["support"].append(
        o["slices"][0][1]["support"][0]))                  # duplicate point
    bad(lambda o: o["slices"][0].__setitem__(0, [[1, 2]]))  # not an element
    bad(lambda o: o["slices"][0].__setitem__(0, [[1], [2]]))  # wrong length
    bad(lambda o: o["slices"][0][1]["support"][0].__setitem__(0, [1, 1]))
    bad(lambda o: o["slices"][0][1].__setitem__("rank", 2))  # wrong rank


def test_chi_checks_tuple_lengths_and_modules():
    f = FinSupFun(Z, ZR, 1, {(0,): (1,)})
    with pytest.raises(InvalidElementError):
        chi(Z, ZR, 1, 2, {((1,),): f})
    with pytest.raises(GroupMismatchError):
        chi(Z, ZR, 2, 1, {((1,),): f})


def test_maps_with_bad_outputs_are_rejected():
    c = Chain(Z, ZR, 1, 1, {((0,), ((1,),)): (1,)})
    junk = CoarseMap(Z, Z, lambda g: (g[0], 0), name="junk")
    with pytest.raises(InvalidElementError):
        induced_chain_map(junk, c)
    with pytest.raises(InvalidElementError):
        homotopy_k(identity_map(Z), junk, c)
    with pytest.raises(InvalidElementError):
        homotopy_k(junk, identity_map(Z), c)


def test_no_zero_vector_is_stored():
    z6 = ring_from_name("Z/6")
    c = Chain(Z, z6, 2, 1, {((0,), ((1,),)): (3, 0), ((1,), ((1,),)): (3, 1)})
    doubled = c.scale(2)                    # 2 * 3 = 0 in Z/6
    assert doubled.data == {((1,), ((1,),)): (0, 2)}
    assert c.scale(6).is_zero()
    assert (c + (-c)).is_zero() and (c - c).is_zero()
    d = Chain(Z, z6, 2, 1, {((0,), ((1,),)): (3, 0)})
    assert (c + d).data == {((1,), ((1,),)): (3, 1)}   # 3 + 3 = 0
    f = FinSupFun(Z, z6, 1, {(0,): (3,), (1,): (2,)})
    assert f.scale(2).data == {(1,): (4,)}
    assert (f + f.scale(5)).is_zero()
    for ring in ("Z", "Q", "Z/5"):
        r = random_chain(FreeGroup(2), ring_from_name(ring), 2, 2, 2,
                         terms=6, seed=4)
        for out in (r, boundary(r), bar_boundary(r), r - r.scale(2),
                    induced_chain_map(get_map("f2-abelianize"), r)):
            assert _no_zero_values(out)


# a gallery map out of each group that has one, beside the left shift
_GALLERY_MAP_FROM = {"Z": "z-into-z2", "F2": "f2-abelianize",
                     "Z/2": "z2-to-z3-const", "Z/4": "z4-mod-z2",
                     "triv": "triv-into-z2"}


def _left_shift(G):
    gens = G.generators()
    s = gens[0] if gens else G.identity()
    return s, CoarseMap(G, G, lambda x: G.mul(s, x), name="left-shift")


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("ring_name", ["Z", "Q", "Z/7"])
@pytest.mark.parametrize("name", group_names())
@given(seed=st.integers(0, 10**6), degree=st.integers(0, 3))
@settings(max_examples=6, deadline=None)
def test_trusted_writes_match_validating_reference(name, ring_name, rank,
                                                   seed, degree):
    G, R = get_group(name), ring_from_name(ring_name)
    c = random_chain(G, R, rank, degree, 2, terms=4, seed=seed)
    want = oracles.reference_boundary(c).data
    assert boundary(c).data == want
    assert bar_boundary(c).data == want
    s, shift = _left_shift(G)
    maps = [shift] + ([get_map(_GALLERY_MAP_FROM[name])]
                      if name in _GALLERY_MAP_FROM else [])
    for phi in maps:
        assert induced_chain_map(phi, c).data == \
            oracles.reference_induced(phi, c).data
    ident = identity_map(G)
    for phi, psi in ((ident, shift), (shift, ident)):
        assert homotopy_k(phi, psi, c).data == \
            oracles.reference_homotopy(phi, psi, c).data
    f, g = (random_chain(G, R, rank, 0, 2, terms=4, seed=seed + k)
            .slices().get((), FinSupFun(G, R, rank)) for k in (1, 2))
    assert (f + g).data == oracles.reference_fun_sum(f, g).data
    assert (-f).data == oracles.reference_fun_neg(f).data
    assert (f - g).data == \
        oracles.reference_fun_sum(f, oracles.reference_fun_neg(g)).data
    assert (f - f).is_zero()
    assert f.translate(s).data == oracles.reference_translate(s, f).data


# -- chains whose faces cancel --------------------------------------------------

@pytest.mark.parametrize("ring_name", ["Z/2", "Z/3", "Z/6"])
def test_boundary_routes_agree_where_terms_cancel(ring_name):
    c = Chain(Z, ring_from_name(ring_name), 2, 2)
    # (0, (1, -1)), written twice, sends its middle face to (0, (0,))
    # with the sign -; the three faces of (0, (0, 0)) all land there,
    # with the signs +, - and +.  So that point leaves the sum, comes
    # back and leaves again, and the slice (0,) of the boundary sums to
    # zero.
    c.add_at((0,), ((1,), (-1,)), (1, 1))
    c.add_at((0,), ((1,), (-1,)), (0, 1))
    c.add_at((0,), ((0,), (0,)), (1, 2))
    # a point written twice that cancels itself
    c.add_at((1,), ((1,), (1,)), (1, 1))
    c.add_at((1,), ((1,), (1,)), (-1, -1))
    d = boundary(c)
    assert len(c.data) == 2
    assert d.data == bar_boundary(c).data == \
        oracles.reference_boundary(c).data
    assert ((0,),) not in d.slices()
    assert boundary(d).is_zero()


@pytest.mark.parametrize("ring_name", ["Z/2", "Z/3", "Z/6"])
@pytest.mark.parametrize("group", [Z, cyclic_group(6)],
                         ids=["Z", "Z/6"])
@given(seed=st.integers(0, 10**6), degree=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_boundary_routes_agree_on_crowded_chains(group, ring_name, seed,
                                                 degree):
    # twelve terms on the ball of radius 1: points repeat, faces collide
    # and sums reach zero, by doubling in Z/2 and Z/6
    c = random_chain(group, ring_from_name(ring_name), 2, degree, 1,
                     terms=12, seed=seed)
    want = oracles.reference_boundary(c).data
    assert boundary(c).data == want
    assert bar_boundary(c).data == want


# Window cycles (random_chain(G, R, 1, 2, 1, terms=3, seed) as the
# window-boundary experiment draws them), each with a face that sums to
# zero and is added again.  is_boundary_window numbers its rows in the
# cycle's key order, so that order is pinned.
_CYCLE_KEYS = [
    ("Z", "Z", 4, [((-1,), ((0,),)), ((1,), ((0,),)), ((-1,), ((-1,),)),
                   ((0,), ((0,),)), ((0,), ((1,),))]),
    ("Z2", "Q", 20, [((0, 2), ((0, 0),)), ((-1, -1), ((0, 0),)),
                     ((1, 0), ((0, 0),))]),
    ("Dinf", "Z/7", 2, [((0, 0), ((0, 0),)), ((-1, 1), ((1, 0),)),
                        ((0, 1), ((2, 0),)), ((0, 1), ((1, 0),)),
                        ((0, 1), ((0, 0),))]),
]


@pytest.mark.parametrize("group,ring_name,seed,keys", _CYCLE_KEYS)
def test_boundary_key_order_is_pinned(group, ring_name, seed, keys):
    c = random_chain(get_group(group), ring_from_name(ring_name), 1, 2, 1,
                     terms=3, seed=seed)
    assert list(boundary(c).data) == keys
