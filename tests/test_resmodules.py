"""Finitely supported functions: action laws, transfer operators,
the two lemma identities, span checks over finite groups."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coarsehom.coarsemaps import CoarseMap, section
from coarsehom.errors import InvalidElementError, ResourceLimitError
from coarsehom.gallery import get_map
from coarsehom.groups import Group, IntLattice, cyclic_group
from coarsehom.resmodules import FinSupFun, delta, pull_push_identity, \
    pull_span_identity, pullback, push_span_generators, pushforward, \
    spans_equal, translate_push_identity
from coarsehom.rings import ring_from_name

Z = IntLattice(1)
ZR = ring_from_name("Z")

EMBEDDINGS = ["z-double", "z-double-floor", "z-double-shift",
              "z-parity-shift", "z-identity", "z-into-z2",
              "z-to-dihedral", "triv-into-z2", "z2-to-z3-const",
              "z4-mod-z2"]


@st.composite
def z_funs(draw):
    pairs = draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=5))
    f = FinSupFun(Z, ZR, 1, {})
    for g, v in pairs:
        f[(g,)] = (f[(g,)][0] + v,)
    return f


@given(z_funs(), z_funs())
@settings(max_examples=50)
def test_addition_laws(f, g):
    assert f + g == g + f
    assert (f + g) - g == f
    assert (f - f).support() == []


@given(z_funs(), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=50)
def test_translate_is_action(f, a, b):
    ga, gb = (a,), (b,)
    assert f.translate(Z.identity()) == f
    assert f.translate(ga).translate(gb) == f.translate(Z.mul(gb, ga))


@given(z_funs(), st.sets(st.integers(-6, 6), max_size=4),
       st.sets(st.integers(-6, 6), max_size=4))
@settings(max_examples=50)
def test_restrict_intersection_law(f, A, B):
    sa = {(x,) for x in A}
    sb = {(x,) for x in B}
    assert f.restrict(sa).restrict(sb) == f.restrict(sa & sb)
    assert f.restrict(sa).restrict(sa) == f.restrict(sa)


def test_translate_frozen():
    f = delta(Z, ZR, 1, (2,))
    g = f.translate((3,))
    assert g.support() == [(5,)]


def test_pushforward_frozen():
    phi = get_map("z4-mod-z2")
    f = FinSupFun(cyclic_group(4), ZR, 1, {0: (1,), 2: (2,), 1: (5,)})
    pf = pushforward(phi, f)
    assert pf[0] == (3,)
    assert pf[1] == (5,)


@given(z_funs(), z_funs())
@settings(max_examples=30)
def test_pushforward_linear(f, g):
    phi = get_map("z-double")
    assert pushforward(phi, f + g) == \
        pushforward(phi, f) + pushforward(phi, g)


@given(z_funs())
@settings(max_examples=30)
def test_pushforward_functorial(f):
    phi = get_map("z-double")
    psi = get_map("z-into-z2")
    from coarsehom.coarsemaps import compose
    both = compose(psi, phi)
    assert pushforward(both, f) == pushforward(psi, pushforward(phi, f))


def test_pullback_frozen():
    phi = get_map("z-double")
    f = delta(phi.target, ZR, 1, (6,))
    pb = pullback(phi, f, 8)
    assert pb.support() == [(3,)]
    odd = delta(phi.target, ZR, 1, (7,))
    assert pullback(phi, odd, 8).support() == []


def test_pullback_boundary_honesty():
    phi = get_map("f2-abelianize")
    f = delta(phi.target, ZR, 1, (0, 0))
    with pytest.raises(ResourceLimitError):
        pullback(phi, f, 4)


def test_pull_push_identity_gallery():
    for name in EMBEDDINGS:
        phi = get_map(name)
        for g in phi.source.ball(3):
            rep = pull_push_identity(phi, delta(phi.source, ZR, 1, g), 3)
            assert rep["holds"], (name, g)


def test_translate_push_identity_gallery():
    for name in ["z-double", "z-double-shift", "z-into-z2",
                 "z-to-dihedral"]:
        phi = get_map(name)
        sec = section(phi, 12)
        for g in phi.source.ball(2):
            f = delta(phi.source, ZR, 1, g)
            for h in phi.target.ball(1):
                rep = translate_push_identity(phi, h, f, 4, sec)
                assert rep["holds"], (name, g, h)


def test_pull_span_identity_finite_maps():
    expect = {"triv-into-z2": 1, "z2-to-z3-const": 2, "z4-mod-z2": 4}
    for name, dim in expect.items():
        rep = pull_span_identity(get_map(name))
        assert rep["holds"]
        assert rep["dimension"] == dim
        assert all(d == 1 for d in rep["divisors"])


def test_push_spans_of_close_maps_agree():
    phi = get_map("z4-mod-z2")
    psi = CoarseMap(cyclic_group(4), cyclic_group(2), lambda g: 0,
                    name="z4-const")
    ga = push_span_generators(phi)
    gb = push_span_generators(psi)
    assert spans_equal(ga, gb, cyclic_group(2))


def test_push_span_not_equal_when_proper_subspan():
    G2 = cyclic_group(2)
    half = [delta(G2, ZR, 1, 0, (2,))]
    full = [delta(G2, ZR, 1, 0), delta(G2, ZR, 1, 1)]
    assert not spans_equal(half, full, G2)


def test_json_roundtrip_and_duplicates():
    f = FinSupFun(Z, ZR, 2, {(0,): (1, 2), (3,): (0, -1)})
    j = f.to_json()
    assert FinSupFun.from_json(Z, j) == f
    j2 = f.to_json()
    j2["support"].append(j2["support"][0])
    with pytest.raises(InvalidElementError):
        FinSupFun.from_json(Z, j2)


def test_json_reads_each_coefficient_normalized():
    """A Z/7 value of 7 or more reads as its residue, one that reads 0
    leaves the support, and a Q value reads as its reduced Fraction."""
    z7 = FinSupFun.from_json(Z, {"ring": "Z/7", "rank": 2, "support": [
        [[0], [9, 14]], [[1], [7, -1]], [[2], [21, 0]]]})
    assert z7.data == {(0,): (2, 0), (1,): (0, 6)}
    q = FinSupFun.from_json(Z, {"ring": "Q", "rank": 1,
                                "support": [[[0], ["4/6"]], [[1], ["3"]]]})
    assert q.data == {(0,): (Fraction(2, 3),), (1,): (Fraction(3),)}
    assert q.to_json()["support"] == [[[0], ["2/3"]], [[1], ["3"]]]


@pytest.mark.parametrize("g,v", [
    (("a",), (1,)), ((1, 2), (1,)), (1, (1,)), ((0,), (1, 2)), ((0,), ()),
], ids=["not-int", "long-tuple", "not-tuple", "long-value", "empty-value"])
def test_function_entry_points_reject_bad_input(g, v):
    f = FinSupFun(Z, ZR, 1)
    with pytest.raises(InvalidElementError):
        f[g] = v
    with pytest.raises(InvalidElementError):
        FinSupFun(Z, ZR, 1, {g: v})
    with pytest.raises(InvalidElementError):
        delta(Z, ZR, 1, g, v)
    assert f.is_zero()


def test_function_json_checks_each_point_once(monkeypatch):
    calls = []
    real = Group.check_element

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(Group, "check_element", counted)
    f = FinSupFun(Z, ZR, 2, {(0,): (1, 2), (3,): (0, -1), (-4,): (5, 0)})
    j = f.to_json()
    calls.clear()
    assert FinSupFun.from_json(Z, j) == f
    assert sorted(calls) == sorted(f.data)


def test_function_translate_and_json_reject_bad_input():
    f = FinSupFun(Z, ZR, 1, {(0,): (1,)})
    for g in [(1, 2), ("a",), 3]:
        with pytest.raises(InvalidElementError):
            f.translate(g)
    for support in ([[[1, 2], [1]]], [[[0], [1, 2]]], [[[0], [1]], [[0], [2]]]):
        with pytest.raises(InvalidElementError):
            FinSupFun.from_json(Z, {"ring": "Z", "rank": 1,
                                    "support": support})
