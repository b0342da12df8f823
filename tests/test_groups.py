"""Group layer: normal forms, word metric, ball enumeration, JSON."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsehom import groups
from coarsehom.errors import InvalidElementError, ResourceLimitError
from coarsehom.gallery import get_group, group_names
from coarsehom.groups import FiniteGroup, FreeGroup, InfiniteDihedral, \
    IntLattice, ProductGroup, cyclic_group, finite_dihedral, \
    group_from_json, trivial_group

import oracles

Z = IntLattice(1)
Z2 = IntLattice(2)
F2 = FreeGroup(2)
DINF = InfiniteDihedral()


def test_ball_sizes_frozen():
    assert len(Z.ball(3)) == 7
    assert len(Z2.ball(2)) == 13
    assert len(F2.ball(2)) == 17
    assert len(DINF.ball(3)) == 12


def test_ball_sizes_match_oracles():
    for r in range(5):
        assert len(Z.ball(r)) == oracles.zd_ball_count(1, r)
        assert len(Z2.ball(r)) == oracles.zd_ball_count(2, r)
        assert len(F2.ball(r)) == oracles.f2_ball_count(r)
        assert len(DINF.ball(r)) == oracles.dihedral_infinite_ball_count(r)


def test_ball_order_is_length_then_key():
    ball = Z.ball(2)
    assert ball == [(0,), (1,), (-1,), (2,), (-2,)]
    lengths = [Z.word_length(g) for g in ball]
    assert lengths == sorted(lengths)


def test_group_ops_frozen():
    assert Z.mul((2,), (3,)) == (5,)
    assert Z.inv((4,)) == (-4,)
    assert F2.mul((1, 2), (-2, 1)) == (1, 1)
    assert F2.inv((1, 2)) == (-2, -1)
    assert DINF.mul((1, 1), (2, 0)) == (-1, 1)
    assert DINF.inv((3, 1)) == (3, 1)
    assert cyclic_group(4).mul(3, 2) == 1
    assert finite_dihedral(3).order() == 6


def test_identity_laws_exhaustive_finite():
    for G in (cyclic_group(6), finite_dihedral(3),
              ProductGroup(cyclic_group(2), cyclic_group(2))):
        e = G.identity()
        for g in G.elements():
            assert G.mul(e, g) == g
            assert G.mul(g, e) == g
            assert G.mul(g, G.inv(g)) == e


def test_associativity_exhaustive_d3():
    G = finite_dihedral(3)
    for a in G.elements():
        for b in G.elements():
            for c in G.elements():
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_word_length_triangle_z(a, b):
    g, h = (a,), (b,)
    assert Z.word_length(Z.mul(g, h)) <= Z.word_length(g) + Z.word_length(h)


@st.composite
def f2_words(draw):
    letters = draw(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6))
    w = ()
    for x in letters:
        if w and w[-1] == -x:
            w = w[:-1]
        else:
            w = w + (x,)
    return w


@given(f2_words(), f2_words())
@settings(max_examples=60)
def test_word_length_triangle_f2(g, h):
    assert F2.word_length(F2.mul(g, h)) <= \
        F2.word_length(g) + F2.word_length(h)


@given(f2_words())
@settings(max_examples=60)
def test_inverse_preserves_length_f2(g):
    assert F2.word_length(F2.inv(g)) == F2.word_length(g)


def test_invalid_elements_rejected():
    with pytest.raises(InvalidElementError):
        Z.check_element((1, 2))
    with pytest.raises(InvalidElementError):
        F2.check_element((1, -1))
    with pytest.raises(InvalidElementError):
        cyclic_group(4).check_element(7)


def test_finite_group_enumeration_matches_ball():
    G = finite_dihedral(3)
    assert sorted(G.ball(10)) == sorted(G.elements())
    assert G.is_finite()
    assert not Z.is_finite()


def test_infinite_enumeration_capped():
    with pytest.raises(ResourceLimitError):
        Z.elements()


def test_json_roundtrip_all_families():
    for G in (Z, Z2, F2, DINF, trivial_group(), cyclic_group(6),
              finite_dihedral(3),
              ProductGroup(cyclic_group(2), cyclic_group(3))):
        H = group_from_json(G.to_json())
        assert H == G
        g = G.ball(2)[-1]
        assert H.element_from_json(G.element_to_json(g)) == g


def test_product_group_order():
    P = ProductGroup(cyclic_group(2), cyclic_group(3))
    assert P.order() == 6
    assert P.elements()[0] == P.identity()


# coordinates mostly small, sometimes past what int64 holds
_COORD = st.one_of(st.integers(-60, 60), st.integers(-2 ** 70, 2 ** 70))
_D3 = finite_dihedral(3)

# name -> (group, element strategy)
PAIR_LENGTH_GROUPS = {
    "Z": (Z, st.tuples(_COORD)),
    "Z2": (Z2, st.tuples(_COORD, _COORD)),
    "Dinf": (DINF, st.tuples(_COORD, st.integers(0, 1))),
    "D3": (_D3, st.integers(0, 5)),
    "F2": (F2, st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(
        lambda letters: reduce(lambda w, x: F2.mul(w, (x,)), letters, ()))),
}


def _assert_pair_lengths_exact(G, xs, ys):
    got = G.pair_lengths(xs, ys)
    want = [[G.word_length(G.mul(x, G.inv(y))) for y in ys] for x in xs]
    assert got.shape == (len(xs), len(ys))
    assert got.tolist() == want
    # int64 exactly when every length fits
    fits = all(v < 2 ** 63 for row in want for v in row)
    assert got.dtype == (np.int64 if fits else object)


@pytest.mark.parametrize("name", sorted(PAIR_LENGTH_GROUPS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pair_lengths_match_word_lengths(name, data):
    G, elements = PAIR_LENGTH_GROUPS[name]
    xs = data.draw(st.lists(elements, max_size=5), label="xs")
    ys = data.draw(st.lists(elements, max_size=5), label="ys")
    _assert_pair_lengths_exact(G, xs, ys)
    # the blocks of rows, stacked, are the square matrix over xs
    rows = data.draw(st.integers(1, 3), label="rows")
    stacked = [row for block in G.pair_length_blocks(xs, rows)
               for row in block.tolist()]
    assert stacked == G.pair_lengths(xs, xs).tolist()


@pytest.mark.parametrize("G,xs,ys", [
    # |x - y| = 2^63 - 1 fits; 2^63 does not and takes the exact fallback
    (Z, [(2 ** 62 - 1,)], [(-2 ** 62,)]),
    (Z, [(2 ** 62,)], [(-2 ** 62,)]),
    (Z2, [(2 ** 62, 0), (1, 1)], [(0, -2 ** 62), (0, 0)]),
    (DINF, [(2 ** 62, 1)], [(2 ** 62 - 1, 0), (5, 1)]),
    # each factor fits in int64, their sum does not
    (ProductGroup(Z, Z), [((2 ** 62,), (2 ** 62,))], [((0,), (0,))]),
    (Z, [(2 ** 70,)], [(-3,)]),
], ids=["z-fits", "z-past", "z2-past", "dinf-past", "product-sum-past",
        "z-huge"])
def test_pair_lengths_past_int64_stay_exact(G, xs, ys):
    _assert_pair_lengths_exact(G, xs, ys)


# -- ball memo and enumeration cost --------------------------------------------

def _count_calls(monkeypatch, G, name):
    calls = []
    real = getattr(G, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(G, name, counted)
    return calls


def test_ball_stops_after_its_last_sphere(monkeypatch):
    F = FreeGroup(2)
    muls = _count_calls(monkeypatch, F, "mul")
    ball = F.ball(3)
    # spheres 1..3 come from spheres 0..2: (1 + 4 + 12) * 4 products
    assert len(muls) == 68
    letter = {1: (1, 0), -1: (1, 1), 2: (2, 0), -2: (2, 1)}
    assert ball == sorted(oracles.f2_reduced_words(3),
                          key=lambda w: (len(w), [letter[x] for x in w]))
    assert ball[:7] == [(), (1,), (-1,), (2,), (-2,), (1, 1), (1, 2)]


def test_ball_memo_serves_fresh_lists(monkeypatch):
    F = FreeGroup(2)
    spheres = _count_calls(monkeypatch, F, "_spheres")
    first = F.ball(3)
    want = list(first)
    first[0] = "junk"
    assert F.ball(3) == want
    F.ball(3).clear()
    assert F.ball(3) == want
    assert F.ball(1) == [(), (1,), (-1,), (2,), (-2,)]
    assert F.ball(0) == [()]
    assert len(spheres) == 1
    assert len(F.ball(4)) == oracles.f2_ball_count(4)
    assert len(spheres) == 2
    # a finite group's memo covers every larger radius
    C6 = cyclic_group(6)
    spheres = _count_calls(monkeypatch, C6, "_spheres")
    C6.ball(5).clear()
    C6.ball(50).clear()
    assert C6.ball(5) == C6.ball(50) == [0, 1, 5, 2, 4, 3]
    assert len(spheres) == 1


def test_ball_with_another_cap_bypasses_the_memo(monkeypatch):
    F = FreeGroup(2)
    spheres = _count_calls(monkeypatch, F, "_spheres")
    assert len(F.ball(3)) == 53
    # the cap counts the ball exactly: 53 fits in 53, not in 52
    assert len(F.ball(3, cap=53)) == 53
    with pytest.raises(ResourceLimitError):
        F.ball(3, cap=52)
    with pytest.raises(ResourceLimitError):
        F.ball(2, cap=16)
    assert len(F.ball(2, cap=17)) == 17
    assert len(spheres) == 5
    assert len(F.ball(3)) == 53 and len(spheres) == 5


def _sphere_counts(monkeypatch, G):
    """The spheres each _spheres run of G yields, one count per run."""
    runs, real = [], G._spheres

    def counted(*args, **kwargs):
        runs.append(0)
        for sphere in real(*args, **kwargs):
            runs[-1] += 1
            yield sphere

    monkeypatch.setattr(G, "_spheres", counted)
    return runs


@pytest.mark.parametrize("name, r", [("Z", 3), ("Z2", 2), ("F2", 2),
                                     ("Dinf", 3), ("D3", 0)])
def test_ball_resumes_from_its_memo(monkeypatch, name, r):
    G = get_group(name)
    runs = _sphere_counts(monkeypatch, G)
    G.ball(r)
    assert runs == [r + 1]
    # ball(r + 2) walks the two spheres past the memo, and no other
    assert G.ball(r + 2) == get_group(name).ball(r + 2, cap=10 ** 6)
    assert runs == [r + 1, 2]
    for radius in range(r + 3):
        assert G.ball(radius) == get_group(name).ball(radius)
    assert len(runs) == 2


def test_a_resumed_ball_keeps_the_cap(monkeypatch):
    F = FreeGroup(2)
    F.ball(2)
    # ball(3) holds 53 elements; at the memo's cap, lowered to 52, the
    # walk resumes from the memoized ball(2), whose 17 elements count
    # towards the cap as they do in a fresh walk
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 52)
    with pytest.raises(ResourceLimitError):
        F.ball(3, cap=52)
    monkeypatch.undo()
    assert len(F.ball(2)) == 17 and len(F.ball(3)) == 53
    # a finite group's resumed walk runs out and covers every radius
    D3 = get_group("D3")
    D3.ball(1)
    assert D3.ball(math.inf) == get_group("D3").elements()
    assert D3.ball(7) == D3.elements()


def test_ball_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(groups, "BALL_MEMO_CAP", 9)
    G = IntLattice(1)
    spheres = _count_calls(monkeypatch, G, "_spheres")
    G.ball(4)                         # 9 elements: memoized
    G.ball(4)
    G.ball(3)
    assert len(spheres) == 1
    G.ball(5)                         # 11 elements: enumerated every time
    G.ball(5)
    assert len(spheres) == 3
    assert G.ball(2) == [(0,), (1,), (-1,), (2,), (-2,)]
    assert len(spheres) == 3


# -- group identity --------------------------------------------------------------

@pytest.mark.parametrize("name", group_names())
def test_fresh_gallery_groups_are_equal(name):
    a, b = get_group(name), get_group(name)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not (a != b)
    assert {a: 1}[b] == 1
    before = a.to_json()
    hash(a)
    assert a.to_json() == before == b.to_json()
    assert group_from_json(before) == a


def test_group_identity_tells_descriptors_apart():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    a = FiniteGroup(table, generators=[1, 3])
    b = FiniteGroup(table, generators=[1, 2, 3])
    assert a != b and a == FiniteGroup(table, generators=[3, 1])
    assert a.to_json()["params"]["generators"] == [1, 3]
    assert IntLattice(1) != IntLattice(2) != FreeGroup(2)
    assert ProductGroup(Z, DINF) == ProductGroup(IntLattice(1),
                                                 InfiniteDihedral())
    assert ProductGroup(Z, DINF) != ProductGroup(DINF, Z)
    assert Z != (1,) and Z != "Z"
