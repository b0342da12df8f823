"""Group layer: normal forms, word metric, ball enumeration, JSON."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsehom.errors import InvalidElementError, ResourceLimitError
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
