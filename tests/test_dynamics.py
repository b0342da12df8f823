"""The finite dictionary: couplings, orbit couples, Kakutani data, and
transformation-groupoid (co)homology, with frozen tables and oracles."""

import numpy as np
import pytest

from coarsehom import dynamics as dy
from coarsehom import homology
from coarsehom.cli import run_experiment
from coarsehom.errors import InvalidElementError
from coarsehom.gallery import get_group
from coarsehom.groups import cyclic_group, finite_dihedral

import oracles

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)


def skew_coupling():
    """Product space Z/4 x Z/2 with the fundamental domain for the
    right Z/2 action tilted along parity, so the orbit couple it
    induces has a non-constant orbit map."""
    points = [(a, b) for a in C4.elements() for b in C2.elements()]
    left = {(g, (a, b)): (C4.mul(g, a), b) for g in C4.elements()
            for (a, b) in points}
    right = {((a, b), h): (a, C2.mul(b, h)) for (a, b) in points
             for h in C2.elements()}
    xbar = [(a, a % 2) for a in C4.elements()]
    ybar = [(0, b) for b in C2.elements()]
    return dy.Coupling(C4, C2, points, left, right, xbar, ybar)


COUPLING_MAKERS = [
    ("product", lambda: dy.product_coupling(C4, C2)),
    ("twisted", lambda: dy.twisted_coupling(C4, C2, {0: 0, 1: 1})),
    ("dihedral-flip", lambda: dy.twisted_coupling(finite_dihedral(3), C2,
                                                  {0: 0, 1: 3})),
    ("skew", skew_coupling),
]


# -- couplings and couples ----------------------------------------------------

@pytest.mark.parametrize("name,maker", COUPLING_MAKERS)
def test_coupling_axioms(name, maker):
    v = maker().validate()
    assert v == {"commuting": True, "right_action": True, "free": True,
                 "ybar_fundamental": True, "xbar_fundamental": True,
                 "ok": True}, (name, v)


def both_sides_coupling():
    """Z/2 translating Z/2 from both sides: the two actions commute and
    each has the domain {0}, but g w h^-1 = w for g = h = 1, so the
    combined action is not free."""
    points = C2.elements()
    left = {(g, w): C2.mul(g, w) for g in points for w in points}
    right = {(w, h): C2.mul(w, h) for w in points for h in points}
    return dy.Coupling(C2, C2, points, left, right, [0], [0])


@pytest.mark.parametrize("name,maker", COUPLING_MAKERS
                         + [("both-sides", both_sides_coupling)])
def test_free_verdict_matches_the_combined_action(name, maker):
    coup = maker()
    assert coup.validate()["free"] == \
        oracles.combined_action(coup).is_free(), name


def test_a_coupling_fixing_a_point_is_not_free():
    assert both_sides_coupling().validate() == {
        "commuting": True, "right_action": True, "free": False,
        "ybar_fundamental": True, "xbar_fundamental": True, "ok": False}


@pytest.mark.parametrize("name,maker", COUPLING_MAKERS)
def test_couple_identities(name, maker):
    cv = dy.coupling_to_couple(maker()).validate()
    assert cv == {"orbit_map_p": True, "orbit_map_q": True,
                  "qp_identity": True, "pq_identity": True,
                  "cocycle_a": True, "cocycle_b": True, "ok": True}, name


def flipped(coup):
    """The same space as a coupling of H and G: left (h, w) -> w h^-1,
    right (w, g) -> g^-1 w, Xbar and Ybar swapped."""
    G, H = coup.G, coup.H
    left = {(h, w): coup.ract(w, H.inv(h))
            for h in H.elements() for w in coup.points}
    right = {(w, g): coup.lact(G.inv(g), w)
             for w in coup.points for g in G.elements()}
    return dy.Coupling(H, G, coup.points, left, right, coup.ybar, coup.xbar)


@pytest.mark.parametrize("name,maker", COUPLING_MAKERS)
def test_flipped_coupling_swaps_the_halves(name, maker):
    # the couple of the flipped coupling is the couple with its X and Y
    # halves exchanged; on the skew coupling the two halves differ
    coup = maker()
    assert flipped(coup).validate()["ok"], name
    c = dy.coupling_to_couple(coup)
    f = dy.coupling_to_couple(flipped(coup))
    assert (f.actX.points, f.actY.points) == (c.actY.points, c.actX.points)
    assert f.actX.table == c.actY.table, name
    assert f.actY.table == c.actX.table, name
    assert (f.p, f.a, f.g_map) == (c.q, c.b, c.h_map), name
    assert (f.q, f.b, f.h_map) == (c.p, c.a, c.g_map), name


def test_skew_couple_frozen_tables():
    sc = dy.coupling_to_couple(skew_coupling())
    assert sc.p == {(0, 0): (0, 0), (1, 1): (0, 1),
                    (2, 0): (0, 0), (3, 1): (0, 1)}
    assert sc.q == {(0, 0): (0, 0), (0, 1): (0, 0)}
    assert sc.g_map == {(0, 0): 0, (1, 1): 3, (2, 0): 2, (3, 1): 1}
    assert sc.h_map == {(0, 0): 0, (0, 1): 1}
    assert all(sc.a[(1, x)] == 1 for x in sc.actX.points)
    assert {x: sc.actX(1, x) for x in sc.actX.points} == \
        {(0, 0): (1, 1), (1, 1): (2, 0), (2, 0): (3, 1), (3, 1): (0, 0)}


def test_product_couple_frozen_tables():
    pc = dy.coupling_to_couple(dy.product_coupling(C4, C2))
    # X meets the H-side fundamental domain only at the H-identity
    # column, so p is constant and g_map inverts the X coordinate
    assert pc.g_map == {(0, 0): 0, (1, 0): 3, (2, 0): 2, (3, 0): 1}
    assert set(pc.p.values()) == {(0, 0)}


def test_dihedral_twist_frozen_tables():
    dh = dy.twisted_coupling(finite_dihedral(3), C2, {0: 0, 1: 3})
    couple = dy.coupling_to_couple(dh)
    assert couple.actY.points == [(0, 0), (3, 1)]
    assert couple.h_map == {(0, 0): 0, (3, 1): 1}
    assert all(v == 0 for v in couple.b.values())
    assert {(h, y): couple.actY(h, y) for h in [0, 1]
            for y in couple.actY.points} == \
        {(0, (0, 0)): (0, 0), (0, (3, 1)): (3, 1),
         (1, (0, 0)): (3, 1), (1, (3, 1)): (0, 0)}


@pytest.mark.parametrize("name,maker", COUPLING_MAKERS)
def test_roundtrip_isomorphism(name, maker):
    rt = dy.roundtrip_iso_check(maker())
    flat = {k: v for k, v in rt.items() if isinstance(v, bool)}
    assert all(flat.values()), (name, flat)
    assert rt["ok"]


def test_couple_to_coupling_rejects_broken_ybar_routes():
    # a single flipped h_map entry makes the direct description of Ybar
    # disagree with the route through the equivalence Theta
    sc = dy.coupling_to_couple(skew_coupling())
    sc.h_map = dict(sc.h_map)
    sc.h_map[(0, 1)] = 0
    with pytest.raises(RuntimeError):
        dy.couple_to_coupling(sc)


# -- mutation detection: every table entry is load-bearing ----------------------

def rebuilt(couple, **overrides):
    fields = {"p": couple.p, "q": couple.q, "a": couple.a, "b": couple.b,
              "g_map": couple.g_map, "h_map": couple.h_map}
    fields.update(overrides)
    return dy.OrbitCouple(couple.actX, couple.actY, fields["p"],
                          fields["q"], fields["a"], fields["b"],
                          fields["g_map"], fields["h_map"])


def other_value(group, current):
    for cand in group.elements():
        if cand != current:
            return cand
    raise AssertionError("group too small to mutate")


def other_point(points, current):
    for cand in points:
        if cand != current:
            return cand
    raise AssertionError("point set too small to mutate")


def test_orbit_map_missing_a_point_fails_instead_of_raising():
    sc = dy.coupling_to_couple(skew_coupling())
    p = {x: y for x, y in sc.p.items() if x != (0, 0)}
    assert rebuilt(sc, p=p).validate() == {
        "orbit_map_p": False, "orbit_map_q": True, "qp_identity": False,
        "pq_identity": False, "cocycle_a": True, "cocycle_b": True,
        "ok": False}


def test_a_right_table_that_is_no_action_fails_instead_of_raising():
    coup = skew_coupling()
    coup.right[((0, 0), 1)] = (1, 1)
    assert coup.validate() == {
        "commuting": False, "right_action": False, "free": False,
        "ybar_fundamental": True, "xbar_fundamental": False, "ok": False}


@pytest.mark.parametrize("value", [(3, 0), "zz"], ids=["point", "no-point"])
def test_a_left_table_that_is_no_action_fails_instead_of_raising(value):
    """1.(0, 0) sent elsewhere: to (3, 0), which breaks g.(h.w) ==
    (gh).w, or out of the space."""
    coup = skew_coupling()
    coup.left[(1, (0, 0))] = value
    assert coup.validate() == {
        "commuting": False, "right_action": True, "free": False,
        "ybar_fundamental": True, "xbar_fundamental": True, "ok": False}


def test_a_cocycle_value_outside_the_group_fails_instead_of_raising():
    sc = dy.coupling_to_couple(skew_coupling())
    a = dict(sc.a)
    a[(1, (0, 0))] = "zz"
    assert rebuilt(sc, a=a).validate() == {
        "orbit_map_p": False, "orbit_map_q": True, "qp_identity": True,
        "pq_identity": True, "cocycle_a": False, "cocycle_b": True,
        "ok": False}


def test_every_table_entry_is_checked():
    sc = dy.coupling_to_couple(skew_coupling())
    assert sc.validate()["ok"]
    ypts, xpts = sc.actY.points, sc.actX.points
    for key in sc.p:
        bad = dict(sc.p)
        bad[key] = other_point(ypts, bad[key])
        assert not rebuilt(sc, p=bad).validate()["ok"], ("p", key)
    for key in sc.q:
        bad = dict(sc.q)
        bad[key] = other_point(xpts, bad[key])
        assert not rebuilt(sc, q=bad).validate()["ok"], ("q", key)
    for key in sc.a:
        bad = dict(sc.a)
        bad[key] = other_value(sc.G, bad[key])
        assert not rebuilt(sc, a=bad).validate()["ok"], ("a", key)
    for key in sc.b:
        bad = dict(sc.b)
        bad[key] = other_value(sc.H, bad[key])
        assert not rebuilt(sc, b=bad).validate()["ok"], ("b", key)
    for key in sc.g_map:
        bad = dict(sc.g_map)
        bad[key] = other_value(sc.G, bad[key])
        assert not rebuilt(sc, g_map=bad).validate()["ok"], ("g_map", key)
    for key in sc.h_map:
        bad = dict(sc.h_map)
        bad[key] = other_value(sc.H, bad[key])
        assert not rebuilt(sc, h_map=bad).validate()["ok"], ("h_map", key)


# -- Kakutani data ---------------------------------------------------------------

@pytest.mark.parametrize("name,maker", COUPLING_MAKERS)
def test_kakutani_extraction_and_return(name, maker):
    couple = dy.coupling_to_couple(maker())
    kak = dy.couple_to_kakutani(couple)
    kv = kak.validate()
    assert kv == {"full_A": True, "full_B": True, "phi_bijective": True,
                  "intertwines_forward": True, "intertwines_backward": True,
                  "groupoid_iso": True, "ok": True}, name
    back = dy.kakutani_to_couple(kak)
    assert back.validate()["ok"], name
    # the rebuilt orbit map restricted to A is the exchange map itself
    assert all(back.p[x] == kak.phi[x] for x in kak.A), name


def test_skew_kakutani_frozen():
    kak = dy.couple_to_kakutani(dy.coupling_to_couple(skew_coupling()))
    assert kak.A == [(0, 0), (3, 1)]
    assert kak.B == [(0, 0), (0, 1)]
    assert kak.phi == {(0, 0): (0, 0), (3, 1): (0, 1)}
    assert kak.blocks == {"B_of": {0: [(0, 0)], 1: [(0, 1)],
                                   3: [], 2: []}}


def test_kakutani_cocycle_formula_route():
    # rebuilt cocycle must satisfy a(g, x) = a'(g2^-1 g g1, g1^-1.x)
    # where g1, g2 name the translation pieces of x and g.x
    kak = dy.couple_to_kakutani(dy.coupling_to_couple(skew_coupling()))
    back = dy.kakutani_to_couple(kak)
    G = back.G
    Aset = set(kak.A)
    remaining = set(back.actX.points)
    piece = {}
    for gamma in G.elements():
        block = [x for x in back.actX.points if x in remaining
                 and back.actX(G.inv(gamma), x) in Aset]
        for x in block:
            piece[x] = gamma
        remaining -= set(block)
    assert not remaining
    for g in G.elements():
        for x in back.actX.points:
            g1, g2 = piece[x], piece[back.actX(g, x)]
            key = (G.mul(G.inv(g2), G.mul(g, g1)),
                   back.actX(G.inv(g1), x))
            assert back.a[(g, x)] == kak.a_prime[key], (g, x)


def test_kakutani_mutation_detected():
    kak = dy.couple_to_kakutani(dy.coupling_to_couple(skew_coupling()))
    broken = dy.KakutaniData(kak.actX, kak.actY, kak.A, kak.B,
                             {(0, 0): (0, 1), (3, 1): (0, 0)},
                             kak.a_prime, kak.b_prime, kak.blocks)
    assert not broken.validate()["ok"]


@pytest.mark.parametrize("phi", [{(0, 0): (0, 0)},
                                 {(0, 0): (0, 0), (3, 1): (0, 0)}],
                         ids=["partial", "not-injective"])
def test_kakutani_bad_phi_fails_instead_of_raising(phi):
    kak = dy.couple_to_kakutani(dy.coupling_to_couple(skew_coupling()))
    v = dy.KakutaniData(kak.actX, kak.actY, kak.A, kak.B, phi,
                        kak.a_prime, kak.b_prime, kak.blocks).validate()
    assert list(v) == ["full_A", "full_B", "phi_bijective",
                       "intertwines_forward", "intertwines_backward",
                       "groupoid_iso", "ok"]
    assert not v["phi_bijective"] and not v["ok"]


# -- groupoids and their (co)homology ---------------------------------------------

def test_free_transitive_groupoid_has_point_homology():
    act = oracles.combined_action(dy.product_coupling(C4, C2))
    assert act.is_free() and len(act.orbits()) == 1
    gpd = dy.action_groupoid(act)
    assert gpd.validate() is True
    hom = dy.groupoid_homology_finite(gpd, 1)
    assert hom[0] == {"degree": 0, "ring": "Z", "betti": 1, "torsion": []}
    assert hom[1] == {"degree": 1, "ring": "Z", "betti": 0, "torsion": []}
    coh = dy.groupoid_cohomology_finite(gpd, 1)
    assert coh[0]["betti"] == 1 and coh[1]["betti"] == 0


def test_one_unit_groupoid_recovers_group_homology():
    triv = dy.FiniteAction(C2, ["pt"], lambda g, x: x)
    gpd = dy.action_groupoid(triv)
    hom = dy.groupoid_homology_finite(gpd, 2)
    assert hom[0] == {"degree": 0, "ring": "Z", "betti": 1, "torsion": []}
    assert hom[1] == {"degree": 1, "ring": "Z", "betti": 0, "torsion": [2]}
    assert hom[2] == {"degree": 2, "ring": "Z", "betti": 0, "torsion": []}
    coh = dy.groupoid_cohomology_finite(gpd, 2)
    assert coh[0]["betti"] == 1
    assert coh[1] == {"degree": 1, "ring": "Z", "betti": 0, "torsion": []}
    assert coh[2] == {"degree": 2, "ring": "Z", "betti": 0, "torsion": [2]}
    # the closed form for cyclic homology is the same oracle the engine
    # must match through the groupoid route
    want1 = oracles.cyclic_homology(2, 1)
    assert hom[1]["torsion"] == want1["torsion"]


def test_translation_action_orbit_homology():
    act = dy.translation_action(C3)
    assert act.is_free() and len(act.orbits()) == 1
    hom = dy.groupoid_homology_finite(dy.action_groupoid(act), 1)
    assert [h["betti"] for h in hom] == [1, 0]
    assert all(h["torsion"] == [] for h in hom)


def test_morita_restriction_agrees():
    coup = dy.product_coupling(C4, C2)
    act = oracles.combined_action(coup)
    mor = dy.morita_invariance_check(act, coup.xbar, max_degree=1)
    assert mor["ok"]
    assert mor["subset_size"] == 4 and mor["units"] == 8
    assert mor["homology_full"] == mor["homology_restricted"]
    assert mor["cohomology_full"] == mor["cohomology_restricted"]


def _table_inputs(monkeypatch):
    """The matrices handed to the table reduction (_certified_divisors,
    as sparse columns) from here on, each with the form it gave."""
    seen, real = [], homology._certified_divisors

    def spy(columns, n_rows):
        form = real(columns, n_rows)
        seen.append((homology._dense(columns, n_rows), form))
        return form

    monkeypatch.setattr(homology, "_certified_divisors", spy)
    return seen


def test_morita_reduces_each_boundary_of_each_groupoid_once(monkeypatch):
    coup = dy.product_coupling(C4, C2)
    act = oracles.combined_action(coup)
    seen = _table_inputs(monkeypatch)
    assert dy.morita_invariance_check(act, coup.xbar, max_degree=1)["ok"]
    big = dy.action_groupoid(act)
    e = act.group.identity()
    want = [oracles.normalized_boundary(M, row.points, col.points, e)
            for gpd in (big, dy.restrict_groupoid(big, coup.xbar))
            for M, row, col in (gpd.nerve().boundary(n) for n in (1, 2))]
    # the normalized d_1, d_2 of the full groupoid, then of the restricted
    # one; no transposes.  Each d_2 comes without the rows that are the
    # unit pivot columns of its d_1, which are zero
    assert len(seen) == len(want) == 4
    for t in (1, 3):
        dropped = sorted(seen[t - 1][1].pivot_columns)
        assert dropped
        want[t] = want[t].copy()
        want[t][dropped] = 0
    assert all(a.shape == b.shape and np.array_equal(a, b)
               for (a, _), b in zip(seen, want))


@pytest.mark.parametrize("group_a, group_b", [
    ("Z/4", "Z/2"), ("Z/2xZ/2", "Z/4"), ("Z/4", "Z/2xZ/2")])
def test_morita_report_reduces_each_distinct_matrix_once(monkeypatch,
                                                         group_a, group_b):
    """The translation systems' tables are group-ring tables, read off
    each group's certified resolution, so the report asks the nerve for
    10 forms: 3 + 3 for the two restricted groupoids (max degree 2), then
    2 + 2 for the Morita check (max degree 1).  Only 4 of those matrices
    are distinct: the restricted X groupoid has one unit and no arrow but
    its identity, so its d_2 and d_3 are the same empty matrix; the
    restricted Y groupoid's matrices are those of the restricted X one,
    and so are those of the Morita check's restriction; its full
    groupoid, the Z/4 translation groupoid, gives the other two.  Each
    form asked for is reduced once, and none is kept across reports."""
    seen = _table_inputs(monkeypatch)
    asked, reduced, smiths = [], [], homology.Nerve.smiths

    def spy(self, max_degree):
        before = len(seen)
        forms = smiths(self, max_degree)
        asked.append(max_degree + 1)
        reduced.extend(seen[before:])
        return forms

    monkeypatch.setattr(homology.Nerve, "smiths", spy)
    config = {"experiment": "morita-check", "group_a": group_a,
              "group_b": group_b}
    assert run_experiment(config)["body"]["pass"]
    digests = {(M.shape, M.tobytes()) for M, _ in reduced}
    assert sum(asked) == len(reduced) == 10
    assert len(digests) == 4
    # and nothing outlives the report: a second one reduces them again
    reduced.clear()
    run_experiment(config)
    assert len(reduced) == 10


@pytest.mark.parametrize("name", ["Z/2", "Z/3", "Z/4", "Z/6", "D3",
                                  "Z/2xZ/2"])
def test_translation_groupoid_table_is_the_group_ring_table(name):
    """morita-check reads a translation system's table as the group-ring
    table; the nerve of the translation groupoid is the oracle."""
    G = get_group(name)
    gpd = dy.action_groupoid(dy.translation_action(G))
    for n in range(4):
        assert dy.groupoid_homology_finite(gpd, n) == \
            homology.homology_finite(G, n, module="group-ring")


def test_morita_rejects_non_full_subset():
    two_orbits = dy.FiniteAction(C2, [0, 1, 2, 3],
                                 lambda g, x: x ^ g if x < 2 else x)
    with pytest.raises(InvalidElementError):
        dy.morita_invariance_check(two_orbits, [0], max_degree=1)


def test_groupoid_homology_over_fields():
    triv = dy.FiniteAction(C2, ["pt"], lambda g, x: x)
    gpd = dy.action_groupoid(triv)
    over_q = dy.groupoid_homology_finite(gpd, 2, ring_name="Q")
    assert [h["betti"] for h in over_q] == [1, 0, 0]
    over_f2 = dy.groupoid_homology_finite(gpd, 2, ring_name="Z/2")
    assert [h["betti"] for h in over_f2] == \
        [oracles.cyclic_homology_mod_p(2, n, 2) for n in range(3)]


# -- validation error paths --------------------------------------------------------

def test_action_table_is_validated():
    with pytest.raises(InvalidElementError):
        dy.FiniteAction(C2, [0, 1], lambda g, x: 0)   # not invertible


@pytest.mark.parametrize("group,points,act", [
    (C2, [0, 1], lambda g, x: x + 5),             # a value off the points
    (C2, [0, 1], lambda g, x: 1 - x),             # the identity swaps
    (C3, [0, 1], lambda g, x: x if g == 0 else 1 - x),  # 1.(1.x) != 2.x
    (C2, [0, 0, 1], lambda g, x: x),              # a point listed twice
], ids=["off-the-points", "identity-moves", "not-associative",
        "duplicate-point"])
def test_a_bad_action_table_fails_the_one_predicate(group, points, act):
    with pytest.raises(InvalidElementError, match="not a left action"):
        dy.FiniteAction(group, points, act)


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_partial_coupling_table_fails_instead_of_raising(side):
    coup = dy.product_coupling(C4, C2)
    table = dict(getattr(coup, side))
    del table[next(iter(table))]
    left, right = (table, coup.right) if side == "left" else \
        (coup.left, table)
    v = dy.Coupling(C4, C2, coup.points, left, right, coup.xbar,
                    coup.ybar).validate()
    assert v["ok"] is False and v["commuting"] is False
    assert v["free"] is False


def test_coupling_rejects_bad_fundamental_domain():
    coup = dy.product_coupling(C4, C2)
    bad = dy.Coupling(coup.G, coup.H, coup.points, coup.left, coup.right,
                      coup.xbar[:-1], coup.ybar)
    v = bad.validate()
    assert not v["ok"] and not v["xbar_fundamental"]


def test_twisted_coupling_validates_rho():
    with pytest.raises(InvalidElementError):
        dy.twisted_coupling(C4, C2, {0: 0})   # missing a value
