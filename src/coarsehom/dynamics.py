"""Finite models for the coupling / orbit-couple / Kakutani dictionary.

A coupling is a finite set with commuting left G- and right H-actions
and clopen fundamental domains for each side.  Out of it come a pair of
finite dynamical systems with orbit maps in both directions (an orbit
couple), and out of an orbit couple comes a coupling back; the round
trip is the identity up to an explicit isomorphism, which is checked,
not assumed.  Orbit couples in turn are the same thing as Kakutani
equivalences: a bijection between full subsets of the two systems that
intertwines the restricted transformation groupoids.  Everything here
is exact and finite, so every claimed identity is verified pointwise.

A coupling is symmetric in its two groups: read the right H-action as
the left action h.w = w h^-1 (Coupling.hact) and swap Xbar and Ybar, and
Omega is a coupling of H and G.  So each half of the dictionary is
written once, for X with G, and run again with the roles swapped for Y
with H: the orbit couple's two sides (_half), the per-side identities
of the validators, and the pieces of the Kakutani rebuild.

Every groupoid here is the transformation groupoid G⋉X of a finite
action, possibly restricted to a subset of its units.  Its homology with
constant coefficients is that of its nerve, assembled by the engine that
builds the group tables (homology.Nerve) and read, as they are, on the
normalized complex of that nerve; by Shapiro's lemma it is the
group homology with coefficients Z[X].  Restricting to a full subset
must not change it, and morita_invariance_check tests that.
"""

from __future__ import annotations

from .errors import InvalidElementError
from .groups import Group
from .homology import (Nerve, _check_homology_ring, _homology_table,
                       _product_table)


class FiniteAction:
    """Left action of a finite group on a finite set, held as one integer
    table: table[g][x] is the position of g.x in points (sorted by repr),
    g and x positions in elements (group.elements() order) and points.
    act(g, x) gives the table once, here, where it is validated."""

    def __init__(self, group: Group, points, act):
        if not group.is_finite():
            raise InvalidElementError("actions here need finite groups")
        self.group = group
        self.points = sorted(points, key=repr)
        self.elements = group.elements()
        self._point_at = {x: i for i, x in enumerate(self.points)}
        self._element_at = {g: i for i, g in enumerate(self.elements)}
        self.table = [[self._point_at.get(act(g, x), -1)
                       for x in self.points] for g in self.elements]
        # a point listed twice has one position: the identity moves one
        # of its copies
        if not all(_action_axioms(self.table, _product_table(
                group, self.elements), self._element_at[group.identity()])):
            raise InvalidElementError(
                "not a left action on the points: a value off them, a "
                "point moved by the identity or listed twice, or "
                "g.(h.x) != (gh).x")

    def __call__(self, g, x):
        return self.points[self.table[self._element_at[g]][self._point_at[x]]]

    def orbits(self):
        seen, out = set(), []
        for x in range(len(self.points)):
            if x not in seen:
                orbit = sorted({row[x] for row in self.table})
                seen.update(orbit)
                out.append([self.points[y] for y in orbit])
        return out

    def is_full(self, subset):
        """Does the subset meet every orbit?"""
        sub = {self._point_at[x] for x in subset if x in self._point_at}
        return all(any(row[x] in sub for row in self.table)
                   for x in range(len(self.points)))

    def is_free(self):
        e = self._element_at[self.group.identity()]
        return not any(y == x for g, row in enumerate(self.table) if g != e
                       for x, y in enumerate(row))


class Coupling:
    """Finite set with commuting left G- and right H-actions and
    fundamental domains: Omega = union of g.Ybar (disjoint) and of
    Xbar.h (disjoint)."""

    def __init__(self, G: Group, H: Group, points, left, right,
                 xbar, ybar):
        self.G = G
        self.H = H
        self.points = sorted(points, key=repr)
        self.left = dict(left)      # (g, w) -> w
        self.right = dict(right)    # (w, h) -> w
        self.xbar = sorted(xbar, key=repr)
        self.ybar = sorted(ybar, key=repr)

    def lact(self, g, w):
        return self.left[(g, w)]

    def ract(self, w, h):
        return self.right[(w, h)]

    def hact(self, h, w):
        """h.w = w h^-1: the right action read as a left H-action."""
        return self.right[(w, self.H.inv(h))]

    def validate(self) -> dict:
        """The coupling axioms on the two tables read once as integer
        tables over the positions of points and elements: L[g][w] of g.w
        and R[h][w] of h.w = w h^-1 (hact).  An entry that is missing or
        off the points is -1, which fails the checks instead of raising."""
        G, H = self.G, self.H
        gs, hs = G.elements(), H.elements()
        at = {w: i for i, w in enumerate(self.points)}
        L = [[at.get(self.left.get((g, w)), -1) for w in self.points]
             for g in gs]
        R = [[at.get(self.right.get((w, H.inv(h))), -1)
              for w in self.points] for h in hs]
        closed = all(y >= 0 for T in (L, R) for row in T for y in row)
        # g (w h) == (g w) h, read as g.(h.w) == h.(g.w) over all h
        ok_comm = closed and all([lrow[y] for y in rrow]
                                 == [rrow[y] for y in lrow]
                                 for lrow in L for rrow in R)
        eg, eh = gs.index(G.identity()), hs.index(H.identity())
        lact_ok = all(_action_axioms(L, _product_table(G, gs), eg))
        # the right table is an action exactly when hact is a left one
        ract_ok = all(_action_axioms(R, _product_table(H, hs), eh))
        # (g, h).w = g w h^-1 is an action only when both tables are
        # actions that commute; otherwise freeness fails with them.  It
        # is free when no g w h^-1 is w but for g and h the identities.
        free = ok_comm and lact_ok and ract_ok and not any(
            lrow[y] == w for g, lrow in enumerate(L)
            for h, rrow in enumerate(R) if g != eg or h != eh
            for w, y in enumerate(rrow))
        ok_ybar = _fundamental(L, {at.get(w) for w in self.ybar})
        ok_xbar = _fundamental(R, {at.get(w) for w in self.xbar})
        return {"commuting": ok_comm, "right_action": ract_ok,
                "free": free, "ybar_fundamental": ok_ybar,
                "xbar_fundamental": ok_xbar,
                "ok": ok_comm and ract_ok and free and ok_ybar and ok_xbar}


def _fundamental(table, domain) -> bool:
    """Every point is g.d for exactly one g and one d in the domain, a set
    of positions: its orbit under the integer table meets it once."""
    return all(sum(row[w] in domain for row in table) == 1
               for w in range(len(table[0])))


def _holds(identity) -> bool:
    """all() over the instances of an identity; an instance that reads a
    table outside its domain fails it instead of raising."""
    try:
        return all(identity)
    except KeyError:
        return False


def _action_axioms(table, mul, e):
    """The left action axioms on an integer table (table[g][x], the
    position of g.x, or -1 off the points), one truth value each for
    all() to read in turn: every value is a position, the identity e
    fixes every point, and g.(h.x) == (gh).x, gh at mul[g][h]."""
    n = len(table[e])
    yield all(0 <= y < n for row in table for y in row)
    yield table[e] == list(range(n))
    yield all([row[y] for y in table[h]] == table[gh]
              for row, products in zip(table, mul)
              for h, gh in enumerate(products))


class OrbitCouple:
    """Two finite systems with orbit maps both ways and their cocycles.

    p: X -> Y with p(g.x) = a(g,x).p(x); q: Y -> X with
    q(h.y) = b(h,y).q(y); q(p(x)) = g_map(x).x; p(q(y)) = h_map(y).y.
    """

    def __init__(self, actX: FiniteAction, actY: FiniteAction,
                 p, q, a, b, g_map, h_map):
        self.actX, self.actY = actX, actY
        self.G, self.H = actX.group, actY.group
        self.p, self.q, self.a, self.b = dict(p), dict(q), dict(a), dict(b)
        self.g_map, self.h_map = dict(g_map), dict(h_map)

    def validate(self) -> dict:
        ok_p, ok_qp, ok_cocycle_a = _couple_side(
            self.actX, self.actY, self.p, self.a, self.g_map, self.q)
        ok_q, ok_pq, ok_cocycle_b = _couple_side(
            self.actY, self.actX, self.q, self.b, self.h_map, self.p)
        return {"orbit_map_p": ok_p, "orbit_map_q": ok_q,
                "qp_identity": ok_qp, "pq_identity": ok_pq,
                "cocycle_a": ok_cocycle_a, "cocycle_b": ok_cocycle_b,
                "ok": all([ok_p, ok_q, ok_qp, ok_pq,
                           ok_cocycle_a, ok_cocycle_b])}


def _couple_side(act, other, p, a, g_map, q):
    """One side's identities: p(g.x) = a(g,x).p(x), q(p(x)) =
    g_map(x).x and the cocycle a(g1 g2, x) = a(g1, g2.x) a(g2, x)."""
    G, H, X, gs = act.group, other.group, act.points, act.elements
    orbit = _holds(p[act(g, x)] == other(a[(g, x)], p[x])
                   for g in gs for x in X)
    closing = _holds(q[p[x]] == act(g_map[x], x) for x in X)
    # a value outside H fails the cocycle before H.mul reads it
    cocycle = _holds(H.is_element(a[(g, x)])
                     for g in gs for x in X) and _holds(
        a[(G.mul(g1, g2), x)] == H.mul(a[(g1, act(g2, x))], a[(g2, x)])
        for g1 in gs for g2 in gs for x in X)
    return orbit, closing, cocycle


def _unique(candidates, what):
    if len(candidates) != 1:
        raise InvalidElementError(
            f"{what}: expected exactly one solution, got "
            f"{len(candidates)} (is the input valid?)")
    return candidates[0]


def _half(G, H, on_G, on_H, X, Y):
    """The G side of the orbit couple of a coupling on which G acts by
    on_G and H by on_H, X being the fundamental domain of H and Y that
    of G.

    gamma(x) is the unique g with g x in Y, and p(x) = gamma(x) x;
    alpha(g, x) is the unique h with h.(g x) in X, and the G-action on X
    is g.x = alpha(g,x).(g x).  Returns that action, p, alpha and gamma.
    """
    Xset, Yset = set(X), set(Y)
    gs, hs = G.elements(), H.elements()
    gamma = {x: _unique([g for g in gs if on_G(g, x) in Yset], "gamma")
             for x in X}
    p = {x: on_G(gamma[x], x) for x in X}
    alpha, moved = {}, {}
    for g in gs:
        for x in X:
            gx = on_G(g, x)
            h = _unique([h for h in hs if on_H(h, gx) in Xset], "alpha")
            alpha[(g, x)] = h
            moved[(g, x)] = on_H(h, gx)
    return (FiniteAction(G, X, lambda g, x: moved[(g, x)]), p, alpha,
            gamma)


def coupling_to_couple(coup: Coupling) -> OrbitCouple:
    """Orbit couple of a coupling: the G side on Xbar, with cocycle
    a = alpha and closing map g_map = gamma (see _half), and the same
    construction for the swapped coupling, H on Ybar by hact, giving q,
    b and h_map."""
    AX, p, a, g_map = _half(coup.G, coup.H, coup.lact, coup.hact,
                            coup.xbar, coup.ybar)
    AY, q, b, h_map = _half(coup.H, coup.G, coup.hact, coup.lact,
                            coup.ybar, coup.xbar)
    return OrbitCouple(AX, AY, p, q, a, b, g_map, h_map)


def couple_to_coupling(couple: OrbitCouple) -> Coupling:
    """Coupling of an orbit couple: Omega = X x H with
    g(x, h) = (g.x, a(g,x) h) and (x, h) h' = (x, h h'); the domains are
    Xbar = X x {e} and Ybar = the preimage of {e} x Y under the
    equivalence Theta(x, h) = (g_map(x)^-1 b(h^-1, p(x))^-1, h^-1.p(x)).
    Ybar is computed both through Theta and directly as
    {(q(y), h_map(y))}; a mismatch raises.
    """
    G, H = couple.G, couple.H
    X, hs = couple.actX.points, H.elements()
    points = [(x, h) for x in X for h in hs]
    left = {(g, (x, h)): (couple.actX(g, x), H.mul(couple.a[(g, x)], h))
            for g in couple.actX.elements for (x, h) in points}
    right = {((x, h), hp): (x, H.mul(h, hp)) for (x, h) in points
             for hp in hs}
    xbar = [(x, H.identity()) for x in X]
    ybar_direct = sorted({(couple.q[y], couple.h_map[y])
                          for y in couple.actY.points}, key=repr)
    ybar_theta = sorted(
        [(x, h) for (x, h) in points
         if G.mul(G.inv(couple.g_map[x]),
                  G.inv(couple.b[(H.inv(h), couple.p[x])]))
         == G.identity()], key=repr)
    if ybar_direct != ybar_theta:
        raise RuntimeError(
            "the two descriptions of Ybar disagree; the orbit couple "
            "does not satisfy its identities")
    return Coupling(G, H, points, left, right, xbar, ybar_direct)


def roundtrip_iso_check(coup: Coupling) -> dict:
    """Coupling -> couple -> coupling, with the explicit isomorphism
    (x, h) -> x h back to the original, checked to be an equivariant
    bijection matching the fundamental domains; then the couple is
    rebuilt from the new coupling and compared to the first one under
    the canonical identifications.
    """
    couple = coupling_to_couple(coup)
    v1 = couple.validate()
    coup2 = couple_to_coupling(couple)
    v2 = coup2.validate()
    H = coup.H
    gs, hs = coup.G.elements(), H.elements()

    phi = {(x, h): coup.ract(x, h) for (x, h) in coup2.points}
    bijective = len(set(phi.values())) == len(coup.points)
    equivariant = all(
        phi[coup2.lact(g, w2)] == coup.lact(g, phi[w2])
        and phi[coup2.ract(w2, h)] == coup.ract(phi[w2], h)
        for w2 in coup2.points for g in gs for h in hs)
    xbar_match = sorted((phi[w] for w in coup2.xbar), key=repr) == coup.xbar
    ybar_match = sorted((phi[w] for w in coup2.ybar), key=repr) == coup.ybar

    # couple -> coupling -> couple: identify and compare
    couple2 = coupling_to_couple(coup2)
    ident_Y = {(couple.q[y], couple.h_map[y]): y
               for y in couple.actY.points}
    p_match = all(ident_Y[couple2.p[(x, H.identity())]] == couple.p[x]
                  for x in couple.actX.points)
    q_match = all(couple2.q[(couple.q[y], couple.h_map[y])]
                  == (couple.q[y], H.identity())
                  for y in couple.actY.points)
    act_match = all(
        couple2.actX(g, (x, H.identity())) == (couple.actX(g, x),
                                               H.identity())
        for g in gs for x in couple.actX.points)
    ok = all([v1["ok"], v2["ok"], bijective, equivariant, xbar_match,
              ybar_match, p_match, q_match, act_match])
    return {"couple_valid": v1, "rebuilt_coupling_valid": v2,
            "iso_bijective": bijective, "iso_equivariant": equivariant,
            "xbar_match": xbar_match, "ybar_match": ybar_match,
            "couple_roundtrip_p": p_match, "couple_roundtrip_q": q_match,
            "couple_roundtrip_action": act_match, "ok": ok}


class KakutaniData:
    """Full subsets A, B of two systems and a bijection phi: A -> B
    intertwining the restricted groupoids, with its cocycles."""

    def __init__(self, actX, actY, A, B, phi, a_prime, b_prime,
                 blocks=None):
        self.actX, self.actY = actX, actY
        self.A, self.B = sorted(A, key=repr), sorted(B, key=repr)
        self.phi = dict(phi)
        self.a_prime = dict(a_prime)   # (g, x in A with g.x in A) -> h
        self.b_prime = dict(b_prime)   # (h, y in B with h.y in B) -> g
        self.blocks = blocks or {}

    def validate(self) -> dict:
        bij = (sorted(self.phi.keys(), key=repr) == self.A
               and sorted(set(self.phi.values()), key=repr) == self.B)
        phi_inv = {v: k for k, v in self.phi.items()}
        full_A, ok_a = _kakutani_side(self.actX, self.actY, self.A,
                                      self.phi, self.a_prime)
        full_B, ok_b = _kakutani_side(self.actY, self.actX, self.B,
                                      phi_inv, self.b_prime)
        iso = _restriction_groupoid_iso_check(self)
        return {"full_A": full_A, "full_B": full_B, "phi_bijective": bij,
                "intertwines_forward": ok_a, "intertwines_backward": ok_b,
                "groupoid_iso": iso,
                "ok": all([full_A, full_B, bij, ok_a, ok_b, iso])}


def _kakutani_side(act, other, A, phi, a_prime):
    """One side's checks: A meets every orbit, and phi(g.x) =
    a'(g,x).phi(x) whenever x and g.x lie in A."""
    Aset = set(A)
    full = act.is_full(A)
    intertwines = _holds(phi[act(g, x)] == other(a_prime[(g, x)], phi[x])
                         for g in act.elements for x in A
                         if act(g, x) in Aset)
    return full, intertwines


def _restriction_groupoid_iso_check(kak: KakutaniData) -> bool:
    """chi(x, g) = (phi(x), a'(g, g^-1.x)) must be a bijection between
    the restricted transformation groupoids preserving range, source and
    composition.  Arrows are (r, g) with s = g^-1.r, both endpoints in
    the chosen subset."""
    G, H = kak.actX.group, kak.actY.group
    Aset, Bset = set(kak.A), set(kak.B)
    arrows_A = [(x, g) for x in kak.A for g in kak.actX.elements
                if kak.actX(G.inv(g), x) in Aset]
    arrows_B = {(y, h) for y in kak.B for h in kak.actY.elements
                if kak.actY(H.inv(h), y) in Bset}
    image = {}
    for (x, g) in arrows_A:
        src = kak.actX(G.inv(g), x)
        h = kak.a_prime.get((g, src))
        if h is None:
            return False
        arrow = (kak.phi.get(x), h)
        if arrow not in arrows_B:
            return False
        if kak.actY(H.inv(h), arrow[0]) != kak.phi.get(src):
            return False
        image[(x, g)] = arrow
    if len(set(image.values())) != len(arrows_A) or \
            len(arrows_A) != len(arrows_B):
        return False
    for (x1, g1) in arrows_A:
        s1 = kak.actX(G.inv(g1), x1)
        for g2 in kak.actX.elements:
            if kak.actX(G.inv(g2), s1) in Aset:
                comp = (x1, G.mul(g1, g2))
                if comp not in image:
                    return False
                y1, h1 = image[(x1, g1)]
                y2, h2 = image[(s1, g2)]
                if image[comp] != (y1, H.mul(h1, h2)):
                    return False
    return True


def couple_to_kakutani(couple: OrbitCouple) -> KakutaniData:
    """Carve Kakutani data out of an orbit couple.

    The level sets U_g = {g_map = g} partition X and p restricted to U_g
    is injective with image V_g; choosing B_g inside V_g greedily along
    the group order disjointifies B = p(X), and A is the union of the
    corresponding preimages A_g = U_g roof p^-1(B_g).  phi = p|_A, with
    cocycles a' = a and b'(h, y) = g2^-1 b(h, y) g1 on the blocks.
    """
    G, X = couple.G, couple.actX.points
    order = couple.actX.elements
    U = {g: [x for x in X if couple.g_map[x] == g] for g in order}
    taken = set()
    B_of, block_of_y = {}, {}
    A = []
    for g in order:
        Vg = {couple.p[x] for x in U[g]}
        Bg = sorted(Vg - taken, key=repr)
        taken |= set(Bg)
        B_of[g] = Bg
        for y in Bg:
            block_of_y[y] = g
        A.extend(x for x in U[g] if couple.p[x] in set(Bg))
    B = sorted(taken, key=repr)
    phi = {x: couple.p[x] for x in A}
    Aset = set(A)
    a_prime = {(g, x): couple.a[(g, x)] for g in order for x in A
               if couple.actX(g, x) in Aset}
    Bset = set(B)
    # b'(h, y) = g2^-1 b(h, y) g1, y in the block of g1 and h.y in g2's
    b_prime = {(h, y): G.mul(G.inv(block_of_y[hy]),
                             G.mul(couple.b[(h, y)], block_of_y[y]))
               for h in couple.actY.elements for y in B
               if (hy := couple.actY(h, y)) in Bset}
    return KakutaniData(couple.actX, couple.actY, A, B, phi, a_prime,
                        b_prime, blocks={"B_of": B_of})


def kakutani_to_couple(kak: KakutaniData) -> OrbitCouple:
    """Rebuild a full orbit couple from Kakutani data.

    X is partitioned into pieces X_gamma inside gamma.A (greedily along
    the group order, X_e = A) and p(x) = phi(gamma^-1.x) on X_gamma;
    symmetrically Y into Y_eta with q(y) = phi^-1(eta^-1.y).  The
    cocycles a, b and closing maps are then found by direct search,
    which is unambiguous for free actions; validate() re-checks all the
    identities afterwards.
    """
    if not (kak.actX.is_free() and kak.actY.is_free()):
        raise InvalidElementError(
            "rebuilding a couple by search needs free actions")
    phi_inv = {v: k for k, v in kak.phi.items()}
    into_A, into_B = _carve(kak.actX, kak.A), _carve(kak.actY, kak.B)
    p = {x: kak.phi[s] for x, s in into_A.items()}
    q = {y: phi_inv[s] for y, s in into_B.items()}
    a, g_map = _search_side(kak.actX, kak.actY, p, q)
    b, h_map = _search_side(kak.actY, kak.actX, q, p)
    return OrbitCouple(kak.actX, kak.actY, p, q, a, b, g_map, h_map)


def _carve(act, base):
    """x -> gamma^-1.x, where gamma is the first element in the group
    order with gamma^-1.x in the base: the pieces X_gamma are carved
    greedily inside gamma.base."""
    group, baseset = act.group, set(base)
    into = {}
    for x in act.points:
        for gamma in act.elements:
            s = act(group.inv(gamma), x)
            if s in baseset:
                into[x] = s
                break
    missing = [x for x in act.points if x not in into]
    if missing:
        raise InvalidElementError(
            f"the base subset is not full: translates miss {missing}")
    return into


def _search_side(act, other, p, q):
    """The cocycle a(g, x) and closing map g_map(x) of one side, each the
    unique group element solving its identity."""
    def search(act_out, lhs, rhs):
        return _unique([k for k in act_out.elements
                        if act_out(k, rhs) == lhs], "cocycle search")

    a = {(g, x): search(other, p[act(g, x)], p[x])
         for g in act.elements for x in act.points}
    g_map = {x: search(act, q[p[x]], x) for x in act.points}
    return a, g_map


# -- finite groupoids and their (co)homology ----------------------------------

class FiniteGroupoid:
    """The transformation groupoid G⋉X of a finite action, restricted to
    a subset of its units: arrows (x, g) with range x and source g^-1.x,
    both units, composing (x, g1)(g1^-1.x, g2) = (x, g1 g2).  The units
    keep the order of act.points."""

    def __init__(self, act: FiniteAction, units):
        sub = set(units)
        self.action = act
        self.units = [x for x in act.points if x in sub]

    def nerve(self) -> Nerve:
        """The nerve whose boundaries the (co)homology tables read, with
        the elements sorted by repr, on the action's rows over the units
        (in the order of the points): g.x's unit position, or -1."""
        act, G = self.action, self.action.group
        elements = sorted(act.elements, key=repr)
        unit_at = [-1] * len(act.points)
        for u, x in enumerate(self.units):
            unit_at[act._point_at[x]] = u
        table = [[unit_at[y] for y, u in zip(act.table[act._element_at[g]],
                                             unit_at) if u >= 0]
                 for g in elements]
        return Nerve(G, self.units, elements, _product_table(G, elements),
                     table)

    def validate(self) -> bool:
        """Every arrow (x, g) has the inverse (g^-1.x, g^-1): it runs from
        the source back to the range, read on the nerve's tables, where
        back[g][x] is the unit g^-1.x and g^-1 the h with mul[g][h] = e."""
        nerve = self.nerve()
        back, e = nerve._back, nerve._e
        return all(s < 0 or back[products.index(e)][s] == x
                   for products, row in zip(nerve._mul, back)
                   for x, s in enumerate(row))


def action_groupoid(act: FiniteAction) -> FiniteGroupoid:
    """Transformation groupoid of the action, on all of its units."""
    return FiniteGroupoid(act, act.points)


def restrict_groupoid(gpd: FiniteGroupoid, subset) -> FiniteGroupoid:
    """Arrows with both endpoints in the subset; same operations."""
    return FiniteGroupoid(gpd.action, set(gpd.units) & set(subset))


def groupoid_homology_finite(gpd: FiniteGroupoid, max_degree: int,
                             ring_name: str = "Z"):
    """Homology of the finite groupoid with constant coefficients, read
    by the same verified Smith reader as the group tables (Nerve.smiths).

    For the groupoid of a free action this is the homology of a point
    per orbit: betti_0 = number of orbits, all higher groups zero; the
    tests lean on that oracle.
    """
    _check_homology_ring(ring_name)
    return _homology_table(ring_name, gpd.nerve().smiths(max_degree))


def groupoid_cohomology_finite(gpd: FiniteGroupoid, max_degree: int,
                               ring_name: str = "Z"):
    """Cohomology with constant coefficients: the degree-n coboundary
    evaluates functions on n-tuples against the faces of (n+1)-tuples,
    so its matrix is the transpose of the boundary one degree up.  A
    matrix and its transpose have the same divisors (V^T A^T U^T = D^T
    certifies the one form for both), so by the universal coefficient
    theorem the table is read off the homology's forms of d_n."""
    _check_homology_ring(ring_name)
    return _homology_table(ring_name, gpd.nerve().smiths(max_degree),
                           cohomology=True)


def morita_invariance_check(act: FiniteAction, subset, max_degree: int = 1,
                            ring_name: str = "Z") -> dict:
    """Homology and cohomology of the transformation groupoid against
    its restriction to a full subset; Morita invariance says they must
    agree degree by degree.  Both tables of a groupoid read one list of
    divisor forms, so the cohomology verdict follows from the homology
    one."""
    sub = set(subset)
    if not act.is_full(sub):
        raise InvalidElementError(
            "the subset must meet every orbit (be full)")
    _check_homology_ring(ring_name)
    big = action_groupoid(act)
    forms_big, forms_small = (gpd.nerve().smiths(max_degree) for gpd
                              in (big, restrict_groupoid(big, subset)))
    h_big, h_small = (_homology_table(ring_name, forms)
                      for forms in (forms_big, forms_small))
    c_big, c_small = (_homology_table(ring_name, forms, cohomology=True)
                      for forms in (forms_big, forms_small))
    hom_eq = h_big == h_small
    coh_eq = c_big == c_small
    return {"subset_size": len(sub), "units": len(act.points),
            "homology_full": h_big, "homology_restricted": h_small,
            "cohomology_full": c_big, "cohomology_restricted": c_small,
            "homology_equal": hom_eq, "cohomology_equal": coh_eq,
            "ok": hom_eq and coh_eq}


# -- gallery builders -----------------------------------------------------------

def translation_action(G: Group) -> FiniteAction:
    """The group acting on itself by left translation; free and
    transitive, so its groupoid has the homology of a point."""
    return FiniteAction(G, G.elements(), lambda g, x: G.mul(g, x))


def product_coupling(G: Group, H: Group) -> Coupling:
    """Omega = G x H, G on the left coordinate, H on the right; the
    fundamental domains are the coordinate axes.  This is the twisted
    coupling with rho constant at the identity."""
    return twisted_coupling(G, H, {b: G.identity() for b in H.elements()})


def twisted_coupling(G: Group, H: Group, rho: dict) -> Coupling:
    """Omega = G x H with the right action twisted through a pointer
    rho: H -> G, rho(e) = e: (a, b) h = (a tau(b,h), b h) with
    tau(b, h) = rho(b) rho(bh)^-1.  Always free; the G-fundamental
    domain is the graph of rho."""
    if rho.get(H.identity()) != G.identity():
        raise InvalidElementError("rho must send identity to identity")
    gs, hs = G.elements(), H.elements()
    for b in hs:
        if b not in rho:
            raise InvalidElementError(f"rho misses the element {b!r}")
        G.check_element(rho[b])
    points = [(a, b) for a in gs for b in hs]
    left = {(g, (a, b)): (G.mul(g, a), b) for g in gs for (a, b) in points}

    def tau(b, h):
        return G.mul(rho[b], G.inv(rho[H.mul(b, h)]))

    right = {((a, b), h): (G.mul(a, tau(b, h)), H.mul(b, h))
             for (a, b) in points for h in hs}
    xbar = [(a, H.identity()) for a in gs]
    ybar = [(rho[b], b) for b in hs]
    return Coupling(G, H, points, left, right, xbar, ybar)
