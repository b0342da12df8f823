"""Chains, cochains, and the maps coarse geometry induces on them.

The complex lives on the pair groupoid of the translation action: a
degree-n chain is a finitely supported function on composable n-tuples,
coordinatized as (x, (g_1, ..., g_n)) with x the range unit.  The same
data regrouped by the tuple part is a bar-type chain: a finitely
supported function on G^n with values in the module of finitely
supported functions on G.  chi and chi_inv convert between the two
pictures; the boundary is implemented twice, once pointwise on the
groupoid picture and once by the slice formulas, as independent routes
for cross-checking.

A coarse map phi induces a chain map through
phi1(x, g) = (phi(x), phi(x) phi(g^-1 x)^-1) applied entrywise, and a
cochain map by precomposition.  Close maps are chain homotopic; the
homotopy interleaves the two induced maps with a comparison arrow
theta(x) = (phi(x), phi(x) psi(x)^-1) in every slot, with alternating
signs.  The identity these satisfy is

    boundary . k  +  k . boundary  =  induced(psi) - induced(phi)

(second map minus first), and dually for cochains; the degree-0 case is
a two-line computation and the tests pin the general one numerically.
"""

from __future__ import annotations

import random
from functools import cache

from .coarsemaps import CoarseMap, compose, identity_map
from .errors import GroupMismatchError, InvalidElementError
from .groups import Group
from .resmodules import FinSupFun, FinitelySupported
from .rings import Ring, ring_from_name, vec_add, vec_neg, vec_zero


class Chain(FinitelySupported):
    """Finitely supported degree-n chain, stored by points (x, gvec).

    Input is validated where it enters: the item setter, ``points=``,
    ``add_at`` and ``from_json``.  The chain operations of this module
    build their points by group operations on points already checked, so
    they write through ``_acc``, or by its rule inline, without
    re-validating, or copy entries verbatim.

    >>> from .groups import IntLattice
    >>> from .rings import Integers
    >>> Z = IntLattice(1)
    >>> c = Chain(Z, Integers(), 1, 1)
    >>> c[(0,), ((2,),)] = (1,)
    >>> boundary(c).slices()[()].to_json()["support"]
    [[[0], [-1]], [[-2], [1]]]
    """

    def __init__(self, group: Group, ring: Ring, rank: int, degree: int,
                 points=None):
        if degree < 0:
            raise InvalidElementError("chain degree must be nonnegative")
        self.group = group
        self.ring = ring
        self.rank = rank
        self.degree = degree
        self.data = {}
        if points:
            for (x, gvec), v in points.items():
                self[x, gvec] = v

    def _module(self):
        return self.group, self.ring, self.rank, self.degree

    def __setitem__(self, key, v):
        x, gvec = key
        self.group.check_element(x)
        if len(gvec) != self.degree:
            raise InvalidElementError(
                f"tuple {gvec!r} has length {len(gvec)}, "
                f"expected degree {self.degree}")
        for g in gvec:
            self.group.check_element(g)
        v = tuple(self.ring.normalize(c) for c in v)
        if len(v) != self.rank:
            raise InvalidElementError("value has the wrong rank")
        self.data.pop((x, gvec), None)
        self._acc((x, gvec), v)

    def __getitem__(self, key):
        return self.data.get(tuple(key), vec_zero(self.ring, self.rank))

    def add_at(self, x, gvec, v):
        cur = self.data.get((x, gvec))
        if cur is None:
            self[x, gvec] = v
        else:
            self[x, gvec] = vec_add(self.ring, cur, v)

    def _with(self, data, group=None, degree=None):
        """A chain over the same ring and rank (and by default the same
        group and degree) holding data, whose entries are trusted to be
        points with nonzero normalized vectors."""
        out = Chain(self.group if group is None else group, self.ring,
                    self.rank, self.degree if degree is None else degree)
        out.data = data
        return out

    def __repr__(self):
        return (f"Chain(deg={self.degree}, {self.ring.name}^{self.rank}, "
                f"{len(self.data)} points)")

    # -- slice picture ------------------------------------------------------
    def _slice_data(self):
        """Regroup by the tuple part: gvec -> {x: value}, in the order of
        the points."""
        out = {}
        for (x, gvec), v in self.data.items():
            out.setdefault(gvec, {})[x] = v
        return out

    def slices(self):
        """Regroup by the tuple part: gvec -> FinSupFun in x."""
        empty = FinSupFun(self.group, self.ring, self.rank)
        return {gvec: empty._with(data)
                for gvec, data in self._slice_data().items()}

    def _tuple_key(self, gvec):
        return tuple(map(self.group.order_key, gvec))

    def to_json(self):
        sl = self.slices()
        order = sorted(sl, key=self._tuple_key)
        return {"degree": self.degree, "ring": self.ring.name,
                "rank": self.rank,
                "slices": [[[self.group.element_to_json(g) for g in gvec],
                            sl[gvec].to_json()] for gvec in order]}

    @classmethod
    def from_json(cls, group: Group, obj) -> "Chain":
        degree = obj["degree"]
        ring = ring_from_name(obj["ring"])
        rank = obj["rank"]
        slices = {}
        for gvec_json, fun_json in obj["slices"]:
            gvec = tuple(group.element_from_json(g) for g in gvec_json)
            if gvec in slices:
                raise InvalidElementError(
                    f"duplicate slice {gvec_json!r} in chain JSON")
            slices[gvec] = FinSupFun.from_json(group, fun_json)
        return chi(group, ring, rank, degree, slices)


def chi(group: Group, ring: Ring, rank: int, degree: int, slices) -> Chain:
    """Bar picture to groupoid picture: slices {gvec: FinSupFun} become
    point masses chain(x, gvec) = slice[gvec](x).  Checks each tuple's
    length and each function's module; trusts the tuple entries to be
    elements, as Chain.from_json has checked them while reading."""
    out = Chain(group, ring, rank, degree)
    for gvec, f in slices.items():
        if len(gvec) != degree:
            raise InvalidElementError(
                f"slice tuple {gvec!r} does not match degree {degree}")
        if f.group != group or f.ring != ring or f.rank != rank:
            raise GroupMismatchError("slice function over the wrong module")
        gvec = tuple(gvec)
        for x, v in f.data.items():
            out._acc((x, gvec), v)
    return out


def chi_inv(chain: Chain):
    """Groupoid picture back to bar picture (exact inverse of chi)."""
    return chain.slices()


# -- boundary, two independent routes ---------------------------------------

def _faces(group: Group, x, gvec):
    """Faces of the composable tuple coordinatized as (x, gvec)."""
    n = len(gvec)
    out = [(group.mul(group.inv(gvec[0]), x), gvec[1:])]
    for i in range(n - 1):
        merged = gvec[:i] + (group.mul(gvec[i], gvec[i + 1]),) + gvec[i + 2:]
        out.append((x, merged))
    out.append((x, gvec[:-1]))
    return out


def boundary(chain: Chain) -> Chain:
    """Alternating sum of the face pushforwards, computed point by point.

    Accumulates as ``_acc`` does: a face whose sum reaches zero leaves
    the support, and one added again goes last.  is_boundary_window
    numbers its rows in this order."""
    n = chain.degree
    out = chain._with({}, degree=max(n - 1, 0))
    if n == 0:
        return out
    G, ring, acc = chain.group, chain.ring, out.data
    add, neg = ring.add, ring.neg
    for (x, gvec), v in chain.data.items():
        signed = (v, tuple(map(neg, v)))
        for i, face in enumerate(_faces(G, x, gvec)):
            w = signed[i & 1]
            cur = acc.get(face)
            if cur is not None:
                w = tuple(map(add, cur, w))
            if any(w):
                acc[face] = w
            else:
                acc.pop(face, None)
    return out


def bar_boundary(chain: Chain) -> Chain:
    """The same boundary by the slice formulas: the first face translates
    the slice by the dropped letter, middle faces merge adjacent letters,
    the last face drops the final letter.  Independent of boundary().

    The slices are plain dicts x -> value, summed in place by the rule of
    ``_acc``; each slice is negated once, for all its faces."""
    n = chain.degree
    if n == 0:
        return chain._with({})
    G, ring = chain.group, chain.ring
    add, neg, mul = ring.add, ring.neg, G.mul
    out_slices = {}
    for gvec, f in chain._slice_data().items():
        signed = (f, {x: tuple(map(neg, v)) for x, v in f.items()})
        ginv = G.inv(gvec[0])
        faces = [(gvec[1:], {mul(ginv, x): v for x, v in f.items()})]
        for i in range(n - 1):
            merged = gvec[:i] + (mul(gvec[i], gvec[i + 1]),) + gvec[i + 2:]
            faces.append((merged, signed[(i + 1) % 2]))
        faces.append((gvec[:-1], signed[n % 2]))
        for face, data in faces:
            acc = out_slices.setdefault(face, {})
            for x, v in data.items():
                cur = acc.get(x)
                if cur is not None:
                    v = tuple(map(add, cur, v))
                if any(v):
                    acc[x] = v
                else:
                    acc.pop(x, None)
    # back to the groupoid picture, as chi regroups slices
    return chain._with({(x, face): v for face, acc in out_slices.items()
                        for x, v in acc.items()}, degree=n - 1)


# -- cochains -----------------------------------------------------------------

class Cochain:
    """Degree-n cochain: any rule (gvec, x) -> value vector.

    No support condition; equality is only decidable on windows, so the
    class carries a value() method and window comparison.
    """

    def __init__(self, group: Group, ring: Ring, rank: int, degree: int,
                 rule, name="cochain"):
        self.group = group
        self.ring = ring
        self.rank = rank
        self.degree = degree
        self.rule = rule
        self.name = name

    def value(self, gvec, x):
        if len(gvec) != self.degree:
            raise InvalidElementError(
                f"cochain of degree {self.degree} evaluated on {gvec!r}")
        v = self.rule(tuple(gvec), x)
        return tuple(self.ring.normalize(c) for c in v)

    def __add__(self, other):
        if (self.group != other.group or self.ring != other.ring
                or self.rank != other.rank or self.degree != other.degree):
            raise GroupMismatchError("cochains are not compatible")
        return Cochain(self.group, self.ring, self.rank, self.degree,
                       lambda gvec, x: vec_add(self.ring,
                                               self.value(gvec, x),
                                               other.value(gvec, x)),
                       name=f"({self.name}+{other.name})")

    def __neg__(self):
        return Cochain(self.group, self.ring, self.rank, self.degree,
                       lambda gvec, x: vec_neg(self.ring,
                                               self.value(gvec, x)),
                       name=f"(-{self.name})")

    def __sub__(self, other):
        return self + (-other)

    def equal_on_window(self, other, radius: int) -> bool:
        """Compare on all (gvec, x) with entries from ball(radius)."""
        ball = self.group.ball(radius)
        tuples = [()]
        for _ in range(self.degree):
            tuples = [t + (g,) for t in tuples for g in ball]
        for gvec in tuples:
            for x in ball:
                if self.value(gvec, x) != other.value(gvec, x):
                    return False
        return True

    def is_zero_on_window(self, radius: int) -> bool:
        zero = Cochain(self.group, self.ring, self.rank, self.degree,
                       lambda gvec, x: vec_zero(self.ring, self.rank))
        return self.equal_on_window(zero, radius)


def cochain_from_chain(chain: Chain) -> Cochain:
    """View a finitely supported chain as a cochain (its extension by
    zero); handy for building test cochains with known values."""
    return Cochain(chain.group, chain.ring, chain.rank, chain.degree,
                   lambda gvec, x: chain[(x, gvec)], name="finsup")


def coboundary(f: Cochain) -> Cochain:
    """d f = alternating sum of f over the faces of each (n+1)-tuple."""
    ring = f.ring

    def rule(gvec, x):
        acc = vec_zero(ring, f.rank)
        for i, (fx, fg) in enumerate(_faces(f.group, x, gvec)):
            v = f.value(fg, fx)
            acc = vec_add(ring, acc, v if i % 2 == 0 else vec_neg(ring, v))
        return acc

    return Cochain(f.group, f.ring, f.rank, f.degree + 1, rule,
                   name=f"d({f.name})")


# -- induced maps --------------------------------------------------------------

def _vertices(G: Group, x, gvec):
    """The vertex walk x_0 = x, x_i = g_i^-1 x_{i-1} of the point
    (x, gvec)."""
    xs = [x]
    for g in gvec:
        xs.append(G.mul(G.inv(g), xs[-1]))
    return xs


def _image_point(phi: CoarseMap, x, gvec):
    """Image of the point (x, gvec) under the entrywise arrow map
    phi1(x, g) = (phi(x), phi(x) phi(g^-1 x)^-1)."""
    T = phi.target
    vals = [phi(t) for t in _vertices(phi.source, x, gvec)]
    hvec = tuple(T.mul(vals[i], T.inv(vals[i + 1])) for i in range(len(gvec)))
    return vals[0], hvec


def induced_chain_map(phi: CoarseMap, chain: Chain) -> Chain:
    """Pushforward along the degree-n arrow map of phi.

    >>> from .gallery import get_map
    >>> from .groups import IntLattice
    >>> from .rings import Integers
    >>> Z = IntLattice(1)
    >>> c = Chain(Z, Integers(), 1, 1, {((0,), ((3,),)): (1,)})
    >>> induced_chain_map(get_map("z-double"), c).to_json()["slices"]
    [[[[6]], {'ring': 'Z', 'rank': 1, 'support': [[[0], [1]]]}]]
    """
    if chain.group != phi.source:
        raise GroupMismatchError("chain lives on the wrong group")
    out = chain._with({}, group=phi.target)
    for (x, gvec), v in chain.data.items():
        out._acc(_image_point(phi, x, gvec), v)
    return out


def induced_cochain_map(phi: CoarseMap, f: Cochain) -> Cochain:
    """Pullback: evaluate f on the image point."""
    if f.group != phi.target:
        raise GroupMismatchError("cochain lives on the wrong group")

    def rule(gvec, x):
        y, hvec = _image_point(phi, x, gvec)
        return f.value(hvec, y)

    return Cochain(phi.source, f.ring, f.rank, f.degree, rule,
                   name=f"{phi.name}^*({f.name})")


# -- homotopies ----------------------------------------------------------------

def _homotopy_points(phi: CoarseMap, psi: CoarseMap, x, gvec):
    """The n+1 interleaved image points of (x, gvec), with signs.

    Slot h (1-based) maps the point to
    (phi-arrows 1..h-1, comparison arrow at x_h, psi-arrows h..n),
    where the comparison arrow is theta(x_h) = (phi(x_h),
    phi(x_h) psi(x_h)^-1).  Sign of slot h is (-1)^(h+1).
    """
    T = phi.target
    n = len(gvec)
    xs = _vertices(phi.source, x, gvec)
    fv = [phi(t) for t in xs]
    pv = [psi(t) for t in xs]
    out = []
    for h in range(1, n + 2):
        comps = []
        for i in range(h - 1):
            comps.append(T.mul(fv[i], T.inv(fv[i + 1])))
        comps.append(T.mul(fv[h - 1], T.inv(pv[h - 1])))
        for i in range(h - 1, n):
            comps.append(T.mul(pv[i], T.inv(pv[i + 1])))
        sign = +1 if (h + 1) % 2 == 0 else -1
        out.append((fv[0], tuple(comps), sign))
    return out


def homotopy_k(phi: CoarseMap, psi: CoarseMap, chain: Chain) -> Chain:
    """Chain homotopy between the maps induced by two close coarse maps:

        boundary(k(c)) + k(boundary(c))
            = induced_chain_map(psi, c) - induced_chain_map(phi, c).

    Raises degree by one.  Meaningful when phi and psi are close (the
    comparison arrows then range over a finite set); the identity itself
    holds for any two maps and is what the tests check.
    """
    if phi.source != psi.source or phi.target != psi.target:
        raise GroupMismatchError("homotopy needs a parallel pair of maps")
    if chain.group != phi.source:
        raise GroupMismatchError("chain lives on the wrong group")
    out = chain._with({}, group=phi.target, degree=chain.degree + 1)
    for (x, gvec), v in chain.data.items():
        negated = vec_neg(chain.ring, v)
        for y, hvec, sign in _homotopy_points(phi, psi, x, gvec):
            out._acc((y, hvec), v if sign > 0 else negated)
    return out


def homotopy_k_cochain(phi: CoarseMap, psi: CoarseMap, f: Cochain) -> Cochain:
    """Cochain homotopy, lowering degree by one:

        coboundary(k(f)) + k(coboundary(f))
            = induced_cochain_map(psi, f) - induced_cochain_map(phi, f).
    """
    if f.degree < 1:
        raise InvalidElementError(
            "cochain homotopy needs degree at least 1")
    if f.group != phi.target:
        raise GroupMismatchError("cochain lives on the wrong group")
    ring = f.ring

    def rule(gvec, x):
        acc = vec_zero(ring, f.rank)
        for y, hvec, sign in _homotopy_points(phi, psi, x, gvec):
            v = f.value(hvec, y)
            acc = vec_add(ring, acc, v if sign > 0 else vec_neg(ring, v))
        return acc

    return Cochain(phi.source, f.ring, f.rank, f.degree - 1, rule,
                   name=f"k({f.name})")


def homotopy_l(phi: CoarseMap, om: CoarseMap, chain: Chain) -> Chain:
    """Homotopy witnessing that the composite phi . omega acts like the
    identity on target chains: the pair (identity, phi . omega) fed to
    the generic homotopy, so

        boundary(l(c)) + l(boundary(c))
            = induced_chain_map(phi . omega, c) - c.
    """
    H = phi.target
    return homotopy_k(identity_map(H), compose(phi, om), chain)


def homotopy_l_cochain(phi: CoarseMap, om: CoarseMap, f: Cochain) -> Cochain:
    H = phi.target
    return homotopy_k_cochain(identity_map(H), compose(phi, om), f)


# -- seeded test chains --------------------------------------------------------

def random_chain(group: Group, ring: Ring, rank: int, degree: int,
                 radius: int, terms: int, seed: int) -> Chain:
    """Deterministic pseudo-random chain: `terms` point masses with all
    coordinates drawn from ball(radius) and integer values in [-5, 5]
    excluding 0, mapped into the ring."""
    choice = random.Random(seed).choice
    ball = group.ball(radius)
    coeffs = _coefficients(ring)
    out = Chain(group, ring, rank, degree)
    for _ in range(terms):
        x = choice(ball)
        gvec = tuple([choice(ball) for _ in range(degree)])
        out._acc((x, gvec), tuple([choice(coeffs) for _ in range(rank)]))
    return out


@cache
def _coefficients(ring: Ring):
    """The values random_chain draws, -5..5 but 0, normalized once per
    ring: a call draws only rank * terms of them."""
    return tuple(ring.normalize(c)
                 for c in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
