"""Finitely supported vector-valued functions on a group, and the
transfer operations a coarse map induces on them.

A FinSupFun is a function G -> R^rank with finite support, stored
sparsely.  The group acts by left translation (g.f)(x) = f(g^-1 x).
A coarse map phi moves such functions forward by summing over fibers,
phi_*(f)(y) = sum over phi(x) = y of f(x), and back by composition,
phi^*(f) = f . phi.  The pushforward needs no radius (the support is
finite); the pullback does, because fibers are only known inside balls.

The identities relating pushforward, pullback and translations are
implemented as checkable reports: they decompose the group into pieces
on which the composite acts by a finite sum of translates.
"""

from __future__ import annotations

from .coarsemaps import CoarseMap, SectionData, section
from .errors import GroupMismatchError, InvalidElementError, ResourceLimitError
from .groups import Group
from .rings import Ring, ring_from_name, vec_add, vec_neg, vec_scale, \
    vec_zero


class FinitelySupported:
    """Sparse store of a finitely supported function into R^rank: `data`
    maps each key of the support to its value, a nonzero normalized
    vector, and no zero vector is ever stored.

    Holds the module operations of chains and functions alike.  A
    subclass validates its keys where input enters, names its module
    in ``_module()`` and builds instances over it in ``_with(data)``;
    the operations here are trusted to write only keys and vectors
    already checked.
    """

    __hash__ = None      # mutable

    def _module(self):
        raise NotImplementedError

    def _acc(self, key, v):
        """Add v at key and drop the key if the sum is zero.  Trusts key
        to be a point of this function and v a normalized vector of its
        rank."""
        data = self.data
        cur = data.get(key)
        if cur is not None:
            v = tuple(map(self.ring.add, cur, v))
        # the scalars of every ring, ints and Fractions, are falsy exactly
        # when zero; a key that sums to zero leaves, so one added again
        # goes last
        if any(v):
            data[key] = v
        else:
            data.pop(key, None)

    def is_zero(self):
        return not self.data

    def __add__(self, other):
        if type(other) is not type(self) or other._module() != self._module():
            raise GroupMismatchError(
                f"{type(self).__name__} + {type(other).__name__}: the "
                f"operands live over different modules")
        out = self.copy()
        for key, v in other.data.items():
            out._acc(key, v)
        return out

    def __neg__(self):
        return self._with({key: vec_neg(self.ring, v)
                           for key, v in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.normalize(c)
        out = self._with({})
        for key, v in self.data.items():
            out._acc(key, vec_scale(self.ring, c, v))
        return out

    def __eq__(self, other):
        if not isinstance(other, FinitelySupported):
            return NotImplemented
        return (type(other) is type(self) and other._module() == self._module()
                and self.data == other.data)

    def copy(self):
        return self._with(dict(self.data))


class FinSupFun(FinitelySupported):
    """Finitely supported function from a group into R^rank.

    Validated where input enters (the item setter, ``data=``,
    ``from_json`` and the element of ``translate``), trusted inside.  The
    operations write through ``_acc`` or copy entries verbatim.

    >>> from .groups import IntLattice
    >>> from .rings import Integers
    >>> Z = IntLattice(1)
    >>> f = FinSupFun(Z, Integers(), 1, {(0,): (2,), (3,): (-1,)})
    >>> f((3,))
    (-1,)
    >>> f((5,))
    (0,)
    >>> (f + f)((0,))
    (4,)
    >>> f.translate((1,))((4,))
    (-1,)
    """

    def __init__(self, group: Group, ring: Ring, rank: int, data=None):
        if rank < 1:
            raise InvalidElementError("rank must be at least 1")
        self.group = group
        self.ring = ring
        self.rank = rank
        self.data = {}
        if data:
            for g, v in data.items():
                self[g] = v

    def _module(self):
        return self.group, self.ring, self.rank

    # -- dict-like access ---------------------------------------------------
    def __getitem__(self, g):
        return self.data.get(g, vec_zero(self.ring, self.rank))

    __call__ = __getitem__

    def __setitem__(self, g, v):
        self.group.check_element(g)
        if len(v) != self.rank:
            raise InvalidElementError(
                f"value {v!r} has length {len(v)}, expected rank {self.rank}")
        v = tuple(self.ring.normalize(c) for c in v)
        self.data.pop(g, None)
        self._acc(g, v)

    def _with(self, data, group=None):
        """A function over the same module (or the same ring and rank over
        another group) holding data, whose entries are trusted to be
        nonzero normalized vectors."""
        out = FinSupFun(self.group if group is None else group, self.ring,
                        self.rank)
        out.data = data
        return out

    def support(self):
        return sorted(self.data, key=self.group.order_key)

    def __repr__(self):
        items = ", ".join(f"{g}:{v}" for g, v in
                          ((g, self.data[g]) for g in self.support()))
        return f"FinSupFun[{self.ring.name}^{self.rank}]({items})"

    # -- group action and cutoffs -----------------------------------------
    def translate(self, g):
        """(g.f)(x) = f(g^-1 x), i.e. the support moves to g * support."""
        G = self.group
        G.check_element(g)
        # left translation is a bijection: the entries move verbatim
        return self._with({G.mul(g, x): v for x, v in self.data.items()})

    def restrict(self, subset):
        """1_A * f for A a set of elements or a predicate."""
        member = subset if callable(subset) else set(subset).__contains__
        return self._with({g: v for g, v in self.data.items() if member(g)})

    # -- JSON ----------------------------------------------------------------
    def to_json(self):
        return {"ring": self.ring.name, "rank": self.rank,
                "support": [[self.group.element_to_json(g),
                             [self.ring.scalar_to_json(c) for c in self.data[g]]]
                            for g in self.support()]}

    @classmethod
    def from_json(cls, group: Group, obj) -> "FinSupFun":
        ring = ring_from_name(obj["ring"])
        rank = obj["rank"]
        out = cls(group, ring, rank)
        seen = set()
        for nf, coeffs in obj["support"]:
            # element_from_json checks g once; _acc trusts it
            g = group.element_from_json(nf)
            if g in seen:
                raise InvalidElementError(
                    f"duplicate support point {nf!r} in function JSON")
            seen.add(g)
            if len(coeffs) != rank:
                raise InvalidElementError(
                    f"value {coeffs!r} has length {len(coeffs)}, expected "
                    f"rank {rank}")
            # scalar_from_json returns a normalized scalar
            out._acc(g, tuple(map(ring.scalar_from_json, coeffs)))
        return out


def delta(group: Group, ring: Ring, rank: int, g, coeffs=None) -> FinSupFun:
    """Point mass at g; coeffs defaults to the first unit vector."""
    if coeffs is None:
        coeffs = tuple(ring.one() if i == 0 else ring.zero()
                       for i in range(rank))
    return FinSupFun(group, ring, rank, {g: tuple(coeffs)})


# -- pushforward and pullback along coarse maps -----------------------------

def pushforward(phi: CoarseMap, f: FinSupFun) -> FinSupFun:
    """phi_*(f)(y) = sum of f over the fiber of y.  Exact: the support
    of f is finite, so only finitely many fibers matter.

    >>> from .gallery import get_map
    >>> from .rings import Integers
    >>> phi = get_map("z-double-floor")
    >>> f = FinSupFun(phi.source, Integers(), 1, {(2,): (1,), (3,): (1,)})
    >>> pushforward(phi, f).to_json()["support"]
    [[[2], [2]]]
    """
    if f.group != phi.source:
        raise GroupMismatchError("function lives on the wrong group")
    out = f._with({}, group=phi.target)
    for x, v in f.data.items():
        out._acc(phi(x), v)
    return out


def pullback(phi: CoarseMap, f: FinSupFun, radius: int) -> FinSupFun:
    """phi^*(f) = f . phi with support searched inside ball(radius).

    The result is certified complete only if no support sits on the
    boundary sphere (or the source group was exhausted); otherwise a
    ResourceLimitError asks for a larger radius.
    """
    if f.group != phi.target:
        raise GroupMismatchError("function lives on the wrong group")
    G = phi.source
    out = f._with({}, group=G)
    last_sphere = []
    exhausted = True
    for r, sphere in enumerate(G._spheres()):
        if r > radius:
            exhausted = False
            break
        last_sphere = []
        for x in sphere:
            v = f.data.get(phi(x))
            if v is not None:
                out.data[x] = v
                if r == radius:
                    last_sphere.append(x)
    if not exhausted and last_sphere:
        raise ResourceLimitError(
            f"pullback support reaches sphere({radius}); "
            f"increase the radius to certify completeness", cap=radius)
    return out


def pull_push_identity(phi: CoarseMap, f: FinSupFun, radius: int) -> dict:
    """Check phi^* phi_* f = sum over pieces X_i of 1_{X_i} * (sum of
    g^-1.f over g in F_i), where F_i x = fiber of phi(x) and X_i groups
    the x in ball(radius) with equal translate set F_i.

    Fibers are read off ball(fiber_radius), fiber_radius = 2*radius + 2;
    honesty caveat: a fiber escaping that ball would be missed, which
    for a certified coarse map cannot happen once the ball is larger
    than radius plus the maximal fiber spread.
    """
    G = phi.source
    fiber_radius = 2 * radius + 2
    fib = phi.fibers_on_ball(fiber_radius)
    lhs = {}          # x -> value of phi^*(phi_* f)(x)
    push = pushforward(phi, f)
    groups = {}       # frozenset F_i -> list of x
    for x in G.ball(radius):
        lhs[x] = push[phi(x)]
        Fx = frozenset(G.mul(t, G.inv(x)) for t in fib.get(phi(x), ()))
        groups.setdefault(Fx, []).append(x)
    rhs = {}
    for Fi, xs in groups.items():
        for x in xs:
            acc = vec_zero(f.ring, f.rank)
            for g in Fi:
                # (g^-1 . f)(x) = f(g x)
                acc = vec_add(f.ring, acc, f[G.mul(g, x)])
            rhs[x] = acc
    holds = all(lhs[x] == rhs[x] for x in lhs)
    key = G.order_key
    pieces = [(sorted(Fi, key=key), sorted(xs, key=key))
              for Fi, xs in groups.items()]
    pieces.sort(key=lambda p: (len(p[0]), list(map(key, p[0]))))
    return {"holds": holds, "radius": radius, "fiber_radius": fiber_radius,
            "pieces": pieces}


def translate_push_identity(phi: CoarseMap, h, f: FinSupFun, radius: int,
                            sec: SectionData | None = None) -> dict:
    """Check 1_Y * (h . phi_* f) = phi_*(sum over pieces of the section X
    of 1_{X_i} * (sum of g^-1.f over g in F_i)), with
    F_i x = {xt : phi(xt) = h^-1 phi(x)} for x in X and Y = phi(X).

    The translate of a pushforward is again a pushforward, of a finite
    sum of translates of f, after cutting to the image.
    """
    G, T = phi.source, phi.target
    if sec is None:
        sec = section(phi, 2 * radius + 2)
    fib = phi.fibers_on_ball(sec.radius)
    hinv = T.inv(h)
    groups = {}
    for x in sec.X:
        if G.word_length(x) > radius:
            continue
        want = T.mul(hinv, phi(x))
        Fx = frozenset(G.mul(t, G.inv(x)) for t in fib.get(want, ()))
        groups.setdefault(Fx, []).append(x)
    inner = f._with({})
    for Fi, xs in groups.items():
        for x in xs:
            for g in Fi:
                v = f.data.get(G.mul(g, x))
                if v is not None:
                    inner._acc(x, v)
    rhs = pushforward(phi, inner)
    # left side, evaluated on the image points of the section
    push = pushforward(phi, f)
    Y = {phi(x) for x in sec.X if G.word_length(x) <= radius}
    # rhs is supported inside Y by construction, so comparing on Y decides
    holds = True
    for y in Y:
        lhs_v = push[T.mul(hinv, y)]      # (h.push)(y) = push(h^-1 y)
        if lhs_v != rhs[y]:
            holds = False
            break
    key = G.order_key
    pieces = [(sorted(Fi, key=key), len(xs)) for Fi, xs in groups.items()]
    pieces.sort(key=lambda p: (len(p[0]), list(map(key, p[0]))))
    return {"holds": holds, "radius": radius, "translate": h,
            "pieces": pieces}


# -- exact span checks over finite groups ------------------------------------
#
# Over a finite group the coefficient families of the paper (all
# functions, finite support, group ring, l^p, c_0) are each the full
# lattice of functions, and module identities become statements about
# integer spans: the smallest res-invariant submodule containing a
# family of generators is spanned (over Z) by their translates and
# singleton restrictions.  These helpers freeze that as matrix computations; the
# Smith engine lives above this module, hence the late imports.

def _fun_to_vec(f: FinSupFun):
    """Coordinates of f over (element index, coefficient index)."""
    els = f.group.elements()
    idx = {g: i for i, g in enumerate(els)}
    vec = [0] * (len(els) * f.rank)
    for g in f.support():
        for k, c in enumerate(f[g]):
            vec[idx[g] * f.rank + k] = int(c)
    return vec


def _span_snf(vectors, dim):
    """Certified Smith form of the matrix whose columns are vectors."""
    from .homology import _certified_smith
    import numpy as np
    if vectors:
        M = np.array(vectors, dtype=np.int64).T
    else:
        M = np.zeros((dim, 0), dtype=np.int64)
    return _certified_smith(M)


def push_span_generators(phi: CoarseMap, rank: int = 1):
    """Generators {h.phi_*(basis)} of the pushforward module of the
    integral group-ring family, both groups finite."""
    G, H = phi.source, phi.target
    if not (G.is_finite() and H.is_finite()):
        raise InvalidElementError("span generators need finite groups")
    ring = ring_from_name("Z")
    gens = []
    for h in H.elements():
        for x in G.elements():
            for k in range(rank):
                coeffs = tuple(1 if i == k else 0 for i in range(rank))
                f = delta(G, ring, rank, x, coeffs)
                gens.append(pushforward(phi, f).translate(h))
    return gens


def spans_equal(gens_a, gens_b, group: Group, rank: int = 1) -> bool:
    """Equality of the integer spans of two generator families inside
    the function lattice of a finite group: mutual containment, each
    vector solved over Z through the other family's Smith certificate."""
    dim = len(group.elements()) * rank
    va = [_fun_to_vec(f) for f in gens_a]
    vb = [_fun_to_vec(f) for f in gens_b]
    sa = _span_snf(va, dim)
    sb = _span_snf(vb, dim)
    return all(sb.solve(v, "Z")[2] is None for v in va) and \
        all(sa.solve(v, "Z")[2] is None for v in vb)


def pull_span_identity(phi: CoarseMap, rank: int = 1) -> dict:
    """Pulling back the whole function module of the target and closing
    under restriction must give back the whole function module of the
    source.  Generators: singleton restrictions of pullbacks of target
    basis functions; the verdict compares their integer span with the
    full lattice.
    """
    G, H = phi.source, phi.target
    if not (G.is_finite() and H.is_finite()):
        raise InvalidElementError("the span identity check needs "
                                  "finite groups")
    ring = ring_from_name("Z")
    els = G.elements()
    n = len(els) * rank
    radius = max((G.word_length(g) for g in els), default=0) + 1
    gens = []
    for y in H.elements():
        for k in range(rank):
            coeffs = tuple(1 if i == k else 0 for i in range(rank))
            pb = pullback(phi, delta(H, ring, rank, y, coeffs), radius)
            for x in pb.support():
                gens.append(pb.restrict({x}))
    snf = _span_snf([_fun_to_vec(f) for f in gens], n)
    full = snf.rank == n and all(int(d) == 1 for d in snf.divisors)
    return {"holds": full, "dimension": n,
            "generator_count": len(gens), "rank": snf.rank,
            "divisors": [int(d) for d in snf.divisors]}
