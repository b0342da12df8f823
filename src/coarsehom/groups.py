"""Exact computable groups with right-invariant word metrics.

Elements are plain hashable normal-form values (tuples or ints); each group
descriptor knows how to multiply, invert and measure them.  Equality of
elements is equality of normal forms.  All descriptors are immutable and all
operations are pure.

Families:

* ``IntLattice(d)`` -- Z^d, elements are d-tuples of ints, generators the
  2d signed unit vectors, word length the l1 norm.
* ``FreeGroup(k)`` -- free group on k letters, elements are reduced words
  stored as tuples of nonzero ints in {-k..k} (letter j inverse is -j).
* ``InfiniteDihedral`` -- Z joined with a flip, elements (t, s) with s in
  {0,1}; (t1,s1)(t2,s2) = (t1 + (-1)^s1 t2, s1 xor s2).
* ``FiniteGroup`` -- explicit multiplication table over indices 0..n-1 with
  0 the identity; word lengths by breadth-first search over the generators.
* ``ProductGroup`` -- direct product, componentwise.

Ball enumeration is deterministic: elements are ordered by word length and
ties inside a sphere are broken by a fixed lexicographic key documented per
family (integers compare by (|c|, then negative-after-positive), free-group
letters in the order a < a^-1 < b < b^-1, finite groups by index).

Elements are validated where they enter (``check_element``,
``word_length``, ``element_from_json``); ``mul``, ``inv``, ``order_key``
and ``pair_lengths`` trust their arguments.  Because descriptors are
immutable, each instance computes its identity key once and memoizes its
largest ball at the default cap (up to BALL_MEMO_CAP elements); smaller
balls are prefixes of it.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import add, neg

import numpy as np

from .errors import InvalidElementError, ResourceLimitError

# Hard default for how many elements a single ball may hold before the
# enumeration is cut off with ResourceLimitError.
DEFAULT_BALL_CAP = 2_000_000

# Most elements a group instance keeps in its ball memo; a larger ball is
# enumerated afresh on every call.
BALL_MEMO_CAP = 1 << 16


def _int_key(c):
    # orders 0 < 1 < -1 < 2 < -2 < ... when paired with |c| first
    return (abs(c), 0 if c >= 0 else 1)


def _max_abs(values) -> int:
    return max(map(abs, values), default=0)


def _int64_rows(elems, width):
    """Integer tuples of one length as the rows of an int64 matrix; the
    caller has bounded every entry below 2^63."""
    return np.fromiter(chain.from_iterable(elems), dtype=np.int64,
                       count=len(elems) * width).reshape(len(elems), width)


class Group:
    """Base descriptor.  Subclasses fill in the family-specific pieces."""

    family = "abstract"

    # -- family-specific core -------------------------------------------

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def generators(self):
        """Finite symmetric generating set (never includes the identity)."""
        raise NotImplementedError

    def is_element(self, a) -> bool:
        raise NotImplementedError

    def sort_key(self, a):
        """Tie-break key inside a sphere; total order is (length, key)."""
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------

    def check_element(self, a):
        if not self.is_element(a):
            raise InvalidElementError(f"{a!r} is not an element of {self}")
        return a

    def word_length(self, a) -> int:
        """Minimal number of generators multiplying to ``a``."""
        return self._length(self.check_element(a))

    def _length(self, a) -> int:
        """word_length of an element, unchecked.  Subclasses override
        when a closed form exists; the fallback searches outward sphere
        by sphere."""
        for r, sphere in enumerate(self._spheres()):
            if a in sphere:
                return r
        raise InvalidElementError(f"{a!r} not reached by generators")

    def order_key(self, a):
        """(length, key): the order of ball enumeration; trusts ``a``."""
        return (self._length(a), self.sort_key(a))

    def pair_lengths(self, xs, ys):
        """Matrix of the word lengths |x_i y_j^-1| over all pairs.

        Exact: int64 when every entry is below 2^63, else object (Python
        ints).  Like ``mul``, it trusts its arguments to be elements.
        Families with a closed form compute it from coordinate arrays;
        the others, and coordinates too large for the closed form to be
        exact in int64, multiply pair by pair.

        >>> FreeGroup(2).pair_lengths([(1,), (1, 2)], [(), (1,)])
        array([[1, 0],
               [2, 3]])
        """
        X, Y = self._pair_coords(xs), self._pair_coords(ys)
        if X is None or Y is None:
            return self._word_pair_lengths(xs, ys)
        return self._coord_pair_lengths(X, Y)

    def pair_length_blocks(self, elems, rows):
        """Yield pair_lengths(elems[i:i + rows], elems) for i = 0, rows,
        2 rows, ...; the coordinates of elems are bounded and built once
        for all the blocks.

        >>> Z = IntLattice(1)
        >>> [m.tolist() for m in Z.pair_length_blocks([(0,), (2,), (5,)], 2)]
        [[[0, 2, 5], [2, 0, 3]], [[5, 3, 0]]]
        """
        X = self._pair_coords(elems)
        for i in range(0, len(elems), rows):
            if X is None:
                yield self._word_pair_lengths(elems[i:i + rows], elems)
            else:
                yield self._coord_pair_lengths(X[i:i + rows], X)

    def _pair_coords(self, elems):
        """elems as the int64 array that _coord_pair_lengths reads, or
        None: the family has no closed form, or an entry is too large for
        the closed form to be exact in int64 between any two such
        arrays."""
        return None

    def _word_pair_lengths(self, xs, ys):
        invs = [self.inv(y) for y in ys]
        rows = [[self._length(self.mul(x, yi)) for yi in invs]
                for x in xs]
        top = max((max(row, default=0) for row in rows), default=0)
        return np.array(rows, dtype=np.int64 if top < 2 ** 63 else object
                        ).reshape(len(xs), len(ys))

    def _spheres(self, cap=DEFAULT_BALL_CAP, seen=None, sphere=None):
        """Yield sphere(0), sphere(1), ... as sets; stops for finite groups.
        Given seen, the ball of some radius r as a set, and sphere, its
        sphere(r), yield sphere(r + 1), ... instead (seen is extended).

        Sphere r + 1 is built only when asked for, and the cap counts the
        ball up to the sphere just built."""
        gens = self.generators()
        if seen is None:
            seen = {self.identity()}
            sphere = {self.identity()}
            yield sphere
        while sphere:
            nxt = set()
            for g in sphere:
                for s in gens:
                    h = self.mul(s, g)
                    if h not in seen:
                        seen.add(h)
                        nxt.add(h)
            if len(seen) > cap:
                raise ResourceLimitError(
                    f"ball enumeration exceeded cap {cap}", cap=cap)
            sphere = nxt
            if sphere:
                yield sphere
            else:
                return

    def ball(self, r: int, cap=DEFAULT_BALL_CAP):
        """All elements of word length <= r, sorted by (length, key).

        A fresh list on every call.  At the default cap the largest ball
        enumerated so far is memoized: smaller balls are sliced from it,
        and a larger one resumes from its last sphere; another cap
        enumerates afresh and leaves the memo alone.
        ``r = math.inf`` gives the whole of a finite group.

        >>> IntLattice(1).ball(2)
        [(0,), (1,), (-1,), (2,), (-2,)]
        >>> len(FreeGroup(2).ball(2))
        17
        >>> IntLattice(3).ball(0)
        [(0, 0, 0)]
        """
        if r < 0:
            raise ValueError("radius must be >= 0")
        memo = self.__dict__.get("_ball_memo") \
            if cap == DEFAULT_BALL_CAP else None
        # ends[k] = |ball(k)|; whole: the spheres ran out (a finite group)
        if memo is None:
            elems, ends = [], []
            spheres = self._spheres(cap=cap)
        else:
            elems, ends, whole = memo
            if r < len(ends):
                return elems[:ends[r]]
            if whole:
                return list(elems)
            elems, ends = list(elems), list(ends)
            last = elems[ends[-2]:] if len(ends) > 1 else elems
            spheres = self._spheres(cap, set(elems), set(last))
        whole = True
        for sphere in spheres:
            elems.extend(sorted(sphere, key=self.sort_key))
            ends.append(len(elems))
            if len(ends) > r:
                whole = False
                break
        if cap == DEFAULT_BALL_CAP and len(elems) <= BALL_MEMO_CAP:
            self._ball_memo = (elems, ends, whole)
            return list(elems)
        return elems

    def enumerate_elements(self, cap=DEFAULT_BALL_CAP):
        """Deterministic enumeration g1 = e, g2, g3, ... in ball order.

        Lazy and infinite for infinite groups; exhausts finite groups.

        >>> import itertools
        >>> list(itertools.islice(IntLattice(1).enumerate_elements(), 5))
        [(0,), (1,), (-1,), (2,), (-2,)]
        """
        for sphere in self._spheres(cap=cap):
            yield from sorted(sphere, key=self.sort_key)

    def elements(self):
        """All elements of a finite group, in enumeration order: the
        whole group is one ball, served from the ball memo."""
        if not self.is_finite():
            raise ResourceLimitError("elements() needs a finite group")
        return self.ball(math.inf)

    def order(self):
        return len(self.elements())

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"family": self.family, "params": self.params()}

    def __repr__(self):
        return f"{type(self).__name__}({self.params()})"

    def _identity_key(self):
        key = self.__dict__.get("_key")
        if key is None:
            key = self._key = (self.family,
                               json.dumps(self.params(), sort_keys=True))
        return key

    def __eq__(self, other):
        return self is other or (isinstance(other, Group)
                                 and self._identity_key()
                                 == other._identity_key())

    def __hash__(self):
        return hash(self._identity_key())


class IntLattice(Group):
    """Z^d with the 2d signed unit generators; word length = l1 norm.

    >>> Z = IntLattice(1)
    >>> Z.mul((2,), (-5,))
    (-3,)
    >>> Z.word_length((3,))
    3
    >>> Z2 = IntLattice(2)
    >>> Z2.word_length((2, -1))
    3
    """

    family = "int-lattice"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d

    def identity(self):
        return (0,) * self.d

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(map(neg, a))

    def generators(self):
        gens = []
        for i in range(self.d):
            for sgn in (1, -1):
                v = [0] * self.d
                v[i] = sgn
                gens.append(tuple(v))
        return gens

    def is_element(self, a):
        return (isinstance(a, tuple) and len(a) == self.d
                and all(isinstance(x, int) for x in a))

    def _length(self, a):
        return sum(abs(x) for x in a)

    def _pair_coords(self, elems):
        # an l1 difference of coordinates below 2^63 / 2d is below 2^63
        if 2 * self.d * _max_abs(chain.from_iterable(elems)) >= 2 ** 63:
            return None
        return _int64_rows(elems, self.d)

    def _coord_pair_lengths(self, X, Y):
        """l1 norms of the coordinate differences x_i - y_j.

        >>> IntLattice(2).pair_lengths([(0, 0), (2, -1)], [(1, 1)])
        array([[2],
               [3]])
        """
        out = np.zeros((len(X), len(Y)), dtype=np.int64)
        for k in range(self.d):
            diff = np.subtract.outer(X[:, k], Y[:, k])
            out += np.abs(diff, out=diff)
        return out

    def sort_key(self, a):
        return tuple(_int_key(x) for x in a)

    def is_finite(self):
        return False

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        return self.check_element(tuple(obj))

    def params(self):
        return {"d": self.d}


class FreeGroup(Group):
    """Free group on k letters; elements are reduced words.

    Letters are 1..k, inverses -1..-k, identity the empty tuple.

    >>> F = FreeGroup(2)
    >>> F.mul((1, 2), (-2, -1))   # (ab)(b^-1 a^-1) = e
    ()
    >>> F.word_length((1, 2, -1))
    3
    """

    family = "free"

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("rank must be >= 1")
        self.k = k

    def identity(self):
        return ()

    def mul(self, a, b):
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1] == -b[i]:
            a.pop()
            i += 1
        return tuple(a) + tuple(b[i:])

    def inv(self, a):
        return tuple(map(neg, reversed(a)))

    def generators(self):
        return [(j,) for j in range(1, self.k + 1)] + \
               [(-j,) for j in range(1, self.k + 1)]

    def is_element(self, a):
        if not isinstance(a, tuple):
            return False
        for x in a:
            if not isinstance(x, int) or x == 0 or abs(x) > self.k:
                return False
        return all(a[i] != -a[i + 1] for i in range(len(a) - 1))

    def _length(self, a):
        return len(a)

    def sort_key(self, a):
        # letter order: a < a^-1 < b < b^-1 < ...
        return tuple((abs(x), 0 if x > 0 else 1) for x in a)

    def is_finite(self):
        return False

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        return self.check_element(tuple(obj))

    def params(self):
        return {"k": self.k}


class InfiniteDihedral(Group):
    """Z with an orientation flip; normal form (shift, flip).

    Generators: shift by +-1 and the flip.  Word length |t| + s is exact:
    the flip count bounds s and every generator moves the shift by at most
    one, both bounds being attained by the obvious word.

    >>> D = InfiniteDihedral()
    >>> D.mul((1, 1), (1, 1))     # two reflections make a translation
    (0, 0)
    >>> D.mul((2, 1), (3, 0))
    (-1, 1)
    >>> D.word_length((-3, 1))
    4
    """

    family = "dihedral-inf"

    def identity(self):
        return (0, 0)

    def mul(self, a, b):
        t1, s1 = a
        t2, s2 = b
        return (t1 + (t2 if s1 == 0 else -t2), s1 ^ s2)

    def inv(self, a):
        t, s = a
        return (-t if s == 0 else t, s)

    def generators(self):
        return [(1, 0), (-1, 0), (0, 1)]

    def is_element(self, a):
        return (isinstance(a, tuple) and len(a) == 2
                and isinstance(a[0], int) and a[1] in (0, 1))

    def _length(self, a):
        return abs(a[0]) + a[1]

    def _pair_coords(self, elems):
        # the largest length, |t1| + |t2| + 1, stays below 2^63
        if 2 * _max_abs(t for t, _ in elems) + 1 >= 2 ** 63:
            return None
        return _int64_rows(elems, 2)

    def _coord_pair_lengths(self, X, Y):
        """Closed form: x y^-1 shifts by t1 - t2 when the flips agree and
        by t1 + t2 when they differ, and flips when they differ.

        >>> D = InfiniteDihedral()
        >>> D.pair_lengths([(2, 0), (2, 1)], [(3, 0), (3, 1)])
        array([[1, 6],
               [6, 1]])
        """
        # (1 - 2 s1)(1 - 2 s2) is +1 when the flips agree, -1 otherwise
        out = np.multiply.outer(1 - 2 * X[:, 1], (1 - 2 * Y[:, 1]) * Y[:, 0])
        np.subtract(X[:, :1], out, out=out)
        np.abs(out, out=out)
        out += np.not_equal.outer(X[:, 1], Y[:, 1])
        return out

    def sort_key(self, a):
        return (_int_key(a[0]), a[1])

    def is_finite(self):
        return False

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, obj):
        return self.check_element((obj[0], obj[1]))

    def params(self):
        return {}


class FiniteGroup(Group):
    """Finite group given by its multiplication table.

    ``table[i][j]`` is the index of element i times element j; index 0 must
    be the identity.  The table is validated to be a Latin square with
    two-sided inverses, and the generating set to be symmetric and to reach
    every element.

    >>> C3 = cyclic_group(3)
    >>> C3.mul(1, 2)
    0
    >>> C3.ball(1)
    [0, 1, 2]
    """

    family = "finite"

    def __init__(self, table, generators=None, names=None):
        n = len(table)
        if n == 0:
            raise ValueError("empty table")
        for row in table:
            if len(row) != n:
                raise ValueError("table is not square")
            if sorted(row) != list(range(n)):
                raise ValueError("table rows must be permutations")
        for j in range(n):
            if sorted(table[i][j] for i in range(n)) != list(range(n)):
                raise ValueError("table columns must be permutations")
        if any(table[0][j] != j for j in range(n)) or \
           any(table[i][0] != i for i in range(n)):
            raise ValueError("index 0 must be the identity")
        self.table = tuple(tuple(row) for row in table)
        self.n = n
        self._inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == 0:
                    if table[j][i] != 0:
                        raise ValueError("one-sided inverse in table")
                    self._inv[i] = j
        if generators is None:
            generators = [i for i in range(1, n)]
        gens = sorted(set(generators))
        if 0 in gens:
            gens.remove(0)
        for g in gens:
            if self._inv[g] not in gens:
                raise ValueError("generating set not symmetric")
        self._gens = gens
        self.names = list(names) if names is not None else None
        self._lengths = self._bfs_lengths()
        if any(l is None for l in self._lengths):
            raise ValueError("generators do not generate the group")

    def _bfs_lengths(self):
        lengths = [None] * self.n
        lengths[0] = 0
        frontier = [0]
        r = 0
        while frontier:
            r += 1
            nxt = []
            for g in frontier:
                for s in self._gens:
                    h = self.table[s][g]
                    if lengths[h] is None:
                        lengths[h] = r
                        nxt.append(h)
            frontier = nxt
        return lengths

    def identity(self):
        return 0

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def generators(self):
        return list(self._gens)

    def is_element(self, a):
        return isinstance(a, int) and not isinstance(a, bool) \
            and 0 <= a < self.n

    def _length(self, a):
        return self._lengths[a]

    def sort_key(self, a):
        return a

    def is_finite(self):
        return True

    def element_to_json(self, a):
        return a

    def element_from_json(self, obj):
        return self.check_element(obj)

    def params(self):
        p = {"table": [list(r) for r in self.table],
             "generators": list(self._gens)}
        if self.names is not None:
            p["names"] = list(self.names)
        return p


class ProductGroup(Group):
    """Direct product; elements are (left, right) pairs.

    Word length is the sum of the factors' lengths (generators act in one
    factor at a time); the tie-break key is (len_l, key_l, len_r, key_r).
    """

    family = "product"

    def __init__(self, left: Group, right: Group):
        self.left = left
        self.right = right

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def generators(self):
        el, er = self.left.identity(), self.right.identity()
        return [(g, er) for g in self.left.generators()] + \
               [(el, g) for g in self.right.generators()]

    def is_element(self, a):
        return (isinstance(a, tuple) and len(a) == 2
                and self.left.is_element(a[0]) and self.right.is_element(a[1]))

    def _length(self, a):
        return self.left._length(a[0]) + self.right._length(a[1])

    def sort_key(self, a):
        return self.left.order_key(a[0]) + self.right.order_key(a[1])

    def is_finite(self):
        return self.left.is_finite() and self.right.is_finite()

    def element_to_json(self, a):
        return [self.left.element_to_json(a[0]),
                self.right.element_to_json(a[1])]

    def element_from_json(self, obj):
        return (self.left.element_from_json(obj[0]),
                self.right.element_from_json(obj[1]))

    def params(self):
        return {"left": self.left.to_json(), "right": self.right.to_json()}


def cyclic_group(m: int) -> FiniteGroup:
    """Z/m with generators {1, m-1} (just {1} when m = 2).

    >>> cyclic_group(4).word_length(3)
    1
    >>> cyclic_group(6).word_length(3)
    3
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    gens = [1 % m] if m <= 2 else [1, m - 1]
    if m == 1:
        gens = []
    names = [str(i) for i in range(m)]
    return FiniteGroup(table, generators=gens or None, names=names)


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], generators=None, names=["e"])


def finite_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: rotations Z/m plus a flip.

    Element (i, s) is encoded as index i + m*s; the law matches the
    infinite dihedral one with shifts mod m.  Generators: rotation +-1
    and the flip.

    >>> D3 = finite_dihedral(3)
    >>> D3.order()
    6
    >>> D3.mul(4, 4)   # a reflection squares to the identity
    0
    """
    if m < 2:
        raise ValueError("need m >= 2")
    n = 2 * m

    def enc(i, s):
        return i % m + m * s

    table = [[0] * n for _ in range(n)]
    for i1 in range(m):
        for s1 in range(2):
            for i2 in range(m):
                for s2 in range(2):
                    i = i1 + (i2 if s1 == 0 else -i2)
                    table[enc(i1, s1)][enc(i2, s2)] = enc(i, s1 ^ s2)
    gens = sorted({enc(1, 0), enc(-1, 0), enc(0, 1)})
    names = [f"r{i}" for i in range(m)] + [f"sr{i}" for i in range(m)]
    return FiniteGroup(table, generators=gens, names=names)


_FAMILIES = {
    "int-lattice": lambda p: IntLattice(p["d"]),
    "free": lambda p: FreeGroup(p["k"]),
    "dihedral-inf": lambda p: InfiniteDihedral(),
    "finite": lambda p: FiniteGroup(p["table"], p.get("generators"),
                                    p.get("names")),
    "product": lambda p: (lambda l, r: ProductGroup(l, r))(
        group_from_json(p["left"]), group_from_json(p["right"])),
}


def group_from_json(obj: dict) -> Group:
    """Inverse of Group.to_json.

    >>> group_from_json({"family": "int-lattice", "params": {"d": 2}})
    IntLattice({'d': 2})
    """
    fam = obj.get("family")
    if fam not in _FAMILIES:
        raise ValueError(f"unknown group family {fam!r}")
    return _FAMILIES[fam](obj.get("params", {}))
