"""Independent oracles for frozen test values.

Everything here is implemented from first principles, without touching
the package under test: closed-form homology of cyclic groups from the
periodic resolution, induced-module vanishing for group-ring
coefficients, free-group sphere counts, the closed form of the coarse
inverse of doubling, a from-scratch reduced-word enumerator for the free
group, the quaternion group's table, and the normalized boundary as a
restriction of the unnormalized one.  Tests compare engine output
against these.  Five exceptions use the package's objects: the reverse
scan below is the pair-by-pair loop that the vectorized scan of
check_coarse_embedding replaced, and it uses only the groups' ball, mul,
inv and word_length; the reference nerve walks the points of an action
groupoid's nerve and builds their faces on objects, from the group's
mul, inv and identity and the action alone; the reference window
assembly builds a boundary window's face sums on points, from the
groups' ball, mul and inv; the combined action reads a coupling's two
tables as one FiniteAction of the ProductGroup G x H; the reference
chain operations at the end rebuild boundaries, induced maps, homotopies
and function sums from their formulas, writing every term through the
validating public setters (Chain.add_at, FinSupFun item assignment).
"""

import itertools
import math

import numpy as np


def cyclic_homology(m: int, degree: int) -> dict:
    """H_n of the cyclic group of order m with trivial integer
    coefficients, from the periodic resolution
    ... -> R -(N)-> R -(t-1)-> R -> 0 with N the norm element:
    H_0 = Z, H_odd = Z/m, H_even>0 = 0."""
    if degree == 0:
        return {"betti": 1, "torsion": []}
    if degree % 2 == 1:
        return {"betti": 0, "torsion": [m]}
    return {"betti": 0, "torsion": []}


def cyclic_homology_mod_p(m: int, degree: int, p: int) -> int:
    """Dimension of H_n over the field with p elements (p prime): the
    periodic resolution tensored with F_p has zero differentials iff
    p divides m, so every degree contributes 1; otherwise only degree
    0 survives."""
    if degree == 0:
        return 1
    return 1 if m % p == 0 else 0


def group_ring_homology(degree: int) -> dict:
    """H_n of a finite group with its own integral group ring as
    coefficients: the module is induced from the trivial subgroup, so
    all higher homology vanishes and degree zero gives one copy of Z
    (coinvariants of the free rank-one module)."""
    if degree == 0:
        return {"betti": 1, "torsion": []}
    return {"betti": 0, "torsion": []}


def quaternion_table():
    """The multiplication table of the quaternion group Q8 on the indices
    of 1, -1, i, -i, j, -j, k, -k, from i^2 = j^2 = k^2 = ijk = -1."""
    units = ["1", "i", "j", "k"]
    # unit products (sign, unit): ij = k, jk = i, ki = j, and the rest
    # by anticommuting, with i^2 = j^2 = k^2 = -1
    cyc = {("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j"}

    def unit_mul(a, b):
        if a == "1" or b == "1":
            return 1, b if a == "1" else a
        if a == b:
            return -1, "1"
        if (a, b) in cyc:
            return 1, cyc[(a, b)]
        return -1, cyc[(b, a)]

    els = [(s, u) for u in units for s in (1, -1)]
    table = []
    for sa, ua in els:
        row = []
        for sb, ub in els:
            s, u = unit_mul(ua, ub)
            row.append(els.index((sa * sb * s, u)))
        table.append(row)
    return table


def determinant(M):
    """The determinant of a square integer matrix (a list of rows) by the
    Leibniz formula: the sum over permutations p of sign(p) times the
    product of the entries M[i][p(i)]."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]]
                                                for i in range(n))
    return total


def normalized_boundary(M, rows, cols, e):
    """The normalized boundary (Brown, Cohomology of Groups, GTM 87,
    I.5) read off the unnormalized boundary matrix M, whose rows and
    columns are the points (x, gvec) in rows and cols: the degenerate
    points, those with some g_i equal to the identity e, span a
    subcomplex, and the normalized complex is the quotient by it, so its
    boundary is M on the rows and columns of the other points, in their
    order."""
    keep_rows = [i for i, (_, gvec) in enumerate(rows) if e not in gvec]
    keep_cols = [j for j, (_, gvec) in enumerate(cols) if e not in gvec]
    return M[keep_rows][:, keep_cols]


class ReferenceNerve:
    """The nerve of the action groupoid G⋉X of act (act(g, x) = g.x) on
    ordered lists of units and elements, walked on objects: the points
    (x, (g_1..g_n)) with every vertex x_i = g_i^-1.x_{i-1} a unit,
    ordered by x, then by each g_i in element order, and their faces.
    g^-1.x is act(inv(g), x) and products are mul, computed where they
    are read."""

    def __init__(self, group, units, elements, act):
        self.group = group
        self.units = list(units)
        self.elements = list(elements)
        self.act = act
        # walks (x, gvec, last vertex) of degrees 0, 1, ..., keyed by
        # whether the identity is left out
        start = [(x, (), x) for x in self.units]
        self._walks = {False: [start], True: [start]}

    def points(self, degree: int, nondegenerate: bool = False):
        """The degree-n points, or only those with no g_i the identity."""
        G, unitset = self.group, set(self.units)
        walks = self._walks[nondegenerate]
        while len(walks) <= degree:
            walks.append([(x, gvec + (g,), y) for x, gvec, v in walks[-1]
                          for g in self.elements
                          if not (nondegenerate and g == G.identity())
                          and (y := self.act(G.inv(g), v)) in unitset])
        return [(x, gvec) for x, gvec, _ in walks[degree]]

    def faces(self, point, normalized: bool = False):
        """Faces 0..n of a degree-n point, face i at position i: face 0
        is (g_1^-1.x, (g_2..g_n)), face i < n merges g_i g_{i+1}, face n
        drops g_n.  normalized: a middle face whose merged product is the
        identity is None, a degenerate face of the normalized complex."""
        G = self.group
        x, gvec = point
        out = [(self.act(G.inv(gvec[0]), x), gvec[1:])]
        for i in range(len(gvec) - 1):
            g = G.mul(gvec[i], gvec[i + 1])
            out.append(None if normalized and g == G.identity()
                       else (x, gvec[:i] + (g,) + gvec[i + 2:]))
        out.append((x, gvec[:-1]))
        return out

    def columns(self, degree: int, normalized: bool = False):
        """d_n as sparse columns (dict row -> nonzero sum of the signs
        (-1)^i of the faces i on that row, a face None skipped) over the
        degree n-1 points, and its row count: the unnormalized complex,
        or the normalized one on the nondegenerate points."""
        rows = {p: i for i, p in enumerate(self.points(degree - 1,
                                                       normalized))}
        out = []
        for p in self.points(degree, normalized):
            col = {}
            for i, f in enumerate(self.faces(p, normalized)):
                if f is not None:
                    r = rows[f]
                    col[r] = col.get(r, 0) + (-1) ** i
            out.append({r: v for r, v in col.items() if v})
        return out, len(rows)


def combined_action(coup):
    """(g, h).w = g w h^-1: the two actions of a coupling as one left
    action of G x H, a FiniteAction on the coupling's points."""
    from coarsehom.dynamics import FiniteAction
    from coarsehom.groups import ProductGroup
    return FiniteAction(ProductGroup(coup.G, coup.H), coup.points,
                        lambda gh, w: coup.lact(gh[0], coup.hact(gh[1], w)))


def point_faces(G, x, gvec):
    """Faces 0..n of the point (x, (g_1..g_n)), face i at position i:
    face 0 is (g_1^-1 x, (g_2..g_n)), face i < n merges g_i g_{i+1},
    face n drops g_n."""
    out = [(G.mul(G.inv(gvec[0]), x), gvec[1:])]
    for i in range(len(gvec) - 1):
        out.append((x, gvec[:i] + (G.mul(gvec[i], gvec[i + 1]),)
                    + gvec[i + 2:]))
    out.append((x, gvec[:-1]))
    return out


def face_sum_columns(cols, row_index, faces):
    """Alternating face sums over ordered bases, as sparse columns: the
    column of key k maps row_index[f] to the sum of the signs (-1)^i of
    the i-th faces in faces(k) equal to f; zero sums are dropped, and a
    face missing from row_index raises KeyError."""
    columns = []
    for key in cols:
        col = {}
        for i, f in enumerate(faces(key)):
            r = row_index[f]
            v = col.get(r, 0) + (-1 if i & 1 else 1)
            if v:
                col[r] = v
            else:
                del col[r]
        columns.append(col)
    return columns


def face_sum_matrix(cols, row_index, faces):
    """The dense int64 matrix of face_sum_columns."""
    columns = face_sum_columns(cols, row_index, faces)
    M = np.zeros((len(row_index), len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, v in col.items():
            M[i, j] = v
    return M


def window_basis(group, degree: int, x_radius: int, tuple_radius: int):
    """The degree-n points (x, gvec) of a boundary window, x in
    ball(x_radius) and every entry of gvec in ball(tuple_radius),
    ordered by x, then lexicographically by gvec."""
    xs = group.ball(x_radius)
    gs = group.ball(tuple_radius)
    tuples = [()]
    for _ in range(degree):
        tuples = [t + (g,) for t in tuples for g in gs]
    return [(x, gv) for x in xs for gv in tuples]


def window_system(chain, x_radius: int, tuple_radius: int):
    """The reference window assembly of a cycle, on points: (columns,
    sparse columns, rows, b).  columns is window_basis one degree up;
    the rows are numbered by first appearance among the faces of the
    columns in order, face 0 first within each, then the points of the
    cycle's support, and listed in that order; b is the cycle's first
    coefficient at each row times the lcm of its denominators."""
    G = chain.group
    cols = window_basis(G, chain.degree + 1, x_radius, tuple_radius)
    faces = [point_faces(G, x, gvec) for x, gvec in cols]
    row_index = {}
    for f in [f for fs in faces for f in fs] + list(chain.data):
        row_index.setdefault(f, len(row_index))
    scale = math.lcm(*(v.denominator for vec in chain.data.values()
                       for v in vec))
    b = [0] * len(row_index)
    for p, v in chain.data.items():
        b[row_index[p]] = int(v[0] * scale)
    return (cols, face_sum_columns(range(len(cols)), row_index,
                                   faces.__getitem__), list(row_index), b)


def doubling_inverse(y: int) -> int:
    """Closed form of the coarse inverse of x -> 2x on the integers:
    even targets hit exactly, odd targets resolved to the point below."""
    if y % 2 == 0:
        return y // 2
    return (y - 1) // 2


def f2_sphere_count(r: int) -> int:
    """Number of reduced words of length exactly r over two letters:
    4 * 3^(r-1) for r >= 1."""
    if r == 0:
        return 1
    return 4 * 3 ** (r - 1)


def f2_ball_count(r: int) -> int:
    return sum(f2_sphere_count(k) for k in range(r + 1))


def f2_reduced_words(r: int):
    """All reduced words of length <= r as tuples of letters from
    {1, -1, 2, -2} with no adjacent inverse pairs; independent of the
    package's group implementation."""
    words = [()]
    frontier = [()]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for letter in (1, -1, 2, -2):
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt
    return words


def f2_exponent_zero_count(r: int) -> int:
    """How many reduced words of length <= r have both exponent sums
    zero, i.e. map to the origin under abelianization."""
    count = 0
    for w in f2_reduced_words(r):
        a = sum(1 if x == 1 else -1 if x == -1 else 0 for x in w)
        b = sum(1 if x == 2 else -1 if x == -2 else 0 for x in w)
        if a == 0 and b == 0:
            count += 1
    return count


def dihedral_infinite_ball_count(r: int) -> int:
    """Ball sizes in the infinite dihedral group with generators a
    translation, its inverse and the flip: 4r elements for radius
    r >= 1 plus the identity at 0 gives |ball(r)| = 4r."""
    if r == 0:
        return 1
    return 4 * r


def zd_ball_count(d: int, r: int) -> int:
    """Lattice ball sizes for the 1-norm: standard Delannoy-style
    count, computed by direct recursion."""
    if d == 1:
        return 2 * r + 1
    return sum(zd_ball_count(d - 1, r - abs(k)) for k in range(-r, r + 1))


def reverse_scan(phi, radius: int, r: int):
    """best[c], arg[c] for c <= r, pair by pair: best[c] is the largest
    source length |s t^-1| over pairs (s, t) of ball(radius) whose target
    length |phi(s) phi(t)^-1| is exactly c, arg[c] the first such pair
    in (s, t) order; then both are made monotone in c."""
    G, T = phi.source, phi.target
    ball = G.ball(radius)
    vals = {x: phi(x) for x in ball}
    best = [0] * (r + 1)
    arg = [None] * (r + 1)
    for s in ball:
        for t in ball:
            dt = T.word_length(T.mul(vals[s], T.inv(vals[t])))
            if dt > r:
                continue
            ds = G.word_length(G.mul(s, G.inv(t)))
            if ds > best[dt]:
                best[dt] = ds
                arg[dt] = (s, t)
    for c in range(1, r + 1):
        if best[c - 1] > best[c]:
            best[c] = best[c - 1]
            arg[c] = arg[c - 1]
    return best, arg


# -- reference chain and function arithmetic ----------------------------------

def reference_sum(out, terms):
    """Accumulate (key, vector) terms into the empty chain or function
    out through its validating setter: add_at for a chain, whose keys
    are points (x, gvec), item assignment for a function, whose keys are
    elements."""
    for key, v in terms:
        if hasattr(out, "add_at"):
            out.add_at(*key, v)
        else:
            out[key] = tuple(out.ring.add(a, b) for a, b in zip(out[key], v))
    return out


def _signed(ring, v, sign):
    return v if sign > 0 else tuple(ring.neg(a) for a in v)


def reference_boundary(chain):
    """Alternating face sum: face 0 of (x, (g_1..g_n)) is
    (g_1^-1 x, (g_2..g_n)), face i merges g_i g_{i+1}, face n drops g_n."""
    G, ring, n = chain.group, chain.ring, chain.degree
    out = type(chain)(G, ring, chain.rank, max(n - 1, 0))
    if n == 0:
        return out
    terms = []
    for (x, gvec), v in chain.data.items():
        terms += [(f, _signed(ring, v, (-1) ** i))
                  for i, f in enumerate(point_faces(G, x, gvec))]
    return reference_sum(out, terms)


def _orbit(G, x, gvec):
    xs = [x]
    for g in gvec:
        xs.append(G.mul(G.inv(g), xs[-1]))
    return xs


def _arrows(T, vals):
    return tuple(T.mul(a, T.inv(b)) for a, b in zip(vals, vals[1:]))


def reference_induced(phi, chain):
    """(x, gvec) goes to (phi(x_0), (phi(x_i) phi(x_{i+1})^-1)_i) where
    x_0 = x and x_{i+1} = g_{i+1}^-1 x_i."""
    T = phi.target
    terms = []
    for (x, gvec), v in chain.data.items():
        vals = [phi(t) for t in _orbit(phi.source, x, gvec)]
        terms.append(((vals[0], _arrows(T, vals)), v))
    out = type(chain)(T, chain.ring, chain.rank, chain.degree)
    return reference_sum(out, terms)


def reference_homotopy(phi, psi, chain):
    """Slot h = 1..n+1 takes the phi-arrows before x_{h-1}, the
    comparison arrow phi(x_{h-1}) psi(x_{h-1})^-1, then the psi-arrows,
    with sign (-1)^(h+1)."""
    T = phi.target
    terms = []
    for (x, gvec), v in chain.data.items():
        xs = _orbit(phi.source, x, gvec)
        fv, pv = [phi(t) for t in xs], [psi(t) for t in xs]
        for h in range(1, len(gvec) + 2):
            hvec = (_arrows(T, fv[:h])
                    + (T.mul(fv[h - 1], T.inv(pv[h - 1])),)
                    + _arrows(T, pv[h - 1:]))
            terms.append(((fv[0], hvec), _signed(chain.ring, v,
                                                 (-1) ** (h + 1))))
    out = type(chain)(T, chain.ring, chain.rank, chain.degree + 1)
    return reference_sum(out, terms)


def reference_fun_sum(f, g):
    return reference_sum(type(f)(f.group, f.ring, f.rank),
                         list(f.data.items()) + list(g.data.items()))


def reference_fun_neg(f):
    return reference_sum(type(f)(f.group, f.ring, f.rank),
                         [(x, _signed(f.ring, v, -1))
                          for x, v in f.data.items()])


def reference_translate(h, f):
    """(h.f)(x) = f(h^-1 x): the value at x moves to h x."""
    G = f.group
    return reference_sum(type(f)(G, f.ring, f.rank),
                         [(G.mul(h, x), v) for x, v in f.data.items()])
