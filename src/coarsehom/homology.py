"""Exact integer linear algebra for finite chain complexes.

Boundary matrices are assembled over explicit ordered bases as sparse
columns of face sums.  Two reductions serve what callers read:

- Homology and cohomology tables read elementary divisors alone.  The
  unit (+-1) pivots of each boundary are eliminated on its sparse
  columns (_eliminate_units), the elimination is replayed exactly
  (_check_elimination), and only the small remainder it leaves goes on:
  one column, or one of at most 4 x 4, to its determinantal divisors,
  any other to the dense Smith form (_certified_divisors).  A complex
  is reduced bottom-up: each boundary is eliminated without the rows
  that the unit pivots of the boundary below it settled (Nerve.smiths).
- Kernel coordinates, span checks and induced maps on homology read the
  change of basis itself: a Smith normal form with full certificates,
  U, V, V^-1 with U A V diagonal, every divisor dividing the next.
  Boundary windows assemble their sparse columns on integer codes by
  the nerves' face rule (_Window), and solve on them; a negative window
  verdict takes the dense form for the obstruction it names.

Every certificate is checked before it is read.

Nerve contract: every finite complex is the nerve of an action groupoid
G⋉X on an ordered list of units X and an ordered list of elements of G.
A degree-n basis point is (x, (g_1..g_n)) with every vertex
x_i = g_i^-1.x_{i-1} a unit; points are ordered by x, then
lexicographically by each g_i, then by coefficient index.  Face 0 is
(g_1^-1.x, (g_2..g_n)), face i < n merges g_i g_{i+1}, face n drops g_n;
face i has sign (-1)^i.  Group tables take X = G under left translation
(module "group-ring") or X one point (module "trivial"), units and
elements both in ball order, (word length, family sort key); groupoid
tables take the units of the groupoid in the action's point order and
the elements sorted by repr.  All matrices and reports refer to this
order.  A Nerve holds one representation of it: integer tables of the
action and the product, each point an integer code whose order is this
order.  One face rule on codes (_face_code_columns) serves both
complexes below, boundary windows and the coinvariants row, its rows
numbered by the mapping the caller passes: a nerve's fixed index, or a
window's numbering by first appearance.

Tables read the normalized complex of the nerve (Brown, Cohomology of
Groups, GTM 87, I.5: the normalized bar resolution, the Moore complex of
the nerve), which has the same homology: its basis is the nondegenerate
points, those with no g_i the identity, in the order above, and a face
whose merged product is the identity is dropped, the other faces keeping
their signs.  Its d_n is the unnormalized d_n restricted to the rows and
columns of nondegenerate points.  Boundary matrices, induced maps and the
coinvariants row keep the unnormalized complex of every point.

A group whose product table shows it cyclic or dihedral, or a
ProductGroup of such groups, reads its tables off a small free
resolution instead (Resolution): periodic, a tensor product or Wall's,
of rank 1 or n + 1 in degree n where the bar complex has rank
(|G|-1)^n.  It is certified exact before any table reads it; the nerve
stays the route of every other group and of every groupoid table.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from .coarsemaps import CoarseMap
from .complexes import Chain, _image_point, boundary
from .errors import InvalidElementError, NotACycleError, ResourceLimitError
from .groups import Group, ProductGroup
from .rings import ring_from_name

_PROMOTE_LIMIT = 2 ** 31


def _as_int_matrix(A):
    """A as an int64 matrix when every entry is below _PROMOTE_LIMIT in
    absolute value, else as an object matrix of Python ints."""
    import numpy as np
    if isinstance(A, np.ndarray) and A.dtype.kind in "iu":
        if A.ndim != 2:
            raise InvalidElementError("expected a two dimensional matrix")
        # min and max rather than np.abs, which leaves the least int64
        # negative
        if A.size and -_PROMOTE_LIMIT < A.min() and A.max() < _PROMOTE_LIMIT:
            return A.astype(np.int64)
        return A.astype(object)
    M = np.array(A, dtype=object)
    if M.ndim != 2:
        raise InvalidElementError("expected a two dimensional matrix")
    if M.size and max(abs(int(v)) for v in M.flat) < _PROMOTE_LIMIT:
        return M.astype(np.int64)
    return M


def _absmax(X) -> int:
    """Largest absolute entry of an integer array, as a Python int."""
    return max(int(X.max()), -int(X.min())) if X.size else 0


def _product(X, Y):
    """X @ Y, exactly: in int64 when both are integer arrays and
    max|X| max|Y| (inner size) < 2^63 proves every sum exact, the maxima
    being scanned on every call; else over Python ints (object dtype).

    Sums run over the nonzero entries of Y only (boundary matrices hold
    a few per column): pass s adds the s-th nonzero of every column
    that has one, so no temporary is larger than the product."""
    import numpy as np
    dtype = object
    if (X.dtype.kind in "iu" and Y.dtype.kind in "iu"
            and _absmax(X) * _absmax(Y) * X.shape[1] < 2 ** 63):
        dtype = np.int64
    X = X.astype(dtype, copy=False)
    out = np.zeros((X.shape[0], Y.shape[1]), dtype=dtype)
    js, ks = np.nonzero(Y.T)       # column by column
    vals = Y[ks, js].astype(dtype, copy=False)
    rank_in_column = np.arange(len(js)) - np.searchsorted(js, js)
    for s in range(int(rank_in_column.max(initial=-1)) + 1):
        at = rank_in_column == s
        out[:, js[at]] += X[:, ks[at]] * vals[at]
    return out


class SNFResult:
    """U A V = diag(divisors), with V^-1 carried along.

    divisors is the full diagonal (zeros included) of length
    min(rows, cols); rank is the number of nonzero entries; the chain
    d_1 | d_2 | ... holds and every d_i is nonnegative.
    """

    def __init__(self, U, V, Vinv, divisors, shape):
        self.U = U
        self.V = V
        self.Vinv = Vinv
        self.divisors = divisors
        self.shape = shape
        self.rank = sum(1 for d in divisors if d != 0)

    def _apply(self, name, w):
        """U, V or Vinv times the vector w, exactly (_product), as a list
        of Python ints."""
        import numpy as np
        w = _as_int_matrix(np.array(w, dtype=object).reshape(-1, 1))
        return _product(getattr(self, name), w)[:, 0].tolist()

    def elementary_divisors(self):
        return [int(d) for d in self.divisors if d != 0]

    def kernel_basis(self):
        """Columns of V spanning ker A (positions past the rank)."""
        c = self.shape[1]
        return self.V[:, self.rank:c]

    def kernel_coordinates(self, w):
        """Coordinates of a kernel vector w in the kernel basis; raises
        if w is not in the kernel."""
        coords = self._apply("Vinv", w)
        for i in range(self.rank):
            if coords[i] != 0:
                raise NotACycleError(
                    f"vector has nonzero coordinate {coords[i]} against "
                    f"pivot column {i}: not in the kernel")
        return coords[self.rank:]

    def solve(self, b, ring_name):
        """Solve A x = m b over ring "Z" or "Q"; returns (x, m, None)
        with integer x and m >= 1, or (None, None, obstruction).

        With w = U b, pivot i needs d_i | w_i over Z ("divisibility"),
        and every w_i past the rank must vanish ("out-of-image").  Over Z
        m is 1; over Q it is the last nonzero divisor, a multiple of
        every other, so y_i = w_i m / d_i is integral and x = V y.

        >>> snf = smith_normal_form([[2]])
        >>> snf.solve([4], "Z")
        ([2], 1, None)
        >>> snf.solve([1], "Z")[2]
        {'kind': 'divisibility', 'position': 0, 'divisor': 2, 'value': 1}
        >>> snf.solve([1], "Q")
        ([1], 2, None)
        >>> smith_normal_form([[1], [1]]).solve([1, 0], "Q")[2]
        {'kind': 'out-of-image', 'position': 1, 'value': -1}
        """
        w = self._apply("U", b)
        m = 1
        if ring_name == "Q" and self.rank:
            m = int(self.divisors[self.rank - 1])
        y = [0] * self.shape[1]
        for i, wi in enumerate(w):
            if i >= self.rank:
                if wi != 0:
                    return None, None, {"kind": "out-of-image",
                                        "position": i, "value": int(wi)}
                continue
            d = int(self.divisors[i])
            if ring_name == "Z" and wi % d != 0:
                return None, None, {"kind": "divisibility", "position": i,
                                    "divisor": d, "value": int(wi)}
            y[i] = wi * m // d
        return self._apply("V", y), m, None

    def verify(self, A) -> bool:
        """Certificate check: U A == diag(divisors) V^-1 and
        V V^-1 == identity, both exact at every size, which together
        give U A V = D, and |det U| = 1 (_unimodular), so the divisors
        are those of A.  Each product runs in int64 when a bound on its
        entries proves that exact, else over Python ints; the bounds are
        scanned on every call, so a certificate changed since the
        reduction is checked as it stands.  A form with U and every
        divisor doubled fails on det U."""
        import numpy as np
        UA = _product(self.U, np.asarray(A))
        dtype = np.int64
        if (self.Vinv.dtype == object or max(self.divisors, default=0)
                * _absmax(self.Vinv) >= 2 ** 63):
            dtype = object
        k = len(self.divisors)
        want = np.zeros(self.shape, dtype=dtype)
        want[:k] = (np.array(self.divisors, dtype=dtype)[:, None]
                    * self.Vinv[:k].astype(dtype, copy=False))
        return (np.array_equal(UA, want)
                and np.array_equal(_product(self.V, self.Vinv),
                                    np.eye(self.shape[1], dtype=np.int64))
                and _unimodular(self.U))


def _unimodular(U) -> bool:
    """Whether the square integer matrix U has determinant +-1, exactly:
    replaying the elimination of its unit pivots proves U ~ +-I_K ⊕ R
    (_check_elimination), R over the rows and columns that are no pivot,
    so |det U| = |det R|, which a common factor of a row or column of R
    divides, or else _det computes.  On the U of a reduction R is empty."""
    import numpy as np
    ks, js = np.nonzero(U)
    columns = [{} for _ in range(U.shape[1])]
    for k, j, v in zip(ks.tolist(), js.tolist(), U[ks, js].tolist()):
        columns[j][k] = v
    pivots, rest = _eliminate_units([dict(col) for col in columns])
    _check_elimination(columns, pivots, rest)
    R = _remainder(rest)[0] if rest else []
    # a row or column of R with no entry is missing from it: det U = 0
    n = len(pivots)
    return (len(R) == len(rest) == len(U) - n == U.shape[1] - n
            and all(math.gcd(*line) == 1 for line in (*R, *zip(*R)))
            and abs(_det(R)) == 1)


def _det(R) -> int:
    """The determinant of a square integer matrix (a list of rows), by
    Bareiss's fraction-free elimination: every division is exact."""
    M, sign, prev = [list(row) for row in R], 1, 1
    for k in range(len(M) - 1):
        i = next((i for i in range(k, len(M)) if M[i][k]), None)
        if i is None:
            return 0
        M[k], M[i], sign = M[i], M[k], sign if i == k else -sign
        for row in M[k + 1:]:
            for j in range(k + 1, len(M)):
                row[j] = (row[j] * M[k][k] - row[k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if M else 1


def _update_fits_int64(q, Vinv, cols) -> bool:
    """Whether Vinv[t] += q @ Vinv[cols] stays exact in int64: no
    partial sum may pass 2^63.  Every entry of Vinv is within
    _PROMOTE_LIMIT during the reduction, and so are the quotients q; the
    rows read are scanned only when that bound does not settle it."""
    import numpy as np
    room = 2 ** 63 - _PROMOTE_LIMIT
    qsum = int(np.abs(q).max()) * len(cols)
    return qsum * _PROMOTE_LIMIT < room or \
        qsum * _absmax(Vinv[cols]) < room


def smith_normal_form(A) -> SNFResult:
    """Smith normal form with unimodular certificates.

    Each step takes as pivot the entry of least absolute value in the
    trailing block, the first in row-major order, which keeps quotients
    and so growth small; clears its column and row by batched row and
    column operations; and, once it stands alone, adds a row holding an
    entry it does not divide.  The reduction runs in int64 and moves
    everything to Python ints (object dtype) once a check after a batch
    of row or column operations finds an entry over 2^31 in absolute
    value, each check scanning only the entries written since the last,
    or before a row update of V^-1 whose int64 sums a bound does not
    keep below 2^63.

    >>> snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    >>> snf.elementary_divisors()
    [2, 2, 156]
    >>> snf.verify([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    True
    """
    import numpy as np
    A = _as_int_matrix(A)
    r, c = A.shape
    M = A.copy()
    U = np.eye(r, dtype=M.dtype)
    V = np.eye(c, dtype=M.dtype)
    Vinv = np.eye(c, dtype=M.dtype)

    def promote():
        nonlocal M, U, V, Vinv
        M, U, V, Vinv = (Y.astype(object) for Y in (M, U, V, Vinv))

    def promote_if_over(*written):
        # entries not written since the last check were within the limit
        # then, and swaps and sign flips keep them so: only the blocks
        # written since can push the maximum over it
        if M.dtype == object:
            return
        for X in written:
            if X.size and np.abs(X).max() > _PROMOTE_LIMIT:
                promote()
                return

    # Entries left of column t and above row t are zero, so row and
    # column operations start at t, and touch only the rows and columns
    # whose quotient is nonzero.
    t = 0
    while t < min(r, c):
        # no nonzero entry is smaller than a unit, and row t comes first
        units = (np.abs(M[t, t:]) == 1).nonzero()[0]
        if len(units):
            pi, pj = t, int(units[0]) + t
        else:
            sub = M[t:, t:]
            ri, ci = sub.nonzero()
            if len(ri) == 0:
                break
            size = np.abs(sub[ri, ci])
            if size.dtype != object:
                # as unsigned, |least int64| reads 2^63, as in Python
                size = size.view(np.uint64)
            k = int(np.argmin(size))
            pi, pj = int(ri[k]) + t, int(ci[k]) + t
        if pi != t:
            M[[t, pi], t:] = M[[pi, t], t:]
            U[[t, pi]] = U[[pi, t]]
        if pj != t:
            M[t:, [t, pj]] = M[t:, [pj, t]]
            V[:, [t, pj]] = V[:, [pj, t]]
            Vinv[[t, pj]] = Vinv[[pj, t]]
        while True:
            p = M[t, t]
            nzc = M[t + 1:, t].nonzero()[0] + t + 1
            if len(nzc):
                qs = M[nzc, t] // p
                sel = qs.nonzero()[0]
                if len(sel):
                    rows, q = nzc[sel, None], qs[sel, None]
                    mc, uc = M[t].nonzero()[0], U[t].nonzero()[0]
                    Mr = M[rows, mc] - q * M[t, mc]
                    Ur = U[rows, uc] - q * U[t, uc]
                    M[rows, mc], U[rows, uc] = Mr, Ur
                    # row t of U may hold a divisibility fix not yet
                    # checked (a fix leaves column t clear, so a check
                    # follows it before any row swap)
                    promote_if_over(Mr, Ur, U[t])
                    nzc = M[t + 1:, t].nonzero()[0] + t + 1
                if len(nzc):
                    i = int(nzc[0])
                    M[[t, i], t:] = M[[i, t], t:]
                    U[[t, i]] = U[[i, t]]
                    continue
            nzr = M[t, t + 1:].nonzero()[0] + t + 1
            if len(nzr):
                qs = M[t, nzr] // p
                sel = qs.nonzero()[0]
                if len(sel):
                    cols, q = nzr[sel], qs[sel]
                    # column t below the pivot is clear: only row t of M
                    # changes
                    Mt = M[t, cols] - p * q
                    vr = V[:, t].nonzero()[0][:, None]
                    Vc = V[vr, cols] - V[vr, t] * q
                    M[t, cols], V[vr, cols] = Mt, Vc
                    # inverse of the batched column ops, applied to Vinv
                    if (Vinv.dtype != object
                            and not _update_fits_int64(q, Vinv, cols)):
                        promote()
                        q = q.astype(object)
                    Vinv[t] += q @ Vinv[cols]
                    promote_if_over(Mt, Vc, Vinv[t], U[t])
                    nzr = M[t, t + 1:].nonzero()[0] + t + 1
                if len(nzr):
                    j = int(nzr[0])
                    M[t:, [t, j]] = M[t:, [j, t]]
                    V[:, [t, j]] = V[:, [j, t]]
                    Vinv[[t, j]] = Vinv[[j, t]]
                    continue
            # pivot alone in its row and column; enforce divisibility,
            # which a unit pivot always has
            if abs(int(p)) != 1 and t + 1 < min(r, c):
                bad = (M[t + 1:, t + 1:] % p != 0).any(axis=1).nonzero()[0]
                if len(bad):
                    # row t of M is clear but for the pivot, so it stays
                    # within the limit; row t of U may not
                    i = int(bad[0]) + t + 1
                    M[t, t:] += M[i, t:]
                    U[t] += U[i]
                    continue
            break
        if M[t, t] < 0:
            M[t, t] = -M[t, t]
            U[t] = -U[t]
        t += 1
    divisors = [int(M[i, i]) for i in range(min(r, c))]
    return SNFResult(U, V, Vinv, divisors, (r, c))


# -- unit-pivot elimination on sparse columns ---------------------------------

def _eliminate_units(columns):
    """Eliminate the unit pivots of a sparse integer matrix by row
    operations, the reduction pairs of Kaczynski-Mrozek-Slusarek.

    columns holds one dict row -> nonzero int per column and is consumed.
    Columns are taken by fewest current entries, ties to the lower index;
    within a column the pivot is the +-1 entry whose row has the fewest
    entries, ties to the lower row.  Each pivot (i, j) subtracts
    multiples of row i from the other rows of column j, which clears
    column j but for the pivot, and then retires row i and column j.
    A column with no unit entry waits until a row operation changes it.

    Returns (pivots, rest).  pivots lists, in elimination order,
    (i, j, p, row, col): p = A_ij, row = {k: A_ik} over the other live
    columns and col = {l: A_lj} over the other live rows, both as they
    stood when (i, j) was taken; the row operations were
    row_l -= A_lj p row_i.  rest maps each column left with an entry to
    that column, over rows that were never a pivot row.

    The queue holds each key (entries, column), as the integer
    entries * len(columns) + column, at most once while it is pending: a
    column a pivot row changes is queued under its new entry count unless
    that key already waits.  A key popped for a column whose count has
    moved since is skipped.
    """
    rows = {}
    for j, col in enumerate(columns):
        for i in col:
            rows.setdefault(i, set()).add(j)
    base = len(columns)
    heap = [len(col) * base + j for j, col in enumerate(columns) if col]
    heapq.heapify(heap)
    queued = set(heap)
    pivots = []
    while heap:
        key = heapq.heappop(heap)
        queued.remove(key)
        n, j = divmod(key, base)
        col = columns[j]
        if col is None or len(col) != n:
            continue            # pivoted, or changed since it was queued
        i = None
        for r, v in col.items():
            if v == 1 or v == -1:
                size = len(rows[r])
                if i is None or size < least or (size == least and r < i):
                    i, least = r, size
        if i is None:
            continue
        p = col.pop(i)
        row = {k: columns[k].pop(i) for k in rows.pop(i) if k != j}
        for l, a in col.items():
            f = a * p
            on_l = rows[l]
            on_l.discard(j)
            for k, v in row.items():
                ck = columns[k]
                w = ck.get(l, 0) - f * v
                if w:
                    ck[l] = w
                    on_l.add(k)
                else:
                    del ck[l]
                    on_l.discard(k)
        columns[j] = None
        pivots.append((i, j, p, row, col))
        for k in row:
            if columns[k]:
                key = len(columns[k]) * base + k
                if key not in queued:
                    queued.add(key)
                    heapq.heappush(heap, key)
    return pivots, {j: col for j, col in enumerate(columns) if col}


def _remainder(rest):
    """The remainder of an elimination as a dense matrix (a list of
    rows), over the rows that hold an entry, in increasing order, and the
    columns of rest in order; and the position of each of those rows."""
    at = {l: t for t, l in enumerate(sorted(
        {l for col in rest.values() for l in col}))}
    R = [[0] * len(rest) for _ in at]
    for t, col in enumerate(rest.values()):
        for l, v in col.items():
            R[at[l]][t] = v
    return R, at


def _check_elimination(columns, pivots, rest):
    """Replay the unit elimination (pivots, rest) of the matrix A given by
    sparse columns, exactly; raise RuntimeError unless it proves
    A ~ +-I_K ⊕ R, K = len(pivots) and R the remainder in rest.

    With u_t = p_t col_t, L = I + sum_t u_t e_{i_t}^T, and F holding
    p_t e_{j_t} + row_t in row i_t and rest in the other rows, the check
    is A == L F entry for entry, and that:
    - every p_t is +-1, and no pivot row or column recurs;
    - col_t meets none of the rows i_0..i_t, so L is unit lower
      triangular with the pivot rows first, in order;
    - row_t meets none of the columns j_0..j_t, and rest none of the
      pivot rows and columns, so F is block upper triangular: +-1 on the
      diagonal of the pivot block, R below and right of it.
    Unimodular row and column operations then take L F to +-I_K ⊕ R.
    Indices are not range-checked: the identity holds over any index
    set, and zero rows or columns outside A leave its divisors as they
    are."""
    done_rows, done_cols = set(), set()
    # A - L F, column by column, which must vanish
    diff = {k: dict(col) for k, col in enumerate(columns)}
    for k, col in rest.items():
        out = diff.setdefault(k, {})
        for l, v in col.items():
            out[l] = out.get(l, 0) - v
    for i, j, p, row, col in pivots:
        if p not in (1, -1) or i in done_rows or j in done_cols:
            raise RuntimeError(f"unit elimination replay failed: pivot "
                               f"({i}, {j}) is not a fresh unit")
        done_rows.add(i)
        done_cols.add(j)
        if not (done_rows.isdisjoint(col) and done_cols.isdisjoint(row)):
            raise RuntimeError(f"unit elimination replay failed: pivot "
                               f"({i}, {j}) meets a retired row or column")
        # column k of L F holds F_ik (e_i + u_t)
        for k, v in ((j, p), *row.items()):
            out = diff.setdefault(k, {})
            out[i] = out.get(i, 0) - v
            f = v * p
            for l, a in col.items():
                out[l] = out.get(l, 0) - a * f
    if not (done_cols.isdisjoint(rest)
            and all(done_rows.isdisjoint(col) for col in rest.values())):
        raise RuntimeError("unit elimination replay failed: the remainder "
                           "meets a pivot row or column")
    if any(any(col.values()) for col in diff.values()):
        raise RuntimeError("unit elimination replay failed: L F differs "
                           "from the matrix")


# Remainders of at most this many rows (after orientation, as many
# columns or fewer) read their divisors off their minors, 69 at 4 x 4;
# so does a column of any height, whose minors are its entries.
_MINOR_ROWS = 4


def _determinantal_divisors(R):
    """The nonzero elementary divisors of the integer matrix R (a list of
    rows), by their definition: d_k = D_k / D_(k-1), D_k the gcd of the
    k x k minors of R, each an exact determinant (_det), and D_0 = 1,
    for k up to the rank, past which every D_k is 0.  D_(k-1) divides
    D_k, so the gcd stops once it reaches D_(k-1).  The minors number
    binomial(rows, k) binomial(cols, k): this serves small matrices, and
    columns of any height, whose minors are their entries.

    >>> _determinantal_divisors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    [2, 2, 156]
    >>> _determinantal_divisors([[0, 0], [0, 6], [0, 4]])
    [2]
    """
    rows, cols = range(len(R)), range(len(R[0]) if R else 0)
    divisors, last = [], 1
    for k in range(1, min(len(rows), len(cols)) + 1):
        d = 0
        for I, J in itertools.product(itertools.combinations(rows, k),
                                      itertools.combinations(cols, k)):
            d = math.gcd(d, _det([[R[i][j] for j in J] for i in I]))
            if d == last:
                break
        if d == 0:
            break
        divisors.append(d // last)
        last = d
    return divisors


class DivisorForm:
    """The shape and the nonzero elementary divisors of a matrix, with no
    change-of-basis certificates: what a homology table reads.
    pivot_columns holds the columns of the unit pivots that the exact
    replay proved, which the next boundary of a complex may drop as rows
    (Nerve.smiths)."""

    def __init__(self, shape, divisors, pivot_columns):
        self.shape = shape
        self.divisors = divisors
        self.pivot_columns = pivot_columns

    def elementary_divisors(self):
        return list(self.divisors)


def _certified_divisors(columns, n_rows: int) -> DivisorForm:
    """The elementary divisors of the n_rows x len(columns) matrix A given
    by sparse integer columns (dicts row -> value, left as they are),
    every one resting on an exact check.

    The unit pivots are eliminated (_eliminate_units, on a copy) and the
    elimination is replayed (_check_elimination), which proves
    A ~ +-I_K ⊕ R.  The remainder R is read in the orientation with
    fewer columns, R or R^T, which have the same divisors.  A remainder
    of one column, or of at most _MINOR_ROWS rows, reads its divisors off
    its minors (_determinantal_divisors), which is their definition and
    needs no certificate; one column v has the one divisor gcd(v), read
    in one pass over v.  Other remainders, at least 2 columns and more
    than _MINOR_ROWS rows, go through _certified_smith, whose V and V^-1,
    and so their exact check, the orientation keeps small.
    The divisors are K ones, then those of R; the form also records the
    K pivot columns, once the replay has passed.

    The replay proves more: on the pivot rows I and pivot columns J,
    A[I, J] = L[I, I] F[I, J], L[I, I] unit lower triangular and F[I, J]
    upper triangular with +-1 on its diagonal (both in pivot order), so
    A[I, J] is unimodular.  Nerve.smiths reads that.

    >>> A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    >>> columns = [{i: r[j] for i, r in enumerate(A)} for j in range(3)]
    >>> _certified_divisors(columns, 3).elementary_divisors()
    [2, 2, 156]
    >>> _certified_divisors([{0: 1, 1: -1}, {1: 1, 2: -1}], 3).divisors
    [1, 1]
    """
    pivots, rest = _eliminate_units([dict(col) for col in columns])
    _check_elimination(columns, pivots, rest)
    divisors = [1] * len(pivots)
    if rest:
        R, _ = _remainder(rest)
        if len(rest) > len(R):
            R = [list(r) for r in zip(*R)]
        if len(R[0]) == 1 or len(R) <= _MINOR_ROWS:
            divisors += _determinantal_divisors(R)
        else:
            divisors += _certified_smith(R).elementary_divisors()
    return DivisorForm((n_rows, len(columns)), divisors,
                       frozenset(j for _, j, *_ in pivots))


# -- boundary matrices of nerves ---------------------------------------------

class ChainBasis:
    """Ordered basis of a degree-n chain space: its points and their
    positions.  Index = point position * rank + coefficient index."""

    def __init__(self, points, rank: int = 1):
        self.points = points
        self.index = {p: i for i, p in enumerate(points)}
        self.rank = rank

    def __len__(self):
        return len(self.points) * self.rank


class Nerve:
    """Nerve of the action groupoid G⋉X of a finite action on ordered
    lists of units and elements, with the points, order and faces of the
    nerve contract above, on integer tables over their positions:
    mul[g][h], the position of gh, and table[g][x], the unit position of
    g.x or -1, kept as back[g][x] = table[g^-1][x].  A point
    (x, (g_1..g_n)) is its code x |E|^n + sum_i g_i |E|^(n-i), so codes
    follow the contract order.  A complex is walked one degree at a
    time, with only the walk (code, last vertex) in hand: the
    unnormalized one extends by every element, the normalized one by
    every element but the identity, and both read their faces through
    the one face rule (_face_code_columns) that boundary windows also
    read, on a row index over the codes of the degree below.

    boundaries(), boundary() and points() give the unnormalized complex
    on every point (assemble_boundary_matrix, induced maps); the
    coinvariants row reads its degree-1 walk (_walks(None)) through the
    face rule.  smiths() reads the normalized complex on the
    nondegenerate points (Brown, GTM 87, I.5): every groupoid table, and
    the table of a group with no formula resolution.  A Resolution reads
    mul."""

    def __init__(self, group: Group, units, elements, mul, table):
        self.group = group
        self.units = list(units)
        self.elements = list(elements)
        self._mul = mul
        self._e = self.elements.index(group.identity())
        # g^-1 is the h with gh = e
        self._back = [table[row.index(self._e)] for row in mul]

    def _walks(self, skip):
        """The walks (code, last vertex) of degrees 0, 1, ... of the
        complex that extends by every element but skip, in the order of
        the contract, each stepped from the one before."""
        walk = [(x, x) for x in range(len(self.units))]
        arrows = [g for g in range(len(self.elements)) if g != skip]
        while True:
            yield walk
            walk = _step_codes(walk, arrows, self._back, len(self.elements))

    def _points(self, walk, degree: int):
        """The points (x, (g_1..g_n)) of a degree-n walk, decoded."""
        size = len(self.elements)
        return [_decode(code, degree, self.units, self.elements, size)
                for code, _ in walk]

    def points(self, degree: int):
        """The degree-n points, in the order of the contract."""
        walk = next(itertools.islice(self._walks(None), degree, None))
        return self._points(walk, degree)

    def boundaries(self, top: int):
        """(d_n, the degree-n points) of the unnormalized complex with
        coefficients of rank 1, for n = 0, ..., top, walking each degree
        once; d_0 is a 0 x dim matrix."""
        rows = {}
        for n, walk in zip(range(top + 1), self._walks(None)):
            codes = [code for code, _ in walk]
            columns = [{}] * len(codes) if n == 0 else _face_code_columns(
                codes, n, rows, self._back, self._mul, None, len(self._mul))
            yield _dense(columns, len(rows)), self._points(walk, n)
            rows = {code: i for i, code in enumerate(codes)}

    def boundary(self, degree: int):
        """(matrix, row basis, column basis) of the unnormalized degree-n
        boundary with coefficients of rank 1; degree 0 gives a 0 x dim
        matrix and no row basis."""
        *_, (_, below), (M, points) = [(None, None),
                                       *self.boundaries(degree)]
        return (M, None if below is None else ChainBasis(below),
                ChainBasis(points))

    def smiths(self, max_degree: int):
        """The certified divisor forms of the normalized boundaries
        d_1..d_{N+1} (Brown, GTM 87, I.5), which every table of the nerve
        reads, at every rank: with coefficients of rank k the complex is
        k copies of this one.  Rows and columns are the nondegenerate
        codes, and no dense matrix is built.

        The complex is reduced bottom-up, as one complex: d_{n+1} goes
        to _certified_divisors as sparse columns without the rows B_n,
        the unit pivot columns of d_n, which are marked None in its row
        index.  A dropped row stays in the row count, so each form keeps
        the full normalized shape and the table reader is unchanged.

        Dropping B_n keeps the divisors of d_{n+1}.  Let e_n be the
        matrix d_n's elimination replayed (d_n without the rows B_{n-1}),
        A_n its pivot rows, and P the projection that drops the
        coordinates in B_n.  The replay proves that e_n[A_n, B_n] is a
        unit lower triangular matrix times a +-1 upper triangular one, so
        it is unimodular, and so is the change of basis
        x -> (e_n[A_n, :] x, P x) of C_n: in the coordinates B_n, then
        the others, it is block upper triangular with e_n[A_n, B_n] and
        the identity on its diagonal.  Rows of d_n d_{n+1} = 0 give
        e_n d_{n+1} = 0, so the change of basis turns d_{n+1} into
        [0; P d_{n+1}], which has the divisors of P d_{n+1}.  Every table
        already rests on d_n d_{n+1} = 0 (the tests check it).  B_n is
        read only after the replay of d_n has passed, so a failed replay
        raises RuntimeError before any row is dropped."""
        forms = []
        walks = self._walks(self._e)
        row_index = {code: i for i, (code, _) in enumerate(next(walks))}
        for n in range(1, max_degree + 2):
            codes = [code for code, _ in next(walks)]
            columns = _face_code_columns(codes, n, row_index, self._back,
                                         self._mul, self._e, len(self._mul))
            form = _certified_divisors(columns, len(row_index))
            forms.append(form)
            settled = form.pivot_columns
            row_index = {code: None if j in settled else j
                         for j, code in enumerate(codes)}
        return forms


def _module_nerve(group: Group, module: str) -> Nerve:
    """The nerve whose chains are the bar complex of the group with
    coefficients in the module: "group-ring" is the translation action
    of the group on itself, "trivial" the action on one point.  Units and
    elements are in ball order; an infinite group raises
    ResourceLimitError from elements()."""
    if module not in ("group-ring", "trivial"):
        raise InvalidElementError(
            f"unknown module {module!r}; use 'group-ring' or 'trivial'")
    els = group.elements()
    mul = _product_table(group, els)
    if module == "group-ring":
        return Nerve(group, els, els, mul, mul)
    return Nerve(group, ["pt"], els, mul, [[0]] * len(els))


def _product_table(group: Group, elements):
    """mul[g][h], the position of gh, over the positions of elements."""
    at = {g: i for i, g in enumerate(elements)}
    return [[at[group.mul(g, h)] for h in elements] for g in elements]


def _decode(code: int, degree: int, units, elements, radix: int):
    """The point (x, (g_1..g_n)) of the degree-n code
    x radix^n + sum_i g_i radix^(n-i) over the positions of units and
    elements."""
    gvec = []
    for _ in range(degree):
        code, g = divmod(code, radix)
        gvec.append(elements[g])
    return units[code], tuple(reversed(gvec))


def _step_codes(walks, arrows, back, size: int):
    """The walks of a nerve one degree up on its integer tables: each
    (code, last vertex v) extended by every g of arrows (element
    positions, in order) with back[g][v] a unit, as
    (code |E| + g, back[g][v]), |E| = size."""
    return [(code * size + g, y) for code, v in walks
            for g in arrows if (y := back[g][v]) >= 0]


def _face_code_columns(codes, n: int, row_index, back, mul, e, size: int):
    """d_n of a nerve or a window as sparse columns, on its integer tables
    and codes in the radix size (Nerve, _Window): the column of each
    degree-n code maps row_index[f] to the sum of the signs (-1)^i of its
    faces i of code f.  Face codes are computed by divmod arithmetic,
    face n first, and looked up in row_index face 0 first: a nerve passes
    a fixed index, for which the order does not matter, and a window one
    that numbers an unseen code on lookup (_FirstSeen), so its rows are
    numbered by first appearance.  e is the degenerate product: the identity's position for the
    normalized complex, whose middle faces merging to it are skipped
    before their codes are formed, or None for the unnormalized complex,
    which skips none.  A face whose row index is None (a row marked
    dropped) is skipped, and zero sums are dropped."""
    if e is None:
        e = -1          # no position: an int compares faster than None
    columns = []
    for code in codes:
        # face n drops g_n; face i = n-1, ..., 1 merges g_i g_{i+1}: q is
        # the code of (x, g_1..g_i), h = g_{i+1}, low = size^(n-1-i) and
        # rest = code % low, the digits the face keeps; face 0 moves x
        q, h = divmod(code, size)
        faces = [q]
        low, rest = 1, 0
        for _ in range(n - 1):
            q, g = divmod(q, size)
            m = mul[g][h]
            faces.append(None if m == e else (q * size + m) * low + rest)
            rest += h * low
            low *= size
            h = g
        faces.append(back[h][q] * low + rest)
        faces.reverse()
        col = {}
        sign = 1
        for f in faces:
            if f is not None and (r := row_index[f]) is not None:
                if v := col.get(r, 0) + sign:
                    col[r] = v
                else:
                    del col[r]
            sign = -sign
        columns.append(col)
    return columns


class _FirstSeen(dict):
    """A row index that gives an unseen key the next row number."""

    def __missing__(self, key):
        self[key] = r = len(self)
        return r


def _dense(columns, n_rows: int):
    """The n_rows x len(columns) int64 matrix of sparse columns."""
    import numpy as np
    M = np.zeros((n_rows, len(columns)), dtype=np.int64)
    M[[i for col in columns for i in col],
      [j for j, col in enumerate(columns) for _ in col]] = \
        [v for col in columns for v in col.values()]
    return M


def assemble_boundary_matrix(group: Group, degree: int,
                             module: str = "group-ring",
                             rank: int = 1) -> dict:
    """Matrix of the degree-n boundary in the documented basis order.

    Returns {"matrix", "row_basis", "col_basis", "degree", "module"};
    degree 0 gives a 0 x dim matrix (the boundary out of degree 0 is 0).
    With coefficients of rank k the matrix is kron(d, I_k), d the rank-1
    boundary: one k x k identity block per entry of d.
    """
    import numpy as np
    M, row, col = _module_nerve(group, module).boundary(degree)
    return {"matrix": np.kron(M, np.eye(rank, dtype=np.int64)),
            "row_basis": None if row is None else ChainBasis(row.points,
                                                             rank),
            "col_basis": ChainBasis(col.points, rank),
            "degree": degree, "module": module}


# -- homology of finite complexes ---------------------------------------------

def _check_homology_ring(ring_name: str):
    """Tables are read over Z and over fields (Q and Z/p, p prime); any
    other name raises InvalidElementError."""
    try:
        ring = ring_from_name(ring_name)
    except ValueError:
        raise InvalidElementError(
            f"unsupported homology ring {ring_name!r}") from None
    if ring_name != "Z" and not ring.is_field:
        raise InvalidElementError(
            f"homology over {ring_name} is not supported: the modulus "
            f"must be prime ({ring_name} is not a PID)")


def _rank_over(ring_name: str, divisors) -> int:
    if ring_name in ("Z", "Q"):
        return len(divisors)
    p = int(ring_name[2:])
    return sum(1 for d in divisors if d % p != 0)


def _certified_smith(A) -> SNFResult:
    """smith_normal_form(A) with its certificate checked against A."""
    snf = smith_normal_form(A)
    if not snf.verify(A):
        raise RuntimeError(f"Smith normal form certificate failed for a "
                           f"{snf.shape[0]} x {snf.shape[1]} matrix")
    return snf


def _homology_table(ring_name: str, smiths, rank: int = 1,
                    cohomology: bool = False):
    """Betti number and torsion in degrees 0..N of a finite free complex
    with coefficients of rank k, read off certified forms of the rank-1
    boundaries d_1, ..., d_{N+1} (an iterable, consumed once; each form
    gives shape and elementary_divisors(), as DivisorForm and SNFResult
    do), d_n : C_n -> C_{n-1}; d_0 is zero.

    The rank-k complex is k copies of the rank-1 one, so its homology is
    the k-th power: betti times k, and each torsion divisor k times in
    place, which is the divisor chain of kron(d_n, I_k).

    One list of integer divisors per boundary serves every ring: over Z the
    divisors give betti and torsion, over Q only ranks matter, over a
    prime field Z/p ranks count divisors prime to p.  Cohomology reads
    the same forms: the coboundary d_n^T : C^{n-1} -> C^n has the
    divisors of d_n, so in degree n the map leaving is d_{n+1}^T and the
    one entering d_n^T.  That is the universal coefficient theorem for a
    finite free complex: H^n has the betti number of H_n and the torsion
    of H_{n-1}.
    """
    divisors, dims = [[]], []     # nonzero divisors of d_n; dim C_{n-1}
    for snf in smiths:
        divisors.append(snf.elementary_divisors())
        dims.append(snf.shape[0])
    table = []
    for n, dim in enumerate(dims):
        leaving, entering = divisors[n], divisors[n + 1]
        if cohomology:
            leaving, entering = entering, leaving
        betti = (dim - _rank_over(ring_name, leaving)
                 - _rank_over(ring_name, entering))
        torsion = [d for d in entering if d > 1] if ring_name == "Z" else []
        table.append({"degree": n, "ring": ring_name,
                      "betti": rank * int(betti),
                      "torsion": [d for d in torsion for _ in range(rank)]})
    return table


def table_checks(group: Group, module: str, table, rank: int = 1):
    """The checks from theory that a homology table of the group fails,
    by name; [] when it passes them all.  They read the table and the
    group's order only, never the forms the table was read off, so each
    can fail:
    - "shapiro", group-ring module: H_*(G; (RG)^k) = H_*(1; R^k)
      (Shapiro's lemma), so H_0 is R^k, free, and H_n = 0 for n >= 1,
      over every ring;
    - "transfer", trivial module: |G| kills H_n(G; Z) for n >= 1 (Brown,
      GTM 87, III.10), so in those degrees the betti number over Z and
      over Q is 0 and every torsion divisor over Z divides |G|.

    >>> from .groups import cyclic_group
    >>> table_checks(cyclic_group(4), "trivial", [
    ...     {"degree": 0, "ring": "Z", "betti": 1, "torsion": []},
    ...     {"degree": 1, "ring": "Z", "betti": 0, "torsion": [3]}])
    ['transfer']
    """
    failed = []
    if module == "group-ring" and any(
            row["torsion"] or row["betti"] != (0 if row["degree"] else rank)
            for row in table):
        failed.append("shapiro")
    if module == "trivial":
        order = len(group.elements())
        if any(row["degree"] >= 1
               and ((row["betti"] and row["ring"] in ("Z", "Q"))
                    or any(order % d for d in row["torsion"]))
               for row in table):
            failed.append("transfer")
    return failed


# -- small free resolutions of finite groups ----------------------------------

class Resolution:
    """A free resolution Z <- F_0 <- F_1 <- ... <- F_top over ZG, on the
    integer product table of G that a Nerve holds (mul[g][h], the
    position of gh).  F_n = (ZG)^{r_n}, r_0 = 1, and F_0 -> Z is the
    augmentation ε, the coefficient sum.  d[n - 1] holds d_n, per basis
    element e_j of F_n the triples (i, g, c) of d_n e_j = sum c g e_i.
    ZG acts on the left, so d_n(h e_j) holds c at hg e_i, and the
    Z-matrix of d_n has |G| r_n columns, h e_j being column j |G| + h
    and g e_i row i |G| + g.

    A table reads F only after certified_forms has proved it exact in
    degrees 0..top-1.  Its ranks stay constant or grow linearly, where
    those of the bar resolution grow like (|G|-1)^n."""

    def __init__(self, ranks, d, mul):
        self.ranks = ranks
        self.d = d
        self.mul = mul

    def _columns(self, n: int, right):
        """The sparse columns of d_n of Z[X] ⊗_G F, X a right G-set on
        the table right[x][g], the position of x.g: x ⊗ e_j is column
        j |X| + x and x.g ⊗ e_i row i |X| + x.g.  mul gives F itself
        (X = G, x.g = xg), [[0] * |G|] gives F ⊗_G Z (X a point)."""
        width = len(right)
        columns = []
        for col in self.d[n - 1]:
            for row in right:
                acc = {}
                for i, g, c in col:
                    r = i * width + row[g]
                    acc[r] = acc.get(r, 0) + c
                columns.append({r: v for r, v in acc.items() if v})
        return columns

    def certified_forms(self):
        """The certified divisor forms of the Z-matrices of d_1..d_top,
        once these clauses have passed, each raising RuntimeError when
        it fails:
        - the shape: r_0 = 1, d_n has r_n columns over the r_{n-1}
          generators of F_{n-1} and the elements of G;
        - ε d_1 = 0;
        - d_n d_{n+1} = 0 over ZG, checked on the generators;
        - every elementary divisor of every d_n is 1, so each image is a
          direct summand;
        - rank d_1 = |G| - 1 and rank d_n + rank d_{n+1} = |G| r_n.
        Then im d_1 lies in ker ε and im d_{n+1} in ker d_n, with the
        kernel's rank; the quotient lies in the cokernel of the image,
        which is free, so it is torsion-free of rank 0, and vanishes: F
        is exact in degrees 0..top-1.  The forms are those of F as a
        complex of free abelian groups, whose homology is that of G with
        group-ring coefficients."""
        size, ranks, d = len(self.mul), self.ranks, self.d
        if not (ranks[0] == 1 and len(d) == len(ranks) - 1 and all(
                len(d[n - 1]) == ranks[n]
                and all(0 <= i < ranks[n - 1] and 0 <= g < size
                        for col in d[n - 1] for i, g, _ in col)
                for n in range(1, len(ranks)))):
            raise RuntimeError("resolution certificate failed: the ranks "
                               "and the differentials do not fit")
        if any(sum(c for *_, c in col) for col in d[0]):
            raise RuntimeError("resolution certificate failed: "
                               "ε d_1 != 0")
        for n in range(1, len(d)):
            for col in d[n]:
                acc = {}
                for j, h, b in col:
                    row = self.mul[h]
                    for i, g, a in d[n - 1][j]:
                        key = (i, row[g])
                        acc[key] = acc.get(key, 0) + b * a
                if any(acc.values()):
                    raise RuntimeError(f"resolution certificate failed: "
                                       f"d_{n} d_{n + 1} != 0")
        forms = [_certified_divisors(self._columns(n, self.mul),
                                     size * ranks[n - 1])
                 for n in range(1, len(ranks))]
        if any(v != 1 for form in forms for v in form.divisors):
            raise RuntimeError("resolution certificate failed: a "
                               "non-unit divisor")
        rank = [len(form.divisors) for form in forms]   # of d_1..d_top
        if rank[0] != size - 1 or any(rank[n - 1] + rank[n] != size * ranks[n]
                                      for n in range(1, len(rank))):
            raise RuntimeError("resolution certificate failed: a rank "
                               "deficit")
        return forms

    def trivial_forms(self):
        """The certified divisor forms of d_1..d_top of F ⊗_G Z: the
        augmented r_{n-1} x r_n matrices, each entry the coefficient sum
        of its element of ZG."""
        point = [[0] * len(self.mul)]
        return [_certified_divisors(self._columns(n, point),
                                    self.ranks[n - 1])
                for n in range(1, len(self.ranks))]


def _powers(t: int, mul, e: int):
    """[1, t, t^2, ..., t^(k-1)] on the product table, k the order of t."""
    out, g = [e], t
    while g != e:
        out.append(g)
        g = mul[t][g]
    return out


def _cyclic_resolution(places, mul, e: int, top: int):
    """(ranks, d) of the periodic resolution of a cyclic group (Brown,
    GTM 87, I.6) on the elements at places, to degree top: with t of
    order |G|, d_n = t - 1 in odd degrees and N = sum_k t^k in even ones.
    None when no element has order |G|."""
    for t in places:
        powers = _powers(t, mul, e)
        if len(powers) == len(places):
            odd = ((0, t, 1), (0, e, -1))
            even = tuple((0, g, 1) for g in powers)
            return [1] * (top + 1), [[odd if n & 1 else even]
                                     for n in range(1, top + 1)]
    return None


def _dihedral_resolution(places, mul, e: int, top: int):
    """(ranks, d) of the resolution of G = <x> ⋊ <y>, y x y^-1 = x^-1 and
    |x| = |G|/2 (C. T. C. Wall, Resolutions for extensions of groups,
    1961), to degree top, or None when G has no such x and y.  F_n has
    the basis e_{p,q}, p + q = n, at position p, and
    d e_{p,q} = h_p e_{p-1,q} + (-1)^p (y t_p -+ 1) e_{p,q-1}, minus
    when q is odd: h_p = x - 1 for odd p, sum_k x^k for even p, and
    t_p = 1, -x^-1, -1, x^-1 for p = 0, 1, 2, 3 mod 4."""
    m, odd = divmod(len(places), 2)
    if odd or m < 2:
        return None
    for x in places:
        powers = _powers(x, mul, e)
        if len(powers) != m:
            continue
        xi = powers[-1]
        y = next((y for y in places if y not in powers
                  and mul[y][y] == e and mul[mul[y][x]][y] == xi), None)
        if y is not None:
            break
    else:
        return None
    yxi = mul[y][xi]
    norm = [(g, 1) for g in powers]
    h = (norm, [(x, 1), (e, -1)])
    t = ((y, 1), (yxi, -1), (y, -1), (yxi, 1))
    d = []
    for n in range(1, top + 1):
        cols = []
        for p in range(n + 1):
            col = [(p - 1, g, c) for g, c in h[p & 1]] if p else []
            if p < n:
                sign = -1 if p & 1 else 1
                g, c = t[p % 4]
                col += [(p, g, sign * c),
                        (p, e, sign * (-1 if (n - p) & 1 else 1))]
            cols.append(tuple(col))
        d.append(cols)
    return list(range(1, top + 2)), d


def _tensor_resolution(left, right, top: int):
    """(ranks, d) of F ⊗ F' to degree top, for resolutions (ranks, d) of
    two commuting subgroups whose direct product is G, placed on G's
    table (Brown, GTM 87, V.1): F_p ⊗ F'_q has the basis e_i ⊗ e'_j,
    ordered by p, then i, then j, and
    d = d ⊗ 1 + (-1)^p 1 ⊗ d'."""
    (ra, da), (rb, db) = left, right
    starts, ranks = [], []
    for n in range(top + 1):
        at, size = [], 0
        for p in range(n + 1):
            at.append(size)
            size += ra[p] * rb[n - p]
        starts.append(at)
        ranks.append(size)
    d = []
    for n in range(1, top + 1):
        cols = []
        for p in range(n + 1):
            q = n - p
            for i in range(ra[p]):
                for j in range(rb[q]):
                    col = []
                    if p:
                        at = starts[n - 1][p - 1]
                        col += [(at + k * rb[q] + j, g, c)
                                for k, g, c in da[p - 1][i]]
                    if q:
                        at, sign = starts[n - 1][p], -1 if p & 1 else 1
                        col += [(at + i * rb[q - 1] + k, g, sign * c)
                                for k, g, c in db[q - 1][j]]
                    cols.append(tuple(col))
        d.append(cols)
    return ranks, d


def _formula(group: Group, place: dict, mul, e: int, top: int):
    """(ranks, d) of a resolution of the finite group to degree top, its
    elements at the positions place gives them on the product table, or
    None: the periodic one when the table shows the group cyclic, the
    tensor product of its factors' for a ProductGroup, the dihedral one
    when the table shows the group dihedral."""
    places = [place[g] for g in group.elements()]
    found = _cyclic_resolution(places, mul, e, top)
    if found is None and isinstance(group, ProductGroup):
        a, b = group.left, group.right
        ea, eb = a.identity(), b.identity()
        left = _formula(a, {g: place[(g, eb)] for g in a.elements()},
                        mul, e, top)
        right = None if left is None else _formula(
            b, {g: place[(ea, g)] for g in b.elements()}, mul, e, top)
        if right is not None:
            found = _tensor_resolution(left, right, top)
    if found is None:
        found = _dihedral_resolution(places, mul, e, top)
    return found


def _resolution(nerve: Nerve, top: int):
    """The formula resolution of a module nerve's group to degree top, on
    the nerve's product table, or None when the group has no formula."""
    found = _formula(nerve.group,
                     {g: i for i, g in enumerate(nerve.elements)},
                     nerve._mul, nerve._e, top)
    return None if found is None else Resolution(*found, nerve._mul)


def homology_finite(group: Group, max_degree: int, ring_name: str = "Z",
                    module: str = "group-ring", rank: int = 1):
    """Homology of the finite complex in degrees 0..max_degree.

    >>> from .groups import cyclic_group
    >>> [h["betti"] for h in homology_finite(cyclic_group(3), 1,
    ...                                      module="group-ring")]
    [1, 0]
    """
    return _table_and_nerve(group, max_degree, ring_name, module, rank)[0]


def _table_and_nerve(group: Group, max_degree: int, ring_name: str,
                     module: str, rank: int):
    """The homology table of the group with the module's coefficients,
    and the module's nerve.  A group with a formula resolution F reads
    its table off F, certified exact to degree max_degree: the
    group-ring table off F itself, the trivial one off F ⊗_G Z.  Any
    other group reads the normalized bar complex of the nerve."""
    _check_homology_ring(ring_name)
    nerve = _module_nerve(group, module)
    res = _resolution(nerve, max_degree + 1)
    if res is None:
        forms = nerve.smiths(max_degree)
    else:
        forms = res.certified_forms()
        if module == "trivial":
            forms = res.trivial_forms()
    return _homology_table(ring_name, forms, rank), nerve


def _component_count(n: int, joins) -> int:
    """Connected components of the points 0..n-1, the points of each
    list in joins joined to one another."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for points in joins:
        for i in points[1:]:
            parent[find(i)] = find(points[0])
    return sum(1 for i in range(n) if find(i) == i)


def _coinvariants_row(row: dict, nerve: Nerve, rank: int) -> dict:
    """The h0_coinvariants report from row, the degree-0 row of the
    homology table, its orbits counted on the module's nerve."""
    # components of the units joined by the faces of each degree-1 code
    # (a column of d_1 with no entry joins a unit to itself), then one
    # copy per coefficient index
    walk = next(itertools.islice(nerve._walks(None), 1, None))
    columns = _face_code_columns([code for code, _ in walk], 1,
                                 range(len(nerve.units)), nerve._back,
                                 nerve._mul, None, len(nerve._mul))
    orbits = rank * _component_count(len(nerve.units),
                                     (list(col) for col in columns))
    return dict(row, orbit_count=orbits,
                agrees=row["betti"] == orbits and not row["torsion"])


def h0_coinvariants(group: Group, ring_name: str = "Z",
                    module: str = "group-ring", rank: int = 1) -> dict:
    """H_0 as coinvariants, two ways: cokernel of the first boundary by
    Smith reduction (the degree-0 row of the homology table), against
    the orbit count of the group acting on the degree-0 basis, counted
    as connected components under the faces of the degree-1 basis
    elements.  Every column of d_1 is a difference of two basis elements
    or zero, so H_0 is free on the components: reports both and whether
    they agree."""
    table, nerve = _table_and_nerve(group, 0, ring_name, module, rank)
    return _coinvariants_row(table[0], nerve, rank)


# -- boundary solving ----------------------------------------------------------

def _solve_sparse(columns, b, ring_name):
    """Solve A x = m b over ring "Z" or "Q", A given by sparse columns
    (consumed by _eliminate_units); returns (x, m) with integer x and
    m >= 1, or None when there is no solution.

    The unit pivots' row operations are replayed on b.  What they leave
    is a remainder over the other rows, which the dense Smith form
    solves as R y = m b_R (m is 1 over Z); rows with no entry left need
    b_l = 0.  The pivot variables are then back-substituted in reverse
    order over Python ints: row i reads p x_j + sum_k A_ik x_k = m b_i.
    """
    pivots, rest = _eliminate_units(columns)
    b = list(b)
    for i, _, p, _, col in pivots:
        if b[i]:
            f = p * b[i]
            for l, a in col.items():
                b[l] -= a * f
    x = [0] * len(columns)
    m = 1
    empty = set(range(len(b))).difference(i for i, *_ in pivots)
    if rest:
        R, at = _remainder(rest)
        y, m, obstruction = smith_normal_form(R).solve(
            [b[l] for l in at], ring_name)
        if obstruction is not None:
            return None
        for j, yj in zip(rest, y):
            x[j] = yj
        empty.difference_update(at)
    if any(b[l] for l in empty):
        return None
    for i, j, p, row, _ in reversed(pivots):
        x[j] = p * (m * b[i] - sum(v * x[k] for k, v in row.items()))
    return x, m


def _check_dual_witness(u, A, b, obstruction):
    """Certify a negative solve of A x = b exactly by the row u of U at
    the obstruction's position: u A = 0 and u b != 0 for "out-of-image",
    which rules out a solution over Q, or u A = 0 and u b != 0 modulo
    the divisor for "divisibility", which rules one out over Z.  Raises
    RuntimeError when the witness does not hold."""
    import numpy as np
    u = np.asarray(u)[None, :]
    uA = _product(u, A)[0]
    ub = sum(int(ui) * bi for ui, bi in zip(u[0], b))
    d = obstruction.get("divisor", 0)
    if d:
        uA, ub = uA % d, ub % d
    if np.any(uA != 0) or ub == 0:
        raise RuntimeError(f"window obstruction {obstruction['kind']} at "
                           f"position {obstruction['position']} has no "
                           f"valid dual witness")


class _Window:
    """A boundary window on integer tables, after the nerve's code
    convention (Nerve): the degree-N points (x, (g_1..g_N)) with x in
    ball(x_radius) and every g_i in ball(tuple_radius), and their faces.

    Units are ball(x_radius + tuple_radius) and elements
    ball(2 tuple_radius), of which ball(x_radius) and ball(tuple_radius)
    are prefixes, so every face is a point of those lists.  Two integer
    tables are built once per window: back[g][x], the unit position of
    g^-1.x, for g in ball(tuple_radius) and x in ball(x_radius), and
    mul[g][h], the element position of gh, for g and h in
    ball(tuple_radius).  Only faces of degree N >= 2 merge entries, so a
    degree-1 window builds no mul table and its elements are
    ball(tuple_radius).  Every list and table is then at most the column
    count long, as |ball(a + b)| <= |ball(a)| |ball(b)|.  A point is its
    code x |E|^N + sum_i g_i |E|^(N-i), so the column codes follow the
    order x, then each g_i lexicographically, and column j is read off j
    in the radix |ball(tuple_radius)|.  Faces are read by the nerves'
    face rule (_face_code_columns) in the radix |E|, and their rows are
    numbered by first appearance.  The column count is known before
    any of this is built, and a window over column_cap raises
    ResourceLimitError."""

    def __init__(self, group: Group, degree: int, x_radius: int,
                 tuple_radius: int, column_cap: int):
        xs, gs = group.ball(x_radius), group.ball(tuple_radius)
        self.n_columns = len(xs) * len(gs) ** degree
        if self.n_columns > column_cap:
            raise ResourceLimitError(
                f"window has {self.n_columns} columns, over the cap "
                f"{column_cap}; shrink the radii", cap=column_cap)
        self.degree = degree
        self.units = group.ball(x_radius + tuple_radius)
        self.elements = group.ball(2 * tuple_radius) if degree >= 2 else gs
        self._unit_at = {x: i for i, x in enumerate(self.units)}
        self._at = {g: i for i, g in enumerate(self.elements)}
        self._back = [[self._unit_at[group.mul(group.inv(g), x)]
                       for x in xs] for g in gs]
        self._mul = ([[self._at[group.mul(g, h)] for h in gs] for g in gs]
                     if degree >= 2 else [])
        self._n_units, self._n_tuple = len(xs), len(gs)

    def columns(self):
        """(columns, row_index): the face sums of every column as sparse
        columns, read by the nerve's face rule (_face_code_columns) with
        rows numbered by first appearance over the columns in code order,
        face 0 first within each; row_index maps each face code to its
        row."""
        size = len(self.elements)
        codes = range(self._n_units)
        for _ in range(self.degree):
            codes = [code * size + g for code in codes
                     for g in range(self._n_tuple)]
        row_index = _FirstSeen()
        return _face_code_columns(codes, self.degree, row_index, self._back,
                                  self._mul, None, size), row_index

    def key(self, point):
        """The row key of a degree N-1 point: its code, or the point
        itself when it lies outside the units and elements."""
        x, gvec = point
        code = self._unit_at.get(x)
        if code is None:
            return point
        for g in gvec:
            i = self._at.get(g)
            if i is None:
                return point
            code = code * len(self.elements) + i
        return code

    def column_point(self, j: int):
        """The point of column j."""
        return _decode(j, self.degree, self.units, self.elements,
                       self._n_tuple)

    def system(self, chain: Chain):
        """(columns, row_index, b, scale) of A x = b for the degree N-1
        cycle: the rows of the faces, then the cycle's support points in
        the order of its data, each keyed by key(); b is the cycle times
        scale, the lcm of its denominators over Q, 1 over Z."""
        columns, row_index = self.columns()
        keys = [self.key(p) for p in chain.data]
        for k in keys:
            row_index.setdefault(k, len(row_index))
        scale = 1
        if chain.ring.name == "Q":
            scale = math.lcm(*(v.denominator for vec in chain.data.values()
                               for v in vec))
        b = [0] * len(row_index)
        for k, v in zip(keys, chain.data.values()):
            b[row_index[k]] = int(v[0] * scale)
        return columns, row_index, b, scale


def is_boundary_window(chain: Chain, x_radius: int, tuple_radius: int,
                       column_cap: int = 20000) -> dict:
    """Is the cycle a boundary of a chain supported in the given window?

    The window holds degree n+1 points with x in ball(x_radius) and all
    tuple entries in ball(tuple_radius).  Works over Z (divisibility
    honoured) and Q.  The window's face sums are assembled as sparse
    columns on integer codes (_Window), with no point or face tuple per
    column; rows are numbered by first appearance among the faces, face 0
    first within each column, then the cycle's support.  Their unit
    pivots are eliminated (_eliminate_units), any remainder solved by the
    dense Smith form and the pivot variables back-substituted, so no
    dense matrix of the whole window is built on the way to a preimage;
    a found preimage is decoded from its nonzero columns and re-checked
    through boundary() before being reported.  A negative verdict only
    rules out the window, and says so: it is taken again by the dense
    route, a Smith form of the same columns made dense, whose obstruction
    the report names, and is certified by that form's dual witness
    (_check_dual_witness).  The window grows like |ball|^(degree+1), so
    a column cap, checked before any column is built, guards against
    accidentally huge solves.
    """
    ring = chain.ring
    if ring.name not in ("Z", "Q"):
        raise InvalidElementError(
            f"window solving supports rings Z and Q, not {ring.name}")
    if chain.rank != 1:
        raise InvalidElementError("window solving is implemented for rank 1")
    if not boundary(chain).is_zero():
        raise NotACycleError("the given chain is not a cycle")
    G = chain.group
    n = chain.degree
    win = _Window(G, n + 1, x_radius, tuple_radius, column_cap)
    columns, row_index, b, scale = win.system(chain)
    window = {"x_radius": x_radius, "tuple_radius": tuple_radius,
              "columns": win.n_columns}
    solved = _solve_sparse(columns, b, ring.name)
    if solved is None:
        # the position and value a negative verdict names are those of
        # the dense Smith form of the whole window; the sparse solve
        # consumed its columns, so they are assembled again
        A = _dense(win.columns()[0], len(b))
        snf = smith_normal_form(A)
        obstruction = snf.solve(b, ring.name)[2]
        if obstruction is None:
            raise RuntimeError("window solvers disagree: the dense route "
                               "found a preimage the sparse route ruled out")
        _check_dual_witness(snf.U[obstruction["position"]], A, b,
                            obstruction)
        return {"verdict": False, "preimage": None, "window": window,
                "obstruction": obstruction}
    x_vec, m = solved
    pre = Chain(G, ring, chain.rank, n + 1)
    for j, xj in enumerate(x_vec):
        if xj:
            pre._acc(win.column_point(j), (ring.normalize(
                xj if ring.name == "Z" else Fraction(xj, m * scale)),))
    if boundary(pre) != chain:
        raise RuntimeError("window solver produced an invalid preimage")
    return {"verdict": True, "preimage": pre, "window": window,
            "obstruction": None}


# -- induced maps on homology ---------------------------------------------------

def induced_map_on_homology(phi: CoarseMap, max_degree: int,
                            rank: int = 1) -> dict:
    """Matrices of the induced map on group-ring homology, degree by
    degree, with a chain-map check and an isomorphism verdict.

    The map on chains sends a basis point to its image point; on
    homology, kernel generators of the source push forward and are read
    in kernel coordinates of the target.  The verdict in each degree is
    "iso" when the two homology structures agree and the image generates
    the target quotient (for finitely generated abelian groups, a
    surjection between isomorphic groups is an isomorphism).

    Everything is computed at rank 1: with coefficients of rank k every
    complex and chain map is k copies of the rank-1 one, which scales the
    structures and matrix shapes by k and leaves the verdicts as they
    are.
    """
    import numpy as np
    G, H = phi.source, phi.target
    nerve_G = _module_nerve(G, "group-ring")
    nerve_H = _module_nerve(H, "group-ring")
    # d_0..d_{N+1} of each side with the points of each degree, and
    # their certified Smith forms, whose V^-1 and kernel bases the maps
    # are read in: d_0 = 0, whose kernel is all of C_0, then the forms
    # H_n of each side is read off
    (d_G, points_G), (d_H, points_H) = (
        zip(*nerve.boundaries(max_degree + 1))
        for nerve in (nerve_G, nerve_H))
    snf_G, snf_H = ([_certified_smith(d) for d in ds] for ds in (d_G, d_H))
    st_G, st_H = ([{"betti": row["betti"], "torsion": row["torsion"]}
                   for row in _homology_table("Z", snfs[1:], rank)]
                  for snfs in (snf_G, snf_H))

    def chain_matrix(n):
        colb, rowb = ChainBasis(points_G[n]), ChainBasis(points_H[n])
        M = np.zeros((len(rowb), len(colb)), dtype=np.int64)
        for ci, (x, gvec) in enumerate(colb.points):
            y, hvec = _image_point(phi, x, gvec)
            M[rowb.index[(y, hvec)], ci] += 1
        return M

    D = {n: chain_matrix(n) for n in range(max_degree + 1)}
    per_degree = []
    for n in range(max_degree + 1):
        sG, sH = snf_G[n], snf_H[n]
        chain_ok = True
        if n >= 1:
            chain_ok = np.array_equal(_product(d_H[n], D[n]),
                                      _product(D[n - 1], d_G[n]))

        kerG = sG.kernel_basis()          # dimG x kG
        kG = kerG.shape[1]
        kH = sH.shape[1] - sH.rank
        # presentation of H_n(target): the next boundary in kernel
        # coordinates
        P_H = _product(sH.Vinv[sH.rank:], d_H[n + 1])

        # push each source kernel generator through D_n, read in target
        # kernel coordinates
        M_coords = _product(sH.Vinv, _product(D[n], kerG))
        chain_ok = chain_ok and not M_coords[:sH.rank].any()
        M = M_coords[sH.rank:]

        if kH == 0:
            surjective = True
        else:
            s = _certified_smith(np.concatenate([M, P_H], axis=1))
            surjective = (s.rank == kH
                          and all(d == 1 for d in s.elementary_divisors()))
        iso = (st_G[n] == st_H[n]) and surjective and chain_ok
        per_degree.append({
            "degree": n, "chain_map_ok": chain_ok,
            "structure_source": st_G[n], "structure_target": st_H[n],
            "matrix_shape": [rank * kH, rank * kG],
            "surjective": surjective, "iso": iso})
    return {"map": phi.name, "max_degree": max_degree,
            "degrees": per_degree,
            "iso_all": all(d["iso"] for d in per_degree)}
