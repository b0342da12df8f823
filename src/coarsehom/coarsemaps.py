"""Coarse maps between computable groups.

A coarse map f: G -> H has finite point preimages and finite displacement
sets {f(g x) f(x)^-1 : x} for every g; a coarse embedding additionally
bounds source displacement by target displacement.  These are statements
about the whole group, so a finite machine can only certify them on balls
or falsify them with explicit witnesses; every verdict here carries the
radius it was computed at.

The module also implements the constructive toolkit for coarse
embeddings: sections of the image, finite translate covers, the
decomposition of the domain into translated section pieces, and the
greedy block partition of the target that defines the coarse inverse
omega.
"""

from __future__ import annotations

from .errors import GroupMismatchError, InvalidElementError, ResourceLimitError
from .groups import Group


class CoarseMap:
    """A total deterministic rule between two groups, with a name.

    The rule is trusted to be total on valid source elements; whether it
    is a coarse map/embedding is decided by the ball-bounded checks
    below, never assumed.
    """

    def __init__(self, source: Group, target: Group, rule, name=None):
        self.source = source
        self.target = target
        self.rule = rule
        self.name = name or "unnamed"
        self.witness = None       # set by section()
        self._cache = {}

    def __call__(self, g):
        v = self._cache.get(g)
        if v is None:
            v = self.rule(g)
            self.target.check_element(v)
            self._cache[g] = v
        return v

    def __repr__(self):
        return f"CoarseMap({self.name}: {self.source.family} -> {self.target.family})"

    def fibers_on_ball(self, r):
        """Map y -> sorted list of preimages inside ball(r)."""
        return _fibers(self, self.source.ball(r))


def _fibers(phi, ball):
    # ball order is (length, key), so each fiber comes out sorted
    fib = {}
    for x in ball:
        fib.setdefault(phi(x), []).append(x)
    return fib


def identity_map(G: Group) -> CoarseMap:
    return CoarseMap(G, G, lambda g: g, name=f"id[{G.family}]")


def compose(psi: CoarseMap, phi: CoarseMap) -> CoarseMap:
    """Pointwise composition psi after phi; witnesses are dropped."""
    if phi.target != psi.source:
        raise GroupMismatchError(
            f"cannot compose {psi.name} after {phi.name}: group mismatch")
    return CoarseMap(phi.source, psi.target, lambda g: psi(phi(g)),
                     name=f"{psi.name}.{phi.name}")


def table_map(source: Group, target: Group, pairs, name="table") -> CoarseMap:
    """Map given by an explicit finite table of [input, output] pairs.

    Inputs and outputs are JSON normal forms.  Evaluation outside the
    table is an error by policy (no silent default).
    """
    table = {}
    for a, b in pairs:
        table[source.element_from_json(a)] = target.element_from_json(b)

    def rule(g):
        if g not in table:
            raise InvalidElementError(
                f"{g!r} is outside the stored table for map {name!r}")
        return table[g]

    return CoarseMap(source, target, rule, name=name)


# -- ball-bounded axiom checks --------------------------------------------

def displacement_set(phi: CoarseMap, g, r: int):
    """{phi(g x) phi(x)^-1 : x in ball(r)}, sorted.

    >>> from .gallery import get_map
    >>> displacement_set(get_map("z-double"), (1,), 10)
    [(2,)]
    >>> sorted(displacement_set(get_map("z-abs"), (1,), 10))
    [(-1,), (1,)]
    """
    phi.source.check_element(g)
    return sorted(_displacements(phi, g, phi.source.ball(r), set()),
                  key=phi.target.order_key)


def _displacements(phi, g, ball, out: set) -> set:
    """out with {phi(g x) phi(x)^-1 : x in ball} added."""
    T = phi.target
    out.update(T.mul(phi(phi.source.mul(g, x)), T.inv(phi(x))) for x in ball)
    return out


def check_coarse_map(phi: CoarseMap, r: int) -> dict:
    """Ball-bounded coarse-map check.

    Properness evidence: for each y hit from ball(r//4) (deep targets,
    whose fibers had room to show up by the half radius), compare
    preimage counts inside ball(r//2) and ball(r); a strictly growing
    fiber is a falsification witness.  Targets first reached near the
    window edge are excluded: their fibers straddle the half-radius
    cutoff for honest maps and would be false alarms.  Displacement
    evidence: per generator, displacement sets at the two radii;
    equality counts as stable, strict growth falsifies.

    verdict: "certified-up-to-r" | "falsified" | "inconclusive".
    """
    if r < 2:
        return {"verdict": "inconclusive", "radius": r,
                "reason": "radius too small to compare r/2 with r"}
    rh = r // 2
    G = phi.source
    ball_r, ball_h = G.ball(r), G.ball(rh)
    fib_r = _fibers(phi, ball_r)
    fib_h = _fibers(phi, ball_h)
    deep = {phi(x) for x in G.ball(r // 4)}
    proper_witness = None
    max_fiber = 0
    for y, xs in fib_h.items():
        nh, nr = len(xs), len(fib_r[y])
        max_fiber = max(max_fiber, nr)
        if y in deep and nr > nh and proper_witness is None:
            proper_witness = {"target_point": y,
                              "count_at_half": nh, "count_at_full": nr}
    table = {}
    disp_witness = None
    # ball(r//2) is a prefix of ball(r): the set at the full radius
    # extends the one at the half radius over the rest of the ball, so
    # it is stable when it has not grown
    outer = ball_r[len(ball_h):]
    key = phi.target.order_key
    for g in G.generators():
        values = _displacements(phi, g, ball_h, set())
        d_h = sorted(values, key=key)
        d_r = sorted(_displacements(phi, g, outer, values), key=key)
        stable = len(d_h) == len(d_r)
        table[g] = {"at_half": len(d_h), "at_full": len(d_r),
                    "stable": stable}
        if not stable and disp_witness is None:
            disp_witness = {"generator": g,
                            "set_at_half": d_h, "set_at_full": d_r}
    falsified = proper_witness is not None or disp_witness is not None
    return {
        "verdict": "falsified" if falsified else f"certified-up-to-{r}",
        "radius": r,
        "proper_on_ball": proper_witness is None,
        "proper_witness": proper_witness,
        "max_fiber_size": max_fiber,
        "displacement_growth": table,
        "displacement_witness": disp_witness,
    }


# Cells in one row block of the pair scan: a few matrices this size are
# its whole working set, whatever the size of the ball.
_SCAN_CELLS = 4096


def _reverse_scan(phi: CoarseMap, radius: int, r: int):
    """best[c], arg[c] for c <= r over the pairs (s, t) of ball(radius).

    best[c] is the largest source length |s t^-1| among pairs whose
    target length |phi(s) phi(t)^-1| is exactly c, and arg[c] the first
    such pair in (s, t) order (None while best[c] is 0); a final pass
    makes both monotone in c.  The lengths come from
    pair_length_blocks, a block of rows at a time, and each block is
    read in one pass for all its cutoffs: np.maximum.at takes the
    block's largest source length per cutoff, and np.minimum.at the
    least position among the pairs that reach it, which is the first
    such pair in (s, t) order, as a pair-by-pair scan keeping strict
    increases would find.  One path serves int64 and object (Python
    int) lengths alike, and a block holds a few arrays of its size.
    """
    import numpy as np
    G, T = phi.source, phi.target
    ball = G.ball(radius)
    vals = [phi(x) for x in ball]
    n = len(ball)
    best = [0] * (r + 1)
    arg = [None] * (r + 1)
    step = max(1, _SCAN_CELLS // n)
    for i, ds, dt in zip(range(0, n, step),
                         G.pair_length_blocks(ball, step),
                         T.pair_length_blocks(vals, step)):
        # target lengths past r are never read: clip them to r + 1
        dt = np.minimum(dt, r + 1).astype(np.int64, copy=False).ravel()
        ds = ds.ravel()
        top = np.zeros(r + 2, dtype=ds.dtype)
        np.maximum.at(top, dt, ds)
        hits = np.flatnonzero(ds == top[dt])
        first = np.full(r + 2, ds.size)
        np.minimum.at(first, dt[hits], hits)
        # a cutoff whose maximum beats best has a pair reaching it
        for c, length, k in zip(range(r + 1), top.tolist(), first.tolist()):
            if length > best[c]:
                best[c] = length
                arg[c] = (ball[i + k // n], ball[k % n])
    for c in range(1, r + 1):
        if best[c - 1] > best[c]:
            best[c] = best[c - 1]
            arg[c] = arg[c - 1]
    return best, arg


def check_coarse_embedding(phi: CoarseMap, r: int) -> dict:
    """Coarse-map check plus the reverse displacement bound.

    For each c <= r collect the source differences s t^-1 over pairs with
    target distance <= c and record the maximal source word length; if
    that maximum grows from ball(r//2) to ball(r) for some fixed
    c <= r//4, the reverse bound fails and the witness pair is reported.
    Cutoffs above r//4 are tabulated but not compared: there the half
    window itself caps the observable source length, so growth tells us
    about the window, not the map.
    """
    base = check_coarse_map(phi, r)
    report = {"coarse_map": base, "radius": r}
    if base["verdict"] == "falsified":
        report["verdict"] = "falsified"
        report["reverse_witness"] = None
        return report
    if base["verdict"] == "inconclusive":
        report["verdict"] = "inconclusive"
        return report

    best_h, _ = _reverse_scan(phi, r // 2, r)
    best_r, arg_r = _reverse_scan(phi, r, r)
    witness = None
    for c in range(r // 4 + 1):
        if best_r[c] > best_h[c]:
            s, t = arg_r[c]
            witness = {"cutoff": c, "pair": [s, t],
                       "source_length": best_r[c],
                       "max_at_half": best_h[c]}
            break
    report["reverse_table"] = {c: best_r[c] for c in range(r + 1)}
    report["reverse_witness"] = witness
    report["verdict"] = "falsified" if witness else f"certified-up-to-{r}"
    return report


_CLOSENESS_CAP = 64


def closeness(phi: CoarseMap, psi: CoarseMap, r: int) -> dict:
    """Are phi and psi close?  Compares difference sets at r//2 and r.

    On success returns the finite decomposition of ball(r) by the value
    h = psi(x) phi(x)^-1, so that psi = h_i phi on each piece; more than
    _CLOSENESS_CAP values count as not close.
    """
    if phi.source != psi.source or phi.target != psi.target:
        raise GroupMismatchError("closeness needs maps with equal groups")
    T = phi.target

    def diffs(radius):
        out = {}
        for x in phi.source.ball(radius):
            h = T.mul(psi(x), T.inv(phi(x)))
            out.setdefault(h, []).append(x)
        return out

    d_h = diffs(r // 2)
    d_r = diffs(r)
    stable = set(d_h) == set(d_r)
    if stable and len(d_r) <= _CLOSENESS_CAP:
        order = sorted(d_r, key=T.order_key)
        return {"verdict": "close", "radius": r,
                "pieces": [(h, d_r[h]) for h in order]}
    return {"verdict": "not-close-at-radius", "radius": r,
            "size_at_half": len(d_h), "size_at_full": len(d_r),
            "cap": _CLOSENESS_CAP}


# -- constructive toolkit ---------------------------------------------------

class SectionData:
    """A section of phi on ball(r): least preimage per image point.

    x_of_y maps each y in phi(ball(r)) to its enumeration-least preimage;
    X is the set of those preimages; F is the translate cover
    {g x_{phi(g)}^-1 : g in ball(r)}, so ball(r) is covered by f X, f in F.
    """

    def __init__(self, phi, r, x_of_y, X, F):
        self.phi = phi
        self.radius = r
        self.x_of_y = x_of_y
        self.X = X
        self.F = F

    def validate(self):
        for y, x in self.x_of_y.items():
            if self.phi(x) != y:
                return False
        G = self.phi.source
        Xset = set(self.X)
        for g in G.ball(self.radius):
            if not any(G.mul(G.inv(f), g) in Xset for f in self.F):
                return False
        return True


def section(phi: CoarseMap, r: int) -> SectionData:
    """Least-preimage section and translate cover on ball(r).

    >>> from .gallery import get_map
    >>> s = section(get_map("z-double"), 4)
    >>> s.F
    [(0,)]
    >>> s.x_of_y[(4,)]
    (2,)
    """
    G = phi.source
    fib = phi.fibers_on_ball(r)
    x_of_y = {y: xs[0] for y, xs in fib.items()}
    Xset = {x for x in x_of_y.values()}
    X = sorted(Xset, key=G.order_key)
    Fset = {G.mul(g, G.inv(x_of_y[phi(g)])) for g in G.ball(r)}
    F = sorted(Fset, key=G.order_key)
    data = SectionData(phi, r, x_of_y, X, F)
    phi.witness = {"section": x_of_y, "translate_cover": F,
                   "validated_radius": r if data.validate() else -1}
    return data


class DomainDecomposition:
    """Partition of ball(radius) into pieces with phi(x) = h_i phi(g_i x)."""

    def __init__(self, pieces, radius):
        self.pieces = pieces          # list of (sorted xs, g_i, h_i)
        self.radius = radius

    def validate(self, phi):
        seen = set()
        G, T = phi.source, phi.target
        for xs, g, h in self.pieces:
            for x in xs:
                if x in seen:
                    return False
                seen.add(x)
                if phi(x) != T.mul(h, phi(G.mul(g, x))):
                    return False
        return seen == set(G.ball(self.radius))


def decompose_domain(phi: CoarseMap, r: int) -> DomainDecomposition:
    """Disjointify the translate cover and split pieces by displacement.

    Every x in ball(r) is written as x = f (g_i x)^-1-free…, concretely:
    pieces are (f X minus earlier pieces), f running over the translate
    cover with f = e first, then each piece is split by the constant
    h = phi(x) phi(f^-1 x)^-1, so that phi(x) = h_i phi(g_i x) with
    g_i = f^-1 holds on the nose.  Piece 1 is the section itself with
    g_1 = h_1 = e.
    """
    G, T = phi.source, phi.target
    sec = section(phi, r)
    Xset = set(sec.X)
    cover = [f for f in sec.F if f != G.identity()]
    cover.insert(0, G.identity())
    ball = G.ball(r)
    remaining = set(ball)
    pieces = []
    for f in cover:
        finv = G.inv(f)
        piece = [x for x in ball
                 if x in remaining and G.mul(finv, x) in Xset]
        if not piece:
            continue
        remaining.difference_update(piece)
        by_h = {}
        for x in piece:
            h = T.mul(phi(x), T.inv(phi(G.mul(finv, x))))
            by_h.setdefault(h, []).append(x)
        for h in sorted(by_h, key=T.order_key):
            xs = sorted(by_h[h], key=G.order_key)
            pieces.append((xs, finv, h))
    return DomainDecomposition(pieces, r)


class TargetPartition:
    """Greedy block partition of the target along its enumeration.

    Block j is h_j Y_j where Y_j collects the image points t = h_j^-1 y
    of the y assigned to the block; a point y lands in the first block
    (in enumeration order of the h_j) with h_j^-1 y in the image of phi.
    """

    def __init__(self, target: Group):
        self.target = target
        self.hs = []                  # enumeration prefix h_1 = e, ...
        self.blocks = {}              # j -> set of Y_j members (t values)
        self.block_of_y = {}          # y -> j
        self.prefix_radius = 0

    def block_items(self):
        return [(self.hs[j], sorted(self.blocks[j],
                                    key=self.target.order_key))
                for j in sorted(self.blocks)]


class OmegaMap(CoarseMap):
    """Coarse inverse of an embedding, built lazily block by block.

    omega(y) = section(h_j^-1 y) where j is the first enumeration index
    with h_j^-1 y in the image of phi.  Image membership is decided
    against phi(ball(source_radius)); the radius used is recorded.
    """

    def __init__(self, phi: CoarseMap, sec: SectionData,
                 enum_cap: int = 10000):
        self.phi_forward = phi
        self.sec = sec
        self.enum_cap = enum_cap
        self.partition = TargetPartition(phi.target)
        self._enum = phi.target.enumerate_elements()
        super().__init__(phi.target, phi.source, self._resolve,
                         name=f"omega[{phi.name}]")

    def _resolve(self, y):
        T = self.phi_forward.target
        part = self.partition
        if y in part.block_of_y:
            j = part.block_of_y[y]
            t = T.mul(T.inv(part.hs[j]), y)
            return self.sec.x_of_y[t]
        j = 0
        while True:
            if j >= len(part.hs):
                if len(part.hs) >= self.enum_cap:
                    raise ResourceLimitError(
                        f"omega: no block found for {y!r} within "
                        f"{self.enum_cap} enumerated translates "
                        f"(image known on ball({self.sec.radius}))",
                        cap=self.enum_cap)
                part.hs.append(next(self._enum))
            h = part.hs[j]
            t = T.mul(T.inv(h), y)
            if t in self.sec.x_of_y:
                part.block_of_y[y] = j
                part.blocks.setdefault(j, set()).add(t)
                return self.sec.x_of_y[t]
            j += 1

    def closeness_to_identity(self, r: int):
        """{omega(phi(x)) x^-1 : x in ball(r)}, sorted; finite set means
        omega . phi is close to the identity on that ball."""
        G = self.phi_forward.source
        out = {G.mul(self(self.phi_forward(x)), G.inv(x))
               for x in G.ball(r)}
        return sorted(out, key=G.order_key)


def omega(phi: CoarseMap, prefix: int, enum_cap: int = 10000):
    """Coarse inverse on ball(prefix) of the target, plus its partition.

    The image of phi is known on phi(ball(2*prefix + 2)), which is
    enough for every built-in map.  All points
    of ball(prefix) are resolved eagerly so the returned partition
    already covers the ball; resolution extends lazily beyond it.

    >>> from .gallery import get_map
    >>> om, part = omega(get_map("z-double"), 6)
    >>> [om((y,)) for y in range(-3, 4)]
    [(-2,), (-1,), (-1,), (0,), (0,), (1,), (1,)]
    >>> [h for h, _ in part.block_items()]
    [(0,), (1,)]
    """
    sec = section(phi, 2 * prefix + 2)
    om = OmegaMap(phi, sec, enum_cap=enum_cap)
    for y in phi.target.ball(prefix):
        om(y)
    om.partition.prefix_radius = prefix
    return om, om.partition
