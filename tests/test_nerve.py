"""The one nerve engine: group tables and groupoid tables are nerves of
action groupoids.  Every boundary matrix of the grid below is pinned by
the sha256 of its dtype, shape and bytes, frozen from the two engines
that built group and groupoid matrices before they were merged; and the
group tables are cross-checked against groupoid tables through Shapiro's
lemma, H_*(G; Z[X]) = H_*(G⋉X)."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

import oracles
from coarsehom import complexes, dynamics as dy
from coarsehom import cli, homology
from coarsehom.cli import run_experiment
from coarsehom.gallery import get_group, get_map, get_scenario
from coarsehom.homology import (Nerve, _certified_smith, _homology_table,
                                _rank_over, assemble_boundary_matrix,
                                homology_finite, induced_map_on_homology,
                                smith_normal_form)
from test_perfbench_expect import expect
from test_resolutions import _q8

FINITE = ["triv", "Z/2", "Z/3", "Z/4", "Z/6", "D3", "Z/2xZ/2"]
SCENARIOS = ["product-coupling", "z4-z2-twist", "dihedral-flip",
             "z4-z2-kakutani"]

with open(os.path.join(os.path.dirname(__file__),
                       "nerve_matrices.json")) as fh:
    PINNED = json.load(fh)


def _digest(M):
    M = np.asarray(M)
    return hashlib.sha256(f"{M.dtype}:{M.shape}:".encode()
                          + np.ascontiguousarray(M).tobytes()).hexdigest()


def _pinned(prefix):
    return {k: v for k, v in PINNED.items()
            if k.rsplit(" ", 1)[0] == prefix}


def _gallery_groupoids():
    """Every groupoid the gallery scenarios yield: translation groupoids
    of the finite groups, the combined G x H action of each coupling and
    its restriction to the fundamental domain Xbar, and both systems of
    each orbit couple with their restrictions to the Kakutani sets."""
    out = {f"translation {name}":
           dy.action_groupoid(dy.translation_action(get_group(name)))
           for name in FINITE}
    for sc in SCENARIOS:
        obj = get_scenario(sc)
        if isinstance(obj, dy.Coupling):
            big = dy.action_groupoid(oracles.combined_action(obj))
            out[f"{sc} combined"] = big
            out[f"{sc} combined xbar"] = dy.restrict_groupoid(big, obj.xbar)
            obj = dy.coupling_to_couple(obj)
        kak = dy.couple_to_kakutani(obj)
        for side, act, sub in (("X", obj.actX, kak.A), ("Y", obj.actY, kak.B)):
            gpd = dy.action_groupoid(act)
            out[f"{sc} {side}"] = gpd
            out[f"{sc} {side} kakutani"] = dy.restrict_groupoid(gpd, sub)
    return out


GROUPOIDS = _gallery_groupoids()


def test_pinned_grid_is_complete():
    # 7 groups x 2 modules x 2 ranks x 3 degrees, and degrees 1-3 of
    # every gallery groupoid but d_3 of the dihedral-flip combined action
    # (20736 x 1728, too large to materialize in a unit test)
    assert len(PINNED) == 84 + 3 * len(GROUPOIDS) - 1
    assert "dihedral-flip combined d3" not in PINNED


@pytest.mark.parametrize("name", FINITE)
def test_group_table_matrices_pinned(name):
    G = get_group(name)
    got = {f"{name} {module} rank {rank} d{n}": _digest(
        assemble_boundary_matrix(G, n, module=module, rank=rank)["matrix"])
        for module in ("group-ring", "trivial") for rank in (1, 2)
        for n in (1, 2, 3)}
    assert got == {k: v for k, v in PINNED.items()
                   if k.startswith(f"{name} ")}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_groupoid_matrices_pinned(name):
    want = _pinned(name)
    nerve = GROUPOIDS[name].nerve()
    got = {key: _digest(nerve.boundary(int(key[-1]))[0]) for key in want}
    assert got == want and len(want) >= 2


def test_basis_points_follow_the_contract():
    G = get_group("Z/3")
    asm = assemble_boundary_matrix(G, 2, module="group-ring", rank=2)
    col, row = asm["col_basis"], asm["row_basis"]
    els = G.elements()
    assert col.points == [(x, (g, h)) for x in els for g in els
                          for h in els]
    assert row.index[(1, (2,))] == 5 and len(col) == 2 * 27
    triv = assemble_boundary_matrix(G, 1, module="trivial")
    assert [gv for _, gv in triv["col_basis"].points] == [(g,) for g in els]
    assert assemble_boundary_matrix(G, 0)["row_basis"] is None


def test_restricted_nerve_keeps_walks_inside_the_units():
    act = dy.translation_action(get_group("Z/4"))
    gpd = dy.restrict_groupoid(dy.action_groupoid(act), [0, 2])
    assert gpd.units == [0, 2]
    G = act.group
    for x, gvec in gpd.nerve().points(2):
        v = x
        for g in gvec:
            v = act(G.inv(g), v)
            assert v in (0, 2)
    # each of the three vertices is one of two units, and one arrow
    # joins any two of them (Z/4 acts freely and transitively)
    assert len(gpd.nerve().points(2)) == 2 * 2 * 2


def test_validate_catches_a_corrupted_action():
    act = dy.translation_action(get_group("Z/4"))
    gpd = dy.action_groupoid(act)
    assert gpd.validate() is True
    act.table[1][0] = 2         # 1.0 should be 1
    assert gpd.validate() is False


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/2", "Z/3"])
@pytest.mark.parametrize("name", FINITE)
def test_group_tables_are_groupoid_tables(name, ring):
    """Shapiro's lemma on the two modules: the trivial table is the table
    of the one-point groupoid, the group-ring table that of the
    translation groupoid, though the two routes order their bases
    differently (ball order against repr order)."""
    G = get_group(name)
    point = dy.action_groupoid(dy.FiniteAction(G, ["pt"], lambda g, x: x))
    assert homology_finite(G, 2, ring_name=ring, module="trivial") == \
        dy.groupoid_homology_finite(point, 2, ring_name=ring)
    assert homology_finite(G, 2, ring_name=ring, module="group-ring") == \
        dy.groupoid_homology_finite(
            dy.action_groupoid(dy.translation_action(G)), 2, ring_name=ring)


# -- cohomology from the homology forms ------------------------------------

def _point_groupoid(G):
    return dy.action_groupoid(dy.FiniteAction(G, ["pt"], lambda g, x: x))


COHOMOLOGY_GROUPOIDS = dict(
    GROUPOIDS, **{f"point {name}": _point_groupoid(get_group(name))
                  for name in FINITE})
# C_3 of these has 4096 or 20736 points: the Smith forms of d_3 (a dense
# V of that size squared) are too large for a unit test
DEGREE_ONE_ONLY = {"product-coupling combined", "z4-z2-twist combined",
                   "dihedral-flip combined"}


def _cohomology_by_transposes(gpd, max_degree, rings):
    """Cohomology tables read off the certified Smith forms of the
    coboundaries d_n^T : C^{n-1} -> C^n themselves: in degree n the map
    leaving is d_{n+1}^T, the one entering d_n^T, and the torsion is the
    cokernel of the one entering."""
    nerve = gpd.nerve()
    co = [_certified_smith(nerve.boundary(n)[0].T)
          for n in range(1, max_degree + 2)]      # co[n] is d_{n+1}^T
    tables = {}
    for ring in rings:
        table = []
        for n in range(max_degree + 1):
            leaving = co[n].elementary_divisors()
            entering = co[n - 1].elementary_divisors() if n else []
            betti = (co[n].shape[1] - _rank_over(ring, leaving)
                     - _rank_over(ring, entering))
            table.append({"degree": n, "ring": ring, "betti": betti,
                          "torsion": [d for d in entering if d > 1]
                          if ring == "Z" else []})
        tables[ring] = table
    return tables


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_GROUPOIDS))
def test_cohomology_equals_the_transposed_route(name):
    gpd = COHOMOLOGY_GROUPOIDS[name]
    max_degree = 1 if name in DEGREE_ONE_ONLY else 2
    rings = ("Z", "Q", "Z/2", "Z/3")
    want = _cohomology_by_transposes(gpd, max_degree, rings)
    for ring in rings:
        assert dy.groupoid_cohomology_finite(gpd, max_degree,
                                             ring_name=ring) == want[ring]


# -- one walk per degree -------------------------------------------------------

def _count_steps(monkeypatch):
    """The walk sizes each step of a nerve's walks (_step_codes), on
    either complex, extends, from here on."""
    sizes, real = [], homology._step_codes

    def spy(walks, *tables):
        sizes.append(len(walks))
        return real(walks, *tables)

    monkeypatch.setattr(homology, "_step_codes", spy)
    return sizes


def test_boundaries_walk_each_degree_once(monkeypatch):
    """A nerve keeps no walk: boundaries() steps each degree once, and
    boundary(n) walks from degree 0 again, to the same matrix and
    points."""
    nerve = GROUPOIDS["translation Z/4"].nerve()
    sizes = _count_steps(monkeypatch)
    walked = list(nerve.boundaries(3))
    # degrees 0, 1, 2 are extended once each, to reach degrees 1, 2, 3
    assert sizes == [4, 16, 64]
    M, row, col = nerve.boundary(3)
    assert sizes == [4, 16, 64] * 2
    assert np.array_equal(M, walked[3][0]) and col.points == walked[3][1]
    assert nerve.points(2) == row.points == walked[2][1]


def test_induced_map_walks_one_nerve_per_side(monkeypatch):
    sizes = _count_steps(monkeypatch)
    induced_map_on_homology(get_map("z4-mod-z2"), 2)
    # Z/4, then Z/2, each walked from degree 0 to degree 3 once
    assert sizes == [4, 16, 64, 2, 4, 8]


def test_homology_report_walks_one_nerve(monkeypatch):
    # a group with no formula resolution reads its table off the nerve
    monkeypatch.setattr(cli, "get_group", lambda name: _q8())
    sizes = _count_steps(monkeypatch)
    report = run_experiment({"experiment": "homology-finite", "group": "Q8",
                             "module": "trivial", "max_degree": 2})
    assert report["body"]["pass"]
    # the nondegenerate walks of degrees 0, 1, 2 (1, 7 and 49 of them)
    # extended once each to reach d_3, by the seven elements other than
    # the identity; the coinvariants row reads the action table and
    # walks nothing
    assert sizes == [1, 7, 49]


def test_formula_report_walks_no_nerve(monkeypatch):
    sizes = _count_steps(monkeypatch)
    report = run_experiment({"experiment": "homology-finite", "group": "Z/4",
                             "module": "trivial", "max_degree": 2})
    assert report["body"]["pass"]
    # the table reads the periodic resolution of Z/4, and the
    # coinvariants row the nerve's action table
    assert sizes == []


# -- rank k as k copies of the rank-1 complex ----------------------------------

@pytest.mark.parametrize("module", ["group-ring", "trivial"])
@pytest.mark.parametrize("name", FINITE)
def test_rank_two_tables_match_the_kron_route(name, module):
    """The rank-2 boundary is kron(d, I_2) in the documented layout;
    tables read off its own certified Smith forms are the reference."""
    G = get_group(name)
    forms = [_certified_smith(assemble_boundary_matrix(
        G, n, module=module, rank=2)["matrix"]) for n in (1, 2, 3)]
    for ring in ("Z", "Q", "Z/2", "Z/3"):
        assert homology_finite(G, 2, ring_name=ring, module=module,
                               rank=2) == _homology_table(ring, forms)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("A", [[[2, 0], [0, 4]], [[6, 4, 0], [2, 0, 0]],
                               [[0, 3]], [[3, 0, 0]]])
def test_rank_k_reads_the_divisor_chain_of_the_kron(A, rank):
    """Two boundaries with divisors that differ: torsion repeats each
    divisor k times in place, as the forms of kron(d, I_k) give it."""
    A = np.array(A, dtype=np.int64)
    d2 = np.zeros((A.shape[1], 0), dtype=np.int64)
    kron = [np.kron(M, np.eye(rank, dtype=np.int64)) for M in (A, d2)]
    for ring in ("Z", "Q", "Z/2", "Z/3"):
        assert _homology_table(ring, [_certified_smith(M) for M in (A, d2)],
                               rank) == \
            _homology_table(ring, [_certified_smith(M) for M in kron])


def _table_inputs(monkeypatch, read=lambda M: M):
    """The matrices handed to the table reduction (_certified_divisors,
    as sparse columns) from here on, each as read(matrix)."""
    seen, real = [], homology._certified_divisors

    def spy(columns, n_rows):
        seen.append(read(homology._dense(columns, n_rows)))
        return real(columns, n_rows)

    monkeypatch.setattr(homology, "_certified_divisors", spy)
    return seen


@pytest.mark.parametrize("config", [
    {"experiment": "homology-finite", "group": "Z/3", "module": "group-ring",
     "max_degree": 2},
    {"experiment": "homology-finite", "group": "Z/4", "module": "trivial",
     "max_degree": 3}], ids=["Z/3-group-ring", "Z/4-trivial"])
def test_rank_two_report_reduces_the_rank_one_matrices(monkeypatch, config):
    seen = _table_inputs(monkeypatch, _digest)
    run_experiment(config)
    rank_one = list(seen)
    seen.clear()
    run_experiment(dict(config, rank=2))
    # the resolution's d_1..d_{N+1} over Z, whose forms the certificate
    # and the group-ring table read; the trivial table reduces the
    # augmented ones too
    per_table = 2 if config["module"] == "trivial" else 1
    assert seen == rank_one and \
        len(seen) == per_table * (config["max_degree"] + 1)


# -- tables on the sparse unit-pivot front end --------------------------------

def _columns(M):
    """The sparse columns (dict row -> value) of a dense matrix."""
    M = np.asarray(M)
    return [{int(i): int(M[i, j]) for i in np.nonzero(M[:, j])[0]}
            for j in range(M.shape[1])]


def _pinned_matrix(key):
    """The matrix a key of the pinned grid names, built as the pinned
    tests build it."""
    head, degree = key.rsplit(" d", 1)
    if head in GROUPOIDS:
        return GROUPOIDS[head].nerve().boundary(int(degree))[0]
    name, module, _, rank = head.split(" ")
    return assemble_boundary_matrix(get_group(name), int(degree),
                                    module=module, rank=int(rank))["matrix"]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_front_end_divisors_match_the_dense_smith_form(key):
    """Every pinned matrix: the group tables' and d_1..d_3 of each
    groupoid of the gallery scenarios."""
    M = _pinned_matrix(key)
    assert _digest(M) == PINNED[key]
    # the dense reference in its shorter orientation: same divisors,
    # smaller certificates
    dense = smith_normal_form(M.T if M.shape[1] > M.shape[0] else M)
    form = homology._certified_divisors(_columns(M), M.shape[0])
    assert form.shape == M.shape
    assert form.elementary_divisors() == dense.elementary_divisors()


def _forge_row(pivots, rest):
    """One entry of the first recorded pivot row that has one, altered."""
    for i, j, p, row, col in pivots:
        if row:
            k = next(iter(row))
            row[k] += 1
            return pivots, rest
    raise AssertionError("no pivot row holds an entry")


@pytest.mark.parametrize("forge", ["pivot-row", "other-matrix"])
def test_forged_elimination_fails_the_replay(monkeypatch, forge):
    d2 = GROUPOIDS["translation Z/4"].nerve().boundary(2)[0]
    columns = _columns(d2)
    real = homology._eliminate_units
    if forge == "pivot-row":
        monkeypatch.setattr(homology, "_eliminate_units",
                            lambda cols: _forge_row(*real(cols)))
    else:
        # the elimination of another matrix of the same shape
        other = _columns(np.roll(d2, 1, axis=0))
        monkeypatch.setattr(homology, "_eliminate_units",
                            lambda cols: real(other))
    with pytest.raises(RuntimeError, match="replay"):
        homology._certified_divisors(columns, d2.shape[0])


@pytest.mark.parametrize("A, pivots, rest", [
    # p = 2 is no unit, though L F == A
    ([{0: 2}], [(0, 0, 2, {}, {})], {}),
    # col meets its own pivot row: L = [[2]]
    ([{0: 2}], [(0, 0, 1, {}, {0: 1})], {}),
    # column 0 pivoted twice
    ([{0: 1, 1: 1}], [(0, 0, 1, {}, {}), (1, 0, 1, {}, {})], {}),
    # row 0 pivoted twice: [[1, 1]] has rank 1
    ([{0: 1}, {0: 1}], [(0, 0, 1, {}, {}), (0, 1, 1, {}, {})], {}),
    # the second pivot row meets the first pivot column: [[1, 1], [1, 1]]
    # has rank 1
    ([{0: 1, 1: 1}, {0: 1, 1: 1}],
     [(0, 0, 1, {1: 1}, {}), (1, 1, 1, {0: 1}, {})], {}),
    # the remainder meets the pivot row and column
    ([{0: 3}], [(0, 0, 1, {}, {})], {0: {0: 2}}),
], ids=["non-unit", "col-meets-pivot-row", "column-reused", "row-reused",
        "row-meets-pivot-column", "rest-meets-pivots"])
def test_replay_rejects_each_broken_structure(A, pivots, rest):
    with pytest.raises(RuntimeError, match="replay"):
        homology._check_elimination(A, pivots, rest)


def _pivot_digest(pivots):
    """sha256 of the pivot sequence [(i, j, p), ...] of an elimination."""
    return hashlib.sha256(json.dumps(
        [[i, j, p] for i, j, p, *_ in pivots]).encode()).hexdigest()


def test_pivot_sequences_pinned(monkeypatch):
    """The pivot sequences of two eliminations, frozen from the
    elimination that re-queued every column of each pivot row: the
    unnormalized d_2 of the Z/4 translation groupoid (13 pivots), and
    the window of the window-boundary report on Z, radii (2, 2), seed 0
    (125 columns, 53 pivots)."""
    d2 = GROUPOIDS["translation Z/4"].nerve().boundary(2)[0]
    pivots, rest = homology._eliminate_units(_columns(d2))
    assert (len(pivots), rest) == (13, {})
    assert _pivot_digest(pivots) == \
        "65653088646047ce9fe3e3c1c74c60c0ec6c02fd69155648dae26477453a5a80"
    windows, real = [], homology._eliminate_units

    def spy(columns):
        windows.append([dict(col) for col in columns])
        return real(columns)

    monkeypatch.setattr(homology, "_eliminate_units", spy)
    run_experiment({"experiment": "window-boundary", "group": "Z",
                    "ring": "Z", "x_radius": 2, "tuple_radius": 2,
                    "seed": 0})
    window, = windows
    pivots, rest = real(window)
    assert (len(window), len(pivots), rest) == (125, 53, {})
    assert _pivot_digest(pivots) == \
        "0b3f6e07f21f66a3d39d71342abd970ba8ee6a162d3abeaf37a67f3be5e9b782"


def test_small_remainders_read_their_minors(monkeypatch):
    real = homology._certified_smith
    calls = []

    def spy(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(homology, "_certified_smith", spy)
    # no unit: a 3 x 1 remainder, and its transpose's orientation
    assert homology._certified_divisors([{0: 6, 1: 4, 2: -10}], 3) \
        .divisors == [2]
    assert homology._certified_divisors([{0: 6}, {0: 4}, {0: -10}], 1) \
        .divisors == [2]
    assert calls == []
    # a unit pivot, then the 1 x 1 remainder [4] left by [[1, 2], [1, 6]]
    assert homology._certified_divisors([{0: 1, 1: 1}, {0: 2, 1: 6}], 2) \
        .divisors == [1, 4]
    assert calls == []
    # two columns each way read their minors: D_1 = 2, D_2 = 12
    assert homology._certified_divisors([{0: 2, 1: 4}, {0: 4, 1: 2}], 2) \
        .divisors == [2, 6]
    assert calls == []
    # five rows and two columns, past the minors' reach, go to the dense
    # form
    assert homology._certified_divisors(
        [{0: 2, 1: 4, 2: 6, 3: 8, 4: 10}, {0: 4, 1: 2, 2: 0, 3: 2, 4: 4}],
        5).divisors == [2, 2]
    assert len(calls) == 1


@pytest.mark.parametrize("v", [
    [5], [-5], [0, 3], [6, 4, -10], [0, 0, 7], [12, 18, 8],
    [-7, 91, 35, 3 * 2 ** 70],
    # taller than _MINOR_ROWS: only the one-column rule reads their minors
    [12, -18, 30, 0, 42, 6 * 2 ** 65],
    [2 ** 70 * (k + 2) for k in range(300)]])
def test_one_column_remainders_read_the_gcd(monkeypatch, v):
    def smith(A):
        raise AssertionError("a one-column remainder reached the Smith form")

    monkeypatch.setattr(homology, "_certified_smith", smith)
    column = [{i: a for i, a in enumerate(v) if a}]
    row = [{0: a} if a else {} for a in v]
    assert homology._certified_divisors(column, len(v)).divisors == \
        homology._certified_divisors(row, 1).divisors == [math.gcd(*v)]


def test_z6_trivial_degree_four_builds_no_dense_matrix(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("a dense boundary was built on a table path")

    monkeypatch.setattr(homology, "_dense", dense)
    monkeypatch.setattr(Nerve, "boundary", dense)
    G = get_group("Z/6")
    # the resolution route, then the nerve's: Z, Z/6, 0, Z/6, 0
    for table in (homology_finite(G, 4, module="trivial"),
                  _nerve_table(G, 4, "trivial")):
        assert [(row["betti"], row["torsion"]) for row in table] == \
            [(1, []), (0, [6]), (0, []), (0, [6]), (0, [])]


# -- tables on the normalized complex -----------------------------------------

def _assert_normalized(monkeypatch, nerve, max_degree):
    """The matrices smiths(max_degree) hands the table reduction are the
    normalized d_1..d_{N+1}: each the unnormalized boundary restricted to
    the points with no identity (the oracle), with the rows that are the
    unit pivot columns of the boundary reduced before it zero.  Returns
    the forms."""
    seen = _table_inputs(monkeypatch)
    forms = nerve.smiths(max_degree)
    e = nerve.group.identity()
    want = [oracles.normalized_boundary(M, row.points, col.points, e)
            for M, row, col in (nerve.boundary(n)
                                for n in range(1, max_degree + 2))]
    assert len(seen) == len(want) == len(forms) == max_degree + 1
    settled = frozenset()
    for got, ref, form in zip(seen, want, forms):
        ref = ref.copy()
        ref[sorted(settled)] = 0
        assert got.shape == ref.shape and np.array_equal(got, ref)
        assert form.shape == ref.shape
        settled = form.pivot_columns
        assert settled <= set(range(ref.shape[1]))
        assert len(settled) <= form.divisors.count(1)
    return forms


@pytest.mark.parametrize("module", ["group-ring", "trivial"])
@pytest.mark.parametrize("name", FINITE)
def test_group_tables_reduce_the_normalized_boundaries(name, module,
                                                       monkeypatch):
    forms = _assert_normalized(
        monkeypatch, homology._module_nerve(get_group(name), module), 2)
    # rows of d_3 are dropped but for the trivial group and for Z/2 with
    # trivial coefficients, whose normalized d_2 is [2]
    assert (name == "triv" or (name, module) == ("Z/2", "trivial")
            or forms[1].pivot_columns)


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_groupoid_tables_reduce_the_normalized_boundaries(name,
                                                          monkeypatch):
    # to d_3 as the pinned grid goes, so d_2 for the dihedral-flip
    # combined action
    _assert_normalized(monkeypatch, GROUPOIDS[name].nerve(),
                       len(_pinned(name)) - 1)


def test_a_dropped_face_keeps_the_signs_after_it():
    """The oracle's faces of one point, and its column in the normalized
    d_3 that smiths reads, built by the code face rule."""
    nerve = homology._module_nerve(get_group("Z/3"), "trivial")
    ref = _reference("Z/3 trivial")
    # 1 + 2 = 0 merges to the identity; 2 + 2 = 1 does not
    assert ref.faces(("pt", (1, 2, 2)), normalized=True) == \
        [("pt", (2, 2)), None, ("pt", (1, 1)), ("pt", (1, 2))]
    assert ref.faces(("pt", (1, 2, 2)))[1] == ("pt", (0, 2))
    rows = {p: i for i, p in enumerate(ref.points(2, nondegenerate=True))}
    col, = homology._face_code_columns(
        [_code(nerve, ("pt", (1, 2, 2)))], 3,
        {_code(nerve, p): i for p, i in rows.items()},
        nerve._back, nerve._mul, nerve._e, len(nerve._mul))
    assert col == {rows[("pt", (2, 2))]: 1, rows[("pt", (1, 1))]: 1,
                   rows[("pt", (1, 2))]: -1}


RINGS = ("Z", "Q", "Z/2", "Z/3")


def _unnormalized_forms(nerve, max_degree):
    """Certified dense Smith forms of the unnormalized d_1..d_{N+1}, the
    second route to every table."""
    return [_certified_smith(nerve.boundary(n)[0])
            for n in range(1, max_degree + 2)]


@pytest.mark.parametrize("module", ["group-ring", "trivial"])
@pytest.mark.parametrize("name", FINITE)
def test_normalized_tables_equal_the_unnormalized_tables(name, module):
    G = get_group(name)
    # the unnormalized d_4 of an order-6 group ring is 1296 x 7776, whose
    # dense certificates are too large for a unit test
    max_degree = 2 if module == "group-ring" and len(G.elements()) == 6 \
        else 3
    forms = _unnormalized_forms(homology._module_nerve(G, module),
                                max_degree)
    for ring in RINGS:
        # the nerve's normalized table, and the resolution's
        assert _nerve_table(G, max_degree, module, ring) == \
            homology_finite(G, max_degree, ring_name=ring,
                            module=module) == \
            _homology_table(ring, forms)


@pytest.mark.parametrize("name", sorted(
    name for name in GROUPOIDS if not name.startswith("translation ")))
def test_normalized_groupoid_tables_equal_the_unnormalized_tables(name):
    gpd = GROUPOIDS[name]
    max_degree = 1 if name in DEGREE_ONE_ONLY else 2
    forms = _unnormalized_forms(gpd.nerve(), max_degree)
    for ring in RINGS:
        assert dy.groupoid_homology_finite(gpd, max_degree,
                                           ring_name=ring) == \
            _homology_table(ring, forms)
        assert dy.groupoid_cohomology_finite(gpd, max_degree,
                                             ring_name=ring) == \
            _homology_table(ring, forms, cohomology=True)


def _rows(table):
    return [(row["betti"], row["torsion"]) for row in table]


def _nerve_table(G, max_degree, module, ring="Z"):
    """A group's table off its module nerve, the route of groups with no
    formula resolution."""
    return _homology_table(
        ring, homology._module_nerve(G, module).smiths(max_degree))


def test_degree_four_and_five_tables_are_reachable(monkeypatch):
    """On the nerve, the route of groups with no formula resolution."""
    shapes = _table_inputs(monkeypatch, lambda M: M.shape)
    assert _rows(_nerve_table(get_group("Z/6"), 4, "trivial")) \
        == [(1, []), (0, [6]), (0, []), (0, [6]), (0, [])]
    # d_5 : C_5 -> C_4 on the 5^5 and 5^4 walks with no identity
    assert shapes[-1] == (625, 3125)
    assert _rows(_nerve_table(get_group("D3"), 4, "trivial")) \
        == [(1, []), (0, [2]), (0, []), (0, [6]), (0, [])]
    assert _nerve_table(get_group("Z/2xZ/2"), 5, "trivial") == \
        expect.homology_table("Z/2xZ/2", 5, "Z", "trivial", 1)
    # without the spy, which would build d_6 (3125 x 15625) dense
    monkeypatch.undo()
    for name, max_degree, module in [("Z/6", 5, "trivial"),
                                     ("D3", 5, "trivial"),
                                     ("Z/6", 4, "group-ring"),
                                     ("D3", 4, "group-ring")]:
        assert _nerve_table(get_group(name), max_degree, module) == \
            expect.homology_table(name, max_degree, "Z", module, 1)


# -- the bottom-up reduction of the normalized complex ------------------------

# the largest boundary the tests below read densely: d_3 of an order-6
# group ring, 216 x 1296
DENSE_CELLS = 216 * 1296
TABLE_NERVES = sorted([f"{name} {module}" for name in FINITE
                       for module in ("group-ring", "trivial")]
                      + list(GROUPOIDS))


def _table_nerve(key):
    """A fresh nerve of TABLE_NERVES: a gallery group under a module, or
    a gallery groupoid."""
    if key in GROUPOIDS:
        return GROUPOIDS[key].nerve()
    name, module = key.split(" ")
    return homology._module_nerve(get_group(name), module)


def _reference(key):
    """The object-keyed oracle of the nerve of a TABLE_NERVES key, built
    from the group, units, elements and action that nerve is built from:
    for a group, its elements in ball order acting on themselves
    ("group-ring") or on one point ("trivial"); for a groupoid, its
    units and the elements sorted by repr."""
    if key in GROUPOIDS:
        gpd = GROUPOIDS[key]
        G = gpd.action.group
        return oracles.ReferenceNerve(G, gpd.units,
                                      sorted(G.elements(), key=repr),
                                      gpd.action)
    name, module = key.split(" ")
    G = get_group(name)
    if module == "group-ring":
        return oracles.ReferenceNerve(G, G.elements(), G.elements(), G.mul)
    return oracles.ReferenceNerve(G, ["pt"], G.elements(), lambda g, x: x)


def _boundary_columns(nerve, ref, n, normalized):
    """d_n as sparse columns over Python ints, and its row count.  It is
    read off Nerve.boundary, through oracles.normalized_boundary for the
    normalized complex, when the unnormalized d_n has at most
    DENSE_CELLS entries; else it is built by the object-keyed oracle
    ref of the same nerve."""
    if len(ref.points(n - 1)) * len(ref.points(n)) <= DENSE_CELLS:
        M, row, col = nerve.boundary(n)
        if normalized:
            M = oracles.normalized_boundary(M, row.points, col.points,
                                            nerve.group.identity())
        return _columns(M), M.shape[0]
    return ref.columns(n, normalized)


def _compose(left, right):
    """The sparse columns of L R, L and R given by sparse columns."""
    out = []
    for col in right:
        acc = {}
        for r, v in col.items():
            for l, a in left[r].items():
                acc[l] = acc.get(l, 0) + a * v
        out.append({l: w for l, w in acc.items() if w})
    return out


@pytest.mark.parametrize("key", TABLE_NERVES)
def test_boundaries_compose_to_zero(key):
    """d_n d_{n+1} = 0 exactly, over Python ints, on the unnormalized
    and the normalized complex, up to d_4: the premise of the bottom-up
    reduction.  d_4 of the dihedral-flip combined action (20736 x 248832
    unnormalized) is left out."""
    nerve, ref = _table_nerve(key), _reference(key)
    top = 3 if key == "dihedral-flip combined" else 4
    for normalized in (False, True):
        below, _ = _boundary_columns(nerve, ref, 1, normalized)
        for n in range(2, top + 1):
            above, n_rows = _boundary_columns(nerve, ref, n, normalized)
            assert n_rows == len(below)
            assert not any(_compose(below, above))
            below = above


def _full_normalized_form(ref, n):
    """A certified form of the whole normalized d_n, no row dropped, as
    the object-keyed oracle ref builds it: its dense Smith form when it
    has at most DENSE_CELLS entries, else the sparse front end on every
    row (for d_4 of the order-6 group rings, 750 x 3750, and d_3 of the
    product-coupling and z4-z2-twist combined actions, 392 x 2744, whose
    dense V would hold 14M and 7.5M entries)."""
    columns, n_rows = ref.columns(n, normalized=True)
    if n_rows * len(columns) <= DENSE_CELLS:
        return _certified_smith(homology._dense(columns, n_rows))
    return homology._certified_divisors(columns, n_rows)


@pytest.mark.parametrize("key", TABLE_NERVES)
def test_bottom_up_tables_equal_the_full_normalized_tables(key):
    """Tables read off smiths, which drops the rows each reduction
    settled, equal tables read off certified forms of the whole
    normalized d_n: each group to degree 3, each groupoid as far as the
    pinned grid goes."""
    max_degree = len(_pinned(key)) - 1 if key in GROUPOIDS else 3
    nerve, ref = _table_nerve(key), _reference(key)
    want = [_full_normalized_form(ref, n)
            for n in range(1, max_degree + 2)]
    got = nerve.smiths(max_degree)
    assert [form.shape for form in got] == [form.shape for form in want]
    for ring in RINGS:
        for cohomology in (False, True):
            assert _homology_table(ring, got, cohomology=cohomology) == \
                _homology_table(ring, want, cohomology=cohomology)
    if key in GROUPOIDS:
        # and through the groupoid API
        assert dy.groupoid_cohomology_finite(
            GROUPOIDS[key], max_degree, ring_name="Z/2") == \
            _homology_table("Z/2", want, cohomology=True)
    else:
        name, module = key.split(" ")
        assert homology_finite(get_group(name), max_degree,
                               module=module) == _homology_table("Z", want)


def test_a_forged_first_elimination_fails_before_any_row_is_dropped(
        monkeypatch):
    nerve = homology._module_nerve(get_group("Z/4"), "group-ring")
    real = homology._eliminate_units
    monkeypatch.setattr(homology, "_eliminate_units",
                        lambda cols: _forge_row(*real(cols)))
    row_indices, real_sums = [], homology._face_code_columns

    def spy(codes, n, row_index, *tables):
        row_indices.append(dict(row_index))
        return real_sums(codes, n, row_index, *tables)

    monkeypatch.setattr(homology, "_face_code_columns", spy)
    with pytest.raises(RuntimeError, match="replay"):
        nerve.smiths(2)
    # d_1 alone was assembled, on every row
    assert len(row_indices) == 1
    assert None not in row_indices[0].values()


def _code(nerve, point):
    """The code of a point on the integer tables of a Nerve."""
    x, gvec = point
    code = nerve.units.index(x)
    for g in gvec:
        code = code * len(nerve.elements) + nerve.elements.index(g)
    return code


@pytest.mark.parametrize("key", TABLE_NERVES)
def test_code_faces_equal_the_point_faces(key):
    """The integer walks and face assembly of both complexes against
    the object-keyed oracle, to d_3: the codes of each walk are those of
    the oracle's points, in order, and each d_n, no row dropped, equals
    the oracle's face sums."""
    nerve, ref = _table_nerve(key), _reference(key)
    for normalized, skip in ((False, None), (True, nerve._e)):
        walks = nerve._walks(skip)
        next(walks)
        for n in range(1, 4):
            codes = [code for code, _ in next(walks)]
            assert codes == [_code(nerve, p)
                             for p in ref.points(n, normalized)]
            rows = {_code(nerve, p): i
                    for i, p in enumerate(ref.points(n - 1, normalized))}
            assert homology._face_code_columns(
                codes, n, rows, nerve._back, nerve._mul, skip,
                len(nerve._mul)) == \
                ref.columns(n, normalized)[0]


@pytest.mark.parametrize("key", TABLE_NERVES)
def test_decoded_points_equal_the_oracle_points(key):
    """Nerve.points decodes the codes of the unnormalized walk into the
    oracle's points, in order, to degree 3."""
    nerve, ref = _table_nerve(key), _reference(key)
    for n in range(4):
        assert nerve.points(n) == ref.points(n)


def test_tables_build_no_point_or_face_tuple(monkeypatch):
    """smiths neither decodes a point nor builds a face tuple: a group
    table and a groupoid table, each equal to the one read before the
    decoding, the boundaries on points and the face tuples on points
    (complexes._faces) are taken away."""
    gpd = GROUPOIDS["z4-z2-kakutani X kakutani"]
    want = (_nerve_table(get_group("D3"), 3, "group-ring"),
            dy.groupoid_homology_finite(gpd, 2))

    def forbidden(*args, **kwargs):
        raise AssertionError("a table read an object-keyed point or face")

    for name in ("points", "boundary"):
        monkeypatch.setattr(Nerve, name, forbidden)
    monkeypatch.setattr(complexes, "_faces", forbidden)
    assert _nerve_table(get_group("D3"), 3, "group-ring") == want[0]
    assert dy.groupoid_homology_finite(gpd, 2) == want[1]
