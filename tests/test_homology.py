"""Integer Smith reduction with certificates, finite homology against
closed-form oracles, the window boundary solver, and induced maps."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsehom import homology
from coarsehom.complexes import Chain, _faces, boundary, random_chain
from coarsehom.dynamics import action_groupoid, translation_action
from coarsehom.errors import (InvalidElementError, NotACycleError,
                              ResourceLimitError)
from coarsehom.gallery import get_group, get_map
from coarsehom.groups import IntLattice, cyclic_group, trivial_group
from coarsehom.homology import (_component_count, assemble_boundary_matrix,
                                h0_coinvariants, homology_finite,
                                induced_map_on_homology, is_boundary_window,
                                smith_normal_form)
from coarsehom.rings import ring_from_name

import oracles

Z = IntLattice(1)
ZR = ring_from_name("Z")
QR = ring_from_name("Q")


# -- Smith normal form -------------------------------------------------------

def test_snf_frozen_divisors():
    assert smith_normal_form(np.array([[2, 4], [6, 8]])).divisors == [2, 4]
    assert smith_normal_form(np.array([[4, 0], [0, 6]])).divisors == [2, 12]
    s = smith_normal_form(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    assert s.divisors == [1, 3, 0]
    assert s.rank == 2
    assert s.elementary_divisors() == [1, 3]


def test_snf_degenerate_shapes():
    assert smith_normal_form(np.array([[0]])).rank == 0
    assert smith_normal_form(np.zeros((0, 3), dtype=np.int64)).rank == 0
    assert smith_normal_form(np.zeros((3, 0), dtype=np.int64)).rank == 0


@st.composite
def int_matrices(draw):
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    rows = [[draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)]
    return np.array(rows, dtype=np.int64)


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_snf_certificates_and_chain(A):
    s = smith_normal_form(A)
    assert s.verify(A)
    divs = s.elementary_divisors()
    assert all(d > 0 for d in divs)
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0
    # all diagonal entries past the rank are zero
    assert all(d == 0 for d in s.divisors[s.rank:])


@pytest.mark.parametrize("shape,big,int64", [
    pytest.param((3, 5), False, False, id="shape0-False"),
    pytest.param((3, 5), True, False, id="shape1-True"),
    pytest.param((4, 70), False, False, id="shape2-False"),
    pytest.param((3, 5), False, True, id="int64-3x5"),
    pytest.param((4, 70), False, True, id="int64-4x70")])
def test_snf_verify_rejects_a_changed_certificate(shape, big, int64):
    # 70 columns give a 70 x 70 V V^-1 product; big entries take the
    # object-dtype path; an int64 matrix takes the int64 products, an
    # object one the Python-int sums
    A = np.random.default_rng(7).integers(-9, 10, size=shape).astype(object)
    if big:
        A = A * 2 ** 40
    if int64:
        A = A.astype(np.int64)
    for name in ("U", "V", "Vinv"):
        s = smith_normal_form(A)
        assert s.verify(A)
        getattr(s, name)[0, 0] += 1
        assert not s.verify(A), name


def test_snf_verify_rejects_a_wrong_inverse_that_random_probes_miss():
    """A forged V^-1 that passes any check of V V^-1 w == w on the three
    probe vectors w of random.Random(0).choices(range(-9, 10), k=70):
    row rank of V^-1 plus a vector z orthogonal to all three.  U A ==
    D V^-1 reads only the first rank rows of V^-1, so only an exact
    V V^-1 == I rejects it."""
    A = np.random.default_rng(7).integers(-9, 10, size=(4, 70))
    s = smith_normal_form(A)
    assert s.verify(A) and s.rank == 4
    rng = random.Random(0)
    probes = [rng.choices(range(-9, 10), k=70) for _ in range(3)]
    # z on the first four coordinates: the cofactors of the 3 x 4 block
    # of the probes, so z . w is the determinant of a matrix with a
    # repeated row
    block = [w[:4] for w in probes]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    z = [(-1) ** j * det3([[r[i] for i in range(4) if i != j]
                           for r in block]) for j in range(4)] + [0] * 66
    assert any(z)
    assert all(sum(a * b for a, b in zip(z, w)) == 0 for w in probes)
    s.Vinv[s.rank] += np.array(z, dtype=s.Vinv.dtype)
    assert not s.verify(A)


def test_snf_verify_rescans_a_certificate_changed_after_use():
    # A's first row is even, so adding 2^63 to U[0, 0] leaves U A the
    # same modulo 2^64: only a fresh bound on |U| keeps that product
    # out of int64
    A = np.array([[2, 4, 6], [3, 5, 7], [1, 0, 2]], dtype=np.int64)
    s = smith_normal_form(A)
    assert s.verify(A)
    assert s.solve([2, 3, 1], "Z")[2] is None
    s.U[0, 0] += -2 ** 63 if s.U[0, 0] >= 0 else 2 ** 63
    assert not s.verify(A)


def test_snf_verify_rejects_u_and_the_divisors_doubled():
    # 2U A V = 2D and V V^-1 = I still hold: only det U = +-8 shows the
    # forged divisors [4, 4, 312] are not those of A
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    s = smith_normal_form(A)
    s.U, s.divisors = 2 * s.U, [2 * d for d in s.divisors]
    assert s.divisors == [4, 4, 312] and not s.verify(A)


@st.composite
def minor_matrices(draw):
    """Integer matrices up to 4 x 4, or one column of up to 30 rows, as
    lists of rows, some of their rows and columns zero, with entries past
    2^63 among the small ones."""
    r, c = draw(st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                          st.tuples(st.integers(1, 30), st.just(1))))
    entry = st.one_of(st.integers(-6, 6), st.integers(2 ** 63, 2 ** 66),
                      st.integers(-2 ** 66, -2 ** 63))
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=r - 1)):
        rows[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=c - 1)):
        for row in rows:
            row[j] = 0
    return rows


@given(minor_matrices())
@settings(max_examples=150, deadline=None)
@example([[2 ** 64, 0], [0, 3 * 2 ** 64]])
@example([[0, 0, 0], [0, 4, 6], [0, 6, 4], [0, 0, 0]])
def test_determinantal_divisors_are_the_smith_divisors(rows):
    assert homology._determinantal_divisors(rows) == \
        smith_normal_form(rows).elementary_divisors()


def _unimodular_matrix(rng, n):
    """A product of random elementary integer row operations."""
    M = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        M[i] += rng.choice([-3, -2, -1, 1, 2, 3]) * M[j]
        if rng.random() < 0.3:
            M[[i, j]] = M[[j, i]]
    return M


@pytest.mark.parametrize("seed", range(40))
def test_unimodular_matches_the_leibniz_determinant(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    for M in (_unimodular_matrix(rng, n),
              np.array([[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(n)]), 2 * _unimodular_matrix(rng, n)):
        det = oracles.determinant(M.tolist())
        assert homology._det(M.tolist()) == det
        assert homology._unimodular(M) == (abs(det) == 1), M


@pytest.mark.parametrize("M, want", [
    ([[2, 3], [3, 5]], True),         # det 1 with no unit entry
    ([[2, 3], [4, 6]], False),        # det 0
    ([[1, 0, 0], [0, 2, 3], [0, 4, 5]], False),   # det -2
    ([[1, 0], [0, 0]], False),        # a zero row and column
])
def test_unimodular_reads_a_remainder_with_no_unit_pivot(M, want):
    assert homology._unimodular(np.array(M)) is want


def test_snf_verify_checks_the_certificate_over_python_ints(monkeypatch):
    # entries of 2^33 and more keep the reduction and every product of
    # verify out of int64: all of them run over Python ints
    A = np.random.default_rng(3).integers(-9, 10, size=(4, 6)) * 2 ** 33
    dtypes, real = [], homology._product

    def spy(*args):
        out = real(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(homology, "_product", spy)
    for name in ("U", "Vinv"):
        s = smith_normal_form(A)
        assert s.U.dtype == object and s.verify(A)
        getattr(s, name)[0, 0] += 1
        assert not s.verify(A), name
    assert dtypes and all(dt == object for dt in dtypes)


@given(st.integers(1, 5), st.integers(0, 5), st.integers(1, 5),
       st.sampled_from([2 ** 20, 2 ** 40, 2 ** 62, 2 ** 70]), st.data())
@settings(max_examples=60, deadline=None)
def test_product_matches_the_triple_loop(r, inner, c, bound, data):
    """The sparse accumulation against the schoolbook sum: in int64 when
    its bound allows, over Python ints from int64 inputs whose bound
    does not (2^40, 2^62), and from object inputs (2^70)."""
    entries = st.integers(-bound, bound)
    X = [[data.draw(entries) for _ in range(inner)] for _ in range(r)]
    Y = [[data.draw(entries) for _ in range(c)] for _ in range(inner)]
    want = [[sum(X[i][t] * Y[t][j] for t in range(inner))
             for j in range(c)] for i in range(r)]
    dtype = np.int64 if bound < 2 ** 63 else object
    Xa = np.array(X, dtype=object).reshape(r, inner).astype(dtype)
    Ya = np.array(Y, dtype=object).reshape(inner, c).astype(dtype)
    got = homology._product(Xa, Ya)
    assert got.shape == (r, c) and got.tolist() == want


def _smith_in_python_ints(A):
    """smith_normal_form run over Python ints (object dtype) from the
    first step: with the promotion limit at 0 no matrix stays int64."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_PROMOTE_LIMIT", 0)
        return smith_normal_form(A)


def _assert_int64_start_matches_object_start(A):
    fast, exact = smith_normal_form(A), _smith_in_python_ints(A)
    assert exact.U.dtype == object
    assert fast.divisors == exact.divisors
    for name in ("U", "V", "Vinv"):
        assert getattr(fast, name).tolist() == getattr(exact, name).tolist()
    assert fast.verify(A) and exact.verify(A)
    return fast


@st.composite
def wide_int_matrices(draw):
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-9, 9), st.integers(-2 ** 30, 2 ** 30))
    return np.array([[draw(entry) for _ in range(c)] for _ in range(r)],
                    dtype=np.int64)


@given(wide_int_matrices())
@settings(max_examples=100, deadline=None)
def test_snf_int64_start_matches_object_start(A):
    _assert_int64_start_matches_object_start(A)


@pytest.mark.parametrize("rows,divisors", [
    # small entries, but the third pivot step pushes an entry past 2^31
    ([[1, 1, 2, 0], [-44314, 0, -3320, -1], [2, 0, 2, 1],
      [-31308, 2, 1, -1]], [1, 1, 1, 103835632]),
    # the divisibility fix at the second step adds two rows of U into
    # one past 2^31, while every entry written after it stays small
    ([[1, 0, 0], [1073741829, -4, -2], [0, 3, 2]], [1, 1, 2])])
def test_snf_promotion_partway_matches_object_start(rows, divisors):
    s = _assert_int64_start_matches_object_start(
        np.array(rows, dtype=np.int64))
    assert s.U.dtype == object
    assert s.divisors == divisors


# at step 1 the bound max|q| max|V^-1 rows| (row count) of the V^-1
# update passes 2^63 (quotients near 2^31, a row near 2^30, five rows),
# although its sums stay near 2^33
GUARD_TRIPPING = [[2, -2147483642, -2147483643, 0, -3, 3, -2],
                  [0, 2147483643, -3, 0, -3, 3, -1073741820],
                  [0, 1073741823, 3, -1073741827, 2, 1073741825, -2147483645]]


def test_snf_vinv_update_guard_trips_and_matches_object_start():
    real, seen = homology._update_fits_int64, []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_update_fits_int64", spy)
        s = _assert_int64_start_matches_object_start(
            np.array(GUARD_TRIPPING, dtype=np.int64))
    assert False in seen and s.U.dtype == object


@given(wide_int_matrices())
@settings(max_examples=40, deadline=None)
def test_snf_promotion_before_every_vinv_update_matches_object_start(A):
    # trip the guard at every update: each promotes in the middle of a
    # column pass, after M and V are written and before V^-1 is
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_update_fits_int64", lambda *args: False)
        _assert_int64_start_matches_object_start(A)


def _digest(X):
    X = np.asarray(X)
    return hashlib.sha256(
        f"{X.dtype}:{X.shape}:{X.tolist()}".encode()).hexdigest()


def _window_matrix():
    """The dense matrix of the window (2, 1) of a fixed degree-1 cycle,
    as the dense route of is_boundary_window builds it: rows in order of
    first appearance among the faces, then the support of the cycle."""
    c = Chain(Z, ZR, 1, 2)
    c.add_at((0,), ((1,), (-1,)), (2,))
    c.add_at((1,), ((0,), (1,)), (-3,))
    cycle = boundary(c)
    faces = [_faces(Z, x, gvec)
             for x, gvec in oracles.window_basis(Z, 2, 2, 1)]
    row_index = {}
    for f in [f for fs in faces for f in fs] + list(cycle.data):
        row_index.setdefault(f, len(row_index))
    return oracles.face_sum_matrix(range(len(faces)), row_index,
                                   faces.__getitem__)


# sha256 of U, V, V^-1 (dtype, shape, values) and of the divisors under
# the pivot rule (least absolute value, first in row-major order) and
# its row and column operations: a change to either moves them
PINNED_SMITH = {
    "z4-trivial-d3-rank2": (
        lambda: assemble_boundary_matrix(cyclic_group(4), 3, module="trivial",
                                         rank=2)["matrix"],
        {"U": "7b6e7966c5580043041b09324f07ac93"
              "bea6597700716bf2a704481ffa7c087f",
         "V": "59eeea7f68fecaf39360332ed39f23f0"
              "eac7dff1d7e8961a0069659d2c2bbbea",
         "Vinv": "8a2869e362be9d6ae0ade7c1b6c2fabe"
                 "4eb82aebaa7b7ea64b12ad9c73cbeb02",
         "divisors": "081314068381dcad5ebe0febce194eca"
                     "3bc8164177c9e4b0b6fc5734850abc1e"}),
    "z3-group-ring-d2": (
        lambda: assemble_boundary_matrix(cyclic_group(3), 2)["matrix"],
        {"U": "443a7d3fb9c4af65d6a1dd6387c62dfc"
              "029b69a63a98702d7dd7388f0edb64a0",
         "V": "3d98daf920487bafe75bd0ef39bba2a2"
              "84329b1cda4a8c9fd6ac68a04fd9604b",
         "Vinv": "3a391e4e8f01ad6b9a7b0321995f07d7"
                 "a04eb3f9286414604b133e55fd841e72",
         "divisors": "0d0ec4056df7cbdc06c1ba5e58450d4b"
                     "4546ef7953ad1e4af2412d50fd5b6d96"}),
    "z4-translation-groupoid-d2": (
        lambda: action_groupoid(translation_action(cyclic_group(4)))
        .nerve().boundary(2)[0],
        {"U": "ee2b9158270759ebb1a30456780ad5ca"
              "f8435a8e855c3143904305a03bee06b6",
         "V": "72de83c8f6a324cbede1a8910e897b41"
              "1b69e883c1e1c96bdab32fd2d1c9ee36",
         "Vinv": "8d22a6a2a0fd3f6ba3ca2058ca88c464"
                 "f3c5027bfbe4728217397c71b09c7d9c",
         "divisors": "3b5023b7e953e351a31c61c48d7f88e2"
                     "17c79150b6593d111c86a0920ac514af"}),
    "z-window-degree-2": (
        _window_matrix,
        {"U": "ea81d0ad9f6410377dfa369c6427ca02"
              "bfd165595d95e991c9a97ab6d70040c8",
         "V": "1ca9c670bb6b6650b0193bc3afaef5de"
              "543f6bc328f2cb57b14d69d7bb10fce0",
         "Vinv": "750f637a5f81c8f637cb304038e06465"
                 "29380bdc6cd0965b2474a934582c5219",
         "divisors": "a64556fbcc46382842dce76af1a081df"
                     "026426f71c89a4d83a742fd1d078304e"}),
}


@pytest.mark.parametrize("name", sorted(PINNED_SMITH))
def test_snf_pivot_rule_pinned(name):
    build, want = PINNED_SMITH[name]
    s = smith_normal_form(build())
    got = {"U": _digest(s.U), "V": _digest(s.V), "Vinv": _digest(s.Vinv),
           "divisors": hashlib.sha256(repr(s.divisors).encode()).hexdigest()}
    assert got == want


@given(int_matrices())
@settings(max_examples=50, deadline=None)
def test_snf_kernel_annihilated(A):
    # scale 2^40 makes U, V and V^-1 object arrays and the kernel vector
    # too large for int64: certificates are applied over Python ints
    for scale in (1, 2 ** 40):
        s = smith_normal_form(A * scale)
        K = np.asarray(s.kernel_basis(), dtype=object)
        assert np.all(np.asarray(A, dtype=object) @ K == 0)
        # coordinates of a kernel vector round-trip through the basis
        if K.shape[1]:
            w = [int(t) for t in K @ np.array([scale ** 2] * K.shape[1],
                                              dtype=object)]
            coords = s.kernel_coordinates(w)
            back = K @ np.array(list(coords), dtype=object)
            assert [int(t) for t in back] == w


@given(int_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_snf_solve_recovers_an_image(A, data):
    z = data.draw(st.lists(st.integers(-9, 9), min_size=A.shape[1],
                           max_size=A.shape[1]))
    # scale 2^40 on A and on z makes U, V and V^-1 object arrays and b
    # too large for int64: certificates are applied over Python ints
    for scale in (1, 2 ** 40):
        Ao = np.asarray(A, dtype=object) * scale
        b = [int(t) for t in Ao @ np.array(z, dtype=object) * scale]
        s = smith_normal_form(Ao)
        x, m, obstruction = s.solve(b, "Z")
        assert obstruction is None and m == 1
        assert [int(t) for t in Ao @ np.array(x, dtype=object)] == b
        x, m, obstruction = s.solve(b, "Q")
        assert obstruction is None and m >= 1
        assert [int(t) for t in Ao @ np.array(x, dtype=object)] == \
            [m * t for t in b]


def test_kernel_coordinates_rejects_non_kernel_vector():
    A = np.array([[1, 0], [0, 1]])
    s = smith_normal_form(A)
    with pytest.raises(NotACycleError):
        s.kernel_coordinates([1, 0])


# -- homology of finite complexes ---------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_cyclic_trivial_homology_matches_oracle(m):
    got = homology_finite(cyclic_group(m), 3, module="trivial")
    for n, h in enumerate(got):
        want = oracles.cyclic_homology(m, n)
        assert h["betti"] == want["betti"], (m, n)
        assert h["torsion"] == want["torsion"], (m, n)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_group_ring_homology_vanishes(m):
    got = homology_finite(cyclic_group(m), 2, module="group-ring")
    for n, h in enumerate(got):
        want = oracles.group_ring_homology(n)
        assert h["betti"] == want["betti"]
        assert h["torsion"] == want["torsion"]


@pytest.mark.parametrize("m,p", [(2, 2), (2, 3), (3, 3), (4, 2), (6, 2),
                                 (6, 3), (6, 5)])
def test_cyclic_mod_p_dimensions_match_oracle(m, p):
    got = homology_finite(cyclic_group(m), 3, ring_name=f"Z/{p}",
                          module="trivial")
    for n, h in enumerate(got):
        assert h["betti"] == oracles.cyclic_homology_mod_p(m, n, p), (m, p, n)
        assert h["torsion"] == []


def test_rational_homology_of_cyclic_group():
    got = homology_finite(cyclic_group(4), 3, ring_name="Q",
                          module="trivial")
    assert [h["betti"] for h in got] == [1, 0, 0, 0]


def test_homology_ring_restrictions():
    with pytest.raises(InvalidElementError):
        homology_finite(cyclic_group(2), 1, ring_name="Z/4")
    with pytest.raises(InvalidElementError):
        homology_finite(cyclic_group(2), 1, ring_name="Z/6")


@pytest.mark.parametrize("ring", ["Z/0", "Z/1", "Z/-3", "Z/x", "R", "Z/4",
                                  "Z/6"])
def test_homology_rejects_rings_other_than_z_and_fields(ring):
    # one error type for every rejected name, malformed moduli included
    with pytest.raises(InvalidElementError):
        homology_finite(cyclic_group(2), 1, ring_name=ring)


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/2", "Z/7"])
def test_homology_accepts_z_and_fields(ring):
    assert [h["ring"] for h in homology_finite(cyclic_group(2), 1,
                                               ring_name=ring)] == [ring] * 2


def test_homology_needs_finite_group():
    with pytest.raises(ResourceLimitError):
        homology_finite(Z, 1)


def test_h0_coinvariants_agrees():
    rep = h0_coinvariants(cyclic_group(4))
    assert rep["betti"] == 1 and rep["torsion"] == [] and rep["agrees"]
    rep2 = h0_coinvariants(cyclic_group(3), rank=2)
    assert rep2["betti"] == 2 and rep2["orbit_count"] == 2 and rep2["agrees"]
    rep3 = h0_coinvariants(trivial_group(), module="trivial")
    assert rep3["betti"] == 1 and rep3["agrees"]


def test_component_count_joins_faces_of_each_column():
    # columns join rows 0-1 and 2-3; a column whose two faces cancel
    # joins nothing
    assert _component_count(4, [[0, 1], [3, 2], [1, 1]]) == 2
    assert _component_count(3, [[0, 0], [2, 2]]) == 3


def test_boundary_matrix_squares_to_zero():
    for m in (2, 3):
        G = cyclic_group(m)
        for module in ("group-ring", "trivial"):
            d1 = assemble_boundary_matrix(G, 1, module=module)["matrix"]
            d2 = assemble_boundary_matrix(G, 2, module=module)["matrix"]
            prod = np.asarray(d1, dtype=object) @ np.asarray(d2, dtype=object)
            assert np.all(prod == 0)


@given(st.integers(0, 5), st.integers(0, 6), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_face_sum_matrix_matches_entrywise_loop(nrows, ncols, rank, data):
    """The scattered face sums against the entry-by-entry loop they
    replaced, repeated faces (which add up or cancel) included; at rank
    k the loop writes one identity block per face, which is the kron of
    the rank-free sums with I_k (the layout assemble_boundary_matrix
    documents)."""
    faces = [data.draw(st.lists(st.integers(0, nrows - 1), max_size=4))
             if nrows else [] for _ in range(ncols)]
    want = np.zeros((nrows * rank, ncols * rank), dtype=np.int64)
    for ci, fs in enumerate(faces):
        for i, ri in enumerate(fs):
            for j in range(rank):
                want[ri * rank + j, ci * rank + j] += (-1) ** i
    got = np.kron(oracles.face_sum_matrix(range(ncols), list(range(nrows)),
                                          faces.__getitem__),
                  np.eye(rank, dtype=np.int64))
    assert got.dtype == want.dtype and np.array_equal(got, want)


# -- window boundary solving ---------------------------------------------------

def test_window_finds_verified_preimage():
    c = Chain(Z, ZR, 1, 2)
    c.add_at((0,), ((1,), (2,)), (1,))
    c.add_at((3,), ((2,), (1,)), (-2,))
    cycle = boundary(c)
    res = is_boundary_window(cycle, 4, 4)
    assert res["verdict"] is True
    assert res["obstruction"] is None
    assert boundary(res["preimage"]) == cycle


def test_window_obstruction_for_nontrivial_class():
    # a point mass in degree 0 has augmentation 1, never a boundary
    c = Chain(Z, ZR, 1, 0)
    c.add_at((0,), (), (1,))
    res = is_boundary_window(c, 3, 3)
    assert res["verdict"] is False
    assert res["preimage"] is None
    assert res["obstruction"]["kind"] in ("divisibility", "out-of-image")


def test_window_too_small_then_large_enough():
    c = Chain(Z, ZR, 1, 0)
    c.add_at((10,), (), (1,))
    c.add_at((0,), (), (-1,))
    small = is_boundary_window(c, 3, 3)
    assert small["verdict"] is False
    assert small["obstruction"]["kind"] == "out-of-image"
    big = is_boundary_window(c, 10, 10)
    assert big["verdict"] is True
    assert boundary(big["preimage"]) == c


def test_window_over_rationals():
    from fractions import Fraction
    c = Chain(Z, QR, 1, 1)
    c.add_at((0,), ((2,),), (Fraction(1, 2),))
    cycle = boundary(c)
    res = is_boundary_window(cycle, 3, 3)
    assert res["verdict"] is True
    assert boundary(res["preimage"]) == cycle


def test_window_guards():
    not_cycle = Chain(Z, ZR, 1, 1)
    not_cycle.add_at((0,), ((1,),), (1,))
    with pytest.raises(NotACycleError):
        is_boundary_window(not_cycle, 2, 2)
    modp = Chain(Z, ring_from_name("Z/5"), 1, 0)
    with pytest.raises(InvalidElementError):
        is_boundary_window(modp, 2, 2)
    wide = Chain(Z, ZR, 1, 0)
    wide.add_at((0,), (), (1,))
    with pytest.raises(ResourceLimitError):
        is_boundary_window(wide, 3, 3, column_cap=5)


# the windows of the window-solve benchmark menu (perfbench/workloads.py):
# group, x_radius, tuple_radius; each runs over Z and Q
WINDOW_KINDS = [("F2", 1, 1), ("Dinf", 2, 1), ("Dinf", 2, 2), ("Z", 2, 1),
                ("Z", 2, 2), ("Z", 3, 3), ("Z", 4, 3), ("Z2", 2, 1)]


def _row_points(win, row_index, degree):
    """The rows of a coded window as points: a code decoded over the
    window's units and elements, a point outside them as it is keyed."""
    size = len(win.elements)
    return [homology._decode(k, degree, win.units, win.elements, size)
            if isinstance(k, int) else k for k in row_index]


def _assert_coded_window_is_reference(cycle, x_radius, tuple_radius):
    """The coded window system of a cycle against the reference window
    assembly on points: the same columns in the same order, the same
    sparse columns over the same rows in the same order, and the same
    right-hand side."""
    n = cycle.degree
    win = homology._Window(cycle.group, n + 1, x_radius, tuple_radius,
                           10 ** 6)
    columns, row_index, b, _ = win.system(cycle)
    cols, want_columns, want_rows, want_b = oracles.window_system(
        cycle, x_radius, tuple_radius)
    assert win.n_columns == len(cols)
    assert [win.column_point(j) for j in range(len(cols))] == cols
    assert columns == want_columns
    assert _row_points(win, row_index, n) == want_rows
    assert b == want_b
    return win, row_index


@pytest.mark.parametrize("ring", ["Z", "Q"])
@pytest.mark.parametrize("group,x_radius,tuple_radius", WINDOW_KINDS)
def test_coded_window_equals_reference_assembly(group, x_radius,
                                                 tuple_radius, ring):
    """On the cycles window-boundary reports draw (the boundary of a
    seeded degree-2 chain of radius max(x_radius - 1, 1)) and on ones a
    radius larger, some of which leave the window, at several seeds."""
    G = get_group(group)
    for seed in (0, 1, 7):
        for radius in (max(x_radius - 1, 1), x_radius + 1):
            cycle = boundary(random_chain(G, ring_from_name(ring), 1, 2,
                                          radius, terms=3, seed=seed))
            _assert_coded_window_is_reference(cycle, x_radius,
                                              tuple_radius)


def test_coded_window_keys_points_outside_the_codes_by_tuple():
    """A support point whose unit or whose tuple entry lies outside the
    window's units and elements is a row keyed by the point itself,
    numbered after the faces, as in the reference."""
    c = Chain(Z, ZR, 1, 2)
    c.add_at((9,), ((1,), (-1,)), (1,))         # unit outside ball(2)
    c.add_at((0,), ((5,), (1,)), (2,))          # entry outside ball(2)
    cycle = boundary(c)
    win, row_index = _assert_coded_window_is_reference(cycle, 1, 1)
    outside = [k for k in row_index if not isinstance(k, int)]
    assert outside and all(k in cycle.data for k in outside)
    # degree 0: the far point keyed by tuple, the near one by code
    c0 = Chain(Z, ZR, 1, 0)
    c0.add_at((10,), (), (1,))
    c0.add_at((0,), (), (-1,))
    _, rows0 = _assert_coded_window_is_reference(c0, 3, 3)
    assert ((10,), ()) in rows0 and ((0,), ()) not in rows0


def _negative_windows():
    """Cycles and windows that do not bound there: point masses, a cycle
    outside a small window, and the first negative window of each group
    and ring among seeded cycles of radius 2."""
    point = Chain(Z, ZR, 1, 0)
    point.add_at((0,), (), (1,))
    far = Chain(Z, ZR, 1, 0)
    far.add_at((10,), (), (1,))
    far.add_at((0,), (), (-1,))
    out = [(point, 3, 3), (far, 3, 3)]
    for group in ("Z", "Dinf", "Z2", "F2"):
        for ring in ("Z", "Q"):
            for seed in range(10):
                cycle = boundary(random_chain(
                    get_group(group), ring_from_name(ring), 1, 2, 2,
                    terms=3, seed=seed))
                if not is_boundary_window(cycle, 1, 1)["verdict"]:
                    out.append((cycle, 1, 1))
                    break
    return out


def test_negative_window_obstruction_is_the_reference_dense_routes():
    """A negative verdict names the obstruction of the Smith form of the
    reference assembly's dense matrix, which equals the coded columns
    made dense."""
    cases = _negative_windows()
    assert len(cases) >= 6
    for cycle, x_radius, tuple_radius in cases:
        res = is_boundary_window(cycle, x_radius, tuple_radius)
        assert res["verdict"] is False
        cols, _, rows, b = oracles.window_system(cycle, x_radius,
                                                 tuple_radius)
        faces = [oracles.point_faces(cycle.group, x, gvec)
                 for x, gvec in cols]
        A = oracles.face_sum_matrix(range(len(cols)),
                                    {p: i for i, p in enumerate(rows)},
                                    faces.__getitem__)
        win = homology._Window(cycle.group, cycle.degree + 1, x_radius,
                               tuple_radius, 10 ** 6)
        assert np.array_equal(homology._dense(win.columns()[0], len(b)), A)
        want = smith_normal_form(A).solve(b, cycle.ring.name)[2]
        assert want is not None and res["obstruction"] == want


@pytest.mark.parametrize("group,shape", [("Z/4", (16, 64)),
                                         ("D3", (36, 216))])
def test_a_window_that_covers_a_finite_group_is_its_nerve(group, shape):
    """A degree-2 window whose balls cover a finite group holds every
    point of the group-ring nerve on the same code convention, so its
    columns, rows read back as codes, are the nerve's d_2 column for
    column."""
    G = get_group(group)
    win = homology._Window(G, 2, 2, 2, 10 ** 6)
    nerve = homology._module_nerve(G, "group-ring")
    assert (win.units, win.elements) == (nerve.units, nerve.elements)
    columns, row_index = win.columns()
    M = nerve.boundary(2)[0]
    assert M.shape == shape
    code = {r: k for k, r in row_index.items()}
    assert [{code[r]: v for r, v in col.items()} for col in columns] == \
        [{i: v for i, v in enumerate(M[:, j].tolist()) if v}
         for j in range(shape[1])]


def test_a_point_mass_on_a_finite_group_does_not_bound():
    """H_0(Z/4; Z[Z/4]) = Z, read by the coefficient sum, so the point
    mass at the identity lies outside the image of d_1 in a window that
    covers the group."""
    G = get_group("Z/4")
    point = Chain(G, ZR, 1, 0)
    point.add_at(G.identity(), (), (1,))
    res = is_boundary_window(point, 2, 2)
    assert res["verdict"] is False
    assert res["obstruction"]["kind"] == "out-of-image"


def test_window_matrix_is_the_coded_window_made_dense():
    c = Chain(Z, ZR, 1, 2)
    c.add_at((0,), ((1,), (-1,)), (2,))
    c.add_at((1,), ((0,), (1,)), (-3,))
    cycle = boundary(c)
    win = homology._Window(Z, 2, 2, 1, 10 ** 6)
    _, _, b, _ = win.system(cycle)
    assert np.array_equal(homology._dense(win.columns()[0], len(b)),
                          _window_matrix())


def test_positive_window_builds_face_tuples_only_in_boundary(monkeypatch):
    """The window's columns come from codes: every face tuple a positive
    verdict builds is built inside boundary (the cycle check and the
    preimage check)."""
    from coarsehom import complexes
    depth, stray = [0], []
    real_faces, real_boundary = complexes._faces, homology.boundary

    def faces(*args):
        if not depth[0]:
            stray.append(args)
        return real_faces(*args)

    def counted_boundary(chain):
        depth[0] += 1
        try:
            return real_boundary(chain)
        finally:
            depth[0] -= 1

    c = Chain(Z, ZR, 1, 2)
    c.add_at((0,), ((1,), (2,)), (1,))
    c.add_at((3,), ((2,), (1,)), (-2,))
    cycle = boundary(c)
    monkeypatch.setattr(complexes, "_faces", faces)
    monkeypatch.setattr(homology, "boundary", counted_boundary)
    res = is_boundary_window(cycle, 4, 4)
    assert res["verdict"] is True and stray == []


def test_capped_window_builds_no_columns(monkeypatch):
    """The column count |ball(x_r)| |ball(t_r)|^(n+1) is checked before
    any column or code is built: a degree-1 cycle's window (1000, 1000)
    of 2001^3 columns raises at once."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a capped window built its columns")

    monkeypatch.setattr(homology._Window, "columns", forbidden)
    monkeypatch.setattr(homology, "_decode", forbidden)
    c = Chain(Z, ZR, 1, 2)
    c.add_at((0,), ((1,), (2,)), (1,))
    with pytest.raises(ResourceLimitError, match="8012006001 columns"):
        is_boundary_window(boundary(c), 1000, 1000)


@pytest.mark.parametrize("group,tuple_radius", [("Z", 9999), ("F2", 8)])
def test_degree_zero_window_under_the_cap_stays_within_its_columns(
        monkeypatch, group, tuple_radius):
    """A 0-cycle's window (0, t_r) just under the column cap solves, and
    builds no ball, list or table longer than its column count: a
    degree-1 window merges no entries, so it needs no mul table and no
    ball(2 t_r).  A longer ball fails at once, before any table over it
    is built."""
    G = get_group(group)
    e, far = G.ball(0)[0], G.ball(tuple_radius)[-1]
    n_columns, real_ball = len(G.ball(tuple_radius)), G.ball

    def ball(r, *args, **kwargs):
        out = real_ball(r, *args, **kwargs)
        assert len(out) <= n_columns, f"ball({r}) outgrows the window"
        return out

    monkeypatch.setattr(G, "ball", ball)
    win = homology._Window(G, 1, 0, tuple_radius, 20000)
    assert win.n_columns == n_columns <= 20000
    tables = (win.units, win.elements, win._mul,
              [v for row in win._back for v in row])
    assert all(len(t) <= n_columns for t in tables)
    c = Chain(G, ZR, 1, 0)
    c.add_at(far, (), (1,))
    c.add_at(e, (), (-1,))
    res = is_boundary_window(c, 0, tuple_radius)
    assert res["verdict"] is True
    assert res["window"]["columns"] == n_columns
    assert boundary(res["preimage"]) == c


@st.composite
def linear_systems(draw):
    """A small integer system (A, b): entries from -3..3, or from values
    with no unit, so that some matrices have no unit pivot at all; b is
    A z for a drawn z (solvable) or drawn outright."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = draw(st.sampled_from([st.integers(-3, 3),
                                  st.sampled_from([0, 0, 2, -2, 3, 4, -6])]))
    A = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if draw(st.booleans()):
        z = [draw(st.integers(-3, 3)) for _ in range(c)]
        b = [sum(a * zj for a, zj in zip(row, z)) for row in A]
    else:
        b = [draw(st.integers(-3, 3)) for _ in range(r)]
    return A, b


@given(linear_systems(), st.sampled_from(["Z", "Q"]))
@example(([[2]], [1]), "Z")
@example(([[2]], [1]), "Q")
@example(([[2, 0], [0, 3]], [1, 1]), "Z")
@example(([[2, 0], [0, 3]], [1, 1]), "Q")
@example(([[2, 0], [0, 3]], [4, -3]), "Z")
@example(([[1, 1], [1, 3]], [0, 1]), "Z")     # remainder [[2]]
@example(([[1, 1], [1, 3]], [0, 1]), "Q")
@settings(max_examples=200, deadline=None)
def test_sparse_solve_agrees_with_dense_smith(system, ring):
    A, b = system
    r, c = len(A), len(A[0])

    def columns():
        return [{i: A[i][j] for i in range(r) if A[i][j]} for j in range(c)]

    dense = smith_normal_form(A)
    got = homology._solve_sparse(columns(), b, ring)
    assert (got is None) == (dense.solve(b, ring)[2] is not None)
    if got is not None:
        x, m = got
        assert m >= 1 and (ring == "Q" or m == 1)
        assert [sum(a * xj for a, xj in zip(row, x)) for row in A] == \
            [m * bi for bi in b]
    # the unit pivots and the remainder's divisors are A's divisors
    pivots, rest = homology._eliminate_units(columns())
    rows = sorted({i for col in rest.values() for i in col})
    R = [[col.get(i, 0) for col in rest.values()] for i in rows]
    assert [1] * len(pivots) + (smith_normal_form(R).elementary_divisors()
                                if rest else []) == \
        dense.elementary_divisors()


def test_unit_pivots_give_a_window_its_whole_rank():
    # a window's faces carry unit signs, and fill-in keeps finding
    # units: the elimination leaves no remainder for the dense route
    A = _window_matrix()
    pivots, rest = homology._eliminate_units(
        [{i: int(v) for i, v in enumerate(A[:, j]) if v}
         for j in range(A.shape[1])])
    assert rest == {} and len(pivots) == smith_normal_form(A).rank


@pytest.mark.parametrize("A,b,forged", [
    ([[2]], [1], [2]),                # divisibility: 2 b = 0 mod 2
    ([[1], [1]], [1, 0], [1, 0])])    # out-of-image: (1, 0) A != 0
def test_dual_witness_rejects_a_forged_row(A, b, forged):
    s = smith_normal_form(A)
    obstruction = s.solve(b, "Z")[2]
    A = np.array(A, dtype=np.int64)
    homology._check_dual_witness(s.U[obstruction["position"]], A, b,
                                 obstruction)
    with pytest.raises(RuntimeError, match="dual witness"):
        homology._check_dual_witness(np.array(forged), A, b, obstruction)


def test_window_rejects_a_forged_dual_witness(monkeypatch):
    # every row of U past the rank gets twice the first pivot row added,
    # which A does not annihilate; the point mass's obstruction value is
    # odd, so it stays nonzero, and the row the dense route then reads is
    # no valid witness
    real = smith_normal_form

    def forged(A):
        s = real(A)
        s.U = s.U.copy()
        s.U[s.rank:] += 2 * s.U[0]
        return s

    c = Chain(Z, ZR, 1, 0)
    c.add_at((0,), (), (1,))
    assert is_boundary_window(c, 3, 3)["verdict"] is False
    monkeypatch.setattr(homology, "smith_normal_form", forged)
    with pytest.raises(RuntimeError, match="dual witness"):
        is_boundary_window(c, 3, 3)


def test_window_rejects_routes_that_disagree(monkeypatch):
    # a sparse route that rules out a window the dense route solves
    c = Chain(Z, ZR, 1, 1)
    c.add_at((0,), ((1,),), (1,))
    monkeypatch.setattr(homology, "_solve_sparse", lambda *args: None)
    with pytest.raises(RuntimeError, match="disagree"):
        is_boundary_window(boundary(c), 2, 2)


# -- induced maps on homology ----------------------------------------------------

@pytest.mark.parametrize("name", ["triv-into-z2", "z2-to-z3-const",
                                  "z4-mod-z2"])
def test_induced_map_is_iso_on_group_ring_homology(name):
    rep = induced_map_on_homology(get_map(name), 2)
    assert rep["iso_all"], rep
    for d in rep["degrees"]:
        assert d["chain_map_ok"]
        assert d["structure_source"] == d["structure_target"]
        assert d["surjective"]


def test_induced_map_needs_finite_groups():
    with pytest.raises(ResourceLimitError):
        induced_map_on_homology(get_map("z-double"), 1)
