"""Coarse maps: certification, falsification witnesses, sections,
domain decompositions, coarse inverses."""

import pytest
from hypothesis import given, settings, strategies as st

from coarsehom import coarsemaps
from coarsehom.coarsemaps import CoarseMap, _reverse_scan, \
    check_coarse_embedding, check_coarse_map, closeness, compose, \
    decompose_domain, displacement_set, identity_map, omega, section, \
    table_map
from coarsehom.errors import GroupMismatchError, InvalidElementError
from coarsehom.gallery import get_group, get_map, map_names
from coarsehom.groups import IntLattice, cyclic_group

import oracles

Z = IntLattice(1)


def test_displacement_set_frozen():
    phi = get_map("z-double")
    assert displacement_set(phi, (1,), 4) == [(2,)]
    floor = get_map("z-double-floor")
    assert displacement_set(floor, (1,), 4) == [(0,), (2,)]


@pytest.mark.parametrize("name", map_names())
def test_check_reads_displacement_sets_at_both_radii(name):
    """The displacement table and witness of check_coarse_map, whose set
    at the full radius extends the one at the half radius, against
    displacement_set at r // 2 and r, for every generator."""
    for r in (2, 5, 6):
        phi = get_map(name)
        rep = check_coarse_map(phi, r)
        witness = None
        for g in phi.source.generators():
            d_h = displacement_set(get_map(name), g, r // 2)
            d_r = displacement_set(get_map(name), g, r)
            assert rep["displacement_growth"][g] == {
                "at_half": len(d_h), "at_full": len(d_r),
                "stable": d_h == d_r}
            if d_h != d_r and witness is None:
                witness = {"generator": g, "set_at_half": d_h,
                           "set_at_full": d_r}
        assert rep["displacement_witness"] == witness


def test_doubling_certified():
    rep = check_coarse_embedding(get_map("z-double"), 10)
    assert rep["verdict"] == "certified-up-to-10"
    assert rep["coarse_map"]["max_fiber_size"] == 1


def test_abs_falsified_with_witness():
    rep = check_coarse_embedding(get_map("z-abs"), 10)
    assert rep["verdict"] == "falsified"
    assert rep["reverse_witness"]["pair"] == [(10,), (-10,)]
    assert rep["reverse_witness"]["source_length"] == 20
    assert rep["reverse_witness"]["cutoff"] == 0


def test_fat_fiber_embeddings_certified():
    # 2-element fibers straddle the half-radius ball edge; the checks
    # must not mistake that clipping for fiber growth or reverse-bound
    # failure.
    for name in ("z-double-floor", "z-parity-shift"):
        rep = check_coarse_embedding(get_map(name), 8)
        assert rep["verdict"] == "certified-up-to-8", name
        assert rep["coarse_map"]["max_fiber_size"] == 2


def test_coarse_inverse_certifies_as_coarse_map():
    om, _ = omega(get_map("z-double"), 8)
    rep = check_coarse_embedding(om, 8)
    assert rep["verdict"] == "certified-up-to-8"
    assert rep["coarse_map"]["proper_witness"] is None


def test_abelianize_not_proper():
    rep = check_coarse_map(get_map("f2-abelianize"), 6)
    assert rep["verdict"] == "falsified"
    assert rep["max_fiber_size"] >= 13
    assert rep["max_fiber_size"] == oracles.f2_exponent_zero_count(6)


def test_small_radius_inconclusive():
    rep = check_coarse_map(get_map("z-double"), 1)
    assert rep["verdict"] == "inconclusive"


def test_closeness_frozen():
    rep = closeness(get_map("z-double"), get_map("z-double-shift"), 8)
    assert rep["verdict"] == "close"
    assert [h for h, _ in rep["pieces"]] == [(1,)]
    far = closeness(identity_map(Z), get_map("z-double"), 8)
    assert far["verdict"] == "not-close-at-radius"


def test_compose_and_mismatch():
    d = get_map("z-double")
    inc = get_map("z-into-z2")
    comp = compose(inc, d)
    assert comp((3,)) == (6, 0)
    with pytest.raises(GroupMismatchError):
        compose(d, inc)


def test_table_map_policy():
    pairs = [[[0], [0]], [[1], [2]], [[-1], [-2]]]
    t = table_map(Z, Z, pairs, name="partial-double")
    assert t((1,)) == (2,)
    with pytest.raises(InvalidElementError):
        t((5,))


def test_section_validates():
    phi = get_map("z-double")
    sec = section(phi, 8)
    assert sec.validate()
    assert sec.x_of_y[(6,)] == (3,)
    assert phi.witness["validated_radius"] == 8


def test_domain_decomposition_floor_map():
    phi = get_map("z-double-floor")
    dec = decompose_domain(phi, 8)
    assert dec.validate(phi)
    hs = [h for _, _, h in dec.pieces]
    assert hs[0] == phi.target.identity()
    assert len(dec.pieces) == 4
    assert [(g, h) for _, g, h in dec.pieces] == [
        ((0,), (0,)), ((-1,), (0,)), ((-1,), (2,)), ((1,), (0,))]


@given(st.sampled_from(["z-double", "z-double-shift", "z-parity-shift",
                        "z-into-z2", "z-to-dihedral"]),
       st.integers(3, 7))
@settings(max_examples=25, deadline=None)
def test_domain_decomposition_validates(name, radius):
    phi = get_map(name)
    dec = decompose_domain(phi, radius)
    assert dec.validate(phi)


def test_omega_blocks_and_closed_form():
    phi = get_map("z-double")
    om, partition = omega(phi, 12)
    assert partition.hs == [(0,), (1,)]
    for y in phi.target.ball(12):
        assert om(y) == (oracles.doubling_inverse(y[0]),)
    assert om.closeness_to_identity(5) == [(0,)]


def test_omega_finite_constant_map():
    phi = get_map("z2-to-z3-const")
    om, _ = omega(phi, 3)
    for y in phi.target.elements():
        assert om(y) in phi.source.elements()
    comp = compose(phi, om)
    rep = closeness(identity_map(phi.target), comp, 3)
    assert rep["verdict"] == "close"


def test_cached_rule_and_target_check():
    calls = []

    def rule(g):
        calls.append(g)
        return (2 * g[0],)

    phi = CoarseMap(Z, Z, rule, name="counted")
    assert phi((1,)) == (2,)
    assert phi((1,)) == (2,)
    assert calls == [(1,)]
    bad = CoarseMap(Z, Z, lambda g: "junk", name="broken")
    with pytest.raises(InvalidElementError):
        bad((0,))


def test_image_and_fibers_on_ball():
    phi = get_map("z4-mod-z2")
    fibs = phi.fibers_on_ball(4)
    assert fibs[0] == [0, 2]
    assert fibs[1] == [1, 3]


@pytest.mark.parametrize("name", [n for n in map_names()
                                  if n != "f2-abelianize"])
def test_reverse_scan_matches_pair_by_pair_reference(name):
    for r in (4, 7, 10):
        assert check_coarse_map(get_map(name), r)["verdict"] != "falsified"
        for radius in (r // 2, r):
            want = oracles.reverse_scan(get_map(name), radius, r)
            assert _reverse_scan(get_map(name), radius, r) == want


def test_abelianize_never_reaches_the_reverse_scan():
    rep = check_coarse_embedding(get_map("f2-abelianize"), 4)
    assert rep["verdict"] == "falsified"
    assert "reverse_table" not in rep


@pytest.mark.parametrize("group", ["F2", "Z2", "Dinf", "Z/2xZ/2"])
def test_reverse_scan_of_identity_matches_reference(group):
    # the identity maps scan families that no gallery map scans: free
    # groups and products, pair by pair
    phi = identity_map(get_group(group))
    for radius in (2, 4):
        assert _reverse_scan(phi, radius, 4) == \
            oracles.reverse_scan(phi, radius, 4)


def test_reverse_scan_blocks_match_reference():
    # a ball of 41 points in blocks of 2 rows, with witnesses in late
    # blocks and ties between blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coarsemaps, "_SCAN_CELLS", 100)
        for name in ("z-abs", "z-double-floor", "z-to-dihedral"):
            got = _reverse_scan(get_map(name), 20, 20)
            assert got == oracles.reverse_scan(get_map(name), 20, 20)


def test_reverse_scan_of_object_lengths_matches_reference():
    # target coordinates past 2^62: the target lengths reach 2^63, so
    # their blocks come back as object (Python int) arrays; the source
    # blocks are made object arrays too
    big = 2 ** 63
    src = IntLattice(1)
    phi = CoarseMap(src, Z, lambda g: (g[0] // 2 if g[0] >= 0
                                       else g[0] // 2 - big,),
                    name="split-halving")
    vals = [phi(x) for x in src.ball(6)]
    assert Z.pair_lengths(vals, vals).dtype == object
    blocks = src.pair_length_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(src, "pair_length_blocks",
                   lambda elems, rows: (m.astype(object)
                                        for m in blocks(elems, rows)))
        for radius in (3, 6):
            assert _reverse_scan(phi, radius, 6) == \
                oracles.reverse_scan(phi, radius, 6)


@pytest.mark.parametrize("radius", [0, 1, 4])
def test_reverse_scan_of_a_constant_map_matches_reference(radius):
    # every pair sits on cutoff 0; at radius 0 its one pair has source
    # length 0, so no cutoff has a witness
    phi = CoarseMap(Z, Z, lambda g: (0,), name="constant")
    got = _reverse_scan(phi, radius, 4)
    assert got == oracles.reverse_scan(phi, radius, 4)
    if radius == 0:
        assert got == ([0] * 5, [None] * 5)
