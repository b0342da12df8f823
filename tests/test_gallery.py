"""Named groups, maps and dynamics scenarios resolve, validate, and
refuse unknown names."""

import pytest

from coarsehom import dynamics as dy
from coarsehom.coarsemaps import CoarseMap
from coarsehom.errors import InvalidElementError
from coarsehom.gallery import (catalog_entries, get_group, get_map,
                               get_scenario, group_names, map_names,
                               scenario_names)


def test_every_group_name_resolves():
    for name in group_names():
        G = get_group(name)
        e = G.identity()
        assert G.mul(e, e) == e
        assert G.is_element(e)


def test_group_orders_frozen():
    assert get_group("Z/6").order() == 6
    assert get_group("D3").order() == 6
    assert get_group("Z/2xZ/2").order() == 4
    assert get_group("triv").order() == 1
    assert not get_group("Z").is_finite()
    assert not get_group("F2").is_finite()


def test_every_map_name_resolves():
    listed = {e["name"]: e for e in catalog_entries()["maps"]}
    for name in map_names():
        phi = get_map(name)
        assert isinstance(phi, CoarseMap)
        assert phi.name == name
        # the catalog names the map's own source and target
        assert get_group(listed[name]["source"]) == phi.source
        assert get_group(listed[name]["target"]) == phi.target
        # the rule is defined at the identity
        assert phi.target.is_element(phi(phi.source.identity()))


def test_map_values_frozen():
    assert get_map("z-double")((3,)) == (6,)
    assert get_map("z-double-shift")((3,)) == (7,)
    assert get_map("z-abs")((-4,)) == (4,)
    assert get_map("f2-abelianize")((1, 2, -1)) == (0, 1)
    assert get_map("z4-mod-z2")(3) == 1


def test_every_scenario_resolves_and_validates():
    for name in scenario_names():
        sc = get_scenario(name)
        if isinstance(sc, dy.OrbitCouple):
            assert sc.validate()["ok"], name
        else:
            assert isinstance(sc, dy.Coupling)
            assert sc.validate()["ok"], name


def test_scenario_kinds():
    assert isinstance(get_scenario("product-coupling"), dy.Coupling)
    assert isinstance(get_scenario("z4-z2-twist"), dy.Coupling)
    assert isinstance(get_scenario("dihedral-flip"), dy.Coupling)
    assert isinstance(get_scenario("z4-z2-kakutani"), dy.OrbitCouple)


def test_unknown_names_rejected():
    with pytest.raises(InvalidElementError):
        get_group("Z/5-oops")
    with pytest.raises(InvalidElementError):
        get_map("nonsense")
    with pytest.raises(InvalidElementError):
        get_scenario("nonsense")


def test_name_lists_sorted_and_stable():
    assert group_names() == sorted(group_names())
    assert map_names() == sorted(map_names())
    assert "z-double" in map_names()
    assert "product-coupling" in scenario_names()
