"""Named example groups, maps, and dynamics scenarios.

Everything the tests, demos, and the command line refer to by name lives
here.  Names are stable strings; look-ups are case-sensitive.  A group
name resolves to one shared instance per process, validated once; maps
and scenarios are built afresh on every call, as they hold per-use
memos.
"""

from __future__ import annotations

from functools import cache

from .coarsemaps import CoarseMap
from .errors import InvalidElementError
from .groups import (FreeGroup, InfiniteDihedral, IntLattice, ProductGroup,
                     cyclic_group, finite_dihedral, trivial_group)

# -- groups ----------------------------------------------------------------

# name -> (maker, description)
_GROUP_MAKERS = {
    "Z": (lambda: IntLattice(1), "infinite cyclic group, generators +1/-1"),
    "Z2": (lambda: IntLattice(2), "rank-two integer lattice"),
    "F2": (lambda: FreeGroup(2), "free group on two letters"),
    "Dinf": (lambda: InfiniteDihedral(),
             "infinite dihedral group (translations and a flip)"),
    "triv": (lambda: trivial_group(), "one-element group"),
    "Z/2": (lambda: cyclic_group(2), "cyclic group of order 2"),
    "Z/3": (lambda: cyclic_group(3), "cyclic group of order 3"),
    "Z/4": (lambda: cyclic_group(4), "cyclic group of order 4"),
    "Z/6": (lambda: cyclic_group(6), "cyclic group of order 6"),
    "D3": (lambda: finite_dihedral(3),
           "dihedral group of order 6 (triangle symmetries)"),
    "Z/2xZ/2": (lambda: ProductGroup(cyclic_group(2), cyclic_group(2)),
                "Klein four-group"),
}


def group_names():
    return sorted(_GROUP_MAKERS)


@cache
def get_group(name: str):
    """One shared instance per name, so each table is validated once.

    >>> get_group("Z/6").order()
    6
    >>> get_group("D3") is get_group("D3")
    True
    """
    if name not in _GROUP_MAKERS:
        raise InvalidElementError(
            f"unknown group name {name!r}; known: {', '.join(group_names())}")
    return _GROUP_MAKERS[name][0]()


# -- coarse maps -------------------------------------------------------------

def _exponent_sums(w):
    return (sum(1 if c == 1 else -1 for c in w if abs(c) == 1),
            sum(1 if c == 2 else -1 for c in w if abs(c) == 2))


# name -> (rule, source group name, target group name, description)
_MAPS = {
    "z-double": (lambda x: (2 * x[0],), "Z", "Z",
                 "x maps to 2x; embedding with index-2 image"),
    "z-double-floor": (lambda x: (2 * (x[0] // 2),), "Z", "Z",
                       "x maps to 2(x//2); close to doubling"),
    "z-double-shift": (lambda x: (2 * x[0] + 1,), "Z", "Z",
                       "x maps to 2x+1; close to doubling"),
    "z-abs": (lambda x: (abs(x[0]),), "Z", "Z",
              "absolute value; coarse but not an embedding"),
    "z-parity-shift": (lambda x: (x[0] + x[0] % 2,), "Z", "Z",
                       "adds 1 to odd inputs; close to the identity"),
    "z-into-z2": (lambda x: (x[0], 0), "Z", "Z2",
                  "inclusion onto the first axis"),
    "f2-abelianize": (_exponent_sums, "F2", "Z2",
                      "exponent sums; fibers grow, not coarse"),
    "z-to-dihedral": (lambda x: (x[0], 0), "Z", "Dinf",
                      "onto the translation subgroup"),
    "z-identity": (lambda x: x, "Z", "Z", "identity map"),
    "triv-into-z2": (lambda g: 0, "triv", "Z/2",
                     "inclusion of the trivial group"),
    "z2-to-z3-const": (lambda g: 0, "Z/2", "Z/3",
                       "constant map between finite groups"),
    "z4-mod-z2": (lambda g: g % 2, "Z/4", "Z/2", "reduction mod 2"),
}


def map_names():
    return sorted(_MAPS)


def get_map(name: str) -> CoarseMap:
    """
    >>> get_map("z-double")((3,))
    (6,)
    >>> get_map("f2-abelianize")((1, 2, -1))
    (0, 1)
    """
    if name not in _MAPS:
        raise InvalidElementError(
            f"unknown map name {name!r}; known: {', '.join(map_names())}")
    rule, source, target, _ = _MAPS[name]
    return CoarseMap(get_group(source), get_group(target), rule, name=name)


# -- dynamics scenarios ------------------------------------------------------

# name -> (maker taking the dynamics module, description); dynamics is
# imported on first use to keep the group/map part of the gallery free
# of dynamics dependencies
_SCENARIO_MAKERS = {
    "product-coupling": (
        lambda dy: dy.product_coupling(get_group("Z/4"), get_group("Z/2")),
        "order-4 and order-2 cyclic groups on their product, coordinate "
        "actions"),
    "z4-z2-twist": (
        lambda dy: dy.twisted_coupling(get_group("Z/4"), get_group("Z/2"),
                                       rho={0: 0, 1: 1}),
        "product space with the right action twisted by a pointer map"),
    # right factor acts through the flip of the triangle group
    "dihedral-flip": (
        lambda dy: dy.twisted_coupling(get_group("D3"), get_group("Z/2"),
                                       rho={0: 0, 1: 3}),
        "triangle group coupled to order 2 through the flip"),
    "z4-z2-kakutani": (
        lambda dy: dy.coupling_to_couple(
            dy.product_coupling(get_group("Z/4"), get_group("Z/2"))),
        "orbit couple extracted from the product coupling"),
}


def scenario_names():
    return sorted(_SCENARIO_MAKERS)


def get_scenario(name: str):
    """Named finite coupling scenarios."""
    if name not in _SCENARIO_MAKERS:
        raise InvalidElementError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(scenario_names())}")
    from . import dynamics
    return _SCENARIO_MAKERS[name][0](dynamics)


def catalog_entries() -> dict:
    """Name and description of every gallery group, map and scenario,
    sorted by name."""
    return {
        "groups": [{"name": n, "description": _GROUP_MAKERS[n][1]}
                   for n in group_names()],
        "maps": [{"name": n, "source": _MAPS[n][1], "target": _MAPS[n][2],
                  "description": _MAPS[n][3]}
                 for n in map_names()],
        "scenarios": [{"name": n, "description": _SCENARIO_MAKERS[n][1]}
                      for n in scenario_names()],
    }
