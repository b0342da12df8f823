"""Named experiments over the gallery, and the command line's entry.

Every experiment consumes a JSON config (defaults merged with --config
and flag overrides), runs exact checks, and emits a report with two top
level keys: "body" (experiment id, full config echo including the seed,
verdicts with witnesses, version) and "timing".  The body is fully
deterministic: rerunning with the same config and seed produces
byte-identical bytes; timing lives outside it for that reason.

Exit codes: 0 every verdict passed; 1 a check failed or a map was
falsified; 2 the configuration is invalid; 3 a resource cap was hit or
memory ran out (MemoryError).

The command group itself (`list`, `run`) is coarsehom.commands, which
`main` here loads on first use: importing this module, as the library
and the benchmark do, loads no click, and no numpy either until a dense
matrix or the pair scan needs it.

Randomized chains come from a seeded generator (random_chain): points
are drawn uniformly from balls of the configured radius and integer
coefficients from {-5..5} \\ {0}, so suites are reproducible from the
seed alone.  The environment variable COARSEHOM_CAP (a positive
integer) lowers the enumeration cap handed to unbounded searches.
"""

from __future__ import annotations

import os
import time

from .coarsemaps import check_coarse_embedding, compose, identity_map, \
    omega, table_map
from .complexes import Chain, bar_boundary, boundary, homotopy_k, \
    induced_chain_map, random_chain
from .errors import InvalidElementError
from .gallery import catalog_entries, get_group, get_map, get_scenario
from .homology import _coinvariants_row, _table_and_nerve, \
    homology_finite, is_boundary_window, table_checks
from .rings import ring_from_name

VERSION = "0.1.0"


def _cap(default=10000):
    raw = os.environ.get("COARSEHOM_CAP")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidElementError("COARSEHOM_CAP must be an integer")
    if cap <= 0:
        raise InvalidElementError("COARSEHOM_CAP must be positive")
    return min(cap, default)


def _finite_group(name):
    """A gallery group for an experiment that enumerates its elements."""
    group = get_group(name)
    if not group.is_finite():
        raise InvalidElementError(
            f"group {name!r} is infinite; this experiment needs a finite "
            f"group")
    return group


def _resolve_map(config):
    """A map is either a gallery name or an inline finite table."""
    if "map_table" in config:
        t = config["map_table"]
        return table_map(get_group(t["source"]), get_group(t["target"]),
                         t["pairs"], name=t.get("name", "table"))
    return get_map(config["map"])


# -- experiments --------------------------------------------------------------

def _exp_coarse_check(config):
    phi = _resolve_map(config)
    radius = int(config["radius"])
    emb = check_coarse_embedding(phi, radius)
    base = emb["coarse_map"]
    verdicts = [
        {"name": "coarse-map", "pass": base["verdict"].startswith("certified"),
         "result": base},
        {"name": "coarse-embedding",
         "pass": emb["verdict"].startswith("certified"), "result": emb},
    ]
    return verdicts


def _exp_omega_build(config):
    phi = _resolve_map(config)
    prefix = int(config["prefix_radius"])
    check_radius = int(config["check_radius"])
    om, partition = omega(phi, prefix, enum_cap=_cap())
    diff = om.closeness_to_identity(check_radius)
    e = phi.source.identity()
    is_id = diff == [e]
    verdicts = [
        {"name": "partition-blocks", "pass": len(partition.hs) >= 1,
         "result": {"blocks": [phi.target.element_to_json(h)
                               for h in partition.hs]}},
        {"name": "omega-after-phi-is-identity", "pass": bool(is_id),
         "result": {"difference_set": [phi.source.element_to_json(g)
                                       for g in diff],
                    "radius": check_radius}},
    ]
    return verdicts


def _exp_chain_suite(config):
    group = get_group(config["group"])
    ring = ring_from_name(config.get("ring", "Z"))
    rank = int(config.get("rank", 1))
    radius = int(config.get("radius", 3))
    count = int(config.get("chains", 100))
    seed = int(config["seed"])
    dd_fail = dual_fail = chi_fail = 0
    for i in range(count):
        for degree in (1, 2, 3):
            c = random_chain(group, ring, rank, degree, radius,
                             terms=4, seed=seed + 1000 * degree + i)
            dc = boundary(c)
            if degree >= 2 and not boundary(dc).is_zero():
                dd_fail += 1
            if dc != bar_boundary(c):
                dual_fail += 1
        c2 = random_chain(group, ring, rank, 2, radius, terms=4,
                          seed=seed + 7_000_000 + i)
        if Chain.from_json(group, c2.to_json()) != c2:
            chi_fail += 1
    verdicts = [
        {"name": "boundary-squares-to-zero", "pass": dd_fail == 0,
         "result": {"chains": count, "failures": dd_fail}},
        {"name": "pointwise-equals-slice-route", "pass": dual_fail == 0,
         "result": {"chains": count, "failures": dual_fail}},
        {"name": "json-roundtrip", "pass": chi_fail == 0,
         "result": {"chains": count, "failures": chi_fail}},
    ]
    return verdicts


_CLOSE_PAIRS = [("z-double", "z-double-shift"),
                ("z-identity", "z-parity-shift")]


def _homotopy_failures(group, k, rhs, count, radius, seed, stride):
    """Seeded chains c on group (degrees 0..2, seeds seed + stride * i +
    degree) failing boundary(k(c)) + k(boundary(c)) == rhs(c)."""
    fails = 0
    for i in range(count):
        for degree in (0, 1, 2):
            c = random_chain(group, ring_from_name("Z"), 1, degree, radius,
                             terms=3, seed=seed + stride * i + degree)
            lhs = boundary(k(c))
            if degree >= 1:
                lhs = lhs + k(boundary(c))
            if lhs != rhs(c):
                fails += 1
    return fails


def _exp_homotopy_suite(config):
    pairs = config.get("pairs", _CLOSE_PAIRS)
    count = int(config.get("chains", 25))
    radius = int(config.get("radius", 3))
    seed = int(config["seed"])
    verdicts = []
    for pa, pb in pairs:
        phi, psi = get_map(pa), get_map(pb)
        fails = _homotopy_failures(
            phi.source, lambda c: homotopy_k(phi, psi, c),
            lambda c: induced_chain_map(psi, c) - induced_chain_map(phi, c),
            count, radius, seed, 31)
        verdicts.append({"name": f"homotopy-{pa}-vs-{pb}",
                         "pass": fails == 0,
                         "result": {"chains": count, "failures": fails}})
    phi = get_map(config.get("omega_map", "z-double"))
    om, _ = omega(phi, int(config.get("prefix_radius", 8)),
                  enum_cap=_cap())
    # the homotopy of homotopy_l(phi, om, c), on one composite and one
    # identity map shared by every chain, so their value caches persist
    phi_om = compose(phi, om)
    ident = identity_map(phi.target)
    fails = _homotopy_failures(
        phi.target, lambda c: homotopy_k(ident, phi_om, c),
        lambda c: induced_chain_map(phi_om, c) - c,
        count, radius, seed, 77)
    verdicts.append({"name": "omega-homotopy-to-identity",
                     "pass": fails == 0,
                     "result": {"chains": count, "failures": fails}})
    return verdicts


def _exp_homology_finite(config):
    group = _finite_group(config["group"])
    ring = config.get("ring", "Z")
    module = config.get("module", "trivial")
    rank = int(config.get("rank", 1))
    max_degree = int(config.get("max_degree", 2))
    table, nerve = _table_and_nerve(group, max_degree, ring, module, rank)
    # the coinvariants' Smith route is the table's certified degree-0 row,
    # and their orbits are counted on the module's nerve
    coin = _coinvariants_row(table[0], nerve, rank)
    verdicts = [
        {"name": "homology-table",
         "pass": not table_checks(group, module, table, rank),
         "result": table},
        {"name": "degree-zero-coinvariants", "pass": coin["agrees"],
         "result": coin},
    ]
    return verdicts


def _exp_window_boundary(config):
    group = get_group(config["group"])
    ring = ring_from_name(config.get("ring", "Z"))
    x_radius = int(config.get("x_radius", 1))
    tuple_radius = int(config.get("tuple_radius", 1))
    seed = int(config["seed"])
    c = random_chain(group, ring, 1, 2, max(x_radius - 1, 1), terms=3,
                     seed=seed)
    z = boundary(c)
    res = is_boundary_window(z, x_radius, tuple_radius,
                             column_cap=_cap(20000))
    solved = res["verdict"] is True
    verdicts = [
        {"name": "boundary-recognized-on-window", "pass": solved,
         "result": {"verdict": res["verdict"], "window": res["window"],
                    "obstruction": res["obstruction"]}},
    ]
    return verdicts


def _exp_dynamics_roundtrip(config):
    from . import dynamics as dy
    scenario = config["scenario"]
    obj = get_scenario(scenario)
    verdicts = []
    if isinstance(obj, dy.Coupling):
        ov = obj.validate()
        verdicts.append({"name": "coupling-valid", "pass": ov["ok"],
                         "result": ov})
        rt = dy.roundtrip_iso_check(obj)
        verdicts.append({"name": "roundtrip-isomorphism",
                         "pass": rt["ok"], "result": rt})
        couple = dy.coupling_to_couple(obj)
    else:
        couple = obj
    cv = couple.validate()
    verdicts.append({"name": "orbit-couple-identities", "pass": cv["ok"],
                     "result": cv})
    kak = dy.couple_to_kakutani(couple)
    kv = kak.validate()
    verdicts.append({"name": "kakutani-data-valid", "pass": kv["ok"],
                     "result": kv})
    back = dy.kakutani_to_couple(kak)
    bv = back.validate()
    verdicts.append({"name": "kakutani-rebuild-valid", "pass": bv["ok"],
                     "result": bv})
    return verdicts


def _exp_morita_check(config):
    from . import dynamics as dy
    max_degree = int(config.get("max_degree", 2))
    ga = _finite_group(config.get("group_a", "Z/4"))
    gb = _finite_group(config.get("group_b", "Z/2"))
    # the nerve of the translation groupoid G⋉G is the group-ring
    # module's nerve (_module_nerve), so its table is the group-ring
    # table, read off the group's certified resolution where it has one
    ha = homology_finite(ga, max_degree, module="group-ring")
    hb = homology_finite(gb, max_degree, module="group-ring")
    verdicts = [{"name": "translation-systems-same-homology",
                 "pass": ha == hb, "result": {"first": ha, "second": hb}}]
    couple = get_scenario(config.get("scenario", "z4-z2-kakutani"))
    if isinstance(couple, dy.Coupling):
        couple = dy.coupling_to_couple(couple)
    kak = dy.couple_to_kakutani(couple)
    gx = dy.restrict_groupoid(
        dy.action_groupoid(couple.actX), kak.A)
    gy = dy.restrict_groupoid(
        dy.action_groupoid(couple.actY), kak.B)
    hx = dy.groupoid_homology_finite(gx, max_degree)
    hy = dy.groupoid_homology_finite(gy, max_degree)
    verdicts.append({"name": "restricted-groupoids-same-homology",
                     "pass": hx == hy,
                     "result": {"first": hx, "second": hy}})
    mx = dy.morita_invariance_check(couple.actX, kak.A,
                                    max_degree=min(max_degree, 1))
    verdicts.append({"name": "restriction-preserves-homology",
                     "pass": mx["ok"], "result": mx})
    return verdicts


# name -> (function, default config, description), in catalog order
_TABLE = {
    "coarse-check": (
        _exp_coarse_check, {"map": "z-double", "radius": 8},
        "certify or falsify a map as coarse and as a coarse embedding on a "
        "ball"),
    "omega-build": (
        _exp_omega_build,
        {"map": "z-double", "prefix_radius": 8, "check_radius": 8},
        "build the coarse inverse of an embedding and check it retracts "
        "the map to the identity"),
    "chain-suite": (
        _exp_chain_suite,
        {"group": "Z", "ring": "Z", "rank": 1, "radius": 3, "chains": 100},
        "seeded random chains: boundary squares to zero, both boundary "
        "routes agree, JSON round trip"),
    "homotopy-suite": (
        _exp_homotopy_suite, {"chains": 25, "radius": 3},
        "chain homotopies between close maps and the coarse-inverse "
        "homotopy to the identity"),
    "homology-finite": (
        _exp_homology_finite,
        {"group": "Z/2", "module": "trivial", "ring": "Z", "max_degree": 2},
        "integral/rational/mod-p homology tables for a finite group with "
        "trivial or group-ring coefficients"),
    "window-boundary": (
        _exp_window_boundary,
        {"group": "Z", "ring": "Z", "x_radius": 2, "tuple_radius": 2},
        "decide whether a cycle is a boundary of a window-supported chain, "
        "with certificate"),
    "dynamics-roundtrip": (
        _exp_dynamics_roundtrip, {"scenario": "product-coupling"},
        "coupling to orbit couple to coupling and couple to Kakutani data "
        "and back, all identities checked"),
    "morita-check": (
        _exp_morita_check,
        {"group_a": "Z/4", "group_b": "Z/2", "scenario": "z4-z2-kakutani",
         "max_degree": 2},
        "groupoid homology of translation systems and of restricted "
        "groupoids of a Kakutani pair"),
}

EXPERIMENTS = list(_TABLE)


def _jsonable(value):
    """Reports must serialize: tuples become lists, sets sorted lists;
    numbers (bool is an int), strings and None pass through, anything
    else becomes its str."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(v) for v in value), key=repr)
    if value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)


def run_experiment(config: dict) -> dict:
    """Run one named experiment; returns the full report dict."""
    name = config.get("experiment")
    if name not in _TABLE:
        raise InvalidElementError(
            f"unknown experiment {name!r}; known: {EXPERIMENTS}")
    fn, defaults, _ = _TABLE[name]
    merged = dict(defaults)
    merged.update({k: v for k, v in config.items() if v is not None})
    merged.setdefault("seed", 0)
    merged["experiment"] = name
    t0 = time.time()
    verdicts = fn(merged)
    elapsed = time.time() - t0
    body = {"experiment": name, "config": _jsonable(merged),
            "verdicts": _jsonable(verdicts),
            "pass": all(v["pass"] for v in verdicts),
            "version": VERSION}
    return {"body": body, "timing": {"seconds": round(elapsed, 6)}}


def catalog() -> dict:
    """Deterministic listing of everything addressable by name."""
    return {
        **catalog_entries(),
        "experiments": [{"name": name, "description": description}
                        for name, (_, _, description) in _TABLE.items()],
    }


def __getattr__(name):
    # the click command group lives in .commands and loads on first use
    # (PEP 562), so importing the experiments loads no click
    if name == "main":
        from .commands import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    from .commands import main
    main()
