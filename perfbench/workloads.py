"""Seeded config lists for the three benchmark workloads.

Each workload is a menu of op kinds with an integer weight.  A block
holds every kind `weight` times, shuffled; the config list is a run of
blocks.  Because every block has the same composition, any prefix of
the list has nearly the same cost profile whatever the seed, so
run-to-run spread comes from the machine and not from the mix.  The
seed picks the order, the coefficient ring where it does not change the
cost, and the seeds of the random chains.  Weights put each reported percentile
(p50, p90) inside a band of similar-cost ops, never on the edge between
two bands.

The parent cost of each kind, measured on a 2-CPU x86 VM with Python
3.11 and numpy 2.4, is noted beside it as a sizing guide only.
"""

from __future__ import annotations

import random

WORKLOADS = ("homology-tables", "window-solve", "coarse-chains")

# Enough blocks for a run on a machine several times faster than the
# one the weights were sized on; the loop wraps around if it runs out.
BLOCKS = 64


def _homology(group, module, degree, rank):
    return {"experiment": "homology-finite", "group": group,
            "module": module, "max_degree": degree, "rank": rank}


def _with_ring(rng, config):
    # the ring changes only how the integral Smith forms are read off
    return dict(config, ring=rng.choice(["Z", "Q", "Z/2", "Z/3", "Z/5"]))


def _with_seed(rng, config):
    return dict(config, seed=rng.randrange(1 << 30))


def _same(rng, config):
    return dict(config)


# A menu is a list of (weight, options, finish).  Each block takes
# `weight` options from a cycle over `options` (reshuffled by the seed
# on every pass), so when weight == len(options) every block holds each
# option exactly once; `finish` adds the per-instance parameters that do
# not change the cost class.  Costs are for one report.
_HOMOLOGY_TABLES = [
    # 1.5-14 ms, stays below p10: the dictionary checks
    (2, [{"experiment": "dynamics-roundtrip", "scenario": s}
         for s in ("product-coupling", "z4-z2-twist", "dihedral-flip",
                   "z4-z2-kakutani")], _same),
    # 0.03-0.05 s
    (5, [_homology("Z/6", "trivial", 2, 1),
         _homology("Z/3", "group-ring", 2, 2),
         _homology("Z/6", "group-ring", 1, 1),
         _homology("D3", "trivial", 2, 1),
         _homology("Z/3", "trivial", 3, 2)], _with_ring),
    # 0.08-0.09 s, ranks 8-16 of 25: a narrow band around p50 (rank 13)
    (6, [_homology("Z/4", "trivial", 3, 1),
         _homology("Z/2xZ/2", "group-ring", 2, 1)], _with_ring),
    (3, [{"experiment": "morita-check", "group_a": "Z/4", "group_b": "Z/2",
          "scenario": "z4-z2-kakutani", "max_degree": 2}], _same),
    # 0.1-0.22 s, cycling
    (3, [_homology("Z/3", "group-ring", 3, 1),
         _homology("Z/2xZ/2", "trivial", 3, 1),
         _homology("Z/6", "group-ring", 1, 2),
         _homology("Z/6", "trivial", 2, 2),
         _homology("D3", "trivial", 2, 2),
         _homology("D3", "group-ring", 1, 2)], _with_ring),
    (1, [{"experiment": "morita-check", "group_a": a, "group_b": b,
          "scenario": "z4-z2-kakutani", "max_degree": 2}
         for a, b in (("Z/2xZ/2", "Z/4"), ("Z/4", "Z/2xZ/2"))], _same),
    # 0.47-0.56 s, ranks 21-25: the band p90 (rank 23) sits in
    (5, [_homology("Z/3", "group-ring", 3, 2),
         _homology("Z/4", "trivial", 3, 2),
         _homology("Z/4", "group-ring", 2, 2),
         _homology("Z/2xZ/2", "trivial", 3, 2),
         _homology("Z/2xZ/2", "group-ring", 2, 2)], _with_ring),
]


def _window(group, ring, x_radius, tuple_radius):
    # tuple_radius >= x_radius - 1, so the seeded chain whose boundary
    # is the cycle lies inside the window and the solve must succeed
    return [{"experiment": "window-boundary", "group": group, "ring": ring,
             "x_radius": x_radius, "tuple_radius": tuple_radius}]


_WINDOW_SOLVE = [
    # under 0.14 s, ranks 1-10 of 30; F2 only sparingly
    (1, _window("F2", "Z", 1, 1), _with_seed),     # 0.06 s
    (1, _window("F2", "Q", 1, 1), _with_seed),     # 0.1 s
    (2, _window("Dinf", "Z", 2, 1), _with_seed),   # 0.03 s
    (1, _window("Dinf", "Q", 2, 1), _with_seed),   # 0.11-0.14 s
    (2, _window("Z", "Q", 2, 1), _with_seed),      # 0.02 s
    (3, _window("Z", "Q", 2, 2), _with_seed),      # 0.1-0.13 s
    # 0.18-0.26 s, ranks 11-21: the band p50 (rank 15) sits in; one op
    # kind only, so drift cannot reorder the ranks around p50
    (11, _window("Z", "Z", 3, 3), _with_seed),
    # 0.32-0.44 s, ranks 22-29: the band p90 (rank 27) sits in
    (4, _window("Z", "Z", 4, 3), _with_seed),
    (4, _window("Z2", "Z", 2, 1), _with_seed),
    # 0.66-0.95 s, rank 30, cycling
    (1, _window("Z", "Q", 3, 3) + _window("Dinf", "Z", 2, 2)
     + _window("Z2", "Q", 2, 1), _with_seed),
]

# chain-suite families whose seeded degree-2 chains are never zero in
# practice: no ring value vanishes, and cancelling all four terms needs
# coincident points, which is rare on these supports (none in 18000
# sampled chains per family).  The families that do hit the zero-chain
# JSON defect run in the defect probe instead.  The chain count of each
# family is sized so that every family costs about the same (within
# +-10% of 0.13 s on the sizing VM), which keeps the p50 band narrow.
_CHAIN_SUITES = [
    {"group": g, "ring": r, "rank": k, "chains": n}
    for g, r, k, n in (
        ("Z", "Z", 1, 62), ("Z", "Z", 2, 59), ("Z", "Q", 1, 39),
        ("Z", "Q", 2, 31), ("Z", "Z/7", 1, 62), ("Z", "Z/7", 2, 58),
        ("Z2", "Z", 1, 45), ("Z2", "Z", 2, 43), ("Z2", "Q", 1, 31),
        ("Z2", "Q", 2, 26), ("Z2", "Z/7", 1, 44), ("Z2", "Z/7", 2, 42),
        ("F2", "Z", 1, 32), ("F2", "Z", 2, 31), ("F2", "Q", 1, 25),
        ("F2", "Q", 2, 21), ("F2", "Z/7", 1, 32), ("F2", "Z/7", 2, 31),
        ("Dinf", "Z", 1, 72), ("Dinf", "Z", 2, 70), ("Dinf", "Q", 1, 42),
        ("Dinf", "Q", 2, 33), ("Dinf", "Z/7", 1, 75),
        ("Dinf", "Z/7", 2, 69),
        ("Z/3", "Z", 2, 79), ("Z/3", "Q", 2, 38), ("Z/4", "Z", 2, 74),
        ("Z/4", "Q", 2, 36), ("Z/6", "Z", 2, 70), ("Z/6", "Q", 2, 35),
        ("D3", "Z", 2, 71), ("D3", "Q", 2, 34), ("Z/2xZ/2", "Z", 2, 58),
        ("Z/2xZ/2", "Q", 2, 32))]

# The pair scan grows with the square of the ball, so each Z-source map
# gets the radius (93-128) at which its check costs about 0.3 s.
_Z_MAP_RADII = {"z-double": 108, "z-double-floor": 99,
                "z-double-shift": 108, "z-abs": 94, "z-parity-shift": 99,
                "z-into-z2": 96, "z-to-dihedral": 128, "z-identity": 100}
_Z_MAPS = list(_Z_MAP_RADII)


_COARSE_CHAINS = [
    # 1-5 ms, below p10
    (2, [{"experiment": "omega-build", "map": m, "prefix_radius": 16,
          "check_radius": 16} for m in _Z_MAPS], _same),
    # 0.06-0.08 s, below the p50 band
    (3, [{"experiment": "homotopy-suite", "chains": n, "radius": 3}
         for n in (10, 12, 14)], _with_seed),
    # 0.12-0.14 s, ranks 6-17 of 24: the band p50 (rank 12) sits in
    (12, [dict(c, experiment="chain-suite", radius=3)
          for c in _CHAIN_SUITES], _with_seed),
    # 0.25 s, falsified (fibres grow)
    (1, [{"experiment": "coarse-check", "map": "f2-abelianize",
          "radius": 6}], _same),
    # 0.28-0.32 s, ranks 19-24: the band p90 (rank 22) sits in
    (6, [{"experiment": "coarse-check", "map": m, "radius": r}
         for m, r in _Z_MAP_RADII.items()], _same),
]

_MENUS = {"homology-tables": _HOMOLOGY_TABLES,
          "window-solve": _WINDOW_SOLVE,
          "coarse-chains": _COARSE_CHAINS}

# One fixed, cheap report per workload, run untimed before the loop so
# lazy imports and first-call costs land in setup, not in a latency.
WARMUP = {
    "homology-tables": dict(_homology("Z/3", "trivial", 2, 1), ring="Z"),
    "window-solve": {"experiment": "window-boundary", "group": "Z",
                     "ring": "Z", "x_radius": 2, "tuple_radius": 2,
                     "seed": 0},
    "coarse-chains": {"experiment": "chain-suite", "group": "Z",
                      "ring": "Z", "rank": 1, "radius": 3, "chains": 10,
                      "seed": 0},
}


def _cycle(rng, options):
    while True:
        order = list(options)
        rng.shuffle(order)
        yield from order


def configs(workload, seed):
    """The seeded config list of a workload: BLOCKS shuffled blocks."""
    rng = random.Random(f"{workload}:{seed}")
    menu = [(weight, _cycle(rng, options), finish)
            for weight, options, finish in _MENUS[workload]]
    out = []
    for _ in range(BLOCKS):
        block = [finish(rng, next(cycle)) for weight, cycle, finish in menu
                 for _ in range(weight)]
        rng.shuffle(block)
        out.extend(block)
    return out


# Known defects, reproduced by fixed configs on every run.  They are
# kept out of the timed loop, where no operation may fail, and reported
# on their own.
DEFECT_PROBES = [
    {"defect": "chain-json-zero",
     "summary": "chain-suite raises InvalidElementError (CLI exit 2) when "
                "a seeded degree-2 chain is zero: Chain.from_json rejects "
                "the JSON that Chain.to_json writes for the zero chain",
     "error": ("InvalidElementError", "needs at least one slice"),
     "configs": [{"experiment": "chain-suite", "group": "Z/2",
                  "ring": "Z/2", "rank": 1, "radius": 3, "chains": 30,
                  "seed": s} for s in range(10)]},
    {"defect": "morita-coupling-actX",
     "summary": "morita-check with a coupling scenario raises an uncaught "
                "AttributeError: 'Coupling' object has no attribute "
                "'actX'",
     "error": ("AttributeError", "actX"),
     "configs": [{"experiment": "morita-check", "group_a": "Z/4",
                  "group_b": "Z/2", "scenario": s, "max_degree": 1}
                 for s in ("product-coupling", "z4-z2-twist",
                           "dihedral-flip")]},
]
