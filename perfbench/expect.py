"""Independent expectations for every report the benchmark runs.

Nothing here calls into coarsehom: the expected answers come from
closed forms and from the mathematics of each gallery object, so a
report that disagrees is wrong, not merely different.

`check(config, report)` returns None when the report matches and a
short mismatch kind otherwise.
"""

from __future__ import annotations

_CYCLIC_ORDER = {"Z/2": 2, "Z/3": 3, "Z/4": 4, "Z/6": 6}


def integral_torsion(group, n):
    """Invariant factors of H_n(G; Z), n >= 1, trivial coefficients."""
    if group in _CYCLIC_ORDER:
        # cyclic: Z/m in odd degrees, 0 in even degrees
        return [_CYCLIC_ORDER[group]] if n % 2 == 1 else []
    if group == "Z/2xZ/2":
        # Kunneth for the Klein four-group
        return [2] * ((n + 3) // 2 if n % 2 == 1 else n // 2)
    if group == "D3":
        # S3: period 4, Z/2 in degrees 4k+1, Z/6 in degrees 4k+3
        return {1: [2], 3: [6]}.get(n % 4, [])
    raise KeyError(f"no closed form for {group}")


def homology_table(group, max_degree, ring, module, rank):
    """Expected homology_finite table: a rank-fold direct sum of the
    rank-one answer; group-ring modules are acyclic; Q and Z/p follow
    from the integral groups by universal coefficients."""
    out = []
    for n in range(max_degree + 1):
        betti, torsion = (1 if n == 0 else 0), []
        if module == "trivial" and n >= 1:
            t_n = integral_torsion(group, n)
            if ring == "Z":
                torsion = t_n
            elif ring.startswith("Z/"):
                p = int(ring[2:])
                t_prev = integral_torsion(group, n - 1) if n >= 2 else []
                betti = (sum(1 for d in t_n if d % p == 0)
                         + sum(1 for d in t_prev if d % p == 0))
        out.append({"degree": n, "ring": ring, "betti": rank * betti,
                    "torsion": sorted(torsion * rank)})
    return out


def ball_size(group, r):
    return {"Z": 2 * r + 1, "Z2": 2 * r * r + 2 * r + 1,
            "F2": 2 * 3 ** r - 1, "Dinf": 4 * r if r else 1}[group]


# (coarse map, coarse embedding) verdicts.  z-abs folds the line in
# two: displacements stay bounded but far points land together.
# f2-abelianize has fibres that grow with the radius, so it is not
# coarse.  Every other Z-source map moves points by a bounded amount
# and has bounded fibres.
_COARSE = {"z-abs": (True, False), "f2-abelianize": (False, False)}

# omega . phi is the identity exactly when phi is injective.
_NOT_INJECTIVE = {"z-double-floor", "z-abs", "z-parity-shift"}


def _verdicts(report):
    return {v["name"]: v for v in report["body"]["verdicts"]}


def _all_pass(report):
    return None if report["body"]["pass"] else "verdict-failed"


def _homology_finite(config, report):
    v = _verdicts(report)
    want = homology_table(config["group"], config["max_degree"],
                          config["ring"], config["module"], config["rank"])
    got = [{k: row[k] for k in ("degree", "ring", "betti", "torsion")}
           for row in v["homology-table"]["result"]]
    if got != want:
        return "homology-table"
    coin = v["degree-zero-coinvariants"]
    if not coin["pass"] or coin["result"]["betti"] != config["rank"]:
        return "coinvariants"
    return None


def _window_boundary(config, report):
    v = _verdicts(report)["boundary-recognized-on-window"]
    cols = (ball_size(config["group"], config["x_radius"])
            * ball_size(config["group"], config["tuple_radius"]) ** 2)
    if v["result"]["window"]["columns"] != cols:
        return "window-columns"
    return None if v["pass"] and v["result"]["verdict"] is True \
        else "window-not-solved"


def _morita_check(config, report):
    v = _verdicts(report)
    first = v["translation-systems-same-homology"]["result"]["first"]
    point = [{"degree": n, "betti": 1 if n == 0 else 0, "torsion": []}
             for n in range(config["max_degree"] + 1)]
    if [{k: row[k] for k in ("degree", "betti", "torsion")}
            for row in first] != point:
        return "translation-homology"
    return _all_pass(report)


def _coarse_check(config, report):
    v = _verdicts(report)
    want = _COARSE.get(config["map"], (True, True))
    got = (v["coarse-map"]["pass"], v["coarse-embedding"]["pass"])
    return None if got == want else "coarse-verdict"


def _omega_build(config, report):
    v = _verdicts(report)
    injective = config["map"] not in _NOT_INJECTIVE
    if not v["partition-blocks"]["pass"]:
        return "omega-partition"
    if v["omega-after-phi-is-identity"]["pass"] != injective:
        return "omega-retraction"
    return None


def _suite(report):
    for v in report["body"]["verdicts"]:
        if not v["pass"] or v["result"]["failures"] != 0:
            return "suite-failures"
    return None


_CHECKS = {
    "homology-finite": _homology_finite,
    "window-boundary": _window_boundary,
    "morita-check": _morita_check,
    "dynamics-roundtrip": lambda c, r: _all_pass(r),
    "coarse-check": _coarse_check,
    "omega-build": _omega_build,
    "chain-suite": lambda c, r: _suite(r),
    "homotopy-suite": lambda c, r: _suite(r),
}


def check(config, report):
    if report["body"]["experiment"] != config["experiment"]:
        return "wrong-experiment"
    return _CHECKS[config["experiment"]](config, report)
