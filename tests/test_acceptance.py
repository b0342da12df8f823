"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with -s (or read captured output) to see the summary lines; every
criterion is exact arithmetic against an independent oracle or a closed
form, with the stated runtime budgets asserted where the contract gives
one.
"""

import json
import time

from coarsehom import dynamics as dy
from coarsehom.coarsemaps import (check_coarse_embedding, check_coarse_map,
                                  compose, omega, section)
from coarsehom.complexes import (Chain, Cochain, boundary, bar_boundary,
                                 coboundary, homotopy_k, homotopy_k_cochain,
                                 homotopy_l, homotopy_l_cochain,
                                 induced_chain_map, induced_cochain_map,
                                 random_chain)
from coarsehom.cli import run_experiment
from coarsehom.gallery import get_group, get_map, get_scenario, map_names
from coarsehom.groups import cyclic_group
from coarsehom.homology import (homology_finite, induced_map_on_homology,
                                is_boundary_window)
from coarsehom.resmodules import (delta, pull_push_identity,
                                  pull_span_identity,
                                  translate_push_identity)
from coarsehom.rings import ring_from_name

import oracles

ZR = ring_from_name("Z")


def _line(num, ok, text):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {text}")


# -- 1: boundary squares to zero ------------------------------------------------

def test_criterion_01_boundary_squares_to_zero():
    groups = ["Z", "Z2", "F2", "Dinf", "Z/6"]
    rings = ["Z", "Q", "Z/5"]
    t0 = time.time()
    failures = 0
    total = 0
    for gname in groups:
        G = get_group(gname)
        for rname in rings:
            R = ring_from_name(rname)
            for degree in (1, 2, 3):
                for i in range(200):
                    c = random_chain(G, R, 1, degree, 2, terms=4,
                                     seed=100000 * degree + i)
                    total += 1
                    if not boundary(boundary(c)).is_zero():
                        failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and total == 9000 and elapsed < 30
    _line(1, ok, f"boundary^2 = 0 on {total} chains, "
          f"{len(groups)} groups x {len(rings)} rings x 3 degrees, "
          f"{elapsed:.1f}s")
    assert ok, (failures, total, elapsed)


# -- 2: both boundary routes agree ------------------------------------------------

def test_criterion_02_two_boundary_routes():
    t0 = time.time()
    cases = [("Z", "Z"), ("Z2", "Q"), ("F2", "Z/5"), ("Dinf", "Z"),
             ("Z/6", "Q")]
    failures = 0
    total = 0
    for i in range(100):
        gname, rname = cases[i % len(cases)]
        degree = 1 + i % 3
        c = random_chain(get_group(gname), ring_from_name(rname), 1,
                         degree, 2, terms=4, seed=5000 + i)
        total += 1
        if boundary(c) != bar_boundary(c):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and total == 100 and elapsed < 10
    _line(2, ok, f"pointwise and slice-transported boundaries agree on "
          f"{total} chains, {elapsed:.1f}s")
    assert ok, (failures, elapsed)


# -- 3: induced maps are chain maps and functorial ---------------------------------

def test_criterion_03_chain_maps_and_functoriality():
    maps = {name: get_map(name) for name in map_names()}
    pairs = [(pn, fn) for pn in maps for fn in maps
             if maps[fn].target == maps[pn].source]
    commute_fail = functor_fail = 0
    for name, phi in maps.items():
        for i in range(50):
            c = random_chain(phi.source, ZR, 1, 2, 2, terms=4,
                             seed=900 + i)
            if boundary(induced_chain_map(phi, c)) != \
                    induced_chain_map(phi, boundary(c)):
                commute_fail += 1
    for pn, fn in pairs:
        psi, phi = maps[pn], maps[fn]
        comp = compose(psi, phi)
        for i in range(50):
            c = random_chain(phi.source, ZR, 1, 2, 2, terms=4,
                             seed=1700 + i)
            if induced_chain_map(comp, c) != \
                    induced_chain_map(psi, induced_chain_map(phi, c)):
                functor_fail += 1
    ok = commute_fail == 0 and functor_fail == 0 and len(pairs) >= 50
    _line(3, ok, f"chain-map law on {len(maps)} maps and composition law "
          f"on {len(pairs)} composable ordered pairs, 50 chains each")
    assert ok, (commute_fail, functor_fail, len(pairs))


# -- 4: homotopy identities, one global sign ----------------------------------------

CLOSE_PAIRS = [("z-double", "z-double-shift"), ("z-identity",
                                                "z-parity-shift")]


def test_criterion_04_homotopy_identities():
    failures = 0
    # chain side: boundary k + k boundary = D(second) - D(first), the
    # single sign convention used everywhere
    for first, second in CLOSE_PAIRS:
        phi, psi = get_map(first), get_map(second)
        for degree in (0, 1, 2):
            for i in range(30):
                c = random_chain(phi.source, ZR, 1, degree, 2, terms=4,
                                 seed=4200 + 100 * degree + i)
                lhs = boundary(homotopy_k(phi, psi, c))
                if degree > 0:
                    lhs = lhs + homotopy_k(phi, psi, boundary(c))
                rhs = induced_chain_map(psi, c) - induced_chain_map(phi, c)
                if lhs != rhs:
                    failures += 1
    # retraction side: boundary l + l boundary = D(phi . omega) - id
    phi = get_map("z-double")
    om, _ = omega(phi, 8)
    comp = compose(phi, om)
    for degree in (0, 1, 2):
        for i in range(30):
            c = random_chain(phi.target, ZR, 1, degree, 2, terms=4,
                             seed=6400 + 100 * degree + i)
            lhs = boundary(homotopy_l(phi, om, c))
            if degree > 0:
                lhs = lhs + homotopy_l(phi, om, boundary(c))
            rhs = induced_chain_map(comp, c) - c
            if lhs != rhs:
                failures += 1
    # cochain side, pointwise on a (2*11+1)^2 = 529 point window
    window = 11
    points = (2 * window + 1) ** 2
    Zgrp = get_map("z-identity").source
    for first, second in CLOSE_PAIRS:
        phi, psi = get_map(first), get_map(second)
        f = Cochain(Zgrp, ZR, 1, 1,
                    lambda gvec, x: ((2 * gvec[0][0] + 3 * x[0]) % 7,))
        lhs = homotopy_k_cochain(phi, psi, coboundary(f)) + \
            coboundary(homotopy_k_cochain(phi, psi, f))
        rhs = induced_cochain_map(psi, f) - induced_cochain_map(phi, f)
        if not lhs.equal_on_window(rhs, window):
            failures += 1
    phi = get_map("z-double")
    f = Cochain(phi.target, ZR, 1, 1,
                lambda gvec, x: ((gvec[0][0] - x[0]) % 5,))
    lhs = homotopy_l_cochain(phi, om, coboundary(f)) + \
        coboundary(homotopy_l_cochain(phi, om, f))
    rhs = induced_cochain_map(comp, f) - f
    if not lhs.equal_on_window(rhs, window):
        failures += 1
    ok = failures == 0 and points >= 500
    _line(4, ok, f"homotopy identities for {CLOSE_PAIRS} and the "
          f"coarse-inverse retraction, degrees <= 2, cochain analogs on "
          f"{points} points")
    assert ok, failures


# -- 5: coarse inverse of doubling matches the closed form ---------------------------

def test_criterion_05_omega_closed_form():
    phi = get_map("z-double")
    om, _ = omega(phi, 50)
    ball = phi.target.ball(50)
    form_ok = all(om(y) == (oracles.doubling_inverse(y[0]),) for y in ball)
    Z = phi.source
    diff = {Z.mul(om(phi(x)), Z.inv(x)) for x in Z.ball(50)}
    retract_ok = diff == {(0,)}
    ok = form_ok and retract_ok
    _line(5, ok, f"omega equals the even/odd closed form on "
          f"{len(ball)} target points and retracts doubling to the "
          f"identity on ball(50)")
    assert ok, (form_ok, diff)


# -- 6: finite homology against the periodic-resolution oracle ------------------------

def test_criterion_06_homology_oracle():
    t0 = time.time()
    failures = []
    for m in (2, 3, 4, 6):
        got = homology_finite(cyclic_group(m), 3, module="trivial")
        for n, h in enumerate(got):
            want = oracles.cyclic_homology(m, n)
            if h["betti"] != want["betti"] or h["torsion"] != want["torsion"]:
                failures.append(("trivial", m, n))
    for m in (2, 3, 4, 6):
        got = homology_finite(cyclic_group(m), 2, module="group-ring")
        for n, h in enumerate(got):
            want = oracles.group_ring_homology(n)
            if h["betti"] != want["betti"] or h["torsion"] != want["torsion"]:
                failures.append(("group-ring", m, n))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    _line(6, ok, f"cyclic homology (trivial coefficients, degrees <= 3) "
          f"and group-ring vanishing (degrees <= 2) for orders 2,3,4,6, "
          f"{elapsed:.1f}s")
    assert ok, (failures, elapsed)


# -- 7: induced isomorphisms with the retraction identity ------------------------------

def test_criterion_07_induced_iso_with_retraction():
    failures = []
    for name in ("triv-into-z2", "z2-to-z3-const"):
        phi = get_map(name)
        rep = induced_map_on_homology(phi, 2)
        if not rep["iso_all"]:
            failures.append((name, "direct"))
        om, _ = omega(phi, 2)
        comp = compose(phi, om)          # target to target
        rep_c = induced_map_on_homology(comp, 2)
        if not rep_c["iso_all"]:
            failures.append((name, "composite"))
        # the composite acts as the identity on degree-0 homology: the
        # difference of a point class and its image is a boundary
        T = phi.target
        z = Chain(T, ZR, 1, 0)
        z.add_at(T.identity(), (), (1,))
        diff = induced_chain_map(comp, z) - z
        res = is_boundary_window(diff, 2, 2)
        if res["verdict"] is not True:
            failures.append((name, "degree-0 class moved"))
    ok = not failures
    _line(7, ok, "induced map is an isomorphism in degrees <= 2 for both "
          "constant gallery maps and the omega-composite fixes the "
          "degree-0 class")
    assert ok, failures


# -- 8: negative controls stay falsified ---------------------------------------------

def test_criterion_08_negative_controls():
    emb = check_coarse_embedding(get_map("z-abs"), 10)
    w = emb["reverse_witness"]
    abs_ok = (emb["verdict"] == "falsified" and w is not None
              and len(w["pair"]) == 2
              and w["source_length"] > w["max_at_half"])
    prop = check_coarse_map(get_map("f2-abelianize"), 6)
    count = prop["max_fiber_size"]
    f2_ok = (prop["verdict"] == "falsified"
             and not prop["proper_on_ball"]
             and count >= 13
             and count == oracles.f2_exponent_zero_count(6))
    ok = abs_ok and f2_ok
    _line(8, ok, f"absolute value falsified with witness pair "
          f"{w['pair'] if w else None}; abelianization shows {count} "
          f"coincident preimages in ball(6)")
    assert ok, (emb["verdict"], w, prop["verdict"], count)


# -- 9: pullback/pushforward lemma suite ------------------------------------------------

EMBEDDINGS = ["z-double", "z-double-floor", "z-double-shift",
              "z-parity-shift", "z-identity", "z-into-z2",
              "z-to-dihedral", "triv-into-z2", "z2-to-z3-const",
              "z4-mod-z2"]

FINITE_MAPS = ["triv-into-z2", "z2-to-z3-const", "z4-mod-z2"]


def test_criterion_09_lemma_suite():
    failures = []
    delta_count = 0
    for name in EMBEDDINGS:
        phi = get_map(name)
        sec = section(phi, 14)
        for g in phi.source.ball(6):
            f = delta(phi.source, ZR, 1, g)
            delta_count += 1
            if not pull_push_identity(phi, f, 6)["holds"]:
                failures.append(("pull-push", name, g))
            for h in phi.target.ball(1):
                if not translate_push_identity(phi, h, f, 6, sec)["holds"]:
                    failures.append(("translate-push", name, g, h))
    for name in FINITE_MAPS:
        rep = pull_span_identity(get_map(name))
        if not rep["holds"]:
            failures.append(("span", name))
    ok = not failures
    _line(9, ok, f"pull-push and translate-push identities on "
          f"{delta_count} delta elements over {len(EMBEDDINGS)} "
          f"embeddings; pullback span recovery on "
          f"{len(FINITE_MAPS)} finite maps")
    assert ok, failures[:5]


# -- 10: dynamics dictionary round trips -------------------------------------------------

def test_criterion_10_dynamics_roundtrip():
    t0 = time.time()
    failures = []
    for name in ("product-coupling", "z4-z2-twist", "dihedral-flip"):
        coup = get_scenario(name)
        rt = dy.roundtrip_iso_check(coup)
        if not rt["ok"]:
            failures.append((name, "roundtrip"))
        couple = dy.coupling_to_couple(coup)
        if not couple.validate()["ok"]:
            failures.append((name, "cocycles"))
        kak = dy.couple_to_kakutani(couple)
        if not kak.validate()["ok"]:
            failures.append((name, "kakutani"))
        if not dy.kakutani_to_couple(kak).validate()["ok"]:
            failures.append((name, "kakutani-return"))

    # any single mutated table entry must be detected
    sc = get_scenario("z4-z2-kakutani")
    mutations = detected = 0
    tables = {"p": (sc.p, lambda: sc.actY.points),
              "q": (sc.q, lambda: sc.actX.points),
              "a": (sc.a, lambda: sc.G.elements()),
              "b": (sc.b, lambda: sc.H.elements()),
              "g_map": (sc.g_map, lambda: sc.G.elements()),
              "h_map": (sc.h_map, lambda: sc.H.elements())}
    for field, (table, pool) in tables.items():
        for key in table:
            bad = dict(table)
            bad[key] = next(v for v in pool() if v != table[key])
            kwargs = {"p": sc.p, "q": sc.q, "a": sc.a, "b": sc.b,
                      "g_map": sc.g_map, "h_map": sc.h_map}
            kwargs[field] = bad
            mutated = dy.OrbitCouple(sc.actX, sc.actY, **kwargs)
            mutations += 1
            if not mutated.validate()["ok"]:
                detected += 1

    # Morita: the two translation systems have the homology of a point,
    # and the restricted groupoids of a Kakutani pair agree
    h4 = dy.groupoid_homology_finite(
        dy.action_groupoid(dy.translation_action(cyclic_group(4))), 2)
    h2 = dy.groupoid_homology_finite(
        dy.action_groupoid(dy.translation_action(cyclic_group(2))), 2)
    point = [{"degree": 0, "ring": "Z", "betti": 1, "torsion": []},
             {"degree": 1, "ring": "Z", "betti": 0, "torsion": []},
             {"degree": 2, "ring": "Z", "betti": 0, "torsion": []}]
    morita_ok = h4 == h2 == point
    kak = dy.couple_to_kakutani(get_scenario("z4-z2-kakutani"))
    rest_x = dy.groupoid_homology_finite(
        dy.restrict_groupoid(dy.action_groupoid(kak.actX), kak.A), 1)
    rest_y = dy.groupoid_homology_finite(
        dy.restrict_groupoid(dy.action_groupoid(kak.actY), kak.B), 1)
    restricted_ok = rest_x == rest_y

    elapsed = time.time() - t0
    ok = (not failures and mutations == detected and mutations > 0
          and morita_ok and restricted_ok and elapsed < 30)
    _line(10, ok, f"3 couplings round trip, {detected}/{mutations} "
          f"single-entry mutations detected, translation systems and "
          f"restricted Kakutani groupoids agree, {elapsed:.1f}s")
    assert ok, (failures, mutations, detected, morita_ok, restricted_ok)


# -- 11: byte-identical report bodies ------------------------------------------------------

def test_criterion_11_deterministic_reports():
    configs = [
        {"experiment": "chain-suite", "group": "Z/6", "ring": "Z/5",
         "chains": 5, "radius": 2, "seed": 314},
        {"experiment": "dynamics-roundtrip", "scenario": "dihedral-flip",
         "seed": 314},
        {"experiment": "coarse-check", "map": "z-double", "radius": 8,
         "seed": 314},
    ]
    ok = True
    for cfg in configs:
        first = json.dumps(run_experiment(dict(cfg))["body"],
                           sort_keys=True).encode()
        second = json.dumps(run_experiment(dict(cfg))["body"],
                            sort_keys=True).encode()
        if first != second:
            ok = False
    _line(11, ok, f"report bodies byte-identical across reruns for "
          f"{len(configs)} experiments")
    assert ok


# -- 12: large windows solve -----------------------------------------------------------

def test_criterion_12_large_windows():
    results = []
    ok = True
    for group, x_radius, tuple_radius, columns in (("Z2", 3, 2, 4225),
                                                    ("F2", 2, 2, 4913)):
        t0 = time.time()
        body = run_experiment({"experiment": "window-boundary",
                               "group": group, "ring": "Z",
                               "x_radius": x_radius,
                               "tuple_radius": tuple_radius,
                               "seed": 0})["body"]
        elapsed = time.time() - t0
        res = body["verdicts"][0]["result"]
        ok = ok and (res["verdict"] is True
                     and res["window"]["columns"] == columns
                     and elapsed < 10)
        results.append((group, res["verdict"], res["window"]["columns"],
                        round(elapsed, 2)))
    _line(12, ok, "window-boundary over Z on Z2 (3,2) and F2 (2,2): "
          + ", ".join(f"{g} {c} columns {e}s" for g, _, c, e in results))
    assert ok, results
