"""Group tables off small free resolutions.  A finite group whose
product table shows it cyclic, a ProductGroup of such groups, or a
dihedral group reads its tables off a formula resolution, certified
exact before any table is read; the nerve of the bar complex stays the
independent oracle, and the route of every other group."""

import pytest

import oracles
from coarsehom import cli, homology
from coarsehom.cli import run_experiment
from coarsehom.gallery import get_group
from coarsehom.groups import (FiniteGroup, ProductGroup, cyclic_group,
                              finite_dihedral)
from coarsehom.homology import (Nerve, _homology_table, homology_finite,
                                table_checks)

FINITE = ["triv", "Z/2", "Z/3", "Z/4", "Z/6", "D3", "Z/2xZ/2"]
MODULES = ["trivial", "group-ring"]
RINGS = ["Z", "Q", "Z/2", "Z/3"]


def _q8():
    """The quaternion group, which has no formula resolution."""
    return FiniteGroup(oracles.quaternion_table(), generators=[2, 3, 4, 5])


def _resolution(G, top):
    return homology._resolution(homology._module_nerve(G, "trivial"), top)


def _rows(table):
    return [(row["betti"], row["torsion"]) for row in table]


@pytest.mark.parametrize("name, ranks", [
    ("triv", [1] * 6), ("Z/2", [1] * 6), ("Z/3", [1] * 6),
    ("Z/4", [1] * 6), ("Z/6", [1] * 6),
    # Wall's resolution and the tensor square: r_n = n + 1
    ("D3", [1, 2, 3, 4, 5, 6]), ("Z/2xZ/2", [1, 2, 3, 4, 5, 6])])
def test_each_gallery_group_reads_a_formula(name, ranks):
    assert _resolution(get_group(name), 5).ranks == ranks


@pytest.mark.parametrize("module", MODULES)
@pytest.mark.parametrize("name", FINITE)
def test_resolution_tables_equal_the_nerve_tables(name, module):
    """To degree 5 over every ring at ranks 1 and 2, and the trivial
    tables of Z/2 x Z/2 to degree 8, against the nerve's normalized bar
    complex."""
    G = get_group(name)
    top = 8 if (name, module) == ("Z/2xZ/2", "trivial") else 5
    forms = homology._module_nerve(G, module).smiths(top)
    for ring in RINGS:
        for rank in (1, 2):
            assert homology_finite(G, top, ring_name=ring, module=module,
                                   rank=rank) == \
                _homology_table(ring, forms, rank)


def _closed_form(name, n):
    """H_n(G; Z), trivial coefficients, as (betti, torsion)."""
    if n == 0:
        return 1, []
    if name == "Z/6":
        # the periodic resolution: Z/6 in odd degrees
        return 0, [6] if n % 2 else []
    if name == "D3":
        # period 4: Z/2, 0, Z/6, 0
        return 0, {1: [2], 3: [6]}.get(n % 4, [])
    # Kunneth for Z/2 x Z/2: (Z/2)^((n+3)/2) in odd degrees, (Z/2)^(n/2)
    # in even ones
    return 0, [2] * ((n + 3) // 2 if n % 2 else n // 2)


@pytest.mark.parametrize("name", ["Z/6", "D3", "Z/2xZ/2"])
def test_deep_trivial_tables_match_the_closed_forms(name):
    assert _rows(homology_finite(get_group(name), 12, module="trivial")) \
        == [_closed_form(name, n) for n in range(13)]


def test_z6_reaches_degree_forty():
    table = homology_finite(get_group("Z/6"), 40, module="trivial")
    assert _rows(table) == [_closed_form("Z/6", n) for n in range(41)]


@pytest.mark.parametrize("G", [
    FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
    finite_dihedral(4), finite_dihedral(5),
    ProductGroup(cyclic_group(2), cyclic_group(3)),
    ProductGroup(finite_dihedral(3), cyclic_group(2))],
    ids=["klein-table", "D4", "D5", "Z/2xZ/3", "D3xZ/2"])
def test_formulas_are_found_from_the_table(G):
    """The Klein four-group given by its table reads the dihedral
    formula with |x| = 2, and Z/2 x Z/3 the periodic one, its table
    being cyclic; each table equals the nerve's to degree 3."""
    assert _resolution(G, 4) is not None
    for module in MODULES:
        forms = homology._module_nerve(G, module).smiths(3)
        for ring in RINGS:
            assert homology_finite(G, 3, ring_name=ring, module=module) == \
                _homology_table(ring, forms)


def test_a_group_with_no_formula_reads_the_nerve(monkeypatch):
    Q8 = _q8()
    assert _resolution(Q8, 3) is None
    calls, real = [], Nerve.smiths

    def spy(self, max_degree, *args):
        calls.append(max_degree)
        return real(self, max_degree, *args)

    monkeypatch.setattr(Nerve, "smiths", spy)
    # H_1 = Q8 / [Q8, Q8] = Z/2 + Z/2, and the Schur multiplier is 0
    assert _rows(homology_finite(Q8, 2, module="trivial")) == \
        [(1, []), (0, [2, 2]), (0, [])]
    assert calls == [2]


# -- the certificate -----------------------------------------------------------

def _forged(forge):
    """The resolution of Z/4 to degree 2 with one clause of its
    certificate broken."""
    res = _resolution(get_group("Z/4"), 2)
    (tminus1,), (norm,) = res.d
    t, e = tminus1[0][1], tminus1[1][1]
    if forge == "d-d":
        res.d[1] = [tminus1]             # (t - 1)^2 != 0
    elif forge == "augmentation":
        res.d[0] = [((0, t, 1), (0, e, 1))]      # t + 1
    elif forge == "doubled-entry":
        res.d[1] = [tuple((i, g, 2 * c) for i, g, c in norm)]
    elif forge == "dropped-column":
        res.d[1], res.ranks[2] = [], 0
    elif forge == "shape":
        res.d[1] = [norm + ((1, e, 1), (1, e, -1))]    # F_1 has rank 1
    return res


# the clauses run in this order, so each forgery passes the ones before
# the one it fails
@pytest.mark.parametrize("forge, clause", [
    ("d-d", "d_1 d_2 != 0"), ("augmentation", "ε d_1 != 0"),
    ("doubled-entry", "non-unit divisor"), ("dropped-column", "rank"),
    ("shape", "do not fit")])
def test_each_certificate_clause_fails_on_a_forged_resolution(
        monkeypatch, forge, clause):
    res = _forged(forge)
    with pytest.raises(RuntimeError, match=clause):
        res.certified_forms()
    # and a table never reads a forged resolution
    monkeypatch.setattr(homology, "_resolution", lambda nerve, top: res)
    for module in MODULES:
        with pytest.raises(RuntimeError, match="resolution certificate"):
            homology_finite(get_group("Z/4"), 1, module=module)


# -- table checks --------------------------------------------------------------

@pytest.mark.parametrize("module", MODULES)
@pytest.mark.parametrize("name", FINITE)
def test_every_gallery_table_passes_the_checks(name, module):
    G = get_group(name)
    for ring in RINGS + ["Z/5"]:
        for rank in (1, 2):
            table = homology_finite(G, 4, ring_name=ring, module=module,
                                    rank=rank)
            assert table_checks(G, module, table, rank) == []


def _forge_row(table, degree, **fields):
    return [dict(row, **fields) if row["degree"] == degree else row
            for row in table]


def test_forged_tables_fail_the_checks():
    Z4 = get_group("Z/4")
    trivial = homology_finite(Z4, 2, module="trivial")
    assert table_checks(Z4, "trivial", _forge_row(trivial, 1, betti=1)) \
        == ["transfer"]
    assert table_checks(Z4, "trivial",
                        _forge_row(trivial, 1, torsion=[3])) == ["transfer"]
    assert table_checks(Z4, "trivial",
                        _forge_row(trivial, 1, torsion=[8])) == ["transfer"]
    ring = homology_finite(Z4, 2, module="group-ring")
    assert table_checks(Z4, "group-ring", _forge_row(ring, 1, betti=1)) \
        == ["shapiro"]
    assert table_checks(Z4, "group-ring",
                        _forge_row(ring, 1, torsion=[2])) == ["shapiro"]
    assert table_checks(Z4, "group-ring", _forge_row(ring, 0, betti=2)) \
        == ["shapiro"]
    over_q = homology_finite(Z4, 2, ring_name="Q", module="trivial")
    assert table_checks(Z4, "trivial", _forge_row(over_q, 2, betti=1)) \
        == ["transfer"]


def test_a_forged_table_fails_the_report(monkeypatch):
    real = cli._table_and_nerve

    def forged(*args):
        table, nerve = real(*args)
        return _forge_row(table, 1, torsion=[3]), nerve

    config = {"experiment": "homology-finite", "group": "Z/4",
              "module": "trivial", "max_degree": 2}
    assert run_experiment(config)["body"]["pass"]
    monkeypatch.setattr(cli, "_table_and_nerve", forged)
    body = run_experiment(config)["body"]
    verdict, = (v for v in body["verdicts"] if v["name"] == "homology-table")
    assert not verdict["pass"] and not body["pass"]
