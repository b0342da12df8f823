"""Command line contract: catalog listing, experiment runs, exit codes,
deterministic report bodies, config file handling and the resource cap."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

from coarsehom import cli, gallery
from coarsehom.cli import EXPERIMENTS, catalog, main, run_experiment

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


# -- catalog -------------------------------------------------------------------

def test_list_catalog_complete():
    res = run_cli(["list"])
    assert res.exit_code == 0
    cat = json.loads(res.output)
    assert set(cat) == {"groups", "maps", "scenarios", "experiments"}
    assert [e["name"] for e in cat["experiments"]] == EXPERIMENTS
    for section in cat.values():
        for entry in section:
            assert entry["description"], entry


def test_list_single_kind():
    res = run_cli(["list", "--kind", "maps"])
    assert res.exit_code == 0
    cat = json.loads(res.output)
    assert set(cat) == {"maps"}
    names = [e["name"] for e in cat["maps"]]
    assert "z-double" in names and names == sorted(names)
    for e in cat["maps"]:
        assert e["source"] != "?" and e["target"] != "?"


def test_catalog_matches_list_output():
    res = run_cli(["list"])
    assert json.loads(res.output) == json.loads(
        json.dumps(catalog(), sort_keys=True))


def test_list_output_pinned():
    # sha256 of the whole listing, recorded while the experiment names,
    # defaults and descriptions were kept in three separate tables
    res = run_cli(["list"])
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "e41d8b0b4d4917efc273e23dc5cd01b8b2ac295ec7f802d59922675a859fdc25")


# -- experiment runs, exit code 0 -------------------------------------------------

CHEAP_CONFIGS = {
    "coarse-check": {"map": "z-double", "radius": 6},
    "omega-build": {"map": "z-double", "prefix_radius": 6,
                    "check_radius": 6},
    "chain-suite": {"group": "Z", "chains": 4, "radius": 2, "seed": 11},
    "homotopy-suite": {"chains": 4, "radius": 2, "seed": 11},
    "homology-finite": {"group": "Z/4", "module": "trivial",
                        "max_degree": 2},
    "window-boundary": {"group": "Z", "x_radius": 2, "tuple_radius": 2,
                        "seed": 11},
    "dynamics-roundtrip": {"scenario": "product-coupling"},
    "morita-check": {"group_a": "Z/4", "group_b": "Z/2",
                     "scenario": "z4-z2-kakutani", "max_degree": 1},
}


COUPLING_SCENARIOS = ["product-coupling", "z4-z2-twist", "dihedral-flip"]
RUN_CASES = [(name, CHEAP_CONFIGS[name]) for name in EXPERIMENTS] + [
    ("morita-check", dict(CHEAP_CONFIGS["morita-check"], scenario=s))
    for s in COUPLING_SCENARIOS]


@pytest.mark.parametrize(
    "name,config", RUN_CASES,
    ids=EXPERIMENTS + [f"morita-check-{s}" for s in COUPLING_SCENARIOS])
def test_each_experiment_passes(name, config, tmp_path):
    cfg = dict(config)
    cfg["experiment"] = name
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["run", "--config", str(path)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["body"]["experiment"] == name
    assert report["body"]["pass"] is True
    assert all(v["pass"] for v in report["body"]["verdicts"])
    assert "timing" in report and "seconds" in report["timing"]


def test_run_with_flags_only():
    res = run_cli(["run", "--experiment", "coarse-check"])
    assert res.exit_code == 0
    body = json.loads(res.output)["body"]
    assert body["config"]["map"] == "z-double"


# -- exit code 1: a falsified verdict ----------------------------------------------

def test_max_radius_flag_keeps_certified_map_passing():
    res = run_cli(["run", "--experiment", "coarse-check",
                   "--max-radius", "10"])
    assert res.exit_code == 0
    body = json.loads(res.output)["body"]
    assert body["config"]["radius"] == 10


def test_z_abs_embedding_falsified():
    cfg = {"experiment": "coarse-check", "map": "z-abs", "radius": 10}
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("c.json", "w") as fh:
            json.dump(cfg, fh)
        res = runner.invoke(main, ["run", "--config", "c.json"],
                            catch_exceptions=False)
    assert res.exit_code == 1
    body = json.loads(res.output)["body"]
    assert body["pass"] is False
    verdicts = {v["name"]: v for v in body["verdicts"]}
    assert verdicts["coarse-map"]["pass"] is True
    assert verdicts["coarse-embedding"]["pass"] is False


# -- exit code 2: configuration errors ----------------------------------------------

def test_unknown_experiment_exits_two():
    res = run_cli(["run", "--experiment", "nope"])
    assert res.exit_code == 2
    assert "unknown experiment" in res.output


def test_missing_experiment_exits_two():
    res = run_cli(["run"])
    assert res.exit_code == 2
    assert "no experiment named" in res.output


def test_malformed_config_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    res = run_cli(["run", "--experiment", "coarse-check", "--config",
                   str(bad)])
    assert res.exit_code == 2


def test_non_object_config_exits_two(tmp_path):
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    res = run_cli(["run", "--config", str(arr)])
    assert res.exit_code == 2


def test_unknown_map_name_exits_two():
    res = run_cli(["run", "--experiment", "coarse-check", "--seed", "1",
                   "--config", "/nonexistent/none.json"])
    assert res.exit_code == 2
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("c.json", "w") as fh:
            json.dump({"experiment": "coarse-check", "map": "nope"}, fh)
        res = runner.invoke(main, ["run", "--config", "c.json"],
                            catch_exceptions=False)
    assert res.exit_code == 2
    assert "unknown map name" in res.output


@pytest.mark.parametrize("config", [
    {"experiment": "homology-finite", "group": "Z"},
    {"experiment": "morita-check", "group_a": "Z"},
    {"experiment": "morita-check", "group_b": "F2"}])
def test_infinite_group_exits_two(config):
    # a finite-group experiment given an infinite group is a config
    # error, not a resource cap
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("c.json", "w") as fh:
            json.dump(config, fh)
        res = runner.invoke(main, ["run", "--config", "c.json"],
                            catch_exceptions=False)
    assert res.exit_code == 2, res.output
    assert "infinite" in res.output


@pytest.mark.parametrize("ring", ["Z/1", "Z/x", "Z/4", "R"])
def test_unsupported_homology_ring_exits_two(ring):
    # Z/1 and Z/x fail to parse, Z/4 is not a PID, R is not a ring name:
    # all four are the same config error
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("c.json", "w") as fh:
            json.dump({"experiment": "homology-finite", "ring": ring}, fh)
        res = runner.invoke(main, ["run", "--config", "c.json"],
                            catch_exceptions=False)
    assert res.exit_code == 2, res.output
    assert "InvalidElementError" in res.output


def test_bad_cap_value_exits_two():
    res = CliRunner().invoke(
        main, ["run", "--experiment", "omega-build"],
        env={"COARSEHOM_CAP": "notanumber"}, catch_exceptions=False)
    assert res.exit_code == 2


# -- exit code 3: resource caps -------------------------------------------------------

def test_cap_env_var_exits_three():
    res = CliRunner().invoke(main, ["run", "--experiment", "omega-build"],
                             env={"COARSEHOM_CAP": "1"},
                             catch_exceptions=False)
    assert res.exit_code == 3
    assert "resource cap" in res.output


@pytest.mark.parametrize("error, message", [
    # numpy's _ArrayMemoryError is a MemoryError with this message
    (MemoryError("Unable to allocate 1.54 GiB for an array"),
     "resource cap: Unable to allocate 1.54 GiB for an array"),
    (MemoryError(), "resource cap: out of memory")])
def test_memory_error_exits_three(monkeypatch, error, message):
    def exhausted(config):
        raise error

    _, defaults, description = cli._TABLE["homology-finite"]
    monkeypatch.setitem(cli._TABLE, "homology-finite",
                        (exhausted, defaults, description))
    res = run_cli(["run", "--experiment", "homology-finite"])
    assert res.exit_code == 3
    assert json.loads(res.output) == {"error": message}


# -- start-up ---------------------------------------------------------------------

_LEAN_START = """
import sys
import coarsehom.cli as cli
assert not {"numpy", "click"} & set(sys.modules), "loaded on import"
for config in [
        {"experiment": "window-boundary", "group": "Z", "x_radius": 2,
         "tuple_radius": 2},
        {"experiment": "homology-finite", "group": "Z/2xZ/2",
         "module": "trivial", "max_degree": 3},
        {"experiment": "homology-finite", "group": "D3",
         "module": "trivial", "max_degree": 2}]:
    assert cli.run_experiment(config)["body"]["pass"], config
assert "numpy" not in sys.modules, "loaded by a report"
import click
from coarsehom.cli import main
assert isinstance(main, click.Group), main
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_start_up_loads_neither_numpy_nor_click():
    # a fresh interpreter: this one has loaded both for other tests
    res = _python("-c", _LEAN_START)
    assert res.returncode == 0, res.stderr
    res = _python("-m", "coarsehom.cli", "run", "--experiment",
                  "homology-finite")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["body"]["pass"]


# -- determinism and output files -------------------------------------------------------

def test_report_body_is_deterministic(tmp_path):
    cfg = {"experiment": "chain-suite", "group": "Z/4", "chains": 3,
           "radius": 2, "seed": 42}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    first = run_cli(["run", "--config", str(path)])
    second = run_cli(["run", "--config", str(path)])
    assert first.exit_code == second.exit_code == 0
    b1 = json.loads(first.output)["body"]
    b2 = json.loads(second.output)["body"]
    assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(["run", "--experiment", "homology-finite",
                   "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text()) == json.loads(res.output)


def test_seed_flag_overrides_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "chain-suite", "chains": 2,
                                "seed": 5}))
    res = run_cli(["run", "--config", str(path), "--seed", "99"])
    assert res.exit_code == 0
    assert json.loads(res.output)["body"]["config"]["seed"] == 99


def test_max_degree_flag_applies():
    res = run_cli(["run", "--experiment", "homology-finite",
                   "--max-degree", "1"])
    assert res.exit_code == 0
    body = json.loads(res.output)["body"]
    assert body["config"]["max_degree"] == 1


def test_coinvariants_read_the_table_ring():
    body = run_experiment({"experiment": "homology-finite", "group": "Z/3",
                           "ring": "Z/3", "max_degree": 1})["body"]
    table, coin = (v["result"] for v in body["verdicts"])
    assert [row["ring"] for row in table] == ["Z/3", "Z/3"]
    assert coin["ring"] == "Z/3"
    assert body["pass"] is True


def test_inline_table_map(tmp_path):
    cfg = {"experiment": "coarse-check", "radius": 2,
           "map_table": {"source": "Z/4", "target": "Z/4", "name": "ident",
                         "pairs": [[g, g] for g in range(4)]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["run", "--config", str(path)])
    assert res.exit_code == 0, res.output
    body = json.loads(res.output)["body"]
    assert body["pass"] is True


def test_run_experiment_api_shape():
    rep = run_experiment({"experiment": "dynamics-roundtrip"})
    assert set(rep) == {"body", "timing"}
    assert rep["body"]["version"]
    assert isinstance(rep["body"]["verdicts"], list)
    text = json.dumps(rep["body"])
    assert json.loads(text) == rep["body"]


# -- ball enumerations per report ----------------------------------------------

def _spheres_runs(monkeypatch):
    """Record every enumeration as [group id, spheres consumed], from
    fresh gallery groups, whose ball memos are empty."""
    from coarsehom.groups import Group
    gallery.get_group.cache_clear()
    runs = []
    real = Group._spheres

    def counted(self, *args, **kwargs):
        run = [id(self), 0]
        runs.append(run)
        for sphere in real(self, *args, **kwargs):
            run[1] += 1
            yield sphere

    monkeypatch.setattr(Group, "_spheres", counted)
    return runs


def test_omega_build_enumerates_each_ball_once(monkeypatch):
    runs = _spheres_runs(monkeypatch)
    report = run_experiment({"experiment": "omega-build", "map": "z-double",
                             "prefix_radius": 16, "check_radius": 16})
    assert report["body"]["pass"]
    keys = [tuple(run) for run in runs]
    assert len(keys) == len(set(keys))
    # the section's fibers, its translate cover and its validation share
    # one ball(34), of which both ball(16)s are prefixes; the other run
    # is the target's lazy walk for the block partition
    assert len(runs) == 2


def test_chain_suite_enumerates_its_ball_once(monkeypatch):
    runs = _spheres_runs(monkeypatch)
    report = run_experiment({"experiment": "chain-suite", "group": "F2",
                             "ring": "Q", "rank": 2, "chains": 21,
                             "seed": 1})
    assert report["body"]["pass"]
    assert [n for _, n in runs] == [4]      # ball(3): spheres 0..3


@pytest.mark.parametrize("config,count", [
    # Z/4 and Z/2, which the translation systems and the couple share
    ({"experiment": "morita-check"}, 2),
    ({"experiment": "homology-finite", "group": "D3", "max_degree": 2}, 1),
    # G and H: the coupling checks read freeness off the two tables and
    # build no product group
    ({"experiment": "dynamics-roundtrip", "scenario": "dihedral-flip"}, 2),
    ({"experiment": "dynamics-roundtrip", "scenario": "z4-z2-kakutani"}, 2),
])
def test_finite_group_reports_enumerate_each_group_once(monkeypatch, config,
                                                        count):
    runs = _spheres_runs(monkeypatch)
    assert all(v["pass"] for v in run_experiment(config)["body"]["verdicts"])
    # elements() of a finite group is its whole ball, served from the
    # memo, so each gallery group enumerates once
    assert len(runs) == count


def test_homotopy_suite_builds_one_composite(monkeypatch):
    from coarsehom import cli, coarsemaps, complexes
    calls, real = [], coarsemaps.compose

    def spy(psi, phi):
        calls.append((psi.name, phi.name))
        return real(psi, phi)

    for module in (cli, coarsemaps, complexes):
        monkeypatch.setattr(module, "compose", spy)
    report = run_experiment({"experiment": "homotopy-suite"})
    assert report["body"]["pass"]
    # phi . omega once for the report, not once per chain
    assert len(calls) == 1
