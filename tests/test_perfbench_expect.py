"""The coarse-check reports of the benchmark's coarse-chains menu
(perfbench/workloads.py): their bodies are pinned, and the benchmark's
own closed-form expectations (perfbench/expect.py, `check`) accept
them, so a wrong verdict shows here before it shows in a benchmark
run."""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from coarsehom.cli import run_experiment

EXPECT = pathlib.Path(__file__).resolve().parents[1] / "perfbench/expect.py"


def _load_expect():
    spec = importlib.util.spec_from_file_location("perfbench_expect", EXPECT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


expect = _load_expect()

# (map, radius) -> sha256 of json.dumps(body, sort_keys=True), recorded
# with the pair-by-pair reverse scan and the check_coarse_map call that
# coarse-check made before it read the embedding report's copy
PINNED_COARSE_CHECK = {
    ("f2-abelianize", 6): "17ad8f405293e37d542e9b981c228237"
                          "be82d39c5cc4e2f398784c2492c36ff3",
    ("z-double", 108): "1808db054dc0298554eeca98fb98c3d4"
                       "4aee9c5e2d1cdd12925352cd19e58d0a",
    ("z-double-floor", 99): "cde2c9ccdf9bb06ed844623b3c6baeb6"
                            "c4006e54165d4d759161724931581624",
    ("z-double-shift", 108): "05b7df3709f94e03ee698828a5b9c114"
                             "10d3762399a62e026cc31ef47362b721",
    ("z-abs", 94): "83b4b5b654dc21c1d25187b93f03bed0"
                   "3af7259a6febddb09b41d3fa739783a0",
    ("z-parity-shift", 99): "0c445251610cde89ceace53239564293"
                            "89c81d2c54732da6555116ec05cbc36d",
    ("z-into-z2", 96): "20e6f70cf08d0a5854ced9f6179a4aed"
                       "f6ee777eddbde22c1235ed33a1d4d55d",
    ("z-to-dihedral", 128): "406d49f017664e6c06fa98843e9d8421"
                            "406afca065bffa645601e69c552247cc",
    ("z-identity", 100): "445765129b47b64135cd3248393c22c7"
                         "03950720fa6bf5225f85873e9dd4765e",
}

CASES = sorted(PINNED_COARSE_CHECK)
IDS = [f"{name}-r{radius}" for name, radius in CASES]


@pytest.fixture(scope="module")
def reports():
    return {case: run_experiment({"experiment": "coarse-check",
                                  "map": case[0], "radius": case[1]})
            for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_coarse_check_body_pinned(reports, case):
    body = json.dumps(reports[case]["body"], sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == \
        PINNED_COARSE_CHECK[case]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_coarse_check_meets_benchmark_expectations(reports, case):
    config = {"experiment": "coarse-check", "map": case[0],
              "radius": case[1]}
    assert expect.check(config, reports[case]) is None
