"""Report bodies and induced-map reports pinned by sha256.

Each hash is of json.dumps(body, sort_keys=True), recorded while
groupoid cohomology still Smith-reduced the transposed boundaries and a
nerve walked its lower degrees again for each basis.  The tables now
read one form per boundary, so these pins hold the reports to what they
were: the eight CLI defaults, morita-check on the group pairs of the
benchmark's homology-tables menu (max degree 2) and on the three
coupling scenarios (max degree 1), homology-finite tables over Z, Q and
Z/2, and induced maps on group-ring homology at ranks 1 and 2.  The
rank-2 homology-finite bodies were recorded while every rank-k table
still Smith-reduced kron(d, I_k); the tables now read rank k off the
rank-1 forms, and these pins hold them to the reduced kron route."""

import hashlib
import json

import pytest

from coarsehom.cli import EXPERIMENTS, run_experiment
from coarsehom.gallery import get_map
from coarsehom.homology import induced_map_on_homology


def _morita(group_a, group_b, scenario, max_degree):
    return {"experiment": "morita-check", "group_a": group_a,
            "group_b": group_b, "scenario": scenario,
            "max_degree": max_degree}


def _homology(group, ring):
    return {"experiment": "homology-finite", "group": group, "ring": ring}


def _rank2(group, module, max_degree, ring):
    return {"experiment": "homology-finite", "group": group,
            "module": module, "max_degree": max_degree, "rank": 2,
            "ring": ring}


PINNED_BODIES = {
    "default-chain-suite": (
        {"experiment": "chain-suite"},
        "fe505d66eb2120a8a4657a6715b0dd73ac810e16a312a29d0bea7d1cac9d05c6"),
    "default-coarse-check": (
        {"experiment": "coarse-check"},
        "dcbfedc06f7a88a58c03a78cc890b68e66cfc71d2039d6808a856d9d07f23c91"),
    "default-dynamics-roundtrip": (
        {"experiment": "dynamics-roundtrip"},
        "016dae25809fcb2cbd9b12e370f2feaa350a37220d13710397dc14e21f2e12f5"),
    "default-homology-finite": (
        {"experiment": "homology-finite"},
        "a125ba35857635dd69308ffe4b66b0c6c256b243479a9cd4504676ee68e51e67"),
    "default-homotopy-suite": (
        {"experiment": "homotopy-suite"},
        "1069218a84552099c739f311fc1e372e898c39a4d72c4e1d6c47001083b5206d"),
    "default-morita-check": (
        {"experiment": "morita-check"},
        "0e1e6afd70d27c1ac420e387ef00f3d3f68c866621abc571366ac01fbd107edd"),
    "default-omega-build": (
        {"experiment": "omega-build"},
        "2bffdc0f90d8a63a06fea871c63e6e7314431d3c947d9a65a8d04227bfc3c989"),
    "default-window-boundary": (
        {"experiment": "window-boundary"},
        "55361cdba4d9ede9d45c0859d666a9645efd7c191a12012bf22c9ef71004466a"),
    "morita-Z/4-Z/2": (
        _morita("Z/4", "Z/2", "z4-z2-kakutani", 2),
        "0e1e6afd70d27c1ac420e387ef00f3d3f68c866621abc571366ac01fbd107edd"),
    "morita-Z/2xZ/2-Z/4": (
        _morita("Z/2xZ/2", "Z/4", "z4-z2-kakutani", 2),
        "10d044a35e9a3c60a11e7853d7a81ba18c7497912bfd95a960ea45530be90475"),
    "morita-Z/4-Z/2xZ/2": (
        _morita("Z/4", "Z/2xZ/2", "z4-z2-kakutani", 2),
        "8c2718b41ac04a4d7621d07921c41d4d4d6c8d1cb87933c7acebff6a162df4ce"),
    "morita-product-coupling": (
        _morita("Z/4", "Z/2", "product-coupling", 1),
        "842db531a8cf4ba08eeb32519a9c630f5cb3b1fcdfeecc05f8d6929a9847c2cf"),
    "morita-z4-z2-twist": (
        _morita("Z/4", "Z/2", "z4-z2-twist", 1),
        "74ca1d84646fb35068946e32ad57720c501332e2f0de2c479bed4a0213294c06"),
    "morita-dihedral-flip": (
        _morita("Z/4", "Z/2", "dihedral-flip", 1),
        "e178507328026d7fed443384c5a44fa128caf66f8171edf19cd24653e748d9c9"),
    "homology-Z/4-Z": (
        _homology("Z/4", "Z"),
        "ad55f7cd64fe2d19bb4cc09f8c92e9a6be7b8fb113ca6acdcaec93adc6a58733"),
    "homology-Z/4-Q": (
        _homology("Z/4", "Q"),
        "8fe6238e8311527f0e72b2027dddddad0673036bb818d3fe1765b143f4417287"),
    "homology-Z/4-Z/2": (
        _homology("Z/4", "Z/2"),
        "a946d5617370a86858f732ae9ad4ff1a39205e17ebfa54a90436399f7b0b00ab"),
    "homology-D3-Z": (
        _homology("D3", "Z"),
        "44122af6b54391bf2a2b3bf54d5d621d3d54bd053a6a43468dad804d4129826b"),
    "homology-D3-Q": (
        _homology("D3", "Q"),
        "53d677014e03787fee712631dd207416fb88225a000001de609213917afbe2f7"),
    "homology-D3-Z/2": (
        _homology("D3", "Z/2"),
        "e3089a19a99fae8dccca53fcce4adabe74de95008e17e93a1f3280413bca7921"),
    "rank2-Z/3-group-ring-Z": (
        _rank2("Z/3", "group-ring", 2, "Z"),
        "43d51c954db36b32767e4d0b41ef1e96fe6ad08f7d5cb459db6d155e6daf7ad9"),
    "rank2-Z/3-group-ring-Q": (
        _rank2("Z/3", "group-ring", 2, "Q"),
        "954715d7f6dbaa7b8d11a088427ebdd52956db8ebbddd3da8d8ed597f781a1f7"),
    "rank2-Z/3-group-ring-Z/2": (
        _rank2("Z/3", "group-ring", 2, "Z/2"),
        "f81e019a338f25339e7fedcb551469408c2cd08ce509f0507f97fa31195cb875"),
    "rank2-Z/4-trivial-Z": (
        _rank2("Z/4", "trivial", 3, "Z"),
        "8d9d05246f0bf24007a3c7d56cf55bf488bdbb0ff1f79913e67d274162ce975f"),
    "rank2-Z/4-trivial-Q": (
        _rank2("Z/4", "trivial", 3, "Q"),
        "7780889621dd984fb0178de29b8f3dc2f52a9e79f4529a957230f7883ac4a7fd"),
    "rank2-Z/4-trivial-Z/2": (
        _rank2("Z/4", "trivial", 3, "Z/2"),
        "9867a63355180b2b4b4b5a9f3227f29bfff45438fb84d5d473a022a3fae28f7f"),
    "rank2-Z/2xZ/2-group-ring-Z": (
        _rank2("Z/2xZ/2", "group-ring", 2, "Z"),
        "306552fbc9aadd8b3fa1fba89afe223754f46ed3e01cbcd807b083e24a659b1b"),
    "rank2-Z/2xZ/2-group-ring-Q": (
        _rank2("Z/2xZ/2", "group-ring", 2, "Q"),
        "cfd844de2a96fba59133d9afebc312a0de7b0bd0cd17c42d1062c75335bb5066"),
    "rank2-Z/2xZ/2-group-ring-Z/2": (
        _rank2("Z/2xZ/2", "group-ring", 2, "Z/2"),
        "2597d88bbec7e4aa8c12baf8c02c535ad945bd7f0ab518bb70e0bdb3e361addc"),
}

# (map, rank) -> sha256 of json.dumps(induced_map_on_homology(map, 2,
# rank=rank), sort_keys=True)
PINNED_INDUCED = {
    ("triv-into-z2", 1):
        "ee615d607b68b8bb99ebbcc984229bbce22919ecff60364f42d842814f068d36",
    ("triv-into-z2", 2):
        "37ae6bb2026262e1e0f9f0db12ff354d82bff6370f256712d726956e8215aa60",
    ("z2-to-z3-const", 1):
        "d648345c5e514a196d38ca384b5bfa0491535b645d564a89298992571c753034",
    ("z2-to-z3-const", 2):
        "05dccac1140dd15ca753d0088674c06191f770c50d01090e6dec1bbc1f99143d",
    ("z4-mod-z2", 1):
        "e1ef45055173afb694ee37377d8daa84f8e2500110151069e72fd1ad10f2521c",
    ("z4-mod-z2", 2):
        "74e3e00cea0d808617971e2988d4694c0ad2e1fc4a6b5a7d803403e07d766cec",
}


def _sha(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_every_experiment_default_is_pinned():
    assert {cfg["experiment"] for name, (cfg, _) in PINNED_BODIES.items()
            if name.startswith("default-")} == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_report_body_pinned(name):
    config, want = PINNED_BODIES[name]
    assert _sha(run_experiment(config)["body"]) == want


@pytest.mark.parametrize("case", sorted(PINNED_INDUCED),
                         ids=[f"{m}-rank{r}" for m, r in
                              sorted(PINNED_INDUCED)])
def test_induced_map_report_pinned(case):
    name, rank = case
    assert _sha(induced_map_on_homology(get_map(name), 2, rank=rank)) == \
        PINNED_INDUCED[case]
