"""Report bodies and induced-map reports pinned by sha256.

Each hash is of json.dumps(body, sort_keys=True), recorded while
groupoid cohomology still Smith-reduced the transposed boundaries and a
nerve walked its lower degrees again for each basis.  The tables now
read one form per boundary, so these pins hold the reports to what they
were: the eight CLI defaults, morita-check on the group pairs of the
benchmark's homology-tables menu (max degree 2) and on the three
coupling scenarios (max degree 1), dynamics-roundtrip on every scenario,
homology-finite tables over Z, Q and Z/2, and induced maps on group-ring
homology at ranks 1 and 2.  The dynamics-roundtrip bodies of the three
non-default scenarios were recorded while coupling_to_couple and the
validators still spelled out the G side and the H side separately.  The
rank-2 homology-finite bodies were recorded while every rank-k table
still Smith-reduced kron(d, I_k); the tables now read rank k off the
rank-1 forms, and these pins hold them to the reduced kron route.

The negative window verdicts were recorded while every window was solved
by one dense Smith form of the whole window; a negative verdict still
takes that route for the obstruction it names, and these pins hold its
position and value to what they were."""

import hashlib
import json

import pytest

from coarsehom.cli import EXPERIMENTS, run_experiment
from coarsehom.complexes import boundary, random_chain
from coarsehom.gallery import get_group, get_map
from coarsehom.homology import induced_map_on_homology, is_boundary_window
from coarsehom.rings import ring_from_name


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
    "dynamics-roundtrip-z4-z2-twist": (
        {"experiment": "dynamics-roundtrip", "scenario": "z4-z2-twist"},
        "dc937a795df3986addf22c62783ef192835473798445a1d00e8b1fe167d7d472"),
    "dynamics-roundtrip-dihedral-flip": (
        {"experiment": "dynamics-roundtrip", "scenario": "dihedral-flip"},
        "6cedec0cae80a412e6cbb9f1cc63cd961e7d381b1c474a13959dfd1b237563f9"),
    "dynamics-roundtrip-z4-z2-kakutani": (
        {"experiment": "dynamics-roundtrip", "scenario": "z4-z2-kakutani"},
        "e02c6bc87b6f77658c75fee46d61531cb3b1fa63778d771311e17b580b3c3ac7"),
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


# (group, ring, seed, x_radius, tuple_radius) -> sha256 of the
# negative window verdict of that sweep cycle (see _window_sweep)
PINNED_NEGATIVE_WINDOWS = {
    ("Z", "Z", 0, 1, 1):
        "4bd3b01c2a14bb590e6bbbdb3c0cc4915c6ba54a56540c4c72f6bb0a1515fc11",
    ("Z", "Z", 0, 2, 1):
        "d5b1046ce1a8a93691b318cf5a617c2e4702adc14ecb09e4d765c1c0eb3e1d8e",
    ("Z", "Z", 1, 1, 1):
        "26f031b591d888b39ce4d80ca9c182de090a9c723c5261a3387c275eb1eb48dc",
    ("Z", "Z", 1, 2, 1):
        "2d232430147cc579a6bc51396d35567d4f41601b1dcf7dff684531087379104c",
    ("Z", "Z", 2, 1, 1):
        "da5468ed46ef07bf21dc136414d0eec6d26b2a8218d98c4abb8d43918c7e6710",
    ("Z", "Z", 3, 1, 1):
        "26f031b591d888b39ce4d80ca9c182de090a9c723c5261a3387c275eb1eb48dc",
    ("Z", "Z", 3, 2, 1):
        "2a109f254085cc026b214561c22d1b39b8ca72821629caba672d7927b12c216d",
    ("Z", "Z", 4, 1, 1):
        "4ae23b043c21194a8bebc3081de8973413b5af0db40976960b57e9d6c85d3258",
    ("Z", "Z", 5, 1, 1):
        "f949368d13ebaeb7271a0fb2331bd780187dc8b63ae6acb06cd6e61aeb4d8a00",
    ("Z", "Z", 5, 2, 1):
        "3df6adaf4b1cd001fc7fac6edbd64ae67a62ef2d6cd1d63c5e1734b99cc4be81",
    ("Z", "Z", 6, 1, 1):
        "6009a4f67a09a8b7376f828031cc15ca6188143dcc05fef9840af43a1f2072f3",
    ("Z", "Z", 7, 1, 1):
        "0647a10bd994ffd228a931168ca1d6866715561f9055c1d861526e759757e24a",
    ("Z", "Z", 7, 2, 1):
        "7c5da861057c8a09b3acccf5642f4c64d799cbc0d977b27fe14e6da2906b1df9",
    ("Z", "Z", 8, 1, 1):
        "85d3ffd1d493e4d85b9ab6d3d301b42cfe115c6101e23ca52a65561b831458b6",
    ("Z", "Z", 9, 1, 1):
        "c392c2598f4a0931fbe939a78a6eb6df122dbb601aafa823735c7e780908ab27",
    ("Z", "Z", 9, 2, 1):
        "75bc397118e6de27b73a49bd3f8469f8722ce34e1cba2b550926e2751c9a7f11",
    ("Z", "Q", 0, 1, 1):
        "4bd3b01c2a14bb590e6bbbdb3c0cc4915c6ba54a56540c4c72f6bb0a1515fc11",
    ("Z", "Q", 0, 2, 1):
        "d5b1046ce1a8a93691b318cf5a617c2e4702adc14ecb09e4d765c1c0eb3e1d8e",
    ("Z", "Q", 1, 1, 1):
        "26f031b591d888b39ce4d80ca9c182de090a9c723c5261a3387c275eb1eb48dc",
    ("Z", "Q", 1, 2, 1):
        "2d232430147cc579a6bc51396d35567d4f41601b1dcf7dff684531087379104c",
    ("Z", "Q", 2, 1, 1):
        "da5468ed46ef07bf21dc136414d0eec6d26b2a8218d98c4abb8d43918c7e6710",
    ("Z", "Q", 3, 1, 1):
        "26f031b591d888b39ce4d80ca9c182de090a9c723c5261a3387c275eb1eb48dc",
    ("Z", "Q", 3, 2, 1):
        "2a109f254085cc026b214561c22d1b39b8ca72821629caba672d7927b12c216d",
    ("Z", "Q", 4, 1, 1):
        "4ae23b043c21194a8bebc3081de8973413b5af0db40976960b57e9d6c85d3258",
    ("Z", "Q", 5, 1, 1):
        "f949368d13ebaeb7271a0fb2331bd780187dc8b63ae6acb06cd6e61aeb4d8a00",
    ("Z", "Q", 5, 2, 1):
        "3df6adaf4b1cd001fc7fac6edbd64ae67a62ef2d6cd1d63c5e1734b99cc4be81",
    ("Z", "Q", 6, 1, 1):
        "6009a4f67a09a8b7376f828031cc15ca6188143dcc05fef9840af43a1f2072f3",
    ("Z", "Q", 7, 1, 1):
        "0647a10bd994ffd228a931168ca1d6866715561f9055c1d861526e759757e24a",
    ("Z", "Q", 7, 2, 1):
        "7c5da861057c8a09b3acccf5642f4c64d799cbc0d977b27fe14e6da2906b1df9",
    ("Z", "Q", 8, 1, 1):
        "85d3ffd1d493e4d85b9ab6d3d301b42cfe115c6101e23ca52a65561b831458b6",
    ("Z", "Q", 9, 1, 1):
        "c392c2598f4a0931fbe939a78a6eb6df122dbb601aafa823735c7e780908ab27",
    ("Z", "Q", 9, 2, 1):
        "75bc397118e6de27b73a49bd3f8469f8722ce34e1cba2b550926e2751c9a7f11",
    ("Dinf", "Z", 0, 1, 1):
        "e6999db4b78a5393b1844c88b4a303618c15d9743e3159204b82ae5799d8db57",
    ("Dinf", "Z", 0, 2, 1):
        "4f07814092e87aaab46c5c3c644e7da85d2425dd428a3f18dba6a97e9138e611",
    ("Dinf", "Z", 1, 1, 1):
        "cfd8a44005c582ea377c6e195fe38418cefc7332651e0ebb9496c896d98e7042",
    ("Dinf", "Z", 1, 2, 1):
        "dc8673c29de9b861c872178d2689e386530423cb66695f994fb150d9ce6b482e",
    ("Dinf", "Z", 3, 1, 1):
        "83c39d249b38417c54608e0625024d2278f65ddd09976458e31cc88a484b9967",
    ("Dinf", "Z", 4, 1, 1):
        "74f19fc813013d7960e282168291ab88751525bb853565defa7a59d79eb83e97",
    ("Dinf", "Z", 4, 2, 1):
        "a60b912462e4ca7567be9d86b489720c94f720ff73e70dfab5d8288573774d6b",
    ("Dinf", "Z", 5, 1, 1):
        "5754588604677601059924b54d1e7f91eedd580120f3073872683c1419aad3c7",
    ("Dinf", "Z", 5, 2, 1):
        "588768f7b6953b7a3b0c38e18107b5609a25602718b8c5947ac9d562b8543dbe",
    ("Dinf", "Z", 6, 1, 1):
        "dc99425491269fe95904136542e01ebdaf70edecb43d4e9eb0e5cb3f57f38773",
    ("Dinf", "Z", 6, 2, 1):
        "3ca97c877c59038ba27d3159e5492264f429561a5b3113504a34930f32d8ad3f",
    ("Dinf", "Z", 7, 1, 1):
        "1e7f8b2af4a2d33a718c7d356c8c7342923f555d36390558753fdfa8baeea0e6",
    ("Dinf", "Z", 7, 2, 1):
        "224a504b124a681737a36d59e7cb696bc1b6ff46f7ffc90b98b075a3adfc1db3",
    ("Dinf", "Z", 8, 1, 1):
        "cbaadeb69f33c09391ab49ec59bca9fcc9445480a0c5189364bc16035ab152c9",
    ("Dinf", "Z", 8, 2, 1):
        "ed916496ec4cacc7c1726aa57adeb4afa82ded8743d23c0f94c4df127c8206cb",
    ("Dinf", "Z", 9, 1, 1):
        "a49d99339a1460e2dbcd8fbb89193d408187733b066a9745d7da532752562a09",
    ("Dinf", "Z", 9, 2, 1):
        "dd6c7ae9f7c4cbd917d5b38d16b86868e4d70115bafd3f34c66de2bfceebdb32",
    ("Dinf", "Q", 0, 1, 1):
        "e6999db4b78a5393b1844c88b4a303618c15d9743e3159204b82ae5799d8db57",
    ("Dinf", "Q", 0, 2, 1):
        "4f07814092e87aaab46c5c3c644e7da85d2425dd428a3f18dba6a97e9138e611",
    ("Dinf", "Q", 1, 1, 1):
        "cfd8a44005c582ea377c6e195fe38418cefc7332651e0ebb9496c896d98e7042",
    ("Dinf", "Q", 1, 2, 1):
        "dc8673c29de9b861c872178d2689e386530423cb66695f994fb150d9ce6b482e",
    ("Dinf", "Q", 3, 1, 1):
        "83c39d249b38417c54608e0625024d2278f65ddd09976458e31cc88a484b9967",
    ("Dinf", "Q", 4, 1, 1):
        "74f19fc813013d7960e282168291ab88751525bb853565defa7a59d79eb83e97",
    ("Dinf", "Q", 4, 2, 1):
        "a60b912462e4ca7567be9d86b489720c94f720ff73e70dfab5d8288573774d6b",
    ("Dinf", "Q", 5, 1, 1):
        "5754588604677601059924b54d1e7f91eedd580120f3073872683c1419aad3c7",
    ("Dinf", "Q", 5, 2, 1):
        "588768f7b6953b7a3b0c38e18107b5609a25602718b8c5947ac9d562b8543dbe",
    ("Dinf", "Q", 6, 1, 1):
        "dc99425491269fe95904136542e01ebdaf70edecb43d4e9eb0e5cb3f57f38773",
    ("Dinf", "Q", 6, 2, 1):
        "3ca97c877c59038ba27d3159e5492264f429561a5b3113504a34930f32d8ad3f",
    ("Dinf", "Q", 7, 1, 1):
        "1e7f8b2af4a2d33a718c7d356c8c7342923f555d36390558753fdfa8baeea0e6",
    ("Dinf", "Q", 7, 2, 1):
        "224a504b124a681737a36d59e7cb696bc1b6ff46f7ffc90b98b075a3adfc1db3",
    ("Dinf", "Q", 8, 1, 1):
        "cbaadeb69f33c09391ab49ec59bca9fcc9445480a0c5189364bc16035ab152c9",
    ("Dinf", "Q", 8, 2, 1):
        "ed916496ec4cacc7c1726aa57adeb4afa82ded8743d23c0f94c4df127c8206cb",
    ("Dinf", "Q", 9, 1, 1):
        "a49d99339a1460e2dbcd8fbb89193d408187733b066a9745d7da532752562a09",
    ("Dinf", "Q", 9, 2, 1):
        "dd6c7ae9f7c4cbd917d5b38d16b86868e4d70115bafd3f34c66de2bfceebdb32",
    ("Z2", "Z", 0, 1, 1):
        "d0fe43166d62e0646cb83478084f810e184298a8672cb4925a1cd4643eb50011",
    ("Z2", "Z", 0, 2, 1):
        "7ffa25503f079458a3f2a0d5637d139fb8beadae2250bc138fad8a896763de16",
    ("Z2", "Z", 1, 1, 1):
        "c8f46f90e51a31fc91902893b0a71c8a393c8b178da8dad3b419662f1b29efa5",
    ("Z2", "Z", 1, 2, 1):
        "ffb5604fa458beb5c127851dd9a1f2cf26968ded712f2cf7e80e81a7887f8d73",
    ("Z2", "Z", 2, 1, 1):
        "79677b9e5af390ab250620ed9fe766bf5268c8096a8f24dfa9c9481a126e2849",
    ("Z2", "Z", 2, 2, 1):
        "4c1fd4755c8fa2ceadac7b36ccca0f23336dbc899d2910b66b441a64109c2fbc",
    ("Z2", "Z", 3, 1, 1):
        "936369d7c2e1bd6b431769550f70e0ba86378e6e37c5b2dd3751cfa32673aa8d",
    ("Z2", "Z", 3, 2, 1):
        "5e7f92d1718e1e7f36f5e05f58bae61c433a934a8adff5e8b0e99439d21bb066",
    ("Z2", "Z", 4, 1, 1):
        "e957cca4fe6e7427441052655eb02d5a8a1ad2ebf12de0c28f3b44189098ca56",
    ("Z2", "Z", 4, 2, 1):
        "b6f085236cde494d3807496cf7c4ebd465657d7c5a150d2d669487774b1e1928",
    ("Z2", "Z", 5, 1, 1):
        "ae369602adb2d407a40023baadd0ff080eae8e62f6014e296dc6e127a6f61181",
    ("Z2", "Z", 5, 2, 1):
        "30d9494d1a5b8f09f7282167a70ff6c1f86ae8f0bc4b575a7e01406faa67b1d2",
    ("Z2", "Z", 6, 1, 1):
        "4b19b0ede29f555285ce86b65b802f551de83b060c31b3fbb7dab33bd6aefb50",
    ("Z2", "Z", 6, 2, 1):
        "0271730c24c64dd0e937875f84cd8bfb92c413bc74679abe8bd4d04f669344fd",
    ("Z2", "Z", 7, 1, 1):
        "a43c3953cd7dc7af9a51ae5411989b6dd7786b166b5313fa50c3e7e36243aef0",
    ("Z2", "Z", 7, 2, 1):
        "071d165b8354f076070064cea006488c9a7c015a3f1783fd64559f7314ce19e1",
    ("Z2", "Z", 8, 1, 1):
        "279c0cfdc6d7d954d97c26bc9fc374600a6aa521655f510f6a91e7986f882d99",
    ("Z2", "Z", 8, 2, 1):
        "5e7f92d1718e1e7f36f5e05f58bae61c433a934a8adff5e8b0e99439d21bb066",
    ("Z2", "Z", 9, 1, 1):
        "e21275d3c169c1cb5d7dfa5dffdd8b72d932abfa03b969526cd1dd3514cd4792",
    ("Z2", "Z", 9, 2, 1):
        "6281c3a30c0ae983f679e8649d2cf858cf77ca06264c97b1083b74c60622af5c",
    ("Z2", "Q", 0, 1, 1):
        "d0fe43166d62e0646cb83478084f810e184298a8672cb4925a1cd4643eb50011",
    ("Z2", "Q", 0, 2, 1):
        "7ffa25503f079458a3f2a0d5637d139fb8beadae2250bc138fad8a896763de16",
    ("Z2", "Q", 1, 1, 1):
        "c8f46f90e51a31fc91902893b0a71c8a393c8b178da8dad3b419662f1b29efa5",
    ("Z2", "Q", 1, 2, 1):
        "ffb5604fa458beb5c127851dd9a1f2cf26968ded712f2cf7e80e81a7887f8d73",
    ("Z2", "Q", 2, 1, 1):
        "79677b9e5af390ab250620ed9fe766bf5268c8096a8f24dfa9c9481a126e2849",
    ("Z2", "Q", 2, 2, 1):
        "4c1fd4755c8fa2ceadac7b36ccca0f23336dbc899d2910b66b441a64109c2fbc",
    ("Z2", "Q", 3, 1, 1):
        "936369d7c2e1bd6b431769550f70e0ba86378e6e37c5b2dd3751cfa32673aa8d",
    ("Z2", "Q", 3, 2, 1):
        "5e7f92d1718e1e7f36f5e05f58bae61c433a934a8adff5e8b0e99439d21bb066",
    ("Z2", "Q", 4, 1, 1):
        "e957cca4fe6e7427441052655eb02d5a8a1ad2ebf12de0c28f3b44189098ca56",
    ("Z2", "Q", 4, 2, 1):
        "b6f085236cde494d3807496cf7c4ebd465657d7c5a150d2d669487774b1e1928",
    ("Z2", "Q", 5, 1, 1):
        "ae369602adb2d407a40023baadd0ff080eae8e62f6014e296dc6e127a6f61181",
    ("Z2", "Q", 5, 2, 1):
        "30d9494d1a5b8f09f7282167a70ff6c1f86ae8f0bc4b575a7e01406faa67b1d2",
    ("Z2", "Q", 6, 1, 1):
        "4b19b0ede29f555285ce86b65b802f551de83b060c31b3fbb7dab33bd6aefb50",
    ("Z2", "Q", 6, 2, 1):
        "0271730c24c64dd0e937875f84cd8bfb92c413bc74679abe8bd4d04f669344fd",
    ("Z2", "Q", 7, 1, 1):
        "a43c3953cd7dc7af9a51ae5411989b6dd7786b166b5313fa50c3e7e36243aef0",
    ("Z2", "Q", 7, 2, 1):
        "071d165b8354f076070064cea006488c9a7c015a3f1783fd64559f7314ce19e1",
    ("Z2", "Q", 8, 1, 1):
        "279c0cfdc6d7d954d97c26bc9fc374600a6aa521655f510f6a91e7986f882d99",
    ("Z2", "Q", 8, 2, 1):
        "5e7f92d1718e1e7f36f5e05f58bae61c433a934a8adff5e8b0e99439d21bb066",
    ("Z2", "Q", 9, 1, 1):
        "e21275d3c169c1cb5d7dfa5dffdd8b72d932abfa03b969526cd1dd3514cd4792",
    ("Z2", "Q", 9, 2, 1):
        "6281c3a30c0ae983f679e8649d2cf858cf77ca06264c97b1083b74c60622af5c",
    ("F2", "Z", 0, 1, 1):
        "3bf35bfaee83d388449f0050877dcb9b48ab50bae70f8d248a591a44e02e2106",
    ("F2", "Z", 0, 2, 1):
        "ff408ad68b521b2891028fb0598838a223e1dcc75f8cd3d26256d3c8eecb898b",
    ("F2", "Z", 1, 1, 1):
        "13282f0dbcb913e9a8ca52341e8ac590aadfa9fa3375fd09a058112931cb96a5",
    ("F2", "Z", 1, 2, 1):
        "d869b89313549b12839b76245ec56890dd4aafbed4c394ed0fe402d527829a79",
    ("F2", "Z", 2, 1, 1):
        "19dc2ee4831b3f1d8fe1af4f4c240f34d4daa39be9fead0c925e9aff4f6339c5",
    ("F2", "Z", 2, 2, 1):
        "44a1dc10bc4e342293ae513d739bc5798b3158903fa091bba105abb254be8b77",
    ("F2", "Z", 3, 1, 1):
        "1c9a1f4a87ef08587dbed43b9b9343ec3faeb3a1798ebe9b3f1d22387dbaa4ae",
    ("F2", "Z", 3, 2, 1):
        "30f1ad8a7fe197281f79041ac384d311d706ca0e3ed696a41e9bcb19ce51b6bc",
    ("F2", "Z", 4, 1, 1):
        "8684d04ead4fd653e85e577dbfab8c2b98c699c7a861b09c35bbefb7c57d30d2",
    ("F2", "Z", 4, 2, 1):
        "ab3612435fb9d86fea24cf889393d39280d8f327517403d99256c29093cab81d",
    ("F2", "Z", 5, 1, 1):
        "0b80afec92e7c68c252827cf796c7ea8d87fb364ecf2b9599c7342efe0bafe54",
    ("F2", "Z", 5, 2, 1):
        "a8133a1e6c969c29a1c4f6ba72d4db774bdac5301651286fd65733cb65fa8aa8",
    ("F2", "Z", 6, 1, 1):
        "a04197de7a85f03056f1966d6b01d5597684f6174a967ccdc7009041b20e509d",
    ("F2", "Z", 6, 2, 1):
        "baad1101f3947a475dbdeecb9b7fcb71445c1637f3e8cfa0eea6a85439647bda",
    ("F2", "Z", 7, 1, 1):
        "d77938901ee89f48dbf307bec3315e99d366351d83de067002f156b7eeb468e4",
    ("F2", "Z", 7, 2, 1):
        "a86b1379b2f4265d4c7f550caba6dad96399dbed3685bbda470f8bfb4239b057",
    ("F2", "Z", 8, 1, 1):
        "8c71e315f522c056dc887350e651bcf69f774fa60661b23835142b54af4d184b",
    ("F2", "Z", 8, 2, 1):
        "8ae5774dbc24a4787961e58462e4fdd89be2e4d7b00b61f9c639d7f628f330eb",
    ("F2", "Z", 9, 1, 1):
        "025094cb1167549a70b490887daf02010a8f72c436797b3f9c97f5235df30f2b",
    ("F2", "Z", 9, 2, 1):
        "79882809eaa06c27efe23ab236b295bb04cb08609e2823937c67602366b8d49f",
    ("F2", "Q", 0, 1, 1):
        "3bf35bfaee83d388449f0050877dcb9b48ab50bae70f8d248a591a44e02e2106",
    ("F2", "Q", 0, 2, 1):
        "ff408ad68b521b2891028fb0598838a223e1dcc75f8cd3d26256d3c8eecb898b",
    ("F2", "Q", 1, 1, 1):
        "13282f0dbcb913e9a8ca52341e8ac590aadfa9fa3375fd09a058112931cb96a5",
    ("F2", "Q", 1, 2, 1):
        "d869b89313549b12839b76245ec56890dd4aafbed4c394ed0fe402d527829a79",
    ("F2", "Q", 2, 1, 1):
        "19dc2ee4831b3f1d8fe1af4f4c240f34d4daa39be9fead0c925e9aff4f6339c5",
    ("F2", "Q", 2, 2, 1):
        "44a1dc10bc4e342293ae513d739bc5798b3158903fa091bba105abb254be8b77",
    ("F2", "Q", 3, 1, 1):
        "1c9a1f4a87ef08587dbed43b9b9343ec3faeb3a1798ebe9b3f1d22387dbaa4ae",
    ("F2", "Q", 3, 2, 1):
        "30f1ad8a7fe197281f79041ac384d311d706ca0e3ed696a41e9bcb19ce51b6bc",
    ("F2", "Q", 4, 1, 1):
        "8684d04ead4fd653e85e577dbfab8c2b98c699c7a861b09c35bbefb7c57d30d2",
    ("F2", "Q", 4, 2, 1):
        "ab3612435fb9d86fea24cf889393d39280d8f327517403d99256c29093cab81d",
    ("F2", "Q", 5, 1, 1):
        "0b80afec92e7c68c252827cf796c7ea8d87fb364ecf2b9599c7342efe0bafe54",
    ("F2", "Q", 5, 2, 1):
        "a8133a1e6c969c29a1c4f6ba72d4db774bdac5301651286fd65733cb65fa8aa8",
    ("F2", "Q", 6, 1, 1):
        "a04197de7a85f03056f1966d6b01d5597684f6174a967ccdc7009041b20e509d",
    ("F2", "Q", 6, 2, 1):
        "baad1101f3947a475dbdeecb9b7fcb71445c1637f3e8cfa0eea6a85439647bda",
    ("F2", "Q", 7, 1, 1):
        "d77938901ee89f48dbf307bec3315e99d366351d83de067002f156b7eeb468e4",
    ("F2", "Q", 7, 2, 1):
        "a86b1379b2f4265d4c7f550caba6dad96399dbed3685bbda470f8bfb4239b057",
    ("F2", "Q", 8, 1, 1):
        "8c71e315f522c056dc887350e651bcf69f774fa60661b23835142b54af4d184b",
    ("F2", "Q", 8, 2, 1):
        "8ae5774dbc24a4787961e58462e4fdd89be2e4d7b00b61f9c639d7f628f330eb",
    ("F2", "Q", 9, 1, 1):
        "025094cb1167549a70b490887daf02010a8f72c436797b3f9c97f5235df30f2b",
    ("F2", "Q", 9, 2, 1):
        "79882809eaa06c27efe23ab236b295bb04cb08609e2823937c67602366b8d49f",
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


def _window_sweep():
    """The negative verdicts of a window sweep, as the result a
    window-boundary report carries: the boundary of the seeded degree-2
    chain of radius 2 (one more than those reports draw at these
    windows, so that some cycles leave the window), over Z and Q, solved
    in the windows (1, 1) and (2, 1)."""
    out = {}
    for group in ("Z", "Dinf", "Z2", "F2"):
        for ring in ("Z", "Q"):
            for seed in range(10):
                cycle = boundary(random_chain(
                    get_group(group), ring_from_name(ring), 1, 2, 2,
                    terms=3, seed=seed))
                for x_radius, tuple_radius in ((1, 1), (2, 1)):
                    res = is_boundary_window(cycle, x_radius, tuple_radius)
                    if res["verdict"] is False:
                        out[(group, ring, seed, x_radius, tuple_radius)] = \
                            _sha({k: res[k] for k in
                                  ("verdict", "window", "obstruction")})
    return out


def test_negative_window_verdicts_pinned():
    assert _window_sweep() == PINNED_NEGATIVE_WINDOWS
