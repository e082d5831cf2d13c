"""Golden corpus: the exact bytes of ``cli.run`` for every mode and format.

Each digest is the sha256 of the rendered output, recorded once from the
renderers as they stood before they were merged into one; a refactor of the
rendering or of the factor plan must leave every digest as it is.  The
degree-0 label cases (``.s0_cube``, ``.two_points``, ``.s0_q``), whose
double suspension desuspends onto degree-0 generators, were recorded from
the engine that still solved theorem_b at degree cap max_degree +
2 max_weight and desuspended the whole table.  The large-cap csv cases
(``LARGE_CAPS``), whose weight rows start far above degree 0 or whose log
derivative has many terms shifted past the degree cap, were recorded from
the free-algebra kernel that still solved every row over all degrees.
The several-factor generators cases (``generators.torus3_*``) were
recorded from the listing that still solved one Witt table per factor.
The table and json digests of the three generators cases were
re-recorded when the listing's default weight cap for labels with a
degree-1 class became max_degree; only the echoed ``max_weight`` changed,
and their csv digests are the original ones.
"""

import hashlib

import pytest

import confighom.cli as cli
from confighom.assemble import CheckReport
from confighom.hilton import HiltonReport

FORMATS = ("table", "csv", "json")

PROBLEM = {
    "field": "F2",
    "manifold": {"preset": "surface", "genus": 1},
    "n": 1,
    "label_space": {"preset": "wedge", "spheres": [2, 3]},
    "max_degree": 7,
    "seed": 0,
}

CONFIGS = {
    # no max_weight: theorem_a derives max_degree // 2
    "theorem_a": dict(PROBLEM, mode="theorem_a"),
    "theorem_b": dict(
        PROBLEM, mode="theorem_b", field="Fp:3",
        label_space={"preset": "sphere", "d": 1}, max_weight=3,
    ),
    # S^1 labels at degree cap 2: weights 3 and 4 are empty rows ("-")
    "dk_table": {
        "mode": "dk_table", "field": "F2", "manifold": {"preset": "cube", "m": 1},
        "n": 1, "label_space": {"preset": "sphere", "d": 1},
        "max_degree": 2, "max_weight": 4, "seed": 1,
    },
    # (S^1, pt) x R^1: q = 0 gives j = 2, q = 1 gives j = 1; Fp:3 mixes
    # polynomial and exterior generators
    "generators": {
        "mode": "generators", "field": "Fp:3", "manifold": {"preset": "sphere", "m": 1},
        "n": 1, "label_space": {"preset": "wedge", "spheres": [1, 2]},
        "max_degree": 9, "seed": 0,
    },
    "check:ab": {"mode": "check:ab", "seed": 2, "trials": 3, "max_degree": 10},
    "check:hilton_milnor": {"mode": "check:hilton_milnor", "max_degree": 8, "seed": 0},
}

# labels with degree-0 classes: S^0 over F2 on the interval, two points over
# F3 on S^2, and S^0 over Q on T^2 x R^2
DEGREE_ZERO_PROBLEMS = {
    "s0_cube": {
        "field": "F2", "manifold": {"preset": "cube", "m": 1}, "n": 1,
        "label_space": {"preset": "sphere", "d": 0},
        "max_degree": 4, "max_weight": 4, "seed": 0,
    },
    "two_points": {
        "field": "Fp:3", "manifold": {"preset": "sphere", "m": 2}, "n": 1,
        "label_space": {"betti": {"0": 2}}, "max_degree": 5, "max_weight": 3, "seed": 0,
    },
    "s0_q": {
        "field": "Q", "manifold": {"preset": "torus", "m": 2}, "n": 2,
        "label_space": {"preset": "sphere", "d": 0},
        "max_degree": 6, "max_weight": 4, "seed": 0,
    },
}
CONFIGS.update(
    (f"{mode}.{name}", dict(problem, mode=mode))
    for name, problem in DEGREE_ZERO_PROBLEMS.items()
    for mode in ("dk_table", "theorem_b")
)
# a plan of several factors, j = 4, 3, 2, 1 on (T^3, empty) x R^1, each
# factor's census raised from the first one's
CONFIGS.update(
    (f"generators.torus3_{field}", {
        "mode": "generators", "field": field, "manifold": {"preset": "torus", "m": 3},
        "n": 1, "label_space": {"preset": "wedge", "spheres": [1, 2]},
        "max_degree": 12, "seed": 0,
    })
    for field in ("F2", "Fp:3")
)

# caps above the benchmark's, where most weight rows start high and many
# terms of the log derivative shift past the degree cap; csv only, since
# the other formats render the same cells
LARGE_CAPS = {
    "theorem_a.surface_d200": {
        "mode": "theorem_a", "field": "F2", "manifold": {"preset": "surface", "genus": 1},
        "n": 1, "label_space": {"preset": "wedge", "spheres": [2, 3]},
        "max_degree": 200, "seed": 0,
    },
    "theorem_a.torus8_d180": {
        "mode": "theorem_a", "field": "Q", "manifold": {"preset": "torus", "m": 8},
        "n": 1, "label_space": {"preset": "sphere", "d": 2},
        "max_degree": 180, "seed": 0,
    },
    "theorem_b.s0_cube_d200": {
        "mode": "theorem_b", "field": "F2", "manifold": {"preset": "cube", "m": 1},
        "n": 1, "label_space": {"preset": "sphere", "d": 0},
        "max_degree": 200, "max_weight": 200, "seed": 0,
    },
}

DIGESTS = {
    "check:ab/table": (0, "400788ea352d5fe5966899829c7b8ce18341cd0e3e9a9508ff495f3f2a14302d"),
    "check:ab/csv": (0, "2953d2d91e625f5773e2914841b414af1e6f241d77e3ef48a22b9b7401e1cb17"),
    "check:ab/json": (0, "87aa6ef53526e67274885462c4dd296ff940dceda81cb30128404e7709d5cb66"),
    "check:hilton_milnor/table": (0, "6c7e8bb63cdae2edbbd5c97f1ed4e85a6c18a692108ebe4b188bf6538e0985f7"),
    "check:hilton_milnor/csv": (0, "45c78d41e05f25a84ff631b4262a3d217a36f27d3ebfc82a0485e9eb8bc75126"),
    "check:hilton_milnor/json": (0, "61761429950e263e70e37aa0589cd5076a114a54481060c701a68158d326382c"),
    "dk_table/table": (0, "7f3e3dd80d6ea46887abc75518979dcf04f4709c5bbf8ce2700dd8b167da93e9"),
    "dk_table/csv": (0, "97fef3759a13075975f334a428bd76b495259e2a1f90bf995e912e5496f62302"),
    "dk_table/json": (0, "7a3b15df8d3174c7f3acc0886367e8b34831ede2c6f06fea9f9407e65ed63e26"),
    "generators/table": (0, "d442745b9bcb90a20519ab14204f74c8a2e7e3832bf311cb548bb182dbda584a"),
    "generators/csv": (0, "807ecdd8c37314f96ee7cdcdab32abfd962340b06f27dc2a2b121bc494b128ee"),
    "generators/json": (0, "c6f833e6e7d9e8df0c28409e5e7706387f22247a143a4e3f9e1e507b364cf07e"),
    "generators.torus3_F2/table": (0, "348712ce27e6ce0c8c832b4fc837b94712cd53c60b518907e45ba622cdd11457"),
    "generators.torus3_F2/csv": (0, "925d1d57b5e00d034aa2e4edc728dfd0ad93a97bc1bc559fc3f586188c0fcb4b"),
    "generators.torus3_F2/json": (0, "c35ca76e891aa87b3e6ba83a0e23eeb1fafd8c66ac2f26a2a7db3cf76ae21fe1"),
    "generators.torus3_Fp:3/table": (0, "cf9d5510fa951f48f5838958df61317926be3e1ae96cfd628a626ee19116e04d"),
    "generators.torus3_Fp:3/csv": (0, "c795e15f914b132efa79181fefcfba43cea00dd3414c26fce430f9a76f9854fd"),
    "generators.torus3_Fp:3/json": (0, "469a4bf0a3f9cd91b267a575a4c1dc51200b567c762dc2dfd622c8ed023a4779"),
    "theorem_a/table": (0, "6111ede66efc5d2b392f394cd46aab3fec4f03412247d80c09e7ce92f82e9782"),
    "theorem_a/csv": (0, "ae6703744fac9f19fd2774c6c19cf7bad14da52c94ae4e80e3b219a1c4257d18"),
    "theorem_a/json": (0, "3dd2852e24bbcb5e6d37a660ffb2c049c84b2a2bd6ea0ebbce3633fb1a4de57b"),
    "theorem_b/table": (0, "5c45cff7b37521a2670212c735c3b58f6b48a153c3d1b54da5ce2d6dc4a5a357"),
    "theorem_b/csv": (0, "af96352cb3f2396c8834f7551904cf4bce3cdde2529618e064ee1f0434473d9b"),
    "theorem_b/json": (0, "873495696a721db321232cd6b7717e68a8a0e2c3708f284cb78174bda0d5b83e"),
    "dk_table.s0_cube/table": (0, "1888c3cb20f45acf5cca57bf3e110d7acbbb77b2b05891ae4f2f86f5039977ef"),
    "dk_table.s0_cube/csv": (0, "bcf442bf21545c7727cda9ed568e91c7a0f28aa51343ad2506ce3b511493574e"),
    "dk_table.s0_cube/json": (0, "25bfb8273285688729e4ce7d7c883c3120b1bca9e1466b8f1dc01f1acdd4c9c8"),
    "dk_table.s0_q/table": (0, "1b58e4eaa3977607ae6d1e570b2a123c5c7706a6075f9e60cc1a022f4a78b484"),
    "dk_table.s0_q/csv": (0, "fef4fde9815eee9a918d9dba40c5c7a1b094d3b9b7b9bebd719dd9995c87a6f0"),
    "dk_table.s0_q/json": (0, "c80abfb8e2fb24268cb4c42267f49eecdaf7f2b19d79038b5a6fc1be33584a76"),
    "dk_table.two_points/table": (0, "ffbd8172a9ac55f87e6a05904f22c01c05c0b3f0d60fe6a5c61cf36351a8ac9c"),
    "dk_table.two_points/csv": (0, "868db687a9d2fd8048a238129610389306ebc70c98a533ddd076a5b65d393a65"),
    "dk_table.two_points/json": (0, "7ee38b1691128cfbf019fc4fd02ef082b356a46dca79ab770052ac9e9fc4a5b1"),
    "theorem_b.s0_cube/table": (0, "a47075155b8f1405458dd26d496aef595ca35b2bb4a4fef45c4aa8396b88a9a4"),
    "theorem_b.s0_cube/csv": (0, "46f9c76d5c495fd27f1becc923113761afb72554e140895344baf82a71dd09b1"),
    "theorem_b.s0_cube/json": (0, "b1543d4cf2b3eaf9724fe371de3196cd197f97ad5a769b9c332dc2fd3aeb703a"),
    "theorem_b.s0_q/table": (0, "7fab79883b08ee84bb82f9915fd1687c0c8ea4fac680d16a86aebc40c33ed997"),
    "theorem_b.s0_q/csv": (0, "5bd316b541ce5d3ae18c903312cac2cf5a91733bc195181bac02977bedb26cab"),
    "theorem_b.s0_q/json": (0, "c7e9e5a03ab82af041be08f13f18d46f972f04b3aa1c551d5b2fedfcc50989b5"),
    "theorem_b.two_points/table": (0, "81c2e59c761b7e40a314c78ced667007e3ae9479ea2bfe4ac03e242fd7914f3b"),
    "theorem_b.two_points/csv": (0, "e01c59b22eb997e608bb5f449df7b61be684c7e0d7bb08d41d2a849c7b4a6c94"),
    "theorem_b.two_points/json": (0, "ed130aaaa9f05b86d131b07c924b0ef6baccc3e4e9924b1b851a325230138848"),
    "theorem_a.surface_d200/csv": (0, "b2d290e2a336bcc2a0919d240fa6498690bc298b6e9b7ff0ce5256127b3a3f3d"),
    "theorem_a.torus8_d180/csv": (0, "93249ce9b0ab7052a60a697e8e225fd6886d4a027de04ab7d8131dc2d5ecc033"),
    "theorem_b.s0_cube_d200/csv": (0, "4bb4ca2533d4dc96060d6a125674ee4120f851e845ed29bc13a6d1e3ceb5d078"),
    "failing check:ab/table": (1, "09b5e7e324b10dccefdec139909fa3012daee7fda0dc208b99dd199e748becbb"),
    "failing check:ab/csv": (1, "681af9265112f1a5dbe79009e415435d5ca56cd84c3d22a179a8f33091fc32f1"),
    "failing check:ab/json": (1, "36840aff6cacf9fd5ba5680a6e2cf1dceedf6446f4260cdc853bfdc2efd54423"),
    "failing check:hilton_milnor/table": (1, "a3fb63b723413a544e7304272152778fa7c88390d76156a0824a0d96d7565599"),
    "failing check:hilton_milnor/csv": (1, "e793253a56a4df773741ad1fa32b5acd0475f39f44bee0cf833656e212b0b8f9"),
    "failing check:hilton_milnor/json": (1, "951eabde6f5f5dbf15468f5074b644b966f95329fe313ff4281e76defc463477"),
}


def _digest(config):
    status, text = cli.run(dict(config))
    return status, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_output_bytes_match_the_golden_corpus(mode, fmt):
    assert _digest(dict(CONFIGS[mode], format=fmt)) == DIGESTS[f"{mode}/{fmt}"]


@pytest.mark.parametrize("name", sorted(LARGE_CAPS))
def test_large_cap_output_bytes_match_the_golden_corpus(name):
    assert _digest(dict(LARGE_CAPS[name], format="csv")) == DIGESTS[f"{name}/csv"]


def _failing_ab(**_kwargs):
    return CheckReport(
        name="ab_coherence", passed=False, cases=1,
        failures=[{"case": 0, "first_mismatches": [[4, 2, 1, 0]]}],
    )


def _failing_hilton(*_args, **_kwargs):
    return HiltonReport(
        passed=False, max_degree=3, words_used=2, first_mismatch=(3, 1, 2),
        lhs_totals=[1, 0, 1, 1], rhs_totals=[1, 0, 1, 2],
    )


@pytest.mark.parametrize("fmt", FORMATS)
def test_failing_checks_render_their_detail(monkeypatch, fmt):
    monkeypatch.setattr(cli, "ab_coherence_report", _failing_ab)
    monkeypatch.setattr(cli, "hilton_milnor_check", _failing_hilton)
    got = {
        mode: _digest(dict(CONFIGS[mode], format=fmt))
        for mode in ("check:ab", "check:hilton_milnor")
    }
    assert got == {
        mode: DIGESTS[f"failing {mode}/{fmt}"]
        for mode in ("check:ab", "check:hilton_milnor")
    }
