"""Golden corpus: the exact bytes of ``cli.run`` for every mode and format.

Each digest is the sha256 of the rendered output, recorded once from the
renderers as they stood before they were merged into one; a refactor of the
rendering or of the factor plan must leave every digest as it is.
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
    "generators/table": (0, "c177a0e4dcc59bb72aefb4cfcd9cb8b7202bcf95667ff3bbf406696651517e0c"),
    "generators/csv": (0, "807ecdd8c37314f96ee7cdcdab32abfd962340b06f27dc2a2b121bc494b128ee"),
    "generators/json": (0, "ade8f098cecd7c2c1bd41c7a235342ca910373dad150b2cd0a6d865d5a128589"),
    "theorem_a/table": (0, "6111ede66efc5d2b392f394cd46aab3fec4f03412247d80c09e7ce92f82e9782"),
    "theorem_a/csv": (0, "ae6703744fac9f19fd2774c6c19cf7bad14da52c94ae4e80e3b219a1c4257d18"),
    "theorem_a/json": (0, "3dd2852e24bbcb5e6d37a660ffb2c049c84b2a2bd6ea0ebbce3633fb1a4de57b"),
    "theorem_b/table": (0, "5c45cff7b37521a2670212c735c3b58f6b48a153c3d1b54da5ce2d6dc4a5a357"),
    "theorem_b/csv": (0, "af96352cb3f2396c8834f7551904cf4bce3cdde2529618e064ee1f0434473d9b"),
    "theorem_b/json": (0, "873495696a721db321232cd6b7717e68a8a0e2c3708f284cb78174bda0d5b83e"),
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
