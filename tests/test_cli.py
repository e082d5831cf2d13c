"""Command-line behaviour: rendering, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confighom.assemble as assemble
import confighom.cli as cli
import confighom.hilton as hilton
import confighom.loops as loops
import confighom.series as series
from confighom.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_PARSE,
    _json_text,
    load_config,
    main,
    run,
)
from confighom.errors import ConfigurationError, InvalidInputError


def base_config(**overrides):
    config = {
        "schema_version": 1,
        "field": "F2",
        "manifold": {"preset": "cube", "m": 1},
        "n": 1,
        "label_space": {"preset": "sphere", "d": 2},
        "mode": "theorem_a",
        "max_degree": 8,
        "format": "table",
        "seed": 0,
    }
    config.update(overrides)
    return config


def test_theorem_a_table_renders():
    status, text = run(base_config())
    assert status == EXIT_OK
    assert text.startswith("# confighom")
    assert "degree |" in text


def test_identical_configs_give_identical_bytes():
    _, first = run(base_config(format="json"))
    _, second = run(base_config(format="json"))
    assert first == second


def test_json_schema_keys():
    _, text = run(base_config(format="json"))
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert set(doc) == {"schema_version", "spec", "series", "checks"}
    assert all(len(row) == 3 for row in doc["series"])
    # the weight-1 slice of one relative class with S^2 labels: degree 2
    assert [2, 1, 1] in doc["series"]


def test_csv_is_degree_major_with_weight_columns():
    _, text = run(base_config(format="csv", max_degree=4))
    lines = text.strip().split("\n")
    assert lines[0].startswith("degree,w0,w1,w2")
    assert len(lines) == 6


def test_dk_table_renders_braid_rows():
    config = base_config(
        mode="dk_table",
        label_space={"preset": "sphere", "d": 0},
        max_degree=3,
        max_weight=3,
    )
    status, text = run(config)
    assert status == EXIT_OK
    assert "weight   2 | 0:1 1:1" in text
    assert "weight   3 | 0:1 1:1" in text


def test_generators_mode_lists_census():
    config = base_config(mode="generators", format="csv", max_degree=10)
    status, text = run(config)
    assert status == EXIT_OK
    assert text.splitlines()[0] == "q,j,copies,degree,weight,kind,count"
    assert "0,2,1,2,1,polynomial,1" in text


def test_generators_mode_accepts_circle_labels():
    # connected is enough for the census listing; degrees 1, 3, 7 mod 2
    config = base_config(
        mode="generators",
        format="csv",
        label_space={"preset": "sphere", "d": 1},
        max_degree=8,
    )
    status, text = run(config)
    assert status == EXIT_OK
    assert "0,2,1,1,1,polynomial,1" in text
    assert "0,2,1,3,2,polynomial,1" in text
    assert "0,2,1,7,4,polynomial,1" in text


def test_generators_mode_default_weight_cap_keeps_degree_one_towers():
    # Omega^2 S^3 = C(R^2; S^1) mod 2: a degree-1 class puts weight 4 at
    # degree 7, so the default weight cap must reach past max_degree // 2
    config = {
        "mode": "generators", "field": "F2", "manifold": {"preset": "point"},
        "n": 2, "label_space": {"preset": "sphere", "d": 1}, "max_degree": 7,
        "format": "json",
    }
    (status, text), (_, capped) = run(config), run(dict(config, max_weight=8))
    assert status == EXIT_OK
    default = json.loads(text)
    assert default["spec"]["max_weight"] == 7
    assert default["generators"] == json.loads(capped)["generators"]
    listed = [(g["degree"], g["weight"]) for g in default["generators"][0]["generators"]]
    assert listed == [(1, 1), (3, 2), (7, 4)]


@pytest.mark.parametrize(
    "manifold, solves",
    [
        # one j = 1 factor: the listing shows its letters, so nothing is solved
        ({"preset": "point"}, 0),
        # the circle mixes a j = 2 factor with a j = 1 one: one Witt solve
        ({"dim": 1, "rel_betti": {"0": 1, "1": 1}}, 1),
    ],
)
def test_generators_mode_solves_a_census_only_for_a_factor_that_lists_one(
    monkeypatch, manifold, solves
):
    calls = []
    real = loops.lie_atom_counts

    def spy(*call):
        calls.append(call)
        return real(*call)

    monkeypatch.setattr(loops, "lie_atom_counts", spy)
    config = base_config(
        mode="generators",
        format="json",
        manifold=manifold,
        label_space={"preset": "wedge", "spheres": [1, 2]},
        max_degree=120,
    )
    status, text = run(config)
    assert status == EXIT_OK and len(calls) == solves
    # the top relative class (q = m_dim) lists its letters Sigma^q (S^1 v S^2)
    top = json.loads(text)["generators"][-1]
    q = top["q"]
    assert top == {
        "q": q,
        "j": 1,
        "copies": 1,
        "kind": "free_associative",
        "generators": [
            {"degree": 1 + q, "weight": 1, "count": 1},
            {"degree": 2 + q, "weight": 1, "count": 1},
        ],
    }


def test_generators_mode_rejects_disconnected_labels():
    config = base_config(
        mode="generators", label_space={"preset": "sphere", "d": 0}
    )
    with pytest.raises(InvalidInputError, match="connected"):
        run(config)


def test_theorem_a_rejects_circle_labels():
    config = base_config(label_space={"preset": "sphere", "d": 1})
    with pytest.raises(InvalidInputError, match="simply connected"):
        run(config)


def test_unknown_mode_rejected():
    with pytest.raises(InvalidInputError):
        run(base_config(mode="theorem_c"))


def test_check_ab_passes():
    config = {"mode": "check:ab", "seed": 3, "trials": 4, "max_degree": 14,
              "format": "table"}
    status, text = run(config)
    assert status == EXIT_OK
    assert "check ab_coherence: PASS" in text


def test_check_hilton_default_suite():
    config = {"mode": "check:hilton_milnor", "max_degree": 12, "format": "json",
              "seed": 0}
    status, text = run(config)
    assert status == EXIT_OK
    doc = json.loads(text)
    assert [c["status"] for c in doc["checks"]] == ["pass", "pass"]


def test_check_hilton_configured_case():
    config = {
        "mode": "check:hilton_milnor",
        "field": "F2",
        "manifold": {"preset": "sphere", "m": 1},
        "label_spaces": [
            {"preset": "sphere", "d": 2},
            {"preset": "sphere", "d": 2},
        ],
        "max_degree": 10,
        "format": "table",
        "seed": 0,
    }
    status, text = run(config)
    assert status == EXIT_OK
    assert "check configured: PASS" in text


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modee": "theorem_a"}))
    with pytest.raises(ConfigurationError):
        load_config(str(path), {})


def test_load_config_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for data in (
        b"{not json",
        b'{"mode": "theorem_a\xff"}',  # not UTF-8
        b'{"seed": ' + b"7" * 5000 + b"}",  # past the int-literal digit limit
        b"[" * 100_000,  # nested past the recursion limit
    ):
        path.write_bytes(data)
        with pytest.raises(ConfigurationError, match="is not valid JSON"):
            load_config(str(path), {})
        assert main(["--config", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not valid JSON"), err


def test_load_config_rejects_wrong_schema_version(tmp_path):
    path = tmp_path / "v9.json"
    # true and 1.0 equal 1 but are not the int 1
    for version in (9, True, 1.0, "1"):
        path.write_text(json.dumps({"schema_version": version}))
        with pytest.raises(ConfigurationError):
            load_config(str(path), {})


def test_main_exit_codes_and_output_file(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(base_config()))
    out_path = tmp_path / "out.txt"
    assert main(["--config", str(config_path), "--output", str(out_path)]) == EXIT_OK
    assert out_path.read_text().startswith("# confighom")

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["--config", str(bad)]) == EXIT_PARSE

    reject = tmp_path / "reject.json"
    reject.write_text(
        json.dumps(base_config(label_space={"preset": "sphere", "d": 1}))
    )
    assert main(["--config", str(reject)]) == EXIT_INPUT


def test_main_flag_overrides(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(base_config(max_degree=3)))
    assert (
        main(["--config", str(config_path), "--format", "csv", "--max-degree", "2"])
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("degree,")
    assert len(out.strip().splitlines()) == 4  # header + degrees 0..2
    assert main(["--config", str(config_path), "--max-degree", "3"]) == EXIT_OK


@pytest.mark.parametrize("flag", ["--max-degree", "--max-weight", "--seed"])
@pytest.mark.parametrize("text", ["1_0", " 3", "+3", "\u0663"])
def test_int_flags_are_an_optional_minus_and_ascii_digits(flag, text, capsys):
    # int() would take each of these; argparse refuses them as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "theorem_a", flag, text])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid int value: {text!r}" in err
    assert "Traceback" not in err


def test_rp_preset_requires_f2_field():
    config = base_config(manifold={"preset": "rp", "m": 2}, field="Q",
                         label_space={"preset": "sphere", "d": 2})
    with pytest.raises(InvalidInputError):
        run(config)
    config["field"] = "F2"
    status, _ = run(config)
    assert status == EXIT_OK


def test_exit_check_failed_is_distinct():
    assert EXIT_CHECK_FAILED not in (EXIT_OK, EXIT_PARSE, EXIT_INPUT)


def test_boolean_n_is_rejected(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(base_config(n=True)))
    assert main(["--config", str(config_path)]) == EXIT_INPUT
    assert "'n' must be of type int" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        base_config(max_degree=True),
        base_config(max_weight=False),
        base_config(manifold={"dim": True, "rel_betti": {"0": 1}}),
        base_config(manifold={"dim": 1, "rel_betti": {"0": True}}),
        base_config(manifold={"preset": "cube", "m": True}),
        # generators mode accepts degree-1 labels, so True would pass as 1
        base_config(mode="generators", label_space={"preset": "sphere", "d": True}),
        base_config(
            mode="generators", label_space={"preset": "wedge", "spheres": [2, True]}
        ),
        base_config(label_space={"betti": {"2": True}}),
        {"mode": "check:ab", "seed": True},
        {"mode": "check:ab", "trials": True},
        {"mode": "check:ab", "max_degree": True},
        {"mode": "check:hilton_milnor", "max_degree": True},
    ],
)
def test_booleans_rejected_where_ints_expected(config):
    with pytest.raises(InvalidInputError, match="int"):
        run(config)


@pytest.mark.parametrize(
    "config, unread",
    [
        ({"mode": "check:ab", "field": "Q", "n": 3}, "['field', 'n']"),
        (base_config(mode="check:ab"), "['field', 'label_space', 'manifold', 'n']"),
        ({"mode": "check:hilton_milnor", "n": 1, "trials": 2}, "['n', 'trials']"),
        (base_config(trials=3), "['trials']"),
        (base_config(mode="generators", orientable=True), "['orientable']"),
        (base_config(mode="dk_table", label_spaces=[]), "['label_spaces']"),
    ],
)
def test_top_level_keys_the_mode_does_not_read_are_rejected(
    config, unread, tmp_path, capsys
):
    with pytest.raises(InvalidInputError, match="does not read"):
        run(config)
    assert _main_on(config, tmp_path) == EXIT_INPUT
    assert capsys.readouterr().err.endswith(f"config keys {unread}\n")


def test_unwritable_output_is_a_clean_error(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(base_config()))
    target = tmp_path / "missing" / "out.txt"
    assert main(["--config", str(config_path), "--output", str(target)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: cannot write output ")
    assert not target.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"mode": "check:hilton_milnor", "max_degree": -1},
        {
            "mode": "check:hilton_milnor",
            "manifold": {"preset": "cube", "m": 1},
            "label_spaces": [{"preset": "sphere", "d": 2}],
            "max_degree": -1,
        },
    ],
)
def test_negative_hilton_max_degree_is_an_input_error(config, tmp_path, capsys):
    # the default suite and a configured case refuse it alike
    assert _main_on(config, tmp_path) == EXIT_INPUT
    assert capsys.readouterr().err == "error: max_degree must be an int >= 0\n"


@pytest.mark.parametrize("orientable", ["no", 1, []])
def test_non_boolean_orientable_is_rejected(orientable, tmp_path):
    config = {"mode": "check:hilton_milnor", "field": "Q",
              "orientable": orientable, "max_degree": 4}
    with pytest.raises(InvalidInputError, match="orientable"):
        run(config)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_INPUT


def test_boolean_orientable_still_runs():
    config = {"mode": "check:hilton_milnor", "field": "Q", "orientable": True,
              "max_degree": 4}
    assert run(config)[0] == EXIT_OK


@pytest.mark.parametrize(
    "config",
    [
        base_config(seed="abc"),
        base_config(mode="theorem_b", max_weight=4, seed=-1),
        base_config(mode="dk_table", max_weight=4, seed=1.5),
        base_config(mode="generators", seed=None),
        base_config(seed=False),
        {"mode": "check:hilton_milnor", "max_degree": 4, "seed": [1, 2]},
        {"mode": "check:ab", "trials": 1, "max_degree": 6, "seed": "3"},
    ],
)
def test_seed_must_be_a_nonnegative_int_in_every_mode(config, tmp_path):
    with pytest.raises(InvalidInputError, match="seed"):
        run(config)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_INPUT


def _main_on(config, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return main(["--config", str(path)])


def test_a_cap_past_memory_exits_3_with_a_message(monkeypatch, tmp_path, capsys):
    # point x R with S^2 labels: a cap no row can index is refused before
    # any allocation, and a MemoryError from the run is an input error too
    config = base_config(
        manifold={"preset": "point"},
        mode="theorem_b",
        max_degree=10**21,
        max_weight=1,
    )
    assert _main_on(config, tmp_path) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: caps must be below ")

    def out_of_memory(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "theorem_b", out_of_memory)
    assert _main_on(dict(config, max_degree=10), tmp_path) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: the table does not fit")


def test_the_mode_list_is_the_modes_config_keys_in_order():
    modes = (
        "theorem_a", "theorem_b", "dk_table", "generators",
        "check:ab", "check:hilton_milnor",
    )
    assert cli.MODES == modes
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "mode"]
    assert action.choices == modes
    with pytest.raises(InvalidInputError) as caught:
        run({"mode": "theorem_c"})
    assert str(caught.value) == (
        "mode must be one of theorem_a, theorem_b, dk_table, generators, "
        "check:ab, check:hilton_milnor; got 'theorem_c'"
    )


def test_engine_cap_mismatch_is_an_integrity_failure(monkeypatch, tmp_path, capsys):
    def drifting(real, degree_step, weight_step):
        # a kernel that solves at drifted caps, its coefficients cut to them
        def solve(max_degree, max_weight, beta):
            D, K = max_degree + degree_step, max_weight + weight_step
            kept = {(d, w): v for (d, w), v in beta.items() if d <= D and w <= K}
            return real(D, K, kept)

        return solve

    real = assemble.free_commutative_from_beta
    monkeypatch.setattr(assemble, "free_commutative_from_beta", drifting(real, 0, -1))
    config = base_config(
        manifold={"preset": "surface", "genus": 0},
        mode="theorem_b",
        max_degree=6,
        max_weight=3,
    )
    for run_config in (dict(config, mode="theorem_a"), config):
        assert _main_on(run_config, tmp_path) == EXIT_INTEGRITY
        assert capsys.readouterr().err.startswith(
            "integrity error: cap mismatch: got (6, 2), asked for (6, 3)"
        )
    # the Hilton-Milnor check's single-graded solve at caps (0, D): its
    # weight cap carries the degree (a negative degree cap would be an
    # input error instead)
    hilton_config = {"mode": "check:hilton_milnor", "max_degree": 8}
    monkeypatch.setattr(assemble, "free_commutative_from_beta", drifting(real, 0, -1))
    assert _main_on(hilton_config, tmp_path) == EXIT_INTEGRITY
    assert capsys.readouterr().err.startswith(
        "integrity error: cap mismatch: got (0, 7), asked for (0, 8)"
    )
    # the basic-product side of one configured case, solved second and only
    # on a mismatch, a degree short: comparing the totals would otherwise
    # stop at the end of the shorter list
    hilton_config = dict(
        hilton_config,
        manifold={"preset": "sphere", "m": 1},
        label_spaces=[{"preset": "sphere", "d": 2}, {"preset": "sphere", "d": 3}],
    )
    solves = []

    def second_drifts(max_degree, max_weight, beta):
        solves.append(max_weight)
        solve = real if len(solves) == 1 else drifting(real, 0, -1)
        return solve(max_degree, max_weight, beta)

    words = hilton.basic_words
    monkeypatch.setattr(
        hilton,
        "basic_words",
        lambda *args: [
            hilton.BasicWord(w.multiplicities, w.length, w.count + 1)
            for w in words(*args)
        ],
    )
    monkeypatch.setattr(assemble, "free_commutative_from_beta", second_drifts)
    assert _main_on(hilton_config, tmp_path) == EXIT_INTEGRITY
    assert solves == [8, 8]
    assert capsys.readouterr().err.startswith(
        "integrity error: cap mismatch: got (0, 7), asked for (0, 8)"
    )
    # a configuration error before the run is still a parse error
    assert _main_on(dict(config, modee="theorem_a"), tmp_path) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: unknown config keys")


@pytest.mark.parametrize(
    "config",
    [
        base_config(manifold={"preset": "cube", "m": 1, "char": 2}),
        base_config(manifold={"preset": "cube", "m": 1, "name": "cube"}),
        base_config(manifold={"preset": "cube", "m": 1, "genus": 3}),
        base_config(manifold={"preset": "point", "m": 0}),
        base_config(manifold={"dim": 1, "rel_betti": {"0": 1}, "genus": 7}),
        base_config(label_space={"preset": "sphere", "d": 2, "spheres": [3]}),
        base_config(label_space={"preset": "wedge", "spheres": [2, 3], "d": 2}),
        base_config(label_space={"betti": {"2": 1}, "preset": "sphere"}),
        {
            "mode": "check:hilton_milnor",
            "manifold": {"preset": "cube", "m": 1},
            "label_spaces": [{"preset": "sphere", "d": 2, "name": "S2"}],
            "max_degree": 8,
        },
    ],
)
def test_nested_objects_accept_only_their_own_keys(config, tmp_path, capsys):
    with pytest.raises(InvalidInputError, match="unexpected keys"):
        run(config)
    assert _main_on(config, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unexpected keys" in err


@pytest.mark.parametrize(
    "config",
    [
        {"mode": "check:hilton_milnor", "field": 2, "max_degree": 4},
        {"mode": "check:hilton_milnor", "field": None, "max_degree": 4},
    ],
)
def test_non_string_field_is_rejected(config, tmp_path):
    with pytest.raises(InvalidInputError, match="field"):
        run(config)
    assert _main_on(config, tmp_path) == EXIT_INPUT


@pytest.mark.parametrize("name", [[1], {"m": 1}])
def test_non_string_manifold_preset_is_rejected(name, tmp_path, capsys):
    config = base_config(manifold={"preset": name, "m": 1})
    assert _main_on(config, tmp_path) == EXIT_INPUT
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        base_config(label_space={"betti": {"2": 1, "02": 3}}),
        base_config(manifold={"dim": 1, "rel_betti": {"0": 1, "-0": 1}}),
        {
            "mode": "check:hilton_milnor",
            "manifold": {"dim": 1, "rel_betti": {"1": 1, "01": 2}},
            "label_spaces": [{"preset": "sphere", "d": 2}],
            "max_degree": 8,
        },
    ],
)
def test_betti_degree_given_twice_is_rejected(config, tmp_path, capsys):
    assert _main_on(config, tmp_path) == EXIT_INPUT
    assert "given twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        *(
            (
                base_config(mode="generators", label_space={"betti": {key: 1}}),
                f"label betti: bad degree key {key!r}",
            )
            for key in ("1_0", " 3", "+3", "\u0663", "3 ", "", "-")
        ),
        *(
            (base_config(field=name), f"cannot parse field name {name!r}")
            for name in ("Fp:1_1", "Fp: 7", "Fp:+7", "Fp:\u0667")
        ),
    ],
)
def test_an_int_in_text_is_an_optional_minus_and_ascii_digits(
    config, message, tmp_path, capsys
):
    # int() would also take these, reading "1_0" as 10 and "Fp:1_1" as 11
    assert _main_on(config, tmp_path) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_large_torus_runs_in_linear_binomial_steps(tmp_path):
    # the preset's binomial row is built before any cap applies; one
    # math.comb per entry took seconds at m = 8000
    path = tmp_path / "run.json"
    config = base_config(manifold={"preset": "torus", "m": 8000}, max_degree=10)
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(assemble.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "confighom", "--config", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == EXIT_OK, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_to_stdout_is_a_clean_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config()))
    src = os.path.dirname(os.path.dirname(assemble.__file__))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "confighom", "--config", str(path)],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
    assert done.returncode == EXIT_PARSE
    assert done.stderr.startswith("error: cannot write output <stdout>: ")
    assert done.stderr.count("\n") == 1, done.stderr


def test_a_closed_stdout_is_a_clean_error(tmp_path):
    # with file descriptor 1 closed at start the interpreter's sys.stdout
    # is None; the write fails like any other, with exit 2 and one line
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config()))
    src = os.path.dirname(os.path.dirname(assemble.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "confighom", "--config", str(path)],
        stderr=subprocess.PIPE,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: os.close(1),
    )
    assert done.returncode == EXIT_PARSE, done.stderr
    assert done.stderr.startswith("error: cannot write output <stdout>: ")
    assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize(
    "text, status",
    [
        ("{not json", EXIT_PARSE),
        (json.dumps(base_config(field="Fp:4")), EXIT_INPUT),
    ],
)
def test_a_closed_stderr_keeps_the_exit_status(tmp_path, text, status):
    # with file descriptor 2 closed at start the error message has nowhere
    # to go; the exit status alone tells what went wrong
    path = tmp_path / "run.json"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(assemble.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "confighom", "--config", str(path)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: os.close(2),
    )
    assert done.returncode == status
    assert done.stdout == ""


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text()
REPORT_SHAPED = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(REPORT_SHAPED)
def test_property_the_json_layout_is_the_indented_dump(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_starting_the_cli_does_not_import_the_oracle():
    # the brute-force oracle is for tests and checks by hand; no mode of
    # cli.run calls it, so a start must not pay for loading it
    src = os.path.dirname(os.path.dirname(assemble.__file__))
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import confighom.cli, sys; sys.exit('confighom.oracle' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr


LISTING = ("product_generators", "plan_generators", "weight_log_derivative")


@pytest.mark.parametrize(
    "config, listed",
    [
        (base_config(field="Fp:3", manifold={"preset": "surface", "genus": 1}), False),
        (base_config(mode="theorem_b", label_space={"betti": {"0": 1, "2": 1}},
                     max_weight=4), False),
        (base_config(mode="dk_table", label_space={"betti": {"0": 1, "2": 1}},
                     max_weight=4), False),
        ({"mode": "check:hilton_milnor", "max_degree": 14}, False),
        ({"mode": "check:hilton_milnor", "field": "Q", "orientable": True,
          "max_degree": 14}, False),
        ({"mode": "check:ab", "seed": 3, "trials": 3, "max_degree": 12}, True),
    ],
    ids=["theorem_a", "theorem_b", "dk_table", "hilton_F2", "hilton_Q", "check:ab"],
)
def test_only_check_abs_second_route_lists_generators(monkeypatch, config, listed):
    # every table is solved from product_beta's coefficients; check:ab's
    # S^2 X route lists generators and folds exactly the list it returns
    calls, inside, routes = [], [], []
    real_route = assemble._suspended_generators

    def route(spec):
        inside.append(spec)
        try:
            routes.append(real_route(spec))
        finally:
            inside.pop()
        return routes[-1]

    def spy(name, real):
        def listing(*args):
            if name == "weight_log_derivative":
                routed = any(args[-1] is r for r in routes)
            else:
                routed = bool(inside)
            calls.append((name, routed))
            return real(*args)

        return listing

    monkeypatch.setattr(assemble, "_suspended_generators", route)
    for module in (assemble, cli, hilton, loops, series):
        for name in LISTING:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    status, _ = run(config)
    assert status == EXIT_OK
    assert all(routed for _name, routed in calls)
    assert bool(calls) == listed
    if listed:
        # one listing and one fold per case
        assert {name for name, _ in calls} == set(LISTING)
        assert len(routes) == config["trials"]


def _cli_subprocess(config, tmp_path, timeout):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(assemble.__file__))
    return subprocess.run(
        [sys.executable, "-m", "confighom", "--config", str(path)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_the_largest_field_below_two_to_the_64_runs(tmp_path):
    config = base_config(field="Fp:18446744073709551557")
    done = _cli_subprocess(config, tmp_path, timeout=10)
    assert done.returncode == EXIT_OK, done.stderr


def test_a_field_past_two_to_the_64_is_refused_fast(tmp_path):
    config = base_config(field="Fp:1000000000000000000000007")
    done = _cli_subprocess(config, tmp_path, timeout=10)
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("error:") and "2**64" in done.stderr


# the torus's binomial row, which the table and json headers echo, has
# middle entries of about 4,800 digits; csv echoes no header
TORUS_PAST_THE_STR_LIMIT = {
    "manifold": {"preset": "torus", "m": 16000},
    "label_space": {"preset": "sphere", "d": 2},
    "field": "F2",
    "n": 1,
    "mode": "theorem_a",
    "max_degree": 4,
}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_an_output_integer_past_the_str_limit_exits_3(tmp_path, fmt):
    config = dict(TORUS_PAST_THE_STR_LIMIT, format=fmt)
    limit = f"{sys.get_int_max_str_digits()}-digit int-to-str limit"
    with pytest.raises(InvalidInputError, match=limit):
        run(config)
    done = _cli_subprocess(config, tmp_path, timeout=20)
    assert done.returncode == EXIT_INPUT
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error:") and limit in line


def test_the_torus_past_the_str_limit_renders_as_csv(tmp_path):
    config = dict(TORUS_PAST_THE_STR_LIMIT, format="csv")
    done = _cli_subprocess(config, tmp_path, timeout=20)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("degree,w0,")


@pytest.mark.parametrize(
    "overrides",
    [
        {"manifold": {"preset": "point"}, "n": 10**8},
        {"manifold": {"dim": 10**8, "rel_betti": {"0": 1}}, "mode": "generators"},
    ],
)
def test_a_huge_loop_count_finishes(tmp_path, overrides):
    # every operation index past the degree cap is skipped, not tried
    config = base_config(max_degree=10, **overrides)
    done = _cli_subprocess(config, tmp_path, timeout=10)
    assert done.returncode == EXIT_OK, done.stderr


@pytest.mark.parametrize(
    "config",
    [
        base_config(max_degree=sys.maxsize),
        base_config(max_degree=sys.maxsize, mode="generators"),
        {"mode": "check:hilton_milnor", "max_degree": sys.maxsize},
        {"mode": "check:ab", "trials": 1, "max_degree": sys.maxsize},
    ],
    ids=["theorem_a", "generators", "check:hilton_milnor", "check:ab"],
)
def test_a_cap_no_row_can_index_is_refused_before_any_census(tmp_path, config):
    done = _cli_subprocess(config, tmp_path, timeout=10)
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("error: caps must be below ")


@pytest.mark.parametrize(
    "probe",
    [
        lambda: assemble.ProblemSpec(
            1, {0: 1}, 1, {2: 1}, loops.FieldChar.mod2(), sys.maxsize
        ).validate(),
        lambda: assemble.ProblemSpec(
            1, {0: 1}, 1, {2: 1}, loops.FieldChar.mod2(), 8, sys.maxsize
        ).validate(),
        lambda: hilton.hilton_milnor_check(1, {0: 1}, [{2: 1}], sys.maxsize),
        lambda: assemble.ab_coherence_report(trials=1, max_degree=sys.maxsize),
    ],
    ids=["spec_max_degree", "spec_max_weight", "hilton_milnor", "ab"],
)
def test_every_entry_point_refuses_a_cap_no_row_can_index(probe):
    with pytest.raises(InvalidInputError, match="caps must be below"):
        probe()
