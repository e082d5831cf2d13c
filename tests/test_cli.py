"""Command-line behaviour: rendering, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import confighom.assemble as assemble
import confighom.hilton as hilton
from confighom.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_PARSE,
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


def test_engine_cap_mismatch_is_an_integrity_failure(monkeypatch, tmp_path, capsys):
    def drifting(real, degree_step, weight_step):
        def solve(max_degree, max_weight, generators):
            return real(max_degree + degree_step, max_weight + weight_step, generators)

        return solve

    real = assemble.free_commutative
    monkeypatch.setattr(assemble, "free_commutative", drifting(real, 0, -1))
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
    monkeypatch.setattr(assemble, "free_commutative", drifting(real, 0, -1))
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

    def second_drifts(max_degree, max_weight, generators):
        solves.append(max_weight)
        solve = real if len(solves) == 1 else drifting(real, 0, -1)
        return solve(max_degree, max_weight, generators)

    words = hilton.basic_words
    monkeypatch.setattr(
        hilton,
        "basic_words",
        lambda *args: [dataclasses.replace(w, count=w.count + 1) for w in words(*args)],
    )
    monkeypatch.setattr(assemble, "free_commutative", second_drifts)
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
