"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from verify import verify  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _render(config: dict) -> tuple[int, str]:
    """``cli.run(config)`` in a fresh interpreter, so this process computes
    nothing that the children run.run_pass forks would inherit."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from confighom import cli; "
         "print(json.dumps(cli.run(json.loads(sys.argv[1]))))", json.dumps(config)],
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
        capture_output=True, text=True, check=True,
    )
    status, text = json.loads(done.stdout)
    return status, text

SURFACE = {
    "mode": "theorem_a",
    "field": "F2",
    "manifold": {"preset": "surface", "genus": 1},
    "n": 1,
    "label_space": {"preset": "wedge", "spheres": [2, 3]},
    "max_degree": 16,
    "max_weight": 8,
}
JAMES = {
    "mode": "theorem_a",
    "field": "Fp:3",
    "manifold": {"preset": "point"},
    "n": 1,
    "label_space": {"preset": "sphere", "d": 2},
    "max_degree": 12,
    "max_weight": 6,
}
OMEGA2_S3 = {
    "mode": "dk_table",
    "field": "Fp:3",
    "manifold": {"preset": "cube", "m": 1},
    "n": 1,
    "label_space": {"preset": "sphere", "d": 1},
    "max_degree": 16,
    "max_weight": 16,
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    for seed in range(4):
        first = workloads.generate(name, seed)
        assert first == workloads.generate(name, seed)
        assert first != workloads.generate(name, seed + 1)
        for config in first:
            workloads.check_caps(config)


def test_generator_refuses_caps_above_the_ceiling():
    with pytest.raises(ValueError):
        workloads.check_caps(dict(SURFACE, max_degree=workloads.CAP_CEILING + 1))
    with pytest.raises(ValueError):
        workloads.check_caps({"mode": "check:ab", "max_degree": 100000})


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def _bump_cell(fmt: str, text: str, degree: int, weight: int) -> str:
    """A copy of a rendered series with one cell raised by 1 (and, in the
    table and csv forms, its row total too, so only the cell is wrong)."""
    if fmt == "json":
        doc = json.loads(text)
        for cell in doc["series"]:
            if cell[:2] == [degree, weight]:
                cell[2] += 1
        return json.dumps(doc)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if fmt == "csv" and line.startswith(f"{degree},"):
            cells = line.split(",")
            cells[1 + weight] = str(int(cells[1 + weight]) + 1)
            cells[-1] = str(int(cells[-1]) + 1)
            lines[i] = ",".join(cells)
        elif fmt == "table" and line.split("|")[0].strip() == str(degree):
            head, row, total = line.split("|")
            values = row.split()
            values[weight] = str(int(values[weight]) + 1)
            lines[i] = f"{head}| {' '.join(values)} | {int(total) + 1}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_verifier_accepts_output_and_rejects_a_corrupted_copy(fmt):
    config = dict(SURFACE, format=fmt)
    status, text = _render(config)
    assert verify(config, status, text) == []
    corrupted = _bump_cell(fmt, text, 3, 1)
    assert corrupted != text
    problems = verify(config, status, corrupted)
    assert any("weight-1" in p for p in problems), problems
    # the program's own output is untouched
    assert _render(config) == (status, text)


def test_verifier_checks_closed_forms():
    for config in (JAMES, OMEGA2_S3):
        config = dict(config, format="json")
        status, text = _render(config)
        assert verify(config, status, text) == []
        doc = json.loads(text)
        d, k, v = doc["series"][-1]
        doc["series"][-1] = [d, k, v + 1]
        problems = verify(config, status, json.dumps(doc))
        assert any("closed form" in p for p in problems), problems


def test_verifier_rejects_failed_checks():
    config = {"mode": "check:hilton_milnor", "max_degree": 8, "format": "table"}
    status, text = _render(config)
    assert verify(config, status, text) == []
    assert verify(config, status, text.replace(": PASS", ": FAIL", 1))
    assert verify(config, 1, text)


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ["cli.run", 0.0, 10.0, None, 7, {"bytes": 10}],
        ["assemble.theorem_a", 1.0, 9.0, 0, 7, None],
        ["loops.factor_series", 2.0, 6.0, 1, 7, {"j": 2}],
        ["loops.atom_census", 2.5, 4.0, 2, 7, None],
        ["witt.lie_atom_counts", 2.6, 3.9, 3, 7, {"entries": 4, "cells": 30}],
        ["series.power_factor", 4.0, 5.5, 2, 7, None],
        ["series.multiply", 6.0, 8.0, 1, 7, {"bytes": 100}],
        [spans.BOOKKEEPING, 8.0, 8.5, 1, 7, None],
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 1.5, 1.0, 0.2, 1.3, 1.5, 2.0, 0.5])
    m = spans.layer_metrics([tree])
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["assemble.self_s"] == pytest.approx(1.5)
    assert m["loops.self_s"] == pytest.approx(1.2)
    assert m["witt.self_s"] == pytest.approx(1.3)
    assert m["series.power_factor.s"] == pytest.approx(1.5)
    assert m["series.multiply.s"] == pytest.approx(2.0)
    assert m["loops.factor_series.hit_base"] == 1
    assert m["loops.factor_series.hit_ratio"] == 0.0
    assert (m["cli.output_bytes"], m["series.multiply.bytes_computed"]) == (10, 100)
    assert (m["witt.calls"], m["witt.atoms"], m["witt.table_cells"]) == (1, 4, 30)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(40))) == (75.0, 29)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    # below twenty samples the p(n-10)/n "tail" would fall under the median
    assert run.tail(list(range(15))) == (100.0, 14)


def test_operation_time_is_the_median_of_its_runs():
    times = [3.0, 1.0, 2.0, 5.0, 4.0]
    passes = [[{"s": t, "problems": [], "op": i}] for i, t in enumerate(times)]
    (best,) = run.op_times(passes)
    assert best["s"] == 3.0 and best["op"] == 0
    # a run that failed verification is left out
    passes[4][0]["problems"] = ["wrong output"]
    best = run.op_times(passes)[0]
    assert best["s"] == 2.5 and best["op"] == 2


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.PROBE_REFERENCE_S
    assert run.speed(ref, ref) == pytest.approx(1.0)
    # the loop ran 1.5 times slower around the call: so did the call
    assert run.speed(1.4 * ref, 1.6 * ref) == pytest.approx(1 / 1.5)
    assert 0 < run.probe() < 1


def _ops(results):
    return [r["spans"] for r in results]


def test_identical_operations_do_not_share_factors():
    config = dict(SURFACE, format="csv")
    results = run.run_pass([config, config], True, 0, float("inf"), None)
    assert [r["problems"] for r in results] == [[], []]
    for spans_of_op in _ops(results):
        m = spans.layer_metrics([spans_of_op])
        assert m["loops.factor_series.hit_base"] > 0
        assert m["loops.factor_series.hit_ratio"] == 0.0
    # the same layers do hit the cache inside one Hilton check
    check = {"mode": "check:hilton_milnor", "max_degree": 12, "format": "json"}
    (result,) = run.run_pass([check], True, 0, float("inf"), None)
    assert spans.layer_metrics([result["spans"]])["loops.factor_series.hit_ratio"] > 0


def test_metric_names_match_benchmark_json():
    configs = [dict(SURFACE, format="table"), dict(OMEGA2_S3, format="json")]
    untraced = [run.run_pass(configs, False, 0, float("inf"), None)]
    traced = [run.run_pass(configs, True, 2, float("inf"), None)]
    e2e, _notes = run.end_to_end(untraced, [0.1])
    assert [(k, v["unit"]) for k, v in e2e.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]
    layers = run.per_layer(untraced, traced)
    assert [(k, v["unit"]) for k, v in layers.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]


def test_reference_digest_mismatch_fails_the_operation():
    config = dict(JAMES, format="table")
    (result,) = run.run_pass([config], False, 0, float("inf"), ["0" * 64])
    assert any("digest" in p for p in result["problems"])


def test_an_operation_over_its_time_limit_is_killed():
    config = dict(SURFACE, max_degree=120, max_weight=60)
    result = run.run_op(config, 0, False, 0.3)
    assert result["problems"] and "killed" in result["problems"][0]
