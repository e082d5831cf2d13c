"""The contract between the engine and the benchmark's tracer.

``bench/spans.py`` wraps the functions named in its ``TRACED`` map after
``confighom.cli`` is imported, and reads counts off their results.  These
tests read that map without changing anything under ``bench/``, so an
engine edit that breaks ``bench/run.py --trace 1`` fails here first.
"""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confighom
from confighom import FieldChar, atom_census, cli, hilton_milnor_check
from confighom.loops import generator_census
from confighom.assemble import preset

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def traced_names() -> dict:
    """``TRACED`` from ``bench/spans.py``, read as a literal, not imported."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED map")


def test_every_traced_name_is_loaded_by_the_cli():
    # bench/run.py imports confighom.cli before the tracer installs its
    # wrappers, so that import alone must load every traced module
    script = """
import json, sys
import confighom.cli
traced = json.loads(sys.argv[1])
missing = [m for m in traced if m not in sys.modules]
unresolved = [
    f"{m}.{name}"
    for m, names in traced.items()
    if m in sys.modules
    for name in names
    if not callable(getattr(sys.modules[m], name, None))
]
print(json.dumps([missing, unresolved]))
"""
    src = os.path.dirname(os.path.dirname(confighom.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(traced_names())],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    missing, unresolved = json.loads(done.stdout)
    assert missing == []
    assert unresolved == []


def test_traced_results_carry_the_fields_the_tracer_reads():
    traced = traced_names()
    assert "lie_atom_counts" in traced["confighom.witt"]
    assert "generator_census" in traced["confighom.loops"]
    assert "hilton_milnor_check" in traced["confighom.hilton"]
    char = FieldChar.mod2()
    tables = [
        confighom.lie_atom_counts({2: 1, 3: 1}, True, 10, 5),
        generator_census(atom_census({2: 1}, 2, char, 10, 5), 2, char, 10, 5),
    ]
    for table in tables:
        assert isinstance(table.entries, dict) and table.entries
        assert (table.max_degree, table.max_weight) == (10, 5)
    m_dim, rel = preset("surface", genus=1)
    report = hilton_milnor_check(m_dim, rel, [{2: 1}, {3: 1}], 6, char=char)
    assert report.words_used > 0


def bench_workloads():
    """``bench/workloads.py``, loaded from its path: ``bench`` is no package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_zero_of_each_workload_matches_the_reference_digests(workload):
    # bench/run.py checks every operation's output bytes against these
    # digests; replaying seed 0 here shows a byte change without a run
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    digests = reference["digests"][workload]["0"]
    configs = bench_workloads().generate(workload, 0)
    assert len(configs) == len(digests)
    for config, digest in zip(configs, digests):
        _status, text = cli.run(config)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, config
