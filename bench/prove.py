"""Run the benchmark over many seeds and judge how steady it is.

Usage, from the root of a checkout::

    python3 bench/prove.py                       # every workload, seeds 0-9
    python3 bench/prove.py --workloads deep_loops --seeds 0-4
    python3 bench/prove.py --trace --write       # also traced runs; record

For every workload and seed this runs ``bench/run.py`` once, one run at a
time, and prints each end-to-end metric by name and unit with its median,
quartiles and spread over the seeds (interquartile range as a share of
the median, the figure BENCHMARK.json's bounds are checked against), and
the share of operations that failed, with its base.  ``--trace`` adds one
traced run per workload and prints every per-layer metric and each
layer's share of the traced time.  ``--write`` first records a digest of
every operation's output bytes for each of the ``DIGEST_SEEDS`` not yet
in ``bench/reference.json`` (run.py fails an operation whose output
differs on a recorded seed), then adds the medians, quartiles and layer
shares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGEST_SEEDS = range(22)
"""Seeds whose output digests ``--write`` records in reference.json."""


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} seed {seed}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record_digests(workloads: list[str], seeds: range, known: dict) -> dict:
    """sha256 of every operation's output for each workload and seed, for
    the seeds ``known`` does not hold yet."""
    sys.path.insert(0, str(ROOT / "src"))
    import confighom.cli  # noqa: F401  (imported once, before forking)
    import run

    out: dict[str, dict[str, list[str]]] = {}
    for name in workloads:
        out[name] = dict(known.get(name, {}))
        for seed in seeds:
            if str(seed) in out[name]:
                continue
            results = run.run_pass(generate(name, seed), False, 0, float("inf"), None)
            bad = [r["problems"] for r in results if r["problems"]]
            if bad:
                raise SystemExit(f"{name} seed {seed}: not recording failed outputs {bad}")
            out[name][str(seed)] = [r["digest"] for r in results]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="a seed or a range like 0-9")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    spec = {m["name"]: m for m in BENCHMARK["end_to_end"]}

    path = HERE / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    if args.write:
        # digests first, so the runs below already check against them
        digests = record_digests(names, DIGEST_SEEDS, doc.get("digests", {}))
        doc["digests"] = {**doc.get("digests", {}), **digests}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    baseline, shares = {}, {}
    for name in names:
        runs = []
        for seed in seeds:
            started = time.monotonic()
            result = run_once(name, seed, 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed} ({time.monotonic() - started:.0f} s): "
                  f"failed {result['failed']}/{result['attempted']} {values}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {name}: fail_ratio {failed / attempted:.4g} "
              f"({failed} of {attempted} operations)")
        baseline[name] = {"seeds": args.seeds, "run_seconds": BENCHMARK["run_seconds"],
                          "fail_ratio": failed / attempted, "attempted": attempted}
        for metric, m in spec.items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            verdict = "steady" if s["spread"] < m["bound"] / 3 else (
                "within bound" if s["spread"] <= m["bound"] else "TOO WIDE")
            print(f"   {metric:12s} median {s['median']:10.5g} {m['unit']:3s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread {s['spread']:.3f} "
                  f"bound {m['bound']} {verdict}")
            baseline[name][metric] = {"unit": m["unit"], **s}
        if args.trace:
            result = run_once(name, seeds[0], 1)
            layers = result["metrics"]
            total = layers["trace.solve_s"]["value"]
            shares[name] = {}
            print(f"== {name} traced, seed {seeds[0]}")
            for metric, v in layers.items():
                line = f"   {metric:32s} {v['value']:12.6g} {v['unit']}"
                if v["unit"] == "s" and metric != "trace.solve_s":
                    shares[name][metric] = v["value"] / total
                    line += f"  {v['value'] / total:6.1%} of traced time"
                print(line)
    if args.write:
        rationale = ("why", "family", "caps", "loads", "bypasses")
        doc["workloads"] = {
            **doc.get("workloads", {}),
            **{n: {k: getattr(WORKLOADS[n], k) for k in rationale} for n in names},
        }
        doc["baseline"] = {**doc.get("baseline", {}), **baseline}
        if shares:
            doc["layer_shares"] = {**doc.get("layer_shares", {}), **shares}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
