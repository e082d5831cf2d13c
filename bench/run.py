"""confighom benchmark: a closed-loop load generator with one client.

Usage, from the root of a checkout::

    python3 bench/run.py --workload surface_wedge --seed 0 --seconds 20 --trace 0

The workload and seed give one pass of problem configs
(``bench/workloads.py``).  The run repeats the pass until ``--seconds``
have gone by, one operation at a time: a closed loop with one client.
Each operation is one call of the CLI's public entry
``confighom.cli.run(config)``, which computes and renders a table.  It
runs in a child forked from this process, which has imported confighom
but computed nothing, so no operation reuses a factor an earlier one
computed, as with separate CLI invocations.  Every operation has a
wall-time limit; a child over it is killed and the operation counts as
failed.  After the timed call the child checks its output
(``bench/verify.py``) and, where ``bench/reference.json`` holds a digest
for this workload and seed, compares the output bytes with it.

Times are scaled to a reference host speed.  On a shared host the CPU
runs up to twice as slow while neighbours load it, in episodes that
last from seconds to minutes, longer than a run; the fastest or median
repeat within a run then follows the neighbours, not the program.  So
the parent times a fixed calibration loop (:func:`probe`) just before
and just after every timed call and scales the call's wall time by
``PROBE_REFERENCE_S`` over the mean of the two loop times: the time the
call would take on a host where the loop takes 2 ms.  The loop runs
while no child does, so nothing the program does changes it.  An
operation's time is the median of its scaled times over the passes, and
``setup_s`` the median of scaled fresh-interpreter starts,
``SETUP_PER_PASS`` before each pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose children wrap each layer's public
functions (``bench/spans.py``), reports the per-layer metrics, and writes
the spans to ``.bench_out/``.  Human-readable lines come first; the last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPAN_DIR = ROOT / ".bench_out"

OP_LIMIT_S = 30.0
"""Wall-time limit of one operation."""
RUN_LIMIT_S = 120.0
"""No operation runs past this many seconds after the first pass starts."""
PROBE_REFERENCE_S = 0.002
"""Scaled times are those of a host on which :func:`probe` takes this long."""
SETUP_LIMIT_S = 5.0
SETUP_PER_PASS = 2
SETUP_MIN_SAMPLES = 9

SETUP_SNIPPET = (
    "import time, confighom.cli as c; c.build_parser(); print(time.monotonic())"
)


_BIG_A = (1 << 40000) // 7
_BIG_B = (1 << 40000) // 11


def _calibration_loop() -> int:
    """About 1 ms each of interpreted small-integer arithmetic and of
    big-integer multiplication on an unloaded host.  The layers do both,
    and neighbours slow the second more than the first."""
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(3):
        total += (_BIG_A * _BIG_B) & 1
    return total


def probe() -> float:
    """Seconds the calibration loop takes now: the fastest of five runs."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def speed(before: float, after: float) -> float:
    """The factor that scales a time measured between probes ``before``
    and ``after`` to the reference host speed."""
    return PROBE_REFERENCE_S * 2 / (before + after)


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter until confighom.cli is
    imported and its parser built, what every CLI invocation pays first;
    scaled to the reference host speed."""
    before = probe()
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=SETUP_LIMIT_S,
    )
    return (float(done.stdout) - start) * speed(before, probe())


def _child(config: dict, op: int, traced: bool) -> dict:
    from confighom import cli
    from spans import Tracer
    from verify import verify

    tracer = Tracer(op)
    if traced:
        tracer.install()
    start = time.perf_counter()
    try:
        status, text = cli.run(config)
    except Exception as exc:  # the operation failed; report it, do not crash
        return {"s": time.perf_counter() - start, "problems": [f"raised {exc!r}"]}
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    data = text.encode("utf-8")
    return {
        "s": elapsed,
        "rss_mb": peak_kb / 1024,
        "bytes": len(data),
        "digest": hashlib.sha256(data).hexdigest(),
        "problems": verify(config, status, text),
        "spans": tracer.spans,
    }


def run_op(config: dict, op: int, traced: bool, limit: float) -> dict:
    """Run one operation in a forked child; kill it after ``limit`` seconds."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                result = _child(config, op, traced)
            except Exception as exc:  # report a fault of the harness itself
                result = {"s": None, "problems": [f"benchmark child failed: {exc!r}"]}
            payload = json.dumps(result).encode()
            view = memoryview(payload)
            while view:
                view = view[os.write(wfd, view):]
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + limit
    timed_out = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([rfd], [], [], remaining)
            if ready:
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"s": limit, "problems": [f"killed after the {limit:.0f} s limit"]}
    if status != 0 or not chunks:
        return {"s": None, "problems": [f"child ended with wait status {status}"]}
    return json.loads(b"".join(chunks))


def run_pass(configs: list[dict], traced: bool, first_op: int, stop_at: float,
             digests: list[str] | None) -> list[dict]:
    """Run every config once, in order.  ``s`` is an operation's scaled
    time, ``wall_s`` its in-call wall time and ``speed`` the factor
    between the two."""
    results = []
    before = probe()
    for i, config in enumerate(configs):
        limit = min(OP_LIMIT_S, stop_at - time.monotonic())
        if limit <= 0:
            result = {"s": None, "problems": ["not started: run time limit reached"]}
        else:
            result = run_op(config, first_op + i, traced, limit)
        after = probe()
        result["speed"] = speed(before, after)
        result["wall_s"] = result["s"]
        if result["s"] is not None:
            result["s"] *= result["speed"]
        before = after
        if digests and "digest" in result and result["digest"] != digests[i]:
            result["problems"].append("output bytes differ from the reference digest")
        result["config"] = i
        result["op"] = first_op + i
        results.append(result)
    return results


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it.  Below twenty samples no percentile at or above the
    median has ten beyond it, and the tail is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _seconds(result: dict) -> float:
    return result["s"] if result["s"] is not None else float("inf")


def op_times(passes: list[list[dict]]) -> list[dict]:
    """For each config of the pass, its median run: the median of its
    verified runs' times (of all its runs if none verified), with the
    spans of the run at the lower median."""
    out = []
    for runs in zip(*passes):
        runs = sorted([r for r in runs if not r["problems"]] or runs, key=_seconds)
        times = [r["s"] for r in runs if r["s"] is not None]
        middle = runs[(len(runs) - 1) // 2]
        out.append(dict(middle, s=statistics.median(times) if times else None))
    return out


def pass_seconds(results: list[dict]) -> float:
    return sum(r["s"] or 0.0 for r in results)


def end_to_end(passes: list[list[dict]], setup: list[float]) -> tuple[dict, list[str]]:
    best = op_times(passes)
    op_ms = [r["s"] * 1000 for r in best if r["s"] is not None]
    pct, tail_ms = tail(op_ms)
    ops = [r for p in passes for r in p]
    failed = sum(1 for r in ops if r["problems"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (pass_seconds(best), "s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (max((r.get("rss_mb", 0.0) for r in ops), default=0.0), "MB"),
    }
    wall_s = sum(statistics.median(r["wall_s"] or 0.0 for r in runs) for runs in zip(*passes))
    probe_ms = PROBE_REFERENCE_S * 1000 / statistics.median(r["speed"] for r in ops)
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters, started between passes",
        f"operation time: median of {len(passes)} runs of each of the pass's "
        f"{len(best)} operations, scaled to the reference host speed",
        f"host speed: calibration loop median {probe_ms:.3f} ms, reference "
        f"{PROBE_REFERENCE_S * 1000:g} ms; solve_s unscaled {wall_s:.4g} s",
        f"solve_s: sum over the pass; op_ms.tail: p{pct:.1f} of {len(op_ms)} operations",
        f"fail_ratio: {failed / len(ops):.4g} ({failed} of {len(ops)} operations)",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


LAYER_UNITS = {
    "cli.output_bytes": "bytes",
    "series.multiply.bytes_computed": "bytes",
    "loops.factor_series.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer(untraced: list[list[dict]], traced: list[list[dict]]) -> dict:
    from spans import layer_metrics

    best = op_times(traced)
    # the spans' times scaled like the operation's, so layer times add up to it
    values = layer_metrics([
        [[name, start * r["speed"], end * r["speed"], *rest]
         for name, start, end, *rest in r["spans"]]
        for r in best if not r["problems"]
    ])
    values["trace.solve_s"] = pass_seconds(best)
    values["trace.overhead_ratio"] = values["trace.solve_s"] / pass_seconds(op_times(untraced))
    out = {}
    for name, value in values.items():
        unit = LAYER_UNITS.get(name, "s" if name.endswith(("_s", ".s")) else "count")
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(workload: str, seed: int, traced: list[list[dict]], configs: list[dict]) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "configs": configs,
        "span_fields": ["name", "start", "end", "parent", "op", "info"],
        "operations": [
            {"op": r["op"], "config": r["config"], "spans": r.get("spans", [])}
            for p in traced for r in p
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def reference_digests(workload: str, seed: int) -> list[str] | None:
    if not REFERENCE.exists():
        return None
    doc = json.loads(REFERENCE.read_text())
    return doc.get("digests", {}).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import confighom.cli
    except ImportError as exc:
        print(f"error: cannot import confighom from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(confighom.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: confighom was imported from outside {SRC}", file=sys.stderr)
        return 2
    import spans  # noqa: F401  (loaded before forking, used by the children)
    import verify  # noqa: F401
    import workloads

    try:
        configs = workloads.generate(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    digests = reference_digests(args.workload, args.seed)
    if digests is not None and len(digests) != len(configs):
        print("error: reference digests do not match the pass", file=sys.stderr)
        return 2

    setup: list[float] = []
    if not args.trace:
        setup_sample()  # warm-up: the first start may compile bytecode
    start = time.monotonic()
    stop_at = start + RUN_LIMIT_S
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    while not untraced or time.monotonic() - start < args.seconds:
        if not args.trace:
            setup += [setup_sample() for _ in range(SETUP_PER_PASS)]
        for on in (False, True) if args.trace else (False,):
            first = len(configs) * (len(untraced) + len(traced))
            (traced if on else untraced).append(
                run_pass(configs, on, first, stop_at, digests)
            )
    while not args.trace and len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_sample())

    ops = [r for p in untraced + traced for r in p]
    failed = [r for r in ops if r["problems"]]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{len(configs)} per pass, reference digests: {'yes' if digests else 'no'}")
    for r in failed[:10]:
        print(f"  FAILED config {r['config']}: {'; '.join(r['problems'])}")
    if args.trace:
        metrics = per_layer(untraced, traced)
        print(f"  spans written to {write_spans(args.workload, args.seed, traced, configs)}")
    else:
        metrics, notes = end_to_end(untraced, setup)
        for note in notes:
            print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
