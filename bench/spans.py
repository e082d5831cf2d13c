"""Spans around the public functions of each confighom layer.

The tracer wraps functions from outside the package.  A function is
replaced on its own module and at every import site, because callers
reach it through different names: ``BiSeries.__pow__`` calls
``series.multiply`` through its module global, ``witt`` calls
``inverse_one_minus`` through its own import, and ``cli`` calls the
assembly functions through its imports.

A span is the list ``[name, start, end, parent, op, info]``; ``parent`` is
the index of the enclosing span in the same list (or None) and ``info``
holds counts read off the call's arguments or result.  Counting happens
after the span has ended, inside a ``trace.bookkeeping`` span, so the
bookkeeping is charged to no layer.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

TRACED = {
    "confighom.cli": ("run",),
    "confighom.assemble": (
        "theorem_a",
        "theorem_b",
        "factor_product",
        "ab_coherence_report",
    ),
    "confighom.loops": ("factor_series", "atom_census", "generator_census"),
    "confighom.witt": ("lie_atom_counts",),
    "confighom.series": (
        "multiply",
        "power_factor",
        "inverse_one_minus",
        "desuspend_by_weight",
    ),
    "confighom.hilton": ("hilton_milnor_check",),
}
BOOKKEEPING = "trace.bookkeeping"

Span = list  # [name, start, end, parent, op, info]


def _multiply_bytes(args: tuple, _kwargs: dict, _result: Any) -> dict:
    """Packed operand and product sizes of one ``series.multiply`` call,
    computed from the caps and the cell width the kernel picks."""
    a, b = args[0], args[1]
    D, K = a.caps()
    nnz, peak = [], []
    for s in (a, b):
        values = [v for _, _, v in s.items()]
        nnz.append(len(values))
        peak.append(max(values, default=0))
    if not min(nnz):
        return {"bytes": 0}
    cell = (peak[0] * peak[1] * min(nnz)).bit_length() // 8 + 1
    row = 2 * D + 1
    operand = (K + 1) * row * cell
    product = (2 * K * row + 2 * D + 1) * cell
    return {"bytes": 2 * operand + product}


def _table_info(_args: tuple, _kwargs: dict, result: Any) -> dict:
    return {
        "entries": len(result.entries),
        "cells": (result.max_degree + 1) * (result.max_weight + 1),
    }


def _loop_count(args: tuple, kwargs: dict, _result: Any) -> dict:
    return {"j": args[1] if len(args) > 1 else kwargs["j"]}


INFO: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "cli.run": lambda _a, _k, result: {"bytes": len(result[1].encode("utf-8"))},
    "loops.factor_series": _loop_count,
    "loops.generator_census": _table_info,
    "witt.lie_atom_counts": _table_info,
    "series.multiply": _multiply_bytes,
    "hilton.hilton_milnor_check": lambda _a, _k, result: {"words": result.words_used},
}


class Tracer:
    """Records spans for one operation while installed."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Replace every traced function on every loaded confighom module."""
        modules = [m for n, m in sys.modules.items() if n.startswith("confighom")]
        for module_name, names in TRACED.items():
            home = sys.modules[module_name]
            layer = module_name.rsplit(".", 1)[1]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, op = self.spans, self._stack, self.op
        info = INFO.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, clock(), None, parent, op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if info is not None:
                span[5] = info(args, kwargs, result)
                if parent is not None:
                    spans.append([BOOKKEEPING, span[2], clock(), parent, op, None])
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


# self time per layer, except series, whose functions are timed one by one
SELF_TIME_METRICS = tuple(
    [f"{layer}.self_s" for layer in ("assemble", "loops", "witt", "hilton", "cli")]
    + [f"series.{fn}.s" for fn in TRACED["confighom.series"]]
)


def layer_metrics(ops: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics of one pass, given the span list of each operation."""
    m: dict[str, float] = {key: 0.0 for key in SELF_TIME_METRICS}
    counts = {
        "cli.output_bytes": 0,
        "assemble.factor_product.calls": 0,
        "loops.census_entries": 0,
        "loops.factor_series.calls": 0,
        "loops.factor_series.hit_base": 0,
        "witt.calls": 0,
        "witt.atoms": 0,
        "witt.table_cells": 0,
        "series.multiply.calls": 0,
        "series.multiply.bytes_computed": 0,
        "series.power_factor.calls": 0,
        "hilton.words": 0,
    }
    hits = 0
    for spans in ops:
        own = self_times(spans)
        missed = set()
        for s in spans:
            if s[0] in ("loops.atom_census", "series.inverse_one_minus") and s[3] is not None:
                missed.add(s[3])
        for i, (name, _start, _end, _parent, _op, info) in enumerate(spans):
            for metric in (f"{name.split('.')[0]}.self_s", f"{name}.s"):
                if metric in m:
                    m[metric] += own[i]
            if name == "cli.run":
                counts["cli.output_bytes"] += info["bytes"]
            elif name == "assemble.factor_product":
                counts["assemble.factor_product.calls"] += 1
            elif name == "loops.generator_census":
                counts["loops.census_entries"] += info["entries"]
            elif name == "loops.factor_series":
                counts["loops.factor_series.calls"] += 1
                if info["j"] >= 1:
                    counts["loops.factor_series.hit_base"] += 1
                    hits += i not in missed
            elif name == "witt.lie_atom_counts":
                counts["witt.calls"] += 1
                counts["witt.atoms"] += info["entries"]
                counts["witt.table_cells"] += info["cells"]
            elif name == "series.multiply":
                counts["series.multiply.calls"] += 1
                counts["series.multiply.bytes_computed"] += info["bytes"]
            elif name == "series.power_factor":
                counts["series.power_factor.calls"] += 1
            elif name == "hilton.hilton_milnor_check":
                counts["hilton.words"] += info["words"]
    m.update(counts)
    base = counts["loops.factor_series.hit_base"]
    m["loops.factor_series.hit_ratio"] = hits / base if base else 0.0
    return m
