"""Batch command-line interface.

Reads a JSON problem description (plus flag overrides), runs the requested
computation or consistency suite, and renders a table, CSV or JSON.
Rendering is deterministic: identical configs give byte-identical output.

Exit codes: 0 success, 1 a check suite found a mismatch, 2 unparseable
config (bad JSON, unknown key, a schema_version other than the int 1),
an unreadable --config or unwritable --output or stdout, 3 violated
input hypothesis or caps past memory, 4 internal integrity failure: a
broken identity or mismatched caps inside the engine.

Exit 3 is every InvalidInputError, and a MemoryError from the run.  The
library refuses wrong values itself, each count through
``loops.require_int`` (an int, never a bool, at or above its minimum);
this module checks only the JSON shape (value types, the keys each object
may carry, no Betti degree given twice) and that the ``generators``
listing's label space is connected.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

from . import __version__
from .assemble import (
    ProblemSpec,
    ab_coherence_report,
    describe_spec,
    listed_plan,
    preset,
    preset_parameters,
    theorem_a,
    theorem_b,
)
from .errors import (
    CalculatorError,
    ConfigurationError,
    IntegrityError,
    InvalidInputError,
)
from .hilton import hilton_milnor_check
from .loops import FieldChar, GradedBetti, int_from_text, normalize_betti, require_int
from .series import BiSeries

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_INTEGRITY = 4

_COMMON_KEYS = ("mode", "format", "seed", "schema_version")
_TABLE_KEYS = ("field", "manifold", "n", "label_space", "max_degree", "max_weight")

# the top-level keys each mode reads
_MODE_KEYS = {
    **{
        mode: _COMMON_KEYS + _TABLE_KEYS
        for mode in ("theorem_a", "theorem_b", "dk_table", "generators")
    },
    "check:ab": _COMMON_KEYS + ("trials", "max_degree"),
    "check:hilton_milnor": _COMMON_KEYS
    + ("field", "manifold", "label_spaces", "max_degree", "orientable"),
}

MODES = tuple(_MODE_KEYS)
_CONFIG_KEYS = set().union(*_MODE_KEYS.values())


def _parse_betti(raw: object, what: str) -> GradedBetti:
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{what} must be an object of degree -> dimension")
    out: GradedBetti = {}
    for key, value in raw.items():
        try:
            d = int_from_text(key)
        except (TypeError, ValueError):
            raise InvalidInputError(f"{what}: bad degree key {key!r}") from None
        if d in out:
            raise InvalidInputError(f"{what}: degree {d} is given twice")
        out[d] = value
    return normalize_betti(out)


def _only_keys(raw: dict, allowed: tuple[str, ...], what: str) -> None:
    extra = set(raw) - set(allowed)
    if extra:
        raise InvalidInputError(
            f"{what}: unexpected keys {sorted(extra)} (allowed: {list(allowed)})"
        )


def _parse_manifold(raw: object, char: FieldChar) -> tuple[int, GradedBetti]:
    if not isinstance(raw, dict):
        raise InvalidInputError("manifold must be an object")
    if "preset" in raw:
        name = raw["preset"]
        params = {k: v for k, v in raw.items() if k != "preset"}
        _only_keys(params, preset_parameters(name), f"manifold preset {name!r}")
        return preset(name, char=char, **params)
    if "dim" in raw and "rel_betti" in raw:
        _only_keys(raw, ("dim", "rel_betti"), "explicit manifold")
        # ProblemSpec.validate and hilton_milnor_check refuse a bad dim
        return raw["dim"], _parse_betti(raw["rel_betti"], "rel_betti")
    raise InvalidInputError(
        "manifold needs either a 'preset' or explicit 'dim' + 'rel_betti'"
    )


def _parse_label_space(raw: object) -> GradedBetti:
    if not isinstance(raw, dict):
        raise InvalidInputError("label_space must be an object")
    if "betti" in raw:
        _only_keys(raw, ("betti",), "label betti")
        return _parse_betti(raw["betti"], "label betti")
    if raw.get("preset") == "sphere":
        _only_keys(raw, ("preset", "d"), "label sphere")
        return {require_int(raw.get("d"), "label sphere dimension 'd'"): 1}
    if raw.get("preset") == "wedge":
        _only_keys(raw, ("preset", "spheres"), "label wedge")
        spheres = raw.get("spheres")
        if not isinstance(spheres, list) or not spheres:
            raise InvalidInputError("label wedge needs a nonempty list 'spheres'")
        out: GradedBetti = {}
        for d in spheres:
            require_int(d, "wedge sphere dimension")
            out[d] = out.get(d, 0) + 1
        return out
    raise InvalidInputError(
        "label_space needs 'betti', preset 'sphere' or preset 'wedge'"
    )


def load_config(path: str | None, overrides: dict[str, object]) -> dict[str, object]:
    config: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # bad UTF-8, bad syntax, a too-long int literal or too deep nesting
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigurationError("config root must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    version = config.get("schema_version", SCHEMA_VERSION)
    # true and 1.0 equal 1, but only the int 1 names this schema
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {version!r}; this build speaks {SCHEMA_VERSION}"
        )
    config.update((key, value) for key, value in overrides.items() if value is not None)
    return config


# -- execution -------------------------------------------------------------


def run(config: dict[str, object]) -> tuple[int, str]:
    """Execute one configuration; returns (exit status, rendered output)."""
    mode = config.get("mode")
    if mode not in MODES:
        raise InvalidInputError(
            f"mode must be one of {', '.join(MODES)}; got {mode!r}"
        )
    unread = set(config) - set(_MODE_KEYS[mode])
    if unread:
        raise InvalidInputError(
            f"mode {mode!r} does not read the config keys {sorted(unread)}"
        )
    fmt = config.get("format", "table")
    if fmt not in ("table", "csv", "json"):
        raise InvalidInputError(f"format must be table, csv or json; got {fmt!r}")
    seed = require_int(config.get("seed", 0), "seed")

    if mode in ("check:ab", "check:hilton_milnor"):
        run_check = _run_check_ab if mode == "check:ab" else _run_check_hilton
        echo, reports = run_check(config, seed)
        passed = all(rep["status"] == "pass" for rep in reports)
        status = EXIT_OK if passed else EXIT_CHECK_FAILED
        return status, _render(fmt, echo, _check_lines(reports, fmt), checks=reports)

    char = FieldChar.from_name(_require(config, "field", str))
    m_dim, rel = _parse_manifold(_require(config, "manifold", dict), char)
    n = _require(config, "n", int)
    x = _parse_label_space(_require(config, "label_space", dict))
    max_degree = _require(config, "max_degree", int)

    spec = ProblemSpec(
        m_dim=m_dim,
        rel_betti=rel,
        n=n,
        x_betti=x,
        char=char,
        max_degree=max_degree,
        max_weight=config.get("max_weight"),
    )

    echo = dict(describe_spec(spec), mode=mode, seed=seed)
    if mode == "generators":
        rows = _generator_rows(spec)
        return EXIT_OK, _render(fmt, echo, _generator_lines(rows, fmt), generators=rows)

    series = theorem_a(spec) if mode == "theorem_a" else theorem_b(spec)
    view = _dk_lines if mode == "dk_table" else _grid_lines
    return EXIT_OK, _render(fmt, echo, view(series, fmt), series=series)


def _require(config: dict[str, object], key: str, typ: type) -> object:
    if key not in config:
        raise InvalidInputError(f"config is missing required key {key!r}")
    value = config[key]
    # exact types: a JSON true is not an int
    if type(value) is not typ:
        raise InvalidInputError(f"config key {key!r} must be of type {typ.__name__}")
    return value


def _run_check_ab(config: dict[str, object], seed: int) -> tuple[dict, list[dict]]:
    trials = config.get("trials", 20)
    max_degree = config.get("max_degree", 30)
    report = ab_coherence_report(seed=seed, trials=trials, max_degree=max_degree)
    echo = {"mode": "check:ab", "seed": seed, "trials": trials,
            "max_degree": max_degree}
    return echo, [report.to_json()]


def _run_check_hilton(config: dict[str, object], seed: int) -> tuple[dict, list[dict]]:
    orientable = config.get("orientable", False)
    char = FieldChar.from_name(config.get("field", "F2"))
    cases = []
    if "manifold" in config or "label_spaces" in config:
        m_dim, rel = _parse_manifold(_require(config, "manifold", dict), char)
        raw_list = _require(config, "label_spaces", list)
        x_list = [_parse_label_space(item) for item in raw_list]
        max_degree = _require(config, "max_degree", int)
        cases.append(("configured", m_dim, rel, x_list, max_degree))
    else:
        # default suite: unit interval with S2 v S3, circle with S2 v S2
        max_degree = config.get("max_degree", 20)
        cases.append(("interval_s2_s3", 1, {0: 1}, [{2: 1}, {3: 1}], max_degree))
        cases.append(("circle_s2_s2", 1, {0: 1, 1: 1}, [{2: 1}, {2: 1}], max_degree))

    reports = []
    for name, m_dim, rel, x_list, cap in cases:
        rep = hilton_milnor_check(
            m_dim, rel, x_list, cap, char=char, orientable=orientable
        )
        reports.append(dict(rep.to_json(), case=name))
    return {"mode": "check:hilton_milnor", "field": char.name, "seed": seed}, reports


def _generator_rows(spec: ProblemSpec) -> list[dict]:
    # the census listing needs connected labels, not simply connected ones
    spec.validate()
    if any(d < 1 for d in normalize_betti(spec.x_betti)):
        raise InvalidInputError(
            "the generator census needs a connected label space "
            "(reduced classes in degrees >= 1)"
        )
    plan = listed_plan(
        spec.m_dim, spec.rel_betti, spec.n, spec.x_betti, spec.char,
        spec.max_degree, spec.effective_max_weight(),
    )
    rows = []
    for q, j, y, copies, generators in plan:
        if j == 1:
            kind = "free_associative"
            gens = [
                {"degree": d, "weight": 1, "count": c} for d, c in sorted(y.items())
            ]
        else:
            kind = "free_commutative"
            gens = [
                {"degree": d, "weight": k, "kind": g_kind, "count": c}
                for d, k, c, g_kind in generators
            ]
        rows.append(
            {"q": q, "j": j, "copies": copies, "kind": kind, "generators": gens}
        )
    return rows


# -- rendering -------------------------------------------------------------


def _render(
    fmt: str,
    echo: dict[str, object],
    lines: Iterable[str],
    series: BiSeries | None = None,
    checks: list[dict] | None = None,
    generators: list[dict] | None = None,
) -> str:
    """The one place each output format is put together.

    json lays out the spec echo, the check reports, any generator rows and
    a marker where the series cells go in by :func:`_json_text`, then puts
    the cells in place of the marker.  csv joins the view's
    ``lines``; table puts two header lines before them.  ``lines`` is a
    generator, so no view is built for json.
    """
    if fmt == "json":
        marker = "\0series"  # no other string of the envelope holds a NUL
        fields: dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "spec": echo,
            "checks": checks or [],
            "series": marker,
        }
        if generators is not None:
            fields["generators"] = generators
        text = _json_text(fields)
        head, _, tail = text.partition(json.dumps(marker))
        return "".join([head, *_json_cells(series), tail, "\n"])
    if fmt == "table":
        parts = " ".join(
            f"{k}={json.dumps(echo[k], sort_keys=True)}" for k in sorted(echo)
        )
        title = f"# confighom {__version__} schema_version={SCHEMA_VERSION}"
        lines = itertools.chain((title, f"# {parts}"), lines)
    # the empty last line ends the text with a newline
    return "\n".join(itertools.chain(lines, ("",)))


def _json_text(value: object, pad: str = "\n") -> str:
    """``value`` in the layout of json.dumps(value, sort_keys=True,
    indent=2), for dicts with str keys, lists, tuples and scalars; ``pad``
    is a newline and the indentation of the line ``value`` starts on.

    The stdlib lays out an indented dump with its pure-Python encoder, one
    generator step per part; this joins each container's items at once
    and spells an int itself, so the check reports' totals and words cost
    a join instead.  Every other scalar goes through json.dumps."""
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            f"{inner}{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
            for key in sorted(value)
        ]
        return "".join(["{", ",".join(items), pad, "}"])
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_json_text(item, inner) for item in value]
        return "".join(["[", inner, f",{inner}".join(items), pad, "]"])
    return json.dumps(value)


def _json_cells(series: BiSeries | None) -> list[str]:
    """The nonzero cells as a list of [d, k, v] triples, in the layout of
    json.dumps(..., indent=2) one level down, as parts to be joined: one
    part per degree row that has a nonzero cell."""
    if series is None:
        return ["[]"]
    weights = [f"{k},\n      " for k in range(series.max_weight + 1)]
    parts = []
    for d, row in enumerate(series.rows()):
        head = f",\n    [\n      {d},\n      "
        part = "".join(
            [f"{head}{weights[k]}{v}\n    ]" for k, v in enumerate(row) if v]
        )
        if part:
            parts.append(part)
    if not parts:
        return ["[]"]
    # each cell follows a comma, but the first follows the opening bracket
    parts[0] = "[" + parts[0][1:]
    parts.append("\n  ]")
    return parts


def _grid_lines(series: BiSeries, fmt: str) -> Iterator[str]:
    """One line per degree: its degree, its cells and their total, each
    row put through one printf-style format built once per table."""
    K = series.max_weight
    rows = series.rows()
    if fmt == "csv":
        yield "degree," + ",".join(f"w{k}" for k in range(K + 1)) + ",total"
        line = "%d," * (K + 2) + "%d"
    else:
        # counts are nonnegative, so the largest one is the widest
        width = max(4, len(str(max(map(max, rows)))))
        head = (
            "degree | "
            + " ".join(f"w{k}".rjust(width) for k in range(K + 1))
            + " | total"
        )
        yield head
        yield "-" * len(head)
        line = "%6d | " + " ".join([f"%{width}d"] * (K + 1)) + " | %d"
    for d, row in enumerate(rows):
        yield line % (d, *row, sum(row))


def _dk_lines(series: BiSeries, fmt: str) -> Iterator[str]:
    csv = fmt == "csv"
    if csv:
        yield "weight,degree,dim"
    for k, column in enumerate(zip(*series.rows())):
        cells = [f"{k},{d},{v}" if csv else f"{d}:{v}" for d, v in enumerate(column) if v]
        if csv:
            yield from cells
        else:
            yield f"weight {k:3d} | " + (" ".join(cells) or "-")


def _generator_lines(rows: list[dict], fmt: str) -> Iterator[str]:
    if fmt == "csv":
        yield "q,j,copies,degree,weight,kind,count"
    for entry in rows:
        q, j, copies, kind = entry["q"], entry["j"], entry["copies"], entry["kind"]
        if fmt == "table":
            yield f"factor q={q} j={j} copies={copies} ({kind})"
        for g in entry["generators"]:
            g_kind = g.get("kind", "")
            if fmt == "csv":
                yield (
                    f"{q},{j},{copies},{g['degree']},{g['weight']},"
                    f"{g_kind or kind},{g['count']}"
                )
            else:
                yield (
                    f"  degree {g['degree']:3d} weight {g['weight']:3d} "
                    f"count {g['count']}" + (f" {g_kind}" if g_kind else "")
                )


def _check_lines(reports: list[dict], fmt: str) -> Iterator[str]:
    if fmt == "csv":
        yield "check,status"
    for rep in reports:
        label = rep.get("case", rep["name"])
        if fmt == "csv":
            yield f"{label},{rep['status']}"
            continue
        yield f"check {label}: {rep['status'].upper()}"
        if rep["status"] != "pass":
            detail = rep.get("failures") or rep.get("first_mismatch")
            yield f"  detail: {json.dumps(detail, sort_keys=True)}"


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confighom",
        description=(
            "Exact Betti-number tables for labeled configuration spaces on "
            "manifolds thickened by a Euclidean factor."
        ),
    )
    parser.add_argument("--config", help="JSON problem description")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--field", help="Q, F2 or Fp:<p>")
    # an int flag is read by the int-from-text rule
    parser.register("type", int, int_from_text)
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument("--max-weight", type=int, dest="max_weight")
    parser.add_argument("--format", choices=("table", "csv", "json"))
    parser.add_argument("--output", help="write the rendering to this file")
    parser.add_argument("--seed", type=int)
    return parser


def _complain(message: str) -> None:
    """Write ``message`` as a line to stderr while stderr can take it.

    With stderr closed the interpreter sets ``sys.stderr`` to None, or the
    write fails with OSError; either way the exit status alone then tells
    what went wrong."""
    if sys.stderr is None:
        return
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("config", "output")}
    try:
        config = load_config(args.config, overrides)
    except ConfigurationError as exc:
        _complain(f"error: {exc}")
        return EXIT_PARSE
    try:
        status, rendered = run(config)
    except (ConfigurationError, IntegrityError) as exc:
        # past load_config, mismatched engine objects are an engine fault
        _complain(f"integrity error: {exc}")
        return EXIT_INTEGRITY
    except CalculatorError as exc:
        _complain(f"error: {exc}")
        return EXIT_INPUT
    except MemoryError:
        _complain("error: the table does not fit in memory; lower the caps")
        return EXIT_INPUT
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        elif sys.stdout is None:
            # the interpreter sets sys.stdout to None when it starts with
            # file descriptor 1 closed
            raise OSError(errno.EBADF, "standard output is closed")
        else:
            sys.stdout.write(rendered)
            sys.stdout.flush()
    except OSError as exc:
        _complain(f"error: cannot write output {args.output or '<stdout>'}: {exc}")
        if not args.output and sys.stdout is not None:
            # what stays buffered goes nowhere at the interpreter's last flush
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_PARSE
    return status


if __name__ == "__main__":
    raise SystemExit(main())
