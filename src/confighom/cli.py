"""Batch command-line interface.

Reads a JSON problem description (plus flag overrides), runs the requested
computation or consistency suite, and renders a table, CSV or JSON.
Rendering is deterministic: identical configs give byte-identical output.

Exit codes: 0 success, 1 a check suite found a mismatch, 2 unparseable
config or an unreadable --config / unwritable --output file, 3 violated
input hypothesis (JSON booleans are not accepted where an int is
expected, ``seed`` must be an int >= 0 in every mode and ``orientable`` a
boolean), 4 internal integrity failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import __version__
from .assemble import (
    MODE_THEOREM_A,
    MODE_THEOREM_B,
    ProblemSpec,
    ab_coherence_report,
    describe_spec,
    filtration_table,
    preset,
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
from .loops import (
    FieldChar,
    GradedBetti,
    atom_census,
    generator_census,
    normalize_betti,
    suspend_betti,
)
from .series import BiSeries

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_INTEGRITY = 4

MODES = (
    "theorem_a",
    "theorem_b",
    "dk_table",
    "generators",
    "check:ab",
    "check:hilton_milnor",
)

_CONFIG_KEYS = {
    "schema_version",
    "field",
    "manifold",
    "n",
    "label_space",
    "label_spaces",
    "mode",
    "max_degree",
    "max_weight",
    "format",
    "seed",
    "trials",
    "orientable",
}


def _is_int(value: Any) -> bool:
    # bool is a subclass of int, but JSON true/false is not a count
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_betti(raw: Any, what: str) -> GradedBetti:
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{what} must be an object of degree -> dimension")
    out: GradedBetti = {}
    for key, value in raw.items():
        try:
            d = int(key)
        except (TypeError, ValueError):
            raise InvalidInputError(f"{what}: bad degree key {key!r}") from None
        if not _is_int(value):
            raise InvalidInputError(f"{what}: dimension for degree {d} must be int")
        out[d] = value
    return normalize_betti(out)


def _parse_manifold(raw: Any, char: FieldChar) -> tuple[int, GradedBetti]:
    if not isinstance(raw, dict):
        raise InvalidInputError("manifold must be an object")
    if "preset" in raw:
        name = raw["preset"]
        params = {k: v for k, v in raw.items() if k != "preset"}
        return preset(name, char=char, **params)
    if "dim" in raw and "rel_betti" in raw:
        dim = raw["dim"]
        if not _is_int(dim) or dim < 0:
            raise InvalidInputError("manifold dim must be an int >= 0")
        return dim, _parse_betti(raw["rel_betti"], "rel_betti")
    raise InvalidInputError(
        "manifold needs either a 'preset' or explicit 'dim' + 'rel_betti'"
    )


def _parse_label_space(raw: Any) -> GradedBetti:
    if not isinstance(raw, dict):
        raise InvalidInputError("label_space must be an object")
    if "betti" in raw:
        return _parse_betti(raw["betti"], "label betti")
    if raw.get("preset") == "sphere":
        d = raw.get("d")
        if not _is_int(d) or d < 0:
            raise InvalidInputError("label sphere needs an int dimension 'd' >= 0")
        return {d: 1}
    if raw.get("preset") == "wedge":
        spheres = raw.get("spheres")
        if not isinstance(spheres, list) or not spheres:
            raise InvalidInputError("label wedge needs a nonempty list 'spheres'")
        out: GradedBetti = {}
        for d in spheres:
            if not _is_int(d) or d < 0:
                raise InvalidInputError("wedge sphere dimensions must be ints >= 0")
            out[d] = out.get(d, 0) + 1
        return out
    raise InvalidInputError(
        "label_space needs 'betti', preset 'sphere' or preset 'wedge'"
    )


def load_config(path: str | None, overrides: dict[str, Any]) -> dict[str, Any]:
    config: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigurationError("config root must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {version}; this build speaks {SCHEMA_VERSION}"
        )
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    config.setdefault("format", "table")
    config.setdefault("seed", 0)
    return config


# -- execution -------------------------------------------------------------


def run(config: dict[str, Any]) -> tuple[int, str]:
    """Execute one configuration; returns (exit status, rendered output)."""
    mode = config.get("mode")
    if mode not in MODES:
        raise InvalidInputError(
            f"mode must be one of {', '.join(MODES)}; got {mode!r}"
        )
    fmt = config.get("format", "table")
    if fmt not in ("table", "csv", "json"):
        raise InvalidInputError(f"format must be table, csv or json; got {fmt!r}")
    seed = config.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise InvalidInputError("seed must be an int >= 0")

    if mode == "check:ab":
        return _run_check_ab(config, fmt)
    if mode == "check:hilton_milnor":
        return _run_check_hilton(config, fmt)

    char = FieldChar.from_name(_require(config, "field", str))
    m_dim, rel = _parse_manifold(_require(config, "manifold", dict), char)
    n = _require(config, "n", int)
    x = _parse_label_space(_require(config, "label_space", dict))
    max_degree = _require(config, "max_degree", int)
    max_weight = config.get("max_weight")
    if max_weight is not None and not _is_int(max_weight):
        raise InvalidInputError("max_weight must be an integer")

    spec = ProblemSpec(
        m_dim=m_dim,
        rel_betti=rel,
        n=n,
        x_betti=x,
        char=char,
        max_degree=max_degree,
        max_weight=max_weight,
        mode=MODE_THEOREM_B if mode in ("theorem_b", "dk_table") else MODE_THEOREM_A,
    )

    if mode == "generators":
        return EXIT_OK, _render_generators(spec, config, fmt)

    series = theorem_a(spec) if spec.mode == MODE_THEOREM_A else theorem_b(spec)
    if mode == "dk_table":
        return EXIT_OK, _render_dk_table(series, spec, config, fmt)
    return EXIT_OK, _render_series(series, spec, config, fmt)


def _require(config: dict[str, Any], key: str, typ: type) -> Any:
    if key not in config:
        raise InvalidInputError(f"config is missing required key {key!r}")
    value = config[key]
    if not (_is_int(value) if typ is int else isinstance(value, typ)):
        raise InvalidInputError(f"config key {key!r} must be of type {typ.__name__}")
    return value


def _run_check_ab(config: dict[str, Any], fmt: str) -> tuple[int, str]:
    seed = config.get("seed", 0)
    trials = config.get("trials", 20)
    max_degree = config.get("max_degree", 30)
    for name, v in (("trials", trials), ("max_degree", max_degree)):
        if not _is_int(v) or v < 0:
            raise InvalidInputError(f"{name} must be an int >= 0")
    report = ab_coherence_report(seed=seed, trials=trials, max_degree=max_degree)
    status = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    spec_echo = {"mode": "check:ab", "seed": seed, "trials": trials,
                 "max_degree": max_degree}
    return status, _render_checks([report.to_json()], spec_echo, fmt)


def _run_check_hilton(config: dict[str, Any], fmt: str) -> tuple[int, str]:
    seed = config.get("seed", 0)
    orientable = config.get("orientable", False)
    if not isinstance(orientable, bool):
        raise InvalidInputError("orientable must be a boolean")
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
        if not _is_int(max_degree) or max_degree < 0:
            raise InvalidInputError("max_degree must be an int >= 0")
        cases.append(("interval_s2_s3", 1, {0: 1}, [{2: 1}, {3: 1}], max_degree))
        cases.append(("circle_s2_s2", 1, {0: 1, 1: 1}, [{2: 1}, {2: 1}], max_degree))

    reports = []
    all_pass = True
    for name, m_dim, rel, x_list, cap in cases:
        rep = hilton_milnor_check(
            m_dim, rel, x_list, cap, char=char, orientable=orientable
        )
        payload = rep.to_json()
        payload["case"] = name
        reports.append(payload)
        all_pass = all_pass and rep.passed
    spec_echo = {"mode": "check:hilton_milnor", "field": char.name, "seed": seed}
    status = EXIT_OK if all_pass else EXIT_CHECK_FAILED
    return status, _render_checks(reports, spec_echo, fmt)


# -- rendering -------------------------------------------------------------


def _spec_echo(spec: ProblemSpec, config: dict[str, Any]) -> dict[str, Any]:
    echo = describe_spec(spec)
    echo["mode"] = config.get("mode")
    echo["seed"] = config.get("seed", 0)
    return echo


def _header_lines(echo: dict[str, Any]) -> list[str]:
    parts = " ".join(f"{k}={json.dumps(echo[k], sort_keys=True)}" for k in sorted(echo))
    return [f"# confighom {__version__} schema_version={SCHEMA_VERSION}", f"# {parts}"]


def _json_doc(
    echo: dict[str, Any],
    series: BiSeries | None = None,
    checks: list[dict] | None = None,
    generators: list[dict] | None = None,
) -> str:
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "spec": echo}
    doc["series"] = (
        [[d, k, v] for d, k, v in series.items()] if series is not None else []
    )
    doc["checks"] = checks or []
    if generators is not None:
        doc["generators"] = generators
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _render_series(
    series: BiSeries, spec: ProblemSpec, config: dict[str, Any], fmt: str
) -> str:
    echo = _spec_echo(spec, config)
    if fmt == "json":
        return _json_doc(echo, series=series)
    D, K = series.caps()
    if fmt == "csv":
        lines = ["degree," + ",".join(f"w{k}" for k in range(K + 1)) + ",total"]
        for d in range(D + 1):
            row = [series.get(d, k) for k in range(K + 1)]
            lines.append(f"{d}," + ",".join(map(str, row)) + f",{sum(row)}")
        return "\n".join(lines) + "\n"
    lines = _header_lines(echo)
    width = max(
        [len(str(series.get(d, k))) for d in range(D + 1) for k in range(K + 1)] + [4]
    )
    head = "degree | " + " ".join(f"w{k}".rjust(width) for k in range(K + 1)) + " | total"
    lines.append(head)
    lines.append("-" * len(head))
    for d in range(D + 1):
        row = [series.get(d, k) for k in range(K + 1)]
        lines.append(
            f"{d:6d} | "
            + " ".join(str(v).rjust(width) for v in row)
            + f" | {sum(row)}"
        )
    return "\n".join(lines) + "\n"


def _render_dk_table(
    series: BiSeries, spec: ProblemSpec, config: dict[str, Any], fmt: str
) -> str:
    echo = _spec_echo(spec, config)
    if fmt == "json":
        return _json_doc(echo, series=series)
    rows = filtration_table(series)
    if fmt == "csv":
        lines = ["weight,degree,dim"]
        for k, row in enumerate(rows):
            for d in sorted(row):
                lines.append(f"{k},{d},{row[d]}")
        return "\n".join(lines) + "\n"
    lines = _header_lines(echo)
    for k, row in enumerate(rows):
        cells = " ".join(f"{d}:{row[d]}" for d in sorted(row)) or "-"
        lines.append(f"weight {k:3d} | {cells}")
    return "\n".join(lines) + "\n"


def _generator_rows(spec: ProblemSpec) -> list[dict]:
    x = normalize_betti(spec.x_betti)
    if any(d < 1 for d in x):
        raise InvalidInputError(
            "the generator census needs a connected label space "
            "(reduced classes in degrees >= 1)"
        )
    rel = normalize_betti(spec.rel_betti)
    K = spec.effective_max_weight()
    rows: list[dict] = []
    m = spec.m_dim + spec.n
    for q in sorted(rel):
        j = m - q
        y = suspend_betti(x, q)
        entry: dict[str, Any] = {"q": q, "j": j, "copies": rel[q]}
        if j == 1:
            entry["kind"] = "free_associative"
            entry["generators"] = [
                {"degree": d, "weight": 1, "count": c} for d, c in sorted(y.items())
            ]
        else:
            census = generator_census(
                atom_census(y, j, spec.char, spec.max_degree, K),
                j,
                spec.char,
                spec.max_degree,
                K,
            )
            gens = []
            for d, k, c in census.items():
                kind = (
                    "polynomial"
                    if spec.char.is_two or d % 2 == 0
                    else "exterior"
                )
                gens.append({"degree": d, "weight": k, "kind": kind, "count": c})
            entry["kind"] = "free_commutative"
            entry["generators"] = gens
        rows.append(entry)
    return rows


def _render_generators(
    spec: ProblemSpec, config: dict[str, Any], fmt: str
) -> str:
    # the census listing only needs connected labels, not simply connected
    # ones, so validate under the permissive mode before the >= 1 gate
    probe = ProblemSpec(
        m_dim=spec.m_dim,
        rel_betti=spec.rel_betti,
        n=spec.n,
        x_betti=spec.x_betti,
        char=spec.char,
        max_degree=spec.max_degree,
        max_weight=spec.effective_max_weight(),
        mode=MODE_THEOREM_B,
    )
    probe.validate()
    rows = _generator_rows(spec)
    echo = _spec_echo(spec, config)
    if fmt == "json":
        return _json_doc(echo, generators=rows)
    if fmt == "csv":
        lines = ["q,j,copies,degree,weight,kind,count"]
        for entry in rows:
            for g in entry["generators"]:
                lines.append(
                    f"{entry['q']},{entry['j']},{entry['copies']},"
                    f"{g['degree']},{g['weight']},{g.get('kind', entry['kind'])},"
                    f"{g['count']}"
                )
        return "\n".join(lines) + "\n"
    lines = _header_lines(echo)
    for entry in rows:
        lines.append(
            f"factor q={entry['q']} j={entry['j']} copies={entry['copies']} "
            f"({entry['kind']})"
        )
        for g in entry["generators"]:
            kind = g.get("kind", "")
            lines.append(
                f"  degree {g['degree']:3d} weight {g['weight']:3d} "
                f"count {g['count']}" + (f" {kind}" if kind else "")
            )
    return "\n".join(lines) + "\n"


def _render_checks(reports: list[dict], echo: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _json_doc(echo, checks=reports)
    if fmt == "csv":
        lines = ["check,status"]
        for rep in reports:
            lines.append(f"{rep.get('case', rep['name'])},{rep['status']}")
        return "\n".join(lines) + "\n"
    lines = _header_lines(echo)
    for rep in reports:
        label = rep.get("case", rep["name"])
        lines.append(f"check {label}: {rep['status'].upper()}")
        if rep["status"] != "pass":
            detail = rep.get("failures") or rep.get("first_mismatch")
            lines.append(f"  detail: {json.dumps(detail, sort_keys=True)}")
    return "\n".join(lines) + "\n"


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
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument("--max-weight", type=int, dest="max_weight")
    parser.add_argument("--format", choices=("table", "csv", "json"))
    parser.add_argument("--output", help="write the rendering to this file")
    parser.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "mode": args.mode,
        "field": args.field,
        "max_degree": args.max_degree,
        "max_weight": args.max_weight,
        "format": args.format,
        "seed": args.seed,
    }
    try:
        config = load_config(args.config, overrides)
        status, rendered = run(config)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CalculatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write output {args.output}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(rendered)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
