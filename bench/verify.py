"""Exact checks on the rendered output of one operation.

The checks read the bytes the CLI produced, not the engine's objects, and
derive what they expect from the config alone, through code paths that
share nothing with the series kernel: the smash convolution of the Betti
data (``assemble.weight_one_slice_expected``) and the closed-form catalog
(``oracle.classical_series``).

* every table: the caps match the config, each rendered total is the sum
  of its row, and the weight-1 slice is the smash of M/M0 with X;
* ``theorem_a``: weight-k rows vanish below degree 2k;
* single-factor problems with a closed form: exact equality with the
  catalog (James for j = 1; Omega^2 S^3 for j = 2 on S^1 labels; rational
  double loops on spheres);
* check suites: exit status 0 and every reported check passed.

:func:`verify` returns the list of problems found; empty means verified.
"""

from __future__ import annotations

import json
from typing import Any

from confighom.assemble import preset, weight_one_slice_expected
from confighom.loops import FieldChar
from confighom.oracle import classical_series

Table = dict[tuple[int, int], int]


class OutputError(ValueError):
    """The output does not parse as the format the config asked for."""


def _ints(fields: list[str]) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise OutputError(str(exc)) from None


def _body(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def parse_table(mode: str, fmt: str, text: str) -> tuple[Table, tuple[int, int]]:
    """The nonzero cells of a rendered series and its caps (D, K)."""
    if fmt == "json":
        doc = json.loads(text)
        spec = doc["spec"]
        cells = {(d, k): v for d, k, v in doc["series"]}
        return cells, (spec["max_degree"], spec["max_weight"])
    lines = _body(text)
    cells: Table = {}
    if mode == "dk_table":
        if fmt == "csv":
            for line in lines[1:]:
                k, d, v = _ints(line.split(","))
                cells[(d, k)] = v
            # the csv form lists only nonzero cells and carries no caps
            return cells, (-1, -1)
        K = -1
        for line in lines:
            label, row = line.split("|")
            K = _ints(label.split()[1:])[0]
            for cell in row.split():
                if cell != "-":
                    d, v = _ints(cell.split(":"))
                    cells[(d, K)] = v
        return cells, (-1, K)
    if fmt == "csv":
        rows = [_ints(line.split(",")) for line in lines[1:]]
        rows = [(r[0], r[1:-1], r[-1]) for r in rows]
    else:
        rows = []
        for line in lines[2:]:
            d, row, total = line.split("|")
            rows.append((_ints([d])[0], _ints(row.split()), _ints([total])[0]))
    for expect_d, (d, values, total) in enumerate(rows):
        if d != expect_d or sum(values) != total or len(values) != len(rows[0][1]):
            raise OutputError(f"row {d}: bad degree, width or total")
        cells.update({(d, k): v for k, v in enumerate(values) if v})
    K = len(rows[0][1]) - 1 if rows else -1
    return cells, (len(rows) - 1, K)


def parse_checks(fmt: str, text: str) -> list[tuple[str, str]]:
    """(check name, status) for each check a suite reported."""
    if fmt == "json":
        return [(c.get("case", c["name"]), c["status"]) for c in json.loads(text)["checks"]]
    lines = _body(text)
    if fmt == "csv":
        return [tuple(line.split(",")) for line in lines[1:]]
    out = []
    for line in lines:
        if line.startswith("check "):
            name, status = line[len("check "):].rsplit(": ", 1)
            out.append((name, status.lower()))
    return out


def _label_betti(label: dict) -> dict[int, int]:
    if label["preset"] == "sphere":
        return {label["d"]: 1}
    out: dict[int, int] = {}
    for d in label["spheres"]:
        out[d] = out.get(d, 0) + 1
    return out


def _degreewise(name: str, params: dict | None, D: int):
    # asked one degree past the cap: classical_series("omega2_s3_modp", ...)
    # leaves out a polynomial generator whose degree 2p^i - 2 equals the cap
    return name, classical_series(name, params, D + 1, 0).degree_totals()[: D + 1]


def _closed_form(config: dict, m_dim: int, rel: dict, x: dict, D: int, K: int):
    """(name, expected) when the problem has a classical closed form, else
    None.  ``expected`` is a BiSeries to match cell by cell, or a list of
    degreewise totals."""
    single = len(rel) == len(x) == 1 and set(rel.values()) == set(x.values()) == {1}
    if not single:
        return None
    (q,), (d,) = rel, x
    j = m_dim + config["n"] - q
    field = config["field"]
    if j == 1 and d + q >= 1:
        return "james", classical_series("james", {"d": d + q}, D, K)
    if j != 2:
        return None
    if config["mode"] != "theorem_a" and (d, q) == (1, 0) and K >= D:
        # C(I^m x R^n; S^1) with m + n = 2 is Omega^2 S^3
        if field == "F2":
            return _degreewise("omega2_s3_mod2", None, D)
        if field == "Q":
            return _degreewise("rational_loops_sphere", {"j": 2, "m": 3}, D)
        p = FieldChar.from_name(field).p
        return _degreewise("omega2_s3_modp", {"p": p}, D)
    if config["mode"] == "theorem_a" and field == "Q":
        return _degreewise("rational_loops_sphere", {"j": 2, "m": d + q + 2}, D)
    return None


def _verify_series(config: dict, text: str) -> list[str]:
    mode, fmt = config["mode"], config["format"]
    D = config["max_degree"]
    K = config.get("max_weight")
    if K is None:
        K = D // 2
    cells, (got_D, got_K) = parse_table(mode, fmt, text)
    problems = []
    if got_D not in (-1, D) or got_K not in (-1, K):
        problems.append(f"caps {(got_D, got_K)} differ from the config's {(D, K)}")
    if any(d > D or k > K or v < 0 for (d, k), v in cells.items()):
        problems.append("a cell lies outside the caps or is negative")

    m_dim, rel = preset(
        config["manifold"]["preset"],
        char=FieldChar.from_name(config["field"]),
        **{k: v for k, v in config["manifold"].items() if k != "preset"},
    )
    x = _label_betti(config["label_space"])
    if K >= 1:
        got = [cells.get((d, 1), 0) for d in range(D + 1)]
        if got != weight_one_slice_expected(rel, x, D):
            problems.append("weight-1 slice differs from the smash of M/M0 with X")
    if mode == "theorem_a":
        low = sorted((d, k) for (d, k), v in cells.items() if v and d < 2 * k)
        if low:
            problems.append(f"weight-k class below degree 2k at {low[0]}")
    known = _closed_form(config, m_dim, rel, x, D, K)
    if known is not None:
        name, expected = known
        if isinstance(expected, list):
            totals = [0] * (D + 1)
            for (d, _k), v in cells.items():
                totals[d] += v
            ok = totals == expected
        else:
            ok = cells == expected.to_dict()
        if not ok:
            problems.append(f"differs from the closed form {name}")
    return problems


def verify(config: dict[str, Any], status: int, text: str) -> list[str]:
    """Problems with one operation's output; an empty list means verified."""
    try:
        if config["mode"].startswith("check:"):
            checks = parse_checks(config["format"], text)
            problems = [] if status == 0 else [f"exit status {status}"]
            if not checks:
                problems.append("no checks reported")
            problems += [f"check {name}: {st}" for name, st in checks if st != "pass"]
            return problems
        if status != 0:
            return [f"exit status {status}"]
        return _verify_series(config, text)
    except (OutputError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]
