"""Mutant catalogue and kill matrix.

Each entry of :data:`MUTANTS` is one source edit that models a real error:
a file, a text that occurs exactly once in it, its replacement, and the
error it models.  For every entry this script copies the checkout (its
tracked and untracked, not ignored, files) into a temporary directory,
applies the edit there, and runs:

* tier-1, ``python -m pytest -x`` over ``tests/`` (without the catalogue's
  own test, which fails on any applied edit by design);
* ``python -m confighom --mode check:ab --seed 0``;
* ``python -m confighom --mode check:hilton_milnor``.

An unmutated copy runs first as the baseline.  The matrix goes to stdout,
or to ``--out``, as JSON.  The exit status is 0 only if the baseline
passes tier-1 and tier-1 kills every mutant.  At most two copies run at
once.

    python3 tools/mutants.py [--out matrix.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # copies run at once
TIER1_TIMEOUT_S = 900
CHECK_TIMEOUT_S = 300

# name -> (file, text, replacement, the error it models)
MUTANTS = {
    "bockstein_dropped": (
        "src/confighom/loops.py",
        "steps = (0,) if p == 2 else (0, 1)",
        "steps = (0,)",
        "odd-p Bockstein step after Q_b dropped",
    ),
    "parity_flipped": (
        "src/confighom/loops.py",
        "if p != 2 and (b - d) % 2:",
        "if p != 2 and not (b - d) % 2:",
        "odd-p parity rule on the operation index flipped",
    ),
    "top_index_dropped": (
        "src/confighom/loops.py",
        "for b in range(1, bmax + 1):",
        "for b in range(1, bmax):",
        "top operation index j-1 (or b - eps) never applied",
    ),
    "dl_weight_plus_one": (
        "src/confighom/loops.py",
        "nk = p * k",
        "nk = p * k + 1",
        "a Dyer-Lashof operation gives weight p*k + 1",
    ),
    "copies_dropped": (
        "src/confighom/assemble.py",
        "(d - 2 * k, k, c * copies, kind)",
        "(d - 2 * k, k, c, kind)",
        "a factor with several relative classes counted once",
    ),
    "regrade_undone": (
        "src/confighom/loops.py",
        "{(d - shift, l): c for (d, l), c in shifted.entries.items()}",
        "{(d, l): c for (d, l), c in shifted.entries.items()}",
        "atoms left in the Witt solve's shifted grading",
    ),
    "hilton_length_short": (
        "src/confighom/hilton.py",
        "max_len = (D + m_dim - min_rel) // (min(bottoms) + m_dim)",
        "max_len = (D + m_dim - min_rel) // (min(bottoms) + m_dim) - 1",
        "the Hilton word-length bound one shorter",
    ),
    "thom_shift_dropped": (
        "src/confighom/hilton.py",
        "suspend_betti(_smash_betti(x_list, word.multiplicities, smashes), shift)",
        "suspend_betti(_smash_betti(x_list, word.multiplicities, smashes), 0)",
        "a word's module without the (l - 1) * m_dim Thom shift",
    ),
    "raise_by_delta": (
        "src/confighom/hilton.py",
        "w = d + k * (low - base)",
        "w = d + (low - base)",
        "a suspension class's coefficients raised by Delta, not k * Delta",
    ),
    "witt_cell_dropped": (
        "src/confighom/witt.py",
        "for d in sorted(words):",
        "for d in sorted(words)[:-1]:",
        "the top Witt cell of each length never solved",
    ),
    "witt_flip_dropped": (
        "src/confighom/witt.py",
        "flip = signed and r % 2 == 0",
        "flip = False",
        "the sign of an even power of an odd-degree product dropped",
    ),
    "witt_top_multiple_dropped": (
        "src/confighom/witt.py",
        "for r in range(2, top // length + 1):",
        "for r in range(2, top // length):",
        "the top multiple of each length never scattered onto",
    ),
    "exterior_tag_dropped": (
        "src/confighom/assemble.py",
        "POLYNOMIAL if polynomial_only or d % 2 == 0 else EXTERIOR",
        "POLYNOMIAL",
        "every generator tagged polynomial, odd degrees included",
    ),
    "tag_by_unraised_degree": (
        "src/confighom/assemble.py",
        "polynomial_only or d % 2 == 0",
        "polynomial_only or (d - rise) % 2 == 0",
        "a generator's kind taken from its degree before the raise",
    ),
    "raise_by_half": (
        "src/confighom/assemble.py",
        "rise = q - q0",
        "rise = (q - q0) // 2",
        "a factor's atoms raised by (q - q0) // 2, not q - q0",
    ),
    "degree_zero_labels_dropped": (
        "src/confighom/assemble.py",
        "plan.append((q, j, suspend_betti(x, q), rel[q]))",
        "plan.append((q, j, suspend_betti({d: c for d, c in x.items() if d}, q), rel[q]))",
        "degree-0 label classes dropped from the factor plan",
    ),
    "beta_copies_dropped": (
        "src/confighom/assemble.py",
        "step = c * copies * w",
        "step = c * w",
        "the theorems' coefficients count a factor with several classes once",
    ),
    "beta_raise_by_half": (
        "src/confighom/assemble.py",
        "closed_census(atoms, q - q0, j, char, max_degree, max_weight)",
        "closed_census(atoms, (q - q0) // 2, j, char, max_degree, max_weight)",
        "the theorems' factor census raised by (q - q0) // 2, not q - q0",
    ),
    "beta_exterior_dropped": (
        "src/confighom/assemble.py",
        "exterior = not char.is_two",
        "exterior = False",
        "the theorems' coefficients without the exterior term of an odd degree",
    ),
    "spelling_base_short": (
        "src/confighom/hilton.py",
        "base = max_length + 1",
        "base = max_length",
        "basic words spelled in base max_length, so the longest ones carry",
    ),
    "degree_one_cap_halved": (
        "src/confighom/assemble.py",
        "min((d for d, c in self.x_betti.items() if c), default=None) == 1",
        "False",
        "the default weight cap max_degree // 2 for labels with a degree-1 class",
    ),
}

TIER1 = [
    "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
    "--ignore", "tests/test_mutants.py",
]
CHECKS = {
    "check:ab --seed 0": ["-m", "confighom", "--mode", "check:ab", "--seed", "0"],
    "check:hilton_milnor": ["-m", "confighom", "--mode", "check:hilton_milnor"],
}


def checkout_files(root: Path) -> list[str]:
    """The checkout's files as git lists them: tracked and untracked, not
    ignored, that exist on disk."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    return sorted({name for name in listed if name and (root / name).is_file()})


def apply(root: Path, name: str) -> None:
    """Apply mutant ``name`` to the tree at ``root``, in place."""
    file, text, replacement, _error = MUTANTS[name]
    path = root / file
    source = path.read_text()
    if source.count(text) != 1:
        raise SystemExit(f"{name}: text occurs {source.count(text)} times in {file}")
    path.write_text(source.replace(text, replacement))


def _run(args: list[str], cwd: Path, timeout: int) -> dict:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, *args], cwd=cwd, env=env, timeout=timeout,
            capture_output=True, text=True,
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "note": f"timed out after {timeout} s"}
    out = {"exit": done.returncode}
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if failed:
        out["first_failure"] = failed[0]
    return out


def run_one(name: str | None, files: list[str]) -> dict:
    """The row of mutant ``name`` (None: the unmutated baseline)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for file in files:
            (copy / file).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / file, copy / file)
        if name is not None:
            apply(copy, name)
        row = {"mutant": name or "baseline"}
        if name is not None:
            row["error"] = MUTANTS[name][3]
        row["tier-1"] = _run(TIER1, copy, TIER1_TIMEOUT_S)
        for check, args in CHECKS.items():
            row[check] = _run(args, copy, CHECK_TIMEOUT_S)
        # tier-1 kills a mutant when it does not pass, a timeout included
        row["killed"] = row["tier-1"]["exit"] != 0
        return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the matrix here instead of stdout")
    args = parser.parse_args(argv)
    files = checkout_files(ROOT)
    with ThreadPoolExecutor(JOBS) as pool:
        rows = list(pool.map(lambda name: run_one(name, files), [None, *MUTANTS]))
    text = json.dumps(rows, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    baseline, mutants = rows[0], rows[1:]
    return 0 if not baseline["killed"] and all(row["killed"] for row in mutants) else 1


if __name__ == "__main__":
    raise SystemExit(main())
