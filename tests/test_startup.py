"""What a start of the command-line interface loads.

Each CLI run is a fresh interpreter, so every module that ``import
confighom.cli`` pulls in is paid for on every run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import confighom

SRC = Path(confighom.__file__).resolve().parent
NOT_AT_START = ["dataclasses", "inspect", "typing", "random", "shutil"]


def test_starting_the_cli_leaves_out_dataclasses_inspect_typing_and_random():
    # -S keeps site's own imports out, so only what confighom pulls in shows
    script = (
        "import json, sys\n"
        "import confighom.cli\n"
        "confighom.cli.build_parser()\n"
        f"print(json.dumps([m for m in {NOT_AT_START!r} if m in sys.modules]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def _imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """Each absolute import in ``tree`` as (top-level module, name of the
    innermost function it sits in, or None at module level)."""
    homes = {}
    # ast.walk goes outside in, so an inner function overwrites its outer one
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                homes[node] = fn.name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((name.partition(".")[0], homes.get(node)) for name in names)
    return found


def test_no_module_imports_dataclasses_or_typing_and_random_only_for_check_ab():
    # the records are plain __slots__ classes and the annotations come from
    # collections.abc; random is loaded by the check:ab suite alone
    random_imports = []
    for path in sorted(SRC.glob("*.py")):
        for module, home in _imports(ast.parse(path.read_text())):
            assert module not in ("dataclasses", "typing"), (path.name, module)
            if module == "random":
                random_imports.append((path.stem, home))
    assert random_imports == [("assemble", "random_problem_specs")]
