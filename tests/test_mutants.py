"""The mutant catalogue in ``tools/mutants.py`` stays applicable: each
entry's text occurs exactly once in its file, so no entry goes stale
without notice."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_text_occurs_once_at_head():
    mutants = _catalogue()
    assert mutants
    for name, (file, text, replacement, error) in mutants.items():
        assert (ROOT / file).read_text().count(text) == 1, name
        assert replacement != text and error, name
