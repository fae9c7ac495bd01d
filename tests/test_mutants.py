"""A cheap guard on the mutation gate of tests/mutants.py: every mutant
still names text that occurs exactly once in its file, and tests that
exist, so a refactor that orphans a mutant fails here in tier 1 rather
than only in the full gate run."""

from pathlib import Path

import pytest

import mutants

ROOT = Path(mutants.__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_is_current(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    for node in mutant.tests:
        path, *names = node.split("[")[0].split("::")
        text = (ROOT / path).read_text()
        for name in names:
            assert f"class {name}" in text or f"def {name}(" in text, node

