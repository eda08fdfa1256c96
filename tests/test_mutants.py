import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.path}:{m.old}")
def test_mutant_still_applies(mutant):
    """Each mutant's old text matches exactly once, and each test named to kill it still exists."""
    assert (ROOT / "src" / mutant.path).read_text().count(mutant.old) == 1
    for node in mutant.killers:
        path, name = node.split("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(), node


def test_mutant_ids_are_unique():
    """Each case above is named by its (path, old text); pytest would suffix a repeated name with
    0 and 1, renaming an existing case, so a repeat fails here instead."""
    ids = [(mutant.path, mutant.old) for mutant in MUTANTS]
    assert sorted(set(ids)) == sorted(ids), [key for key in ids if ids.count(key) > 1]
