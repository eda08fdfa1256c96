"""Mutation gate: deliberate one-edit breakages of src/ and the tests that must catch each.

Run from anywhere with ``python3 tests/mutants.py``.  src/, tests/ and pyproject.toml are copied
to a temporary directory once, and the named tests must pass there unmutated.  Each mutant is
then applied alone, only its named tests run (pytest with the copy as its root, so the copy's
src/ is the one imported), and the edit is undone.  A mutant is killed when those tests fail
(pytest exit 1); a pass, or any other exit (a node id that no longer exists is exit 4), leaves
it surviving, and the gate exits 1.

The file is not collected by tier-1 (its name does not match ``test_*.py``);
``test_mutants.py`` checks that every old text still matches exactly once, so the list cannot
drift from the code.  Add the mutants a change relies on here, with the tests that kill them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to src/
    old: str  # exact text, found once in the file
    new: str
    killers: Tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("csverify/generators.py",  # a drawn P_k centered one too high
           "return shifted(dim, chain_steps(chains, dim), center),",
           "return shifted(dim, chain_steps(chains, dim), center + 1),",
           ("tests/test_generators.py::test_jordan_pair_matches_reference_weights",
            "tests/test_cli.py::test_generate_bytes_pinned_across_seeds")),
    Mutant("csverify/generators.py",  # the chains of t's columns read tail first
           "chains.append(columns[start:start + s][::-1])",
           "chains.append(columns[start:start + s])",
           ("tests/test_generators.py::test_jordan_pair_matches_reference_weights",)),
    Mutant("csverify/generators.py",  # the P_centering tamper's off-centre P_k drawn centered
           "p_dims[k], k + 1 if off else k)",
           "p_dims[k], k)",
           ("tests/test_generators.py::test_adversarial_breaks_exactly_named_hypothesis[P_centering]",
            "tests/test_cli.py::test_generate_bytes_pinned[--break=P_centering]")),
    Mutant("csverify/filtration.py",  # a summand's pivots left at its own coordinates
           "pivots += [p + before for p in sub.pivots]",
           "pivots += sub.pivots",
           ("tests/test_filtration.py::test_direct_sum_matches_reference",)),
    Mutant("csverify/linalg.py",  # a chain of length m weighted m, m-2, ..., 2-m
           "by_weight.setdefault(m - 1 - 2 * pos, [])",
           "by_weight.setdefault(m - 2 * pos, [])",
           ("tests/test_monodromy.py::test_chain_filtration_matches_the_from_scratch_reference",
            "tests/test_generators.py::test_jordan_pair_matches_reference_weights")),
)


def _pytest(copy: Path, nodes) -> int:
    """pytest's exit status for the given node ids, run in the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
                          cwd=copy, env=env, capture_output=True).returncode


def _killed(copy: Path, mutant: Mutant) -> bool:
    target = copy / "src" / mutant.path
    original = target.read_text()
    if original.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.path}: old text does not match exactly once: {mutant.old!r}")
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        return _pytest(copy, mutant.killers) == 1
    finally:
        target.write_text(original)


def main() -> int:
    started = time.monotonic()
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        # a killer that fails on the unmutated code would kill every mutant it is named for
        if _pytest(copy, sorted({node for mutant in MUTANTS for node in mutant.killers})) != 0:
            raise SystemExit("the named tests do not all pass on the unmutated code")
        for mutant in MUTANTS:
            begun = time.monotonic()
            killed = _killed(copy, mutant)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {time.monotonic() - begun:6.1f}s  "
                  f"{mutant.path}: {mutant.old!r} -> {mutant.new!r}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {time.monotonic() - started:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
