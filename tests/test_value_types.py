"""The value types' contracts: equality, hashing, truthiness and refusals, and an import that
loads neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

from csverify.filtration import ExactnessVerdict, FilteredSpace, StrictnessVerdict
from csverify.generators import gen_centered_mhs
from csverify.linalg import Matrix, canonicalize, span_of_vectors
from csverify.monodromy import (
    AxiomVerdict,
    BoundsVerdict,
    CenteredFiltration,
    ker_coker_weight_bounds,
    monodromy_filtration,
    monodromy_filtration_recursive,
    verify_centered_axioms,
)
from csverify.verifier import VerdictReport

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """What the bare interpreter has not loaded, ``import csverify, csverify.cli`` does not load either."""
    code = ("import sys; before = set(sys.modules); import csverify, csverify.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"


def test_subspaces_of_one_span_are_one_key():
    rows = [[1, 2, 0], [2, 4, 1], [0, 0, 3]]
    first, second = canonicalize(Matrix.from_rows(rows)), canonicalize(Matrix.from_rows(rows[::-1]))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: "kept"}[second] == "kept"
    # same ambient dimension and pivots, different basis
    line, other = span_of_vectors([[1, 1]], 2), span_of_vectors([[1, 2]], 2)
    assert line.pivots == other.pivots
    assert line != other and len({line: 0, other: 1}) == 2
    assert span_of_vectors([[1, 0]], 2) != span_of_vectors([[1, 0, 0]], 3)


def test_centered_filtrations_compare_by_centre_and_steps():
    _, op = gen_centered_mhs(5, 6, 1)
    chain = monodromy_filtration(op, 1)
    assert chain == monodromy_filtration_recursive(op, 1)  # what the benchmark's gate reads
    assert chain != monodromy_filtration(op, 2)
    assert chain != CenteredFiltration(1, FilteredSpace.pure(op.space.dim, 1))
    assert (chain.center, chain.filtration) == (1, op.space)


def test_each_verdict_is_true_iff_it_passes():
    assert StrictnessVerdict(True) and not StrictnessVerdict(False, failing_weight=0)
    assert ExactnessVerdict(True) and not ExactnessVerdict(False, "kernel_exceeds_image", (1,))
    assert AxiomVerdict(True) and not AxiomVerdict(False, failed_axiom="shift", failed_index=2)
    assert BoundsVerdict("ok") and BoundsVerdict("ok").ok
    for status in ("hypothesis_not_satisfied", "ker_bound_failed", "coker_bound_failed"):
        assert not BoundsVerdict(status) and not BoundsVerdict(status).ok
    assert ExactnessVerdict(False) == ExactnessVerdict(False, reason=None, witness=None)
    _, op = gen_centered_mhs(3, 5, 0)  # index 3
    assert verify_centered_axioms(monodromy_filtration(op, 0), op)
    assert not verify_centered_axioms(CenteredFiltration(0, FilteredSpace.pure(5, 0)), op)
    assert ker_coker_weight_bounds(op, 0) and not ker_coker_weight_bounds(op, 1)


def test_verdict_report_equality_and_hash():
    report = VerdictReport("P1", 0, False, witness=(1,), weights_used=("P_centering@0",))
    assert report == VerdictReport("P1", 0, False, (1,), ("P_centering@0",))
    assert hash(report) == hash(VerdictReport("P1", 0, False, (1,), ("P_centering@0",)))
    for changed in (VerdictReport("P2", 0, False, (1,), ("P_centering@0",)),
                    VerdictReport("P1", 1, False, (1,), ("P_centering@0",)),
                    VerdictReport("P1", 0, False, (2,), ("P_centering@0",)),
                    VerdictReport("P1", 0, False, (1,)),
                    VerdictReport("P1", 0, True, weights_used=("P_centering@0",))):
        assert report != changed

