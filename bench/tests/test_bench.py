"""Tests of the benchmark itself.  Run with: python3 -m pytest bench/tests"""

import gzip
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def units(declared):
    return {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_smoke_run(workload):
    provenance, result = run.run(workload, seed=3, seconds=0, trace=False, min_ops=5, ops=3)
    # whole passes of three ops until at least five ops have run
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 6, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert provenance["backend"] in ("fractions.Fraction", "gmpy2.mpq")
    assert len(provenance["input_sha256"]) == 64


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_smoke_run(workload, tmp_path):
    path = tmp_path / "trace.json.gz"
    untraced, _ = run.run(workload, seed=3, seconds=0, trace=False, min_ops=1, ops=2)
    provenance, result = run.run(workload, seed=3, seconds=0, trace=True, ops=2,
                                 trace_path=path)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 0)
    assert provenance["input_sha256"] == untraced["input_sha256"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["per_layer"])
    assert result["metrics"]["linalg.rref.calls"]["value"] > 0
    with gzip.open(path, "rt") as handle:
        trace = json.load(handle)
    assert trace["spans"] and {span[4] for span in trace["spans"]} == {0, 1}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def _digest(workload, seed, ops=3):
    prepared = run.Prepared(workload, seed, ops)
    return run.measure(prepared, seconds=0, min_ops=1).digest(ops)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_are_fixed_by_the_seed(workload):
    run.load_package()
    first = _digest(run.WORKLOADS[workload](), 4)
    assert first == _digest(run.WORKLOADS[workload](), 4)
    assert first != _digest(run.WORKLOADS[workload](), 5)


def test_passes_repeat_the_same_ops():
    run.load_package()
    prepared = run.Prepared(run.GenerateVerify(), 2, ops=2)
    outcome = run.measure(prepared, seconds=0, min_ops=5)
    assert outcome.attempted == 6 and not outcome.failures
    assert sorted(outcome.fingerprints) == [0, 1]


def test_gate_counts_a_mismatched_expectation_and_continues():
    run.load_package()
    prepared = run.Prepared(run.CurveVerify(), 7, ops=3)
    spec = prepared.specs[0]
    prepared.specs[0] = dict(spec, b1=spec["b1"] + 1)
    outcome = run.measure(prepared, seconds=0, min_ops=3)
    assert outcome.attempted == 3
    assert [index for index, _ in outcome.failures] == [0]
    assert "expected" in outcome.failures[0][1]


def test_gate_checks_the_planned_jordan_block():
    run.load_package()
    prepared = run.Prepared(run.MonodromySweep(), 7)
    index = next(i for i, spec in enumerate(prepared.specs) if spec["dim"] == 6)
    spec = prepared.specs[index]
    prepared.specs[index] = dict(spec, largest=spec["largest"] % 6 + 1)
    outcome = run.Outcome()
    run.run_op(prepared, index, outcome)
    assert [i for i, _ in outcome.failures] == [index]
    assert "largest Jordan block" in outcome.failures[0][1]


def test_latencies_are_scaled_by_the_calibration_around_them():
    outcome = run.Outcome()
    outcome.latencies = [0.1] * 20
    outcome.calibrations = [run.REFERENCE_CAL_S] * 10 + [2 * run.REFERENCE_CAL_S] * 10
    scaled = outcome.scaled_latencies()
    assert scaled[0] == pytest.approx(0.1) and scaled[-1] == pytest.approx(0.05)
    assert 0.05 < scaled[10] < 0.1


def test_quantile_estimates():
    assert run.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert run.quantile(list(range(1, 102)), 0.5) == pytest.approx(51)
    assert 89 < run.quantile(list(range(1, 102)), 0.9) < 93


def test_gate_rejects_wrong_exit_and_foreign_categories():
    report = json.dumps({"verdicts": [{"proposition": "P1", "exact": True}]})
    assert run.check_clean_report(0, report) is None
    assert run.check_clean_report(2, report) is not None
    assert run.check_clean_report(0, report, prefix="THM3:") is not None
    hypotheses = {
        "column": {"0": {"A": {"exact": True}}},
        "row": {"1": {"P": {"exact": False}}},
        "bounds": {"A": {"0": True}, "B": {"0": False}, "P_centering": {}},
        "strictness": {"a": {"0": {"strict": True}}},
    }
    assert run.failing_categories(hypotheses) == {"row_exact", "B_bound"}


def _csverify_bindings():
    from csverify.filtration import FilteredMap
    from csverify.linalg import Matrix, Subspace
    from csverify.monodromy import NilpotentOp

    bound = {}
    for name, module in sys.modules.items():
        if name == "csverify" or name.startswith("csverify."):
            bound.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (Matrix, Subspace, NilpotentOp, FilteredMap):
        bound.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return bound


def test_tracing_leaves_csverify_unpatched():
    run.load_package()
    before = _csverify_bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert run.cs.linalg.kernel is not before[("csverify.linalg", "kernel")]
            assert run.cs.verifier.kernel is not before[("csverify.verifier", "kernel")]
            raise RuntimeError("the tracer restores on the way out")
    run.traced_pass(run.Prepared(run.GenerateVerify(), 3, ops=1))
    after = _csverify_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
