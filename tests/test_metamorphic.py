"""Metamorphic relations of the whole `generate | verify` pipeline.

Degree and weight shift: adding t to every degree and every weight of an
instance changes no verdict.  Each verify report of a shifted instance,
with its degrees shifted back by -t, must equal the report of the
original instance, exit status, witnesses and trivial degrees included.
The degree window depends on where the stored data sit, so this also
guards the window.

Direct sum: the node-wise direct sum of two instances, with block-diagonal
maps, is clean iff both parts are, fails exactly the hypothesis verdicts
that fail in a part, and each conclusion is exact at k iff it is exact at
k in both parts.

Filtered conjugation: conjugating every map by random filtered
automorphisms of its ends changes no hypothesis verdict and no
conclusion's exactness; only witnesses may move.
"""

import io
import json
import random

import pytest

from csverify.cli import main
from csverify.filtration import direct_sum
from csverify.generators import GenProfile, _conjugate, gen_adversarial, gen_cs_instance
from csverify.linalg import Matrix, hstack, vstack
from csverify.verifier import (
    ARROWS,
    BREAKABLE_HYPOTHESES,
    CONCLUSIONS,
    NODES,
    CSInstance,
    check_instance_hypotheses,
    conclusion_exactness,
)

SHIFTS = (1, -3, 7)
BREAKS = (None, "A_bound", "strictness", "row_exact", "P_centering")


def run_cli(args, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8"))
    code = main(args)
    return code, capsys.readouterr().out


def _shift_keys(family, t, value=lambda v: v):
    return {str(int(k) + t): value(v) for k, v in family.items()}


def shift_instance(data, t):
    """The instance JSON with every degree and every weight moved by t."""
    def space(fs):
        return {"dim": fs["dim"], "steps": _shift_keys(fs["steps"], t)}

    out = dict(data, range=[k + t for k in data["range"]], N=_shift_keys(data["N"], t))
    for node in "ABCP":
        out[node] = _shift_keys(data[node], t, space)
    for group in ("col", "row"):
        out[group] = {label: _shift_keys(family, t) for label, family in data[group].items()}
    return out


def shift_report(payload, t):
    """The deterministic part of a verify report with every degree and weight moved by t."""
    def strict(v):
        return dict(v, failing_weight=v["failing_weight"] + t) if "failing_weight" in v else v

    def used(tag):
        hyp, k = tag.split("@")
        return f"{hyp}@{int(k) + t}"

    hyp = payload["hypotheses"]
    return {
        "exit_status": payload["exit_status"],
        "hypotheses": {
            "clean": hyp["clean"],
            "column": _shift_keys(hyp["column"], t),
            "row": _shift_keys(hyp["row"], t),
            "bounds": {key: _shift_keys(per_k, t) for key, per_k in hyp["bounds"].items()},
            "strictness": {label: _shift_keys(per_k, t, strict) for label, per_k in hyp["strictness"].items()},
        },
        "verdicts": [dict(v, k=v["k"] + t, weights_used=[used(tag) for tag in v["weights_used"]])
                     for v in payload["verdicts"]],
        "trivial_degrees": [[a + t, b + t] for a, b in payload["trivial_degrees"]],
    }


@pytest.mark.parametrize("broken", BREAKS)
def test_degree_and_weight_shift(broken, monkeypatch, capsys):
    for seed in range(1, 6):
        args = ["generate", "--seed", str(seed)] + ([] if broken is None else ["--break", broken])
        code, text = run_cli(args, "", monkeypatch, capsys)
        assert code == 0
        data = json.loads(text)
        verify = ["verify", "-", "--thm", "1", "--format", "json"]
        code, out = run_cli(verify, text, monkeypatch, capsys)
        want = shift_report(json.loads(out), 0)
        assert want["exit_status"] == code == (0 if broken is None else 2)
        for t in SHIFTS:
            code_t, out_t = run_cli(verify, json.dumps(shift_instance(data, t)), monkeypatch, capsys)
            assert code_t == code
            assert shift_report(json.loads(out_t), -t) == want, (seed, broken, t)


CASES = (None,) + BREAKABLE_HYPOTHESES


def generated(seed, broken):
    profile = GenProfile(seed=seed, broken_hypothesis=broken)
    return gen_cs_instance(profile) if broken is None else gen_adversarial(profile)


def block_diagonal(x: Matrix, y: Matrix) -> Matrix:
    return vstack(hstack(x, Matrix.zero(x.nrows, y.ncols)), hstack(Matrix.zero(y.nrows, x.ncols), y))


def direct_sum_instance(x: CSInstance, y: CSInstance) -> CSInstance:
    """Both instances over the same degree range, summed node by node and map by map."""
    degrees = range(x.k_min, x.k_max + 1)
    spaces = {node: {k: direct_sum(x.space(node, k), y.space(node, k)) for k in degrees} for node in NODES}
    maps = {label: {k: block_diagonal(x.map(label, k), y.map(label, k))
                    for k in set(x.maps[label]) | set(y.maps[label])} for label in ARROWS}
    return CSInstance((x.k_min, x.k_max), spaces, maps)


def exact_flags(inst):
    """Whether each conclusion is exact at each degree of [k_min - 2, k_max + 2]."""
    return {(which, k): conclusion_exactness(inst, which, k).exact
            for which in CONCLUSIONS for k in range(inst.k_min - 2, inst.k_max + 3)}


@pytest.mark.parametrize("first", CASES)
def test_direct_sum(first):
    i = CASES.index(first)
    for second in (None, CASES[(i + 3) % len(CASES)]):
        x, y = generated(i + 1, first), generated(i + 20, second)
        total = direct_sum_instance(x, y)
        rx, ry, rt = (check_instance_hypotheses(inst) for inst in (x, y, total))
        assert rt.clean == (rx.clean and ry.clean)
        assert set(rt.failures()) == set(rx.failures()) | set(ry.failures()), (first, second)
        assert set(rt.failed_categories()) == set(rx.failed_categories()) | set(ry.failed_categories())
        fx, fy = exact_flags(x), exact_flags(y)
        assert exact_flags(total) == {key: fx[key] and fy[key] for key in fx}, (first, second)


def truth_values(report):
    return {category: {key: bool(v) for key, v in verdicts.items()} for category, verdicts in report.verdicts.items()}


@pytest.mark.parametrize("broken", CASES)
def test_filtered_conjugation(broken):
    for seed in (1, 2, 3):
        inst = generated(seed, broken)
        conjugated = _conjugate(inst, random.Random(1000 + seed))
        assert conjugated != inst
        assert truth_values(check_instance_hypotheses(conjugated)) == truth_values(check_instance_hypotheses(inst))
        assert exact_flags(conjugated) == exact_flags(inst), (seed, broken)
