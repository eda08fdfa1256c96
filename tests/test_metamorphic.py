"""Metamorphic relations of the whole `generate | verify` pipeline.

Degree and weight shift: adding t to every degree and every weight of an
instance changes no verdict.  Each verify report of a shifted instance,
with its degrees shifted back by -t, must equal the report of the
original instance, exit status, witnesses and trivial degrees included.
The degree window depends on where the stored data sit, so this also
guards the window.
"""

import io
import json

import pytest

from csverify.cli import main

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
