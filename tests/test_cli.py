import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from csverify.cli import EXIT_INTERNAL, main
from csverify.filtration import FiltrationError
from csverify.generators import (
    MAX_GEN_CELLS,
    MAX_GEN_DIM,
    MAX_GEN_WIDTH,
    GenProfile,
    gen_centered_mhs,
    gen_cs_instance,
    split_seed,
)
from csverify.linalg import DimensionMismatchError, Matrix, Subspace, hstack, zero_subspace
from csverify.serialize import dumps, instance_to_json
from csverify.verifier import (
    ARROWS,
    BREAKABLE_HYPOTHESES,
    NODES,
    CSInstance,
    HypothesisReport,
    MalformedInstanceError,
)
from corpus import cycle_graph, graph_to_json, nilpotent_to_json, theta_graph


# `python -m csverify` subprocesses import the package from this checkout, installed or not
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_SUBPROCESS_ENV = {**os.environ,
                   "PYTHONPATH": os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def run_cli(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(stdin_text.encode()), encoding="utf-8"))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def zero_instance_json():
    return dumps(instance_to_json(gen_cs_instance(GenProfile(seed=0, max_dim_per_node=0))))


def test_verify_zero_instance_all_props(tmp_path, monkeypatch, capsys):
    path = tmp_path / "zero.json"
    path.write_text(zero_instance_json())
    code, out, _ = run_cli(["verify", str(path), "--prop", "all"], capsys=capsys)
    assert code == 0
    assert "hypotheses: clean" in out
    assert "exit: 0" in out


def test_verify_json_format_and_digest(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.json"
    path.write_text(dumps(instance_to_json(gen_cs_instance(GenProfile(seed=2)))))
    code, out, _ = run_cli(["verify", str(path), "--thm", "1", "--format", "json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 3
    assert "purity_weight" not in payload
    assert payload["trivial_degrees"] == []
    assert payload["exit_status"] == 0
    assert payload["input_digest"].startswith("sha256:")
    assert payload["hypotheses"]["clean"] is True
    assert all(v["exact"] for v in payload["verdicts"])


def test_generate_then_verify_pipe(monkeypatch, capsys):
    code, out, _ = run_cli(["generate", "--seed", "7", "--max-dim", "5"], capsys=capsys)
    assert code == 0
    code2, out2, _ = run_cli(["verify", "-", "--prop", "P1"], stdin_text=out,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code2 == 0


def test_generate_broken_then_verify_exit_two(monkeypatch, capsys):
    code, out, _ = run_cli(["generate", "--seed", "7", "--break", "A_bound"], capsys=capsys)
    assert code == 0
    code2, out2, _ = run_cli(["verify", "-", "--format", "json"], stdin_text=out,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code2 == 2
    payload = json.loads(out2)
    assert payload["exit_status"] == 2
    bounds = payload["hypotheses"]["bounds"]["A"]
    assert any(ok is False for ok in bounds.values())
    assert payload["verdicts"] == []  # gated


def test_fixture_curve_pipe_thm3(tmp_path, monkeypatch, capsys):
    graph_path = tmp_path / "i1.json"
    graph_path.write_text(dumps(graph_to_json(cycle_graph(1))))
    code, out, _ = run_cli(["fixture", "curve", "--graph", str(graph_path)], capsys=capsys)
    assert code == 0
    code2, out2, _ = run_cli(["verify", "-", "--thm", "3"], stdin_text=out,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code2 == 0


def test_verify_thm2_with_degree(monkeypatch, capsys):
    code, out, _ = run_cli(["fixture", "curve", "--graph", "-"],
                           stdin_text=dumps(graph_to_json(cycle_graph(3))),
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    code2, out2, _ = run_cli(["verify", "-", "--thm", "2", "--k", "1"], stdin_text=out,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code2 == 0
    assert "THM2 k=1: exact" in out2


def test_thm3_requires_geometric_profile(monkeypatch, capsys):
    inst = dumps(instance_to_json(gen_cs_instance(GenProfile(seed=4))))
    code, _, err = run_cli(["verify", "-", "--thm", "3"], stdin_text=inst,
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 4
    assert "geometric" in err


def test_monodromy_subcommand_cross_check(tmp_path, capsys):
    op_json = {
        "space": {"dim": 2, "steps": {"0": [[1, 0], [0, 1]]}},
        "matrix": [["0", "1"], ["0", "0"]],
    }
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op_json))
    code, out, _ = run_cli(["monodromy", str(path), "--center", "1"],
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["center"] == 1
    assert payload["cross_check"] == "agree"
    assert payload["steps"]["0"] == [["1", "0"]]
    assert payload["steps"]["2"] == [["1", "0"], ["0", "1"]]


def test_monodromy_cross_check_disagreement_exit_one(tmp_path, monkeypatch, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "space": {"dim": 2, "steps": {"0": [[1, 0], [0, 1]]}},
        "matrix": [["0", "1"], ["0", "0"]],
    }))
    monkeypatch.setattr("csverify.cli.centered_filtration_recursive", lambda matrix, center: None)
    code, out, err = run_cli(["monodromy", str(path), "--center", "1"],
                             capsys=capsys)
    assert code == EXIT_INTERNAL == 1
    assert out == ""
    assert "disagree" in err


def _dirty_report(inst):
    return HypothesisReport({**{category: {} for category in BREAKABLE_HYPOTHESES}, "A_bound": {0: False}})


@pytest.mark.parametrize("args, stdin_text", [
    (["generate", "--seed", "1"], None),
    (["fixture", "curve", "--graph", "-"], dumps(graph_to_json(cycle_graph(3)))),
], ids=["generate", "fixture-curve"])
def test_construction_failing_its_own_check_exit_one(args, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("csverify.verifier.check_instance_hypotheses", _dirty_report)
    code, out, err = run_cli(args, stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_INTERNAL == 1
    assert out == ""
    assert "internal error" in err


def test_monodromy_rejects_non_nilpotent(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "space": {"dim": 1, "steps": {"0": [[1]]}},
        "matrix": [["1"]],
    }))
    code, _, err = run_cli(["monodromy", str(path), "--center", "0"], capsys=capsys)
    assert code == 4
    assert "nilpotent" in err.lower() or "weight" in err.lower()


def test_bad_json_exit_four(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli(["verify", str(path)], capsys=capsys)
    assert code == 4
    missing = tmp_path / "missing.json"
    code2, _, _ = run_cli(["verify", str(missing)], capsys=capsys)
    assert code2 == 4


def test_unknown_flag_exit_64(capsys):
    code, _, err = run_cli(["verify", "x.json", "--bogus"], capsys=capsys)
    assert code == 64
    code2, _, _ = run_cli(["frobnicate"], capsys=capsys)
    assert code2 == 64
    code3, _, _ = run_cli(["monodromy", "x.json", "--center", "0", "--cross-check"], capsys=capsys)
    assert code3 == 64  # the cross-check always runs; it is no option


def test_generate_deterministic_output(capsys):
    code, out1, _ = run_cli(["generate", "--seed", "99", "--range", "0:4"], capsys=capsys)
    code, out2, _ = run_cli(["generate", "--seed", "99", "--range", "0:4"], capsys=capsys)
    assert out1 == out2
    code, out3, _ = run_cli(["generate", "--seed", "100", "--range", "0:4"], capsys=capsys)
    assert out1 != out3


# SHA-256 of `generate --seed 11 ...` as recorded from an earlier version:
# the random stream and the JSON layout are part of the output contract,
# so every version must reproduce these bytes
_GENERATE_SHA256 = {
    "--max-dim=6": "7aa00e852d62a39a2adf550336f21435d6081052a60aebcc77000e3a54712905",
    "--max-dim=10": "e739343781550941404e5c40246234ec6cbb37bbf65e8c1708f3a2186562189b",
    "--break=column_exact": "8417a6c3eb4cb4bca1f3d580ec7e018140425af8c6e3215415b37efd7be94d93",
    "--break=row_exact": "83ae1b82b2411021ad30be5950511d01da0273156ddbc6c62c410838de2e62ab",
    "--break=A_bound": "a53a257af35b8329faa0716f37484285dcd579458729154cf7f927cbbd52d2f2",
    "--break=B_bound": "a4fd1c17772d73686e28723c06f5304e28469d56d2c25d5ce66c64f671e73bb4",
    "--break=P_centering": "4d52d8687ed66789db66483f477ab12c6a6a9b3fd94d7b5ff34767371286fbc7",
    "--break=strictness": "b919fba70368ec25a1a6ec52420ae086ef033b3fbbe4a784caf123b5608d5a2a",
    "--range=-2:3": "c6ed00e9d33fdef8fdb04508ceb231aef61a49a2229598fea6281ee3d9756c2f",
}


@pytest.mark.parametrize("option", sorted(_GENERATE_SHA256))
def test_generate_bytes_pinned(option, capsys):
    code, out, _ = run_cli(["generate", "--seed", "11", option], capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GENERATE_SHA256[option]


def test_generate_bytes_pinned_across_seeds(capsys):
    """One SHA-256 over f"{exit}\n{stdout}" of `generate` for seeds 1-8, --max-dim 6 and 10,
    clean and with each --break, recorded from an earlier version like the pins above."""
    digest = hashlib.sha256()
    for seed in range(1, 9):
        for max_dim in (6, 10):
            for broken in [[]] + [["--break", tag] for tag in BREAKABLE_HYPOTHESES]:
                code, out, _ = run_cli(["generate", "--seed", str(seed), "--max-dim", str(max_dim), *broken],
                                       capsys=capsys)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "b3f01c4d72899ee0d4269463277bbba9df7b8df157897cfdcdd86e7369c98c21"


def test_generate_bytes_pinned_at_negative_degrees(capsys):
    """One SHA-256 over f"{exit}\n{stdout}" of `generate --range=-3:1` for seeds 1-4, --max-dim 6,
    clean and with each --break, recorded from an earlier version like the pins above."""
    digest = hashlib.sha256()
    for seed in range(1, 5):
        for broken in [[]] + [["--break", tag] for tag in BREAKABLE_HYPOTHESES]:
            code, out, _ = run_cli(["generate", "--seed", str(seed), "--max-dim", "6", "--range=-3:1", *broken],
                                   capsys=capsys)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "39bf3f73e6e0b02ebb98353aa732e130e836c5224db9ead742e5568f15d4e97d"


# SHA-256 of `verify --format json` reports with timing_ms removed, as
# recorded at report schema 3: (source, verify option) -> digest, the
# source being `generate --seed 11 <option>` or `fixture curve` of a graph
_REPORT_SHA256 = {
    ("--max-dim=6", "--thm=1"): "2767098cb786045427bf71447e1fc11ab5f2d75fe634f3296558f752b20fddd6",
    ("--max-dim=6", "--thm=2"): "a862ac3059bfa8aad4786ab3f5927e96fe069f63784ed78ff269cd646fba76f8",
    ("--max-dim=6", "--prop=all"): "441fb5a4f169180f6f8542082a4ad637591b5ec6753fade47d3260f434a04984",
    ("--max-dim=10", "--thm=1"): "ce4b6f19af4123d3a6f5db9856aa2b308bdd014afa8af4f58b1acf94722d21dc",
    ("--max-dim=10", "--thm=2"): "1139d225c81431c1ad9fb3431140ea5370d26e1fcbff342bac0438b2bb5f28e4",
    ("--max-dim=10", "--prop=all"): "758dd654f84dd8ea6a7f4df5cdbbbe97aef2a3e045b2030e92617f5bfafe719f",
    ("--break=column_exact", "--thm=1"): "ce8c957e713952059f581c8a9543b05dc15d86a4df69daf10dabba360ad790ce",
    ("--break=column_exact", "--thm=2"): "ce8c957e713952059f581c8a9543b05dc15d86a4df69daf10dabba360ad790ce",
    ("--break=column_exact", "--prop=all"): "ce8c957e713952059f581c8a9543b05dc15d86a4df69daf10dabba360ad790ce",
    ("--break=row_exact", "--thm=1"): "7f09c93d2d93bb98a933fec6f890023dbfc26b2728bbeaa74e5531684baadb65",
    ("--break=row_exact", "--thm=2"): "7f09c93d2d93bb98a933fec6f890023dbfc26b2728bbeaa74e5531684baadb65",
    ("--break=row_exact", "--prop=all"): "7f09c93d2d93bb98a933fec6f890023dbfc26b2728bbeaa74e5531684baadb65",
    ("--break=A_bound", "--thm=1"): "3f0687e3694c1553cf8a027d867d7515df2414ce2542b7734b034b70267fc7ea",
    ("--break=A_bound", "--thm=2"): "3f0687e3694c1553cf8a027d867d7515df2414ce2542b7734b034b70267fc7ea",
    ("--break=A_bound", "--prop=all"): "3f0687e3694c1553cf8a027d867d7515df2414ce2542b7734b034b70267fc7ea",
    ("--break=B_bound", "--thm=1"): "f1711159aed938c877bece081d0a56f2f33b70ba6f8584cebdad53a86ad389e3",
    ("--break=B_bound", "--thm=2"): "f1711159aed938c877bece081d0a56f2f33b70ba6f8584cebdad53a86ad389e3",
    ("--break=B_bound", "--prop=all"): "f1711159aed938c877bece081d0a56f2f33b70ba6f8584cebdad53a86ad389e3",
    ("--break=P_centering", "--thm=1"): "7c2c20c6ad39782f72db05ec568747ca735c03d047f19452cd2db5ee288a03af",
    ("--break=P_centering", "--thm=2"): "7c2c20c6ad39782f72db05ec568747ca735c03d047f19452cd2db5ee288a03af",
    ("--break=P_centering", "--prop=all"): "7c2c20c6ad39782f72db05ec568747ca735c03d047f19452cd2db5ee288a03af",
    ("--break=strictness", "--thm=1"): "afd4519f88269ddc03438a384316d0ec6ec88dfc0cf859e60fc410772ec0e520",
    ("--break=strictness", "--thm=2"): "afd4519f88269ddc03438a384316d0ec6ec88dfc0cf859e60fc410772ec0e520",
    ("--break=strictness", "--prop=all"): "afd4519f88269ddc03438a384316d0ec6ec88dfc0cf859e60fc410772ec0e520",
    ("I_3", "--thm=3"): "e6e0d819b64d239c7641982fceef7dcc20f41b8699f6b9ae9ca0b9849f8cf913",
    ("theta", "--thm=3"): "c0299d65c424f7fd167ba2b06e61acde80b90529696cc79c3d044e3d5c6d5b51",
}


@pytest.mark.parametrize("source,option", sorted(_REPORT_SHA256))
def test_report_bytes_pinned(source, option, monkeypatch, capsys):
    if source in ("I_3", "theta"):
        graph = cycle_graph(3) if source == "I_3" else theta_graph()
        code, text, _ = run_cli(["fixture", "curve", "--graph", "-"],
                                stdin_text=dumps(graph_to_json(graph)), monkeypatch=monkeypatch, capsys=capsys)
    else:
        code, text, _ = run_cli(["generate", "--seed", "11", source], capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", "-", "--format", "json", option], stdin_text=text,
                           monkeypatch=monkeypatch, capsys=capsys)
    payload = json.loads(out)
    del payload["timing_ms"]
    assert hashlib.sha256(dumps(payload).encode()).hexdigest() == _REPORT_SHA256[(source, option)]


def test_report_bytes_pinned_across_seeds(monkeypatch, capsys):
    """One SHA-256 over f"{exit}\n{report}" of `verify --thm 1 --format json`, timing_ms removed, on
    `generate` for seeds 1-4, --max-dim 6 and 10, clean and with each --break, recorded from an
    earlier version like the pins above."""
    digest = hashlib.sha256()
    for seed in range(1, 5):
        for max_dim in (6, 10):
            for broken in [[]] + [["--break", tag] for tag in BREAKABLE_HYPOTHESES]:
                _, text, _ = run_cli(["generate", "--seed", str(seed), "--max-dim", str(max_dim), *broken],
                                     capsys=capsys)
                code, out, _ = run_cli(["verify", "-", "--thm", "1", "--format", "json"], stdin_text=text,
                                       monkeypatch=monkeypatch, capsys=capsys)
                payload = json.loads(out)
                del payload["timing_ms"]
                digest.update(f"{code}\n{dumps(payload)}".encode())
    assert digest.hexdigest() == "b4f2c045641388d9f1e0c66d554b726823d7e415f71bcd4a7e55f122a8f23439"


@pytest.mark.parametrize("label", list(ARROWS))
def test_map_one_column_too_wide_rejected(label, monkeypatch, capsys):
    inst = gen_cs_instance(GenProfile(seed=1))  # stores a nonzero map under every label
    k, m = next(iter(inst.maps[label].items()))
    wide = hstack(m, Matrix.from_rows([[1]] * m.nrows))
    for bad in (wide, Matrix.zero(wide.nrows, wide.ncols)):
        with pytest.raises(MalformedInstanceError):
            CSInstance((inst.k_min, inst.k_max), {n: getattr(inst, n) for n in NODES},
                       {**inst.maps, label: {**inst.maps[label], k: bad}})
    data = instance_to_json(inst)
    family = next(group[label] for group in (data, data["col"], data["row"]) if label in group)
    family[str(k)] = [row + ["1"] for row in family[str(k)]]
    code, _, err = run_cli(["verify", "-"], stdin_text=dumps(data),
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 4, err


def test_generate_bad_range(capsys):
    code, _, err = run_cli(["generate", "--seed", "1", "--range", "whoops"], capsys=capsys)
    assert code == 4


def test_non_nilpotent_monodromy_is_a_centering_verdict(monkeypatch, capsys):
    code, text, _ = run_cli(["generate", "--seed", "11"], capsys=capsys)
    data = json.loads(text)
    assert data["P"]["0"]["dim"] == 3
    data["N"]["0"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    code, out, err = run_cli(["verify", "-", "--format", "json"], stdin_text=dumps(data),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert payload["exit_status"] == 2
    assert payload["hypotheses"]["bounds"]["P_centering"] == {"0": False, "1": True, "2": True, "3": True, "4": True}


def test_data_free_range_reports_one_trivial_interval(monkeypatch, capsys):
    probe = '{"range": [0, 100000]}'
    code, out, _ = run_cli(["verify", "-", "--thm", "1", "--format", "json"], stdin_text=probe,
                           monkeypatch=monkeypatch, capsys=capsys)
    payload = json.loads(out)
    assert code == 0 and len(out) < 2048
    assert payload["trivial_degrees"] == [[-2, 100002]] and payload["verdicts"] == []
    assert payload["hypotheses"] == {"clean": True, "column": {}, "row": {},
                                     "bounds": {"A": {}, "B": {}, "P_centering": {}}, "strictness": {}}
    code, out, _ = run_cli(["verify", "-", "--thm", "1"], stdin_text=probe, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "trivial degrees: -2..100002\n" in out
    # an explicit degree outside the window still gets its (exact) verdict
    code, out, _ = run_cli(["verify", "-", "--prop", "P3", "--k", "50000"], stdin_text=probe,
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "P3 k=50000: exact" in out


# --k picks the degree of --prop or --thm 2; elsewhere it would be silently ignored
@pytest.mark.parametrize("extra", [["--thm", "1"], ["--thm", "3"], []])
def test_k_without_prop_or_thm2_is_a_usage_error(extra, monkeypatch, capsys):
    inst = dumps(instance_to_json(gen_cs_instance(GenProfile(seed=3))))
    code, out, err = run_cli(["verify", "-", *extra, "--k", "99"],
                             stdin_text=inst, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (64, "")
    assert "--prop" in err and "--thm 2" in err


def test_verify_degree_out_of_range_exit_four(monkeypatch, capsys):
    inst = dumps(instance_to_json(gen_cs_instance(GenProfile(seed=3))))
    code, _, err = run_cli(["verify", "-", "--prop", "P1", "--k", "99"],
                           stdin_text=inst, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 4
    assert "degree" in err


def test_monodromy_zero_dimensional_operator(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"space": {"dim": 0, "steps": {}}, "matrix": []}))
    code, out, _ = run_cli(["monodromy", str(path), "--center", "5"],
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 0 and payload["steps"] == {}


def test_monodromy_bytes_pinned(monkeypatch, capsys):
    """One SHA-256 over f"{exit}\n{stdout}" of `monodromy - --center c` on generated
    nilpotents (seeds 1-3, dimensions 0-8, centers -1..2), then over f"{exit}\n{stderr}" of three
    rejected operators, recorded from an earlier version like the pins above."""
    digest = hashlib.sha256()
    for seed in range(1, 4):
        for dim in range(9):
            _, op = gen_centered_mhs(split_seed(seed, dim), dim, seed - 2)
            text = dumps(nilpotent_to_json(op))
            for center in range(-1, 3):
                code, out, _ = run_cli(["monodromy", "-", "--center", str(center)],
                                       stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
                digest.update(f"{code}\n{out}".encode())
    raises_weight = {"dim": 2, "steps": {"0": [["1", "0"]], "5": [["1", "0"], ["0", "1"]]}}
    for space, matrix in [
        ({"dim": 2, "steps": {"0": [["1", "0"], ["0", "1"]]}}, [["1", "1"], ["0", "1"]]),  # not nilpotent
        (raises_weight, [["0", "0"], ["1", "0"]]),  # nilpotent, raises weight 0 to 5
        (raises_weight, [["0", "0"], ["1", "1"]]),  # both: nilpotency is checked first
    ]:
        code, out, err = run_cli(["monodromy", "-", "--center", "0"],
                                 stdin_text=json.dumps({"space": space, "matrix": matrix}),
                                 monkeypatch=monkeypatch, capsys=capsys)
        assert out == ""
        digest.update(f"{code}\n{err}".encode())
    assert digest.hexdigest() == "d06f264464061b759f81216655d923eb0d9c1bf250f57eb589ce3e0314b581cc"


def test_fixture_bytes_pinned(monkeypatch, capsys):
    """One SHA-256 over f"{exit}\n{stdout}" of `fixture curve` on seeded multigraphs (a random spanning
    tree on 1-12 vertices plus 0-6 random edges, loops and multi-edges among them), then on three
    graphs carrying a "self" list, recorded from an earlier version like the pins above."""
    rng = random.Random(17)
    documents = []
    for v in range(1, 13):
        for b1 in range(7):
            labels = list(range(v))
            rng.shuffle(labels)
            edges = [[labels[j], labels[rng.randrange(j)]] for j in range(1, v)]
            edges += [[rng.randrange(v), rng.randrange(v)] for _ in range(b1)]
            documents.append({"vertices": v, "edges": edges})
    rejected = [{"vertices": 1, "edges": [[0, 0]], "self": [-2]},
                {"vertices": 2, "edges": [[0, 1], [0, 1]], "self": [0, -2]}]
    documents += [{"vertices": 1, "edges": [[0, 0]], "self": [0]}, *rejected]  # I_1: a loop adds nothing, C^2 = 0
    digest = hashlib.sha256()
    for document in documents:
        code, out, err = run_cli(["fixture", "curve", "--graph", "-"], stdin_text=json.dumps(document),
                                 monkeypatch=monkeypatch, capsys=capsys)
        if document in rejected:
            assert (code, err) == (
                4, "csverify: fixture curve needs self-intersection minus the edges to other vertices\n")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "829ca438c95a85e33271915a1a347082fe6080be6bb0360cdf33e6aea3fde24f"


def test_fixture_disconnected_by_edge_count_allocates_nothing_per_vertex(monkeypatch, capsys):
    """A graph with fewer than v - 1 edges is refused before any list of v entries is built."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(["fixture", "curve", "--graph", "-"], stdin_text='{"vertices": 1000000, "edges": []}',
                                 monkeypatch=monkeypatch, capsys=capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (4, "", "csverify: bad dual graph: dual graph is not connected\n")
    assert peak < 2**20


@pytest.mark.parametrize("graph, got", [
    ({"vertices": 65, "edges": [[j, j + 1] for j in range(64)]}, "v = 65, 2*b1 = 0"),
    ({"vertices": 2, "edges": [[0, 1]] * 34}, "v = 2, 2*b1 = 66"),
], ids=["vertices", "cycles"])
def test_fixture_past_its_cap_is_exit_four(graph, got, monkeypatch, capsys):
    """One vertex or one cycle past the cap on a fixture node is refused before anything is built."""
    code, out, err = run_cli(["fixture", "curve", "--graph", "-"], stdin_text=json.dumps(graph),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (4, "")
    assert err == ("csverify: dual graph too large: the fixture's nodes Q^v and Q^(2*b1) are capped at "
                   f"dimension 64, got {got}\n")


def test_pipelines_build_only_the_stored_form(monkeypatch, capsys):
    """Every Matrix and Subspace built by one `generate | verify --thm 1`, one with a broken hypothesis
    (exit 2: its failing verdicts build images, kernels and witnesses), one `fixture curve | verify
    --thm 3` and one `monodromy` is in the stored form.  The sizes are read off the data; what the
    builders still keep by hand is checked here: each row has ncols integer numerators over a positive
    denominator, in lowest terms, and each basis is reduced, its pivots strictly increasing, each the
    first nonzero of its row with entry 1 there and 0 in the other rows of its column."""
    built = Counter()
    of, init = Matrix.of, Subspace.__init__

    def stored_of(irows, ncols):
        for nums, den in irows:
            assert type(nums) is tuple and len(nums) == ncols and den > 0 and gcd(den, *nums) == 1, (nums, den)
        built["matrix"] += 1
        return of(irows, ncols)

    def reduced_init(self, basis, pivots):
        assert len(pivots) == basis.nrows and all(p < q for p, q in zip(pivots, pivots[1:])), pivots
        for i, ((nums, den), p) in enumerate(zip(basis.irows, pivots)):
            assert not any(nums[:p]) and nums[p] == den, (nums, den, p)
            assert not any(r[p] for j, (r, _) in enumerate(basis.irows) if j != i), p
        built["subspace"] += 1
        init(self, basis, pivots)

    monkeypatch.setattr(Matrix, "of", staticmethod(stored_of))
    monkeypatch.setattr(Subspace, "__init__", reduced_init)
    stdin = {"fixture": json.dumps(graph_to_json(theta_graph())),
             "monodromy": dumps(nilpotent_to_json(gen_centered_mhs(5, 8, 1)[1]))}
    broken = ["generate", "--seed", "3", "--max-dim", "10", "--break", "column_exact"]
    for first, second, verdict in ((["generate", "--seed", "3", "--max-dim", "10"], ["verify", "-", "--thm", "1"], 0),
                                   (broken, ["verify", "-", "--thm", "1"], 2),
                                   (["fixture", "curve", "--graph", "-"], ["verify", "-", "--thm", "3"], 0),
                                   (["monodromy", "-", "--center", "1"], None, None)):
        code, out, _ = run_cli(first, stdin_text=stdin.get(first[0]), monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        if second:
            assert run_cli(second, stdin_text=out, monkeypatch=monkeypatch, capsys=capsys)[0] == verdict
    assert built["matrix"] > 1000 and built["subspace"] > 100, built


def test_console_entry_point_subprocess():
    gen = subprocess.run(
        [sys.executable, "-m", "csverify", "generate", "--seed", "12"],
        capture_output=True, text=True, env=_SUBPROCESS_ENV)
    assert gen.returncode == 0
    ver = subprocess.run(
        [sys.executable, "-m", "csverify", "verify", "-", "--prop", "all"],
        input=gen.stdout, capture_output=True, text=True, env=_SUBPROCESS_ENV)
    assert ver.returncode == 0


_ONE_NODE = '"range": [0, 0], "P": {"0": {"dim": 1, "steps": {"0": [["1"]]}}}'
_HUGE = "7" * 5000


@pytest.mark.parametrize("args, stdin_text", [
    (["verify", "-"], '{' + _ONE_NODE + ', "N": {"0": [5]}}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "purity": "x"}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "purity": [1]}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "col": []}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "row": 5}'),
    (["verify", "-"], '{"range": [0, 1e400]}'),
    (["generate", "--seed", "1", "--max-dim", "-1"], None),
    (["generate", "--seed", "-3"], None),
    (["generate", "--seed", "1", "--range", "5:1"], None),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [[0]]}'),
    (["fixture", "curve", "--graph", "-"],
     '{"vertices": 2, "edges": [[0, 1], [0, 1]], "self": [0, -2]}'),
    # integer fields take JSON integers only, never truncated or read from booleans
    (["verify", "-"], '{"range": [0, 2.9]}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "purity": 2.5}'),
    # the verifier implements weight 0 alone, so no other purity is accepted
    (["verify", "-"], '{' + _ONE_NODE + ', "purity": 1}'),
    (["verify", "-"], '{"range": [0, 0], "P": {"0": {"dim": 1.5, "steps": {"0": [["1"]]}}}}'),
    (["verify", "-"], '{"range": [0, 0], "P": {"0": {"dim": 1, "steps": {"0": [[true]]}}}}'),
    (["verify", "-"], '{"range": [0, true]}'),
    (["verify", "-"], '{"range": [0, 10], "P": {"1_0": {"dim": 1, "steps": {"0": [["1"]]}}}}'),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 3.7, "edges": [[0, 1], [1, 2], [2, 0]]}'),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [[0, 1.2]]}'),
    # so are both ends of generate --range
    (["generate", "--seed", "10", "--range", "0:1_0"], None),
    (["generate", "--seed", "10", "--range", "1_0:20"], None),
    (["generate", "--seed", "10", "--range", "0: 10"], None),
    (["generate", "--seed", "10", "--range", "0:+10"], None),
    # integers longer than the interpreter's 4300-digit limit
    (["verify", "-"], '{"range": [0, 0], "P": {"' + _HUGE + '": {"dim": 1, "steps": {"0": [["1"]]}}}}'),
    (["verify", "-"], '{"range": [0, ' + _HUGE + ']}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "N": {"0": [["' + _HUGE + '"]]}}'),
    (["fixture", "curve", "--graph", "-"], '{"vertices": ' + _HUGE + ', "edges": []}'),
    # a graph document is an object
    (["fixture", "curve", "--graph", "-"], '[]'),
    (["fixture", "curve", "--graph", "-"], '"x"'),
    (["fixture", "curve", "--graph", "-"], '3'),
    (["fixture", "curve", "--graph", "-"], 'null'),
    # the profile is one of the two the verifier knows
    (["verify", "-", "--thm", "1"], '{' + _ONE_NODE + ', "profile": "geometirc"}'),
    # two keys that spell one degree or weight, in a map family, a node family and a step list
    (["verify", "-"], '{' + _ONE_NODE + ', "N": {"0": [["0"]], "00": [["1"]]}}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "N": {"00": [["1"]], "0": [["0"]]}}'),
    (["verify", "-"], '{"range": [0, 0], "P": {"0": {"dim": 1, "steps": {"0": [["1"]]}}, '
                      '"-0": {"dim": 1, "steps": {"0": [["1"]]}}}}'),
    (["verify", "-"], '{"range": [0, 0], "P": {"0": {"dim": 1, "steps": {"0": [["1"]], "-0": [["1"]]}}}}'),
    # nesting deeper than the JSON decoder can recurse, at the top and inside a field
    (["verify", "-"], "[" * 100000),
    (["fixture", "curve", "--graph", "-"], "[" * 100000),
    (["monodromy", "-", "--center", "0"], "[" * 100000),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": ' + "[" * 100000 + "}"),
    # a degree range too narrow for the requested tamper
    (["generate", "--seed", "1", "--range", "0:1", "--break", "A_bound"], None),
    (["generate", "--seed", "1", "--range", "0:1", "--break", "row_exact"], None),
    (["generate", "--seed", "1", "--range", "0:0", "--break", "P_centering"], None),
    # a key that no reader knows, in every object of the three documents
    (["verify", "-"], '{' + _ONE_NODE + ', "n": {"0": [["1"]]}}'),
    (["verify", "-"], '{"range": [0, 0], "Q": {}}'),
    (["verify", "-"], '{"range": [0, 0], "col": {"z": {}}}'),
    (["verify", "-"], '{"range": [0, 0], "row": {"S": {}}}'),
    (["verify", "-"], '{"range": [0, 0], "P": {"0": {"dim": 1, "Steps": {"0": [["1"]]}}}}'),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [[0, 1]], "Self": [-1, -1]}'),
    (["monodromy", "-", "--center", "0"], '{"space": {"dim": 1}, "matrix": [["0"]], "center": 0}'),
    (["monodromy", "-", "--center", "0"], '{"space": {"dim": 1, "step": {}}, "matrix": [["0"]]}'),
], ids=["N-row-not-array", "purity-text", "purity-array", "col-array", "row-number",
        "range-overflow", "max-dim-negative", "seed-negative", "range-reversed",
        "edge-one-vertex", "self-intersection-not-minus-degree",
        "range-float", "purity-float", "purity-nonzero", "dim-float", "entry-true", "range-true",
        "degree-key-underscore", "vertices-float", "edge-end-float",
        "range-end-underscore", "range-start-underscore", "range-end-space", "range-end-plus",
        "degree-key-huge", "int-literal-huge", "map-entry-huge", "vertices-huge",
        "graph-array", "graph-string", "graph-number", "graph-null", "profile-unknown",
        "map-degree-twice", "map-degree-twice-swapped", "node-degree-twice", "step-weight-twice",
        "nested-instance", "nested-graph", "nested-nilpotent", "nested-edges",
        "range-narrow-A_bound", "range-narrow-row_exact", "range-narrow-P_centering",
        "unknown-top-N", "unknown-top", "unknown-col", "unknown-row", "unknown-space",
        "unknown-graph", "unknown-nilpotent", "unknown-nilpotent-space"])
def test_malformed_input_exit_four_without_traceback(args, stdin_text, monkeypatch, capsys):
    """In process: an exception that escapes ``main`` fails the test outright;
    ``test_console_entry_point_subprocess`` covers the ``python -m csverify`` entry."""
    code, _, err = run_cli(args, stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 4, err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, err", [
    (["--max-dim", str(MAX_GEN_DIM + 1)], f"max_dim_per_node must be <= {MAX_GEN_DIM}"),
    (["--range", f"0:{MAX_GEN_WIDTH + 1}"], f"degree range wider than {MAX_GEN_WIDTH}"),
    (["--max-dim", "16", "--range", "0:80"],
     f"max_dim_per_node squared times the number of degrees exceeds {MAX_GEN_CELLS}"),
], ids=["max-dim", "range", "joint"])
def test_generate_size_past_its_cap_is_exit_four(flags, err, capsys):
    """One past each cap is refused before anything is drawn."""
    assert run_cli(["generate", "--seed", "1", *flags], capsys=capsys) == (4, "", f"csverify: {err}\n")


@pytest.mark.parametrize("rename, err", [
    ((None, "N", "n"), 'instance has an unknown key "n"'),
    (("row", "s", "S"), "'row' has an unknown key \"S\""),
    (("col", "b", "B"), "'col' has an unknown key \"B\""),
], ids=["N", "row-s", "col-b"])
def test_misspelled_key_is_refused_by_name(rename, err, monkeypatch, capsys):
    """A key read as absent would zero a whole map family, and the verdict would be "hypotheses dirty"."""
    data = instance_to_json(gen_cs_instance(GenProfile(seed=1, max_dim_per_node=10)))
    group, key, misspelled = rename
    holder = data if group is None else data[group]
    holder[misspelled] = holder.pop(key)
    code, out, got = run_cli(["verify", "-", "--thm", "1"], stdin_text=dumps(data),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, got) == (4, "", f"csverify: {err}\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_rational_past_digit_limit_exit_four(fmt, monkeypatch, capsys):
    """`generate --seed 3 --max-dim 12` with the 4x3 map b_0 replaced by 2000-digit entries parses,
    but reduced bases and witnesses of its report carry integers past the 4300-digit limit."""
    data = instance_to_json(gen_cs_instance(GenProfile(seed=3, max_dim_per_node=12)))
    rng = random.Random(3)
    data["col"]["b"]["0"] = [[str(rng.randrange(10**1999, 10**2000)) for _ in row] for row in data["col"]["b"]["0"]]
    code, out, err = run_cli(["verify", "-", "--thm", "1", "--format", fmt], stdin_text=dumps(data),
                             monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (4, "")
    assert err == f"csverify: an output rational has more than {sys.get_int_max_str_digits()} digits\n"


_AT_LIMIT = "9" * sys.get_int_max_str_digits()
_ONE_STORED_DEGREE = '{"range": [N, N], "A": {"N": {"dim": 1, "steps": {"0": [["1"]]}}}}'


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("document", [
    '{"range": [-' + _AT_LIMIT + ', 0]}',  # trivial_degrees would print -N - 2
    _ONE_STORED_DEGREE.replace("N", _AT_LIMIT),  # the window N + 1
], ids=["range-start", "stored-degree"])
def test_integer_field_at_digit_limit_exit_four(document, fmt, monkeypatch, capsys):
    """An integer field as long as the digit limit parses in json, but a degree derived from it may not print."""
    code, out, err = run_cli(["verify", "-", "--thm", "1", "--format", fmt], stdin_text=document,
                             monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (4, "", f"csverify: range bound has {len(_AT_LIMIT)} digits or more\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_integer_field_one_digit_short_of_limit_verifies(fmt, monkeypatch, capsys):
    bound = _AT_LIMIT[1:]
    code, out, _ = run_cli(["verify", "-", "--thm", "1", "--format", fmt],
                           stdin_text='{"range": [-' + bound + ', 0]}', monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and str(-int(bound) - 2) in out
    code, out, _ = run_cli(["verify", "-", "--thm", "1", "--format", fmt],
                           stdin_text=_ONE_STORED_DEGREE.replace("N", bound),
                           monkeypatch=monkeypatch, capsys=capsys)
    # A_N alone breaks column exactness; the report prints the window's degree N + 1
    assert code == 2
    assert str(int(bound) + 1) in out if fmt == "json" else f"FAIL column_exact at ({bound}, 'A')" in out


def test_error_inside_node_family_keeps_its_own_message(monkeypatch, capsys):
    bad_dim = '{"range": [0, 0], "P": {"0": {"dim": 1.5, "steps": {"0": [["1"]]}}}}'
    code, out, err = run_cli(["verify", "-"], stdin_text=bad_dim, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (4, "")
    assert err == "csverify: P_0: dim must be an integer, got 1.5\n"
    not_increasing = '{"range": [0, 0], "A": {"0": {"dim": 2, "steps": {"0": [["1", "0"]], "1": [["0", "1"]]}}}}'
    code, _, err = run_cli(["verify", "-"], stdin_text=not_increasing, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 4
    assert err == "csverify: A_0: filtration not increasing at weight 1\n"


def _emptied_p(d):
    d["P"] = {}


def _set(path, value):
    def mutate(d):
        *outer, last = path
        for key in outer:
            d = d[key]
        d[last] = value
    return mutate


@pytest.mark.parametrize("mutate, err", [
    (_emptied_p, "map r_1: matrix row must be an array of 0 entries"),
    (_set(("row", "r", "1", 0, 0), "x"), "map r_1: cannot parse rational 'x'"),
    (_set(("col", "b", "2"), [["1", "0", "0", "0"]]), "map b_2: matrix has 1 rows, expected 4"),
    (_set(("N", "0"), "rows"), "map N_0: matrix must be an array of rows"),
    (_set(("P", "2", "dim"), True), "P_2: dim must be an integer, got true"),
    (_set(("A", "1", "steps", "9"), [["1/0", "0", "0"]]), "A_1: cannot parse rational '1/0'"),
    (_set(("C", "3"), []), "C_3: filtered space must be a JSON object"),
    (_set(("A", "0", "steps"), []), "A_0: 'steps' must be a JSON object"),
    (_set(("A", "0"), {"steps": {}}), "A_0: dim must be an integer, got null"),
], ids=["P-emptied", "map-entry", "map-rows", "map-not-array", "node-dim", "node-entry", "node-not-object",
        "steps-array", "dim-missing"])
def test_instance_input_error_names_its_map_or_node(mutate, err, monkeypatch, capsys):
    """An error inside one map or filtered space of an instance names it, however deep the fault."""
    code, text, _ = run_cli(["generate", "--seed", "5", "--max-dim", "4"], capsys=capsys)
    doc = json.loads(text)
    mutate(doc)
    code, out, got = run_cli(["verify", "-"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, got) == (4, "", f"csverify: {err}\n")


_ONE_STEP = '{"dim": 1, "steps": {"0": [["1"]]}}'


@pytest.mark.parametrize("args, doc, err", [
    (["monodromy", "-", "--center", "0"], '{"matrix": [["0"]]}',
     "bad filtered space: filtered space must be a JSON object"),
    (["monodromy", "-", "--center", "0"], '{"space": ' + _ONE_STEP + '}', "matrix must be an array of rows"),
    (["fixture", "curve", "--graph", "-"], '{"edges": [[0, 0]]}', "vertices must be an integer, got null"),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": 5}', "'edges' must be an array of vertex pairs"),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [[0, 1, 1]]}',
     "'edges' must be an array of vertex pairs"),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [[0]]}', "'edges' must be an array of vertex pairs"),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [0]}', "'edges' must be an array of vertex pairs"),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [[0, 1]], "self": 5}',
     "'self' must be an array of integers"),
], ids=["nilpotent-no-space", "nilpotent-no-matrix", "graph-no-vertices", "edges-number", "edge-three-ends",
        "edge-one-end", "edge-number", "self-number"])
def test_document_input_error_names_its_field(args, doc, err, monkeypatch, capsys):
    """A fault in a nilpotent operator or a dual graph names the field, never a Python internal
    such as a bare key or "object is not iterable"."""
    code, out, got = run_cli(args, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, got) == (4, "", f"csverify: {err}\n")


@pytest.mark.parametrize("args, doc", [
    (["verify", "-"], '{"range": [0, 0], "A": {"0": {"dim": 10000000, "steps": {}}}}'),
    (["monodromy", "-", "--center", "0"], '{"space": {"dim": 10000000, "steps": {}}, "matrix": []}'),
], ids=["instance", "nilpotent"])
def test_declared_dimension_allocates_nothing(args, doc, monkeypatch, capsys):
    """A space declared with ten million dimensions and no steps is refused before any row of that length is built."""
    zero_subspace.cache_clear()  # zero spaces cached by an earlier run would hide the allocation
    Matrix.zero.cache_clear()
    tracemalloc.start()
    try:
        code, out, err = run_cli(args, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (4, "") and "filtration is not exhaustive" in err
    assert peak < 2**20


@pytest.mark.parametrize("args, doc, target, error", [
    (["monodromy", "-", "--center", "0"], '{"space": ' + _ONE_STEP + ', "matrix": [["0"]]}',
     "centered_filtration_recursive", FiltrationError("step at weight 3 lives in Q^2, not Q^4")),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 1, "edges": []}',
     "curve_cs_instance", DimensionMismatchError("cannot multiply 2x3 by 2x3")),
], ids=["monodromy", "fixture"])
def test_internal_fault_is_not_bad_input(args, doc, target, error, monkeypatch, capsys):
    """Only the readers decide what is the input's fault: an error the program raises on valid
    input escapes ``main`` (a traceback, exit 1) instead of passing as exit 4."""
    def fail(*_):
        raise error
    monkeypatch.setattr(f"csverify.cli.{target}", fail)
    with pytest.raises(type(error), match=re.escape(str(error))):
        run_cli(args, stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)


@pytest.mark.parametrize("doc, err", [
    ('{' + _ONE_NODE + ', "N": {"0": [["0"]], "00": [["1"]]}}', 'degree 0 is given twice, as "0" and "00"'),
    ('{"range": [0, 0], "P": {"-0": {"dim": 0}, "0": {"dim": 0}}}', 'degree 0 is given twice, as "-0" and "0"'),
    ('{"range": [0, 0], "P": {"0": {"dim": 1, "steps": {"1": [["1"]], "01": [["1"]]}}}}',
     'P_0: weight 1 is given twice, as "1" and "01"'),
], ids=["map-family", "node-family", "steps"])
def test_integer_keys_spelling_one_number_are_refused(doc, err, monkeypatch, capsys):
    """A dict keyed by the integers would keep whichever spelling comes last."""
    code, out, got = run_cli(["verify", "-"], stdin_text=doc, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, got) == (4, "", f"csverify: {err}\n")


# integer flags are plain decimal, like integer keys in JSON; `int` would read "1_0" and " +10" as 10
@pytest.mark.parametrize("args", [
    ["generate", "--seed", "1_0"],
    ["generate", "--seed", " +10"],
    ["generate", "--seed", "+10"],
    ["generate", "--seed", "10", "--max-dim", "0_6"],
    ["monodromy", "op.json", "--center", "1_0"],
    ["verify", "inst.json", "--k", " 1"],
])
def test_integer_flag_not_plain_decimal_exit_64(args, capsys):
    code, out, err = run_cli(args, capsys=capsys)
    assert (code, out) == (64, "")
    assert "must be an integer" in err


def test_negative_range_and_degree_flags_still_parse(monkeypatch, capsys):
    code, text, _ = run_cli(["generate", "--seed", "3", "--range=-2:3", "--max-dim", "4"], capsys=capsys)
    assert code == 0 and json.loads(text)["range"] == [-2, 3]
    code, out, _ = run_cli(["verify", "-", "--thm", "2", "--k", "-1"], stdin_text=text,
                           monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "THM2 k=-1: exact" in out
