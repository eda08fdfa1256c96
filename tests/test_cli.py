import hashlib
import io
import json
import subprocess
import sys

import pytest

from csverify.cli import EXIT_INTERNAL, main
from csverify.degenerations import cycle_graph, theta_graph
from csverify.generators import GenProfile, gen_cs_instance
from csverify.linalg import Matrix, hstack
from csverify.serialize import dumps, graph_to_json, instance_to_json
from csverify.verifier import ARROWS, NODES, CSInstance, MalformedInstanceError


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
    assert payload["schema"] == 1
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
    code, out, _ = run_cli(["monodromy", str(path), "--center", "1", "--cross-check"],
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
    monkeypatch.setattr("csverify.cli.monodromy_filtration_recursive", lambda op, center: None)
    code, out, err = run_cli(["monodromy", str(path), "--center", "1", "--cross-check"],
                             capsys=capsys)
    assert code == EXIT_INTERNAL == 1
    assert out == ""
    assert "disagree" in err


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


# SHA-256 of `verify --format json` reports with timing_ms removed, as
# recorded from an earlier version: (source, verify option) -> digest, the
# source being `generate --seed 11 <option>` or `fixture curve` of a graph
_REPORT_SHA256 = {
    ("--max-dim=6", "--thm=1"): "69abe4e036bade01501369c6bdb3fd9fdfa2e057f1fcb0807ffbff39c72ee552",
    ("--max-dim=6", "--thm=2"): "d347441d22f0c3adefe4a9121a9f318558bfc43d83c8913a0fcb862389bb1374",
    ("--max-dim=6", "--prop=all"): "6f244c5b9da3d9be7e697e95bf1765aff7bdfae2031deb1bd7fa31df30db72ea",
    ("--max-dim=10", "--thm=1"): "ff5d0619b37e64267adee60b2c21b04fc9dcb79ce8ebc87b5f06b3b148edf6f2",
    ("--max-dim=10", "--thm=2"): "9fa8970730e7c605b8ab2200c9c8e46a274e7575b32ec4b9580bb8f7dae243bc",
    ("--max-dim=10", "--prop=all"): "40a4a541e81a02bed51377c284c204f802c26cc978bd29dac48ad0cf50272dfe",
    ("--break=column_exact", "--thm=1"): "6496bc4d3b937935f89646268b29c261ac623c00a8edf885751d98fce249d979",
    ("--break=column_exact", "--thm=2"): "6496bc4d3b937935f89646268b29c261ac623c00a8edf885751d98fce249d979",
    ("--break=column_exact", "--prop=all"): "6496bc4d3b937935f89646268b29c261ac623c00a8edf885751d98fce249d979",
    ("--break=row_exact", "--thm=1"): "37c6622812aba780d788e188aa8e9a82646e1092de22ffce58983c793d08e5f6",
    ("--break=row_exact", "--thm=2"): "37c6622812aba780d788e188aa8e9a82646e1092de22ffce58983c793d08e5f6",
    ("--break=row_exact", "--prop=all"): "37c6622812aba780d788e188aa8e9a82646e1092de22ffce58983c793d08e5f6",
    ("--break=A_bound", "--thm=1"): "539f8200abc19a7c7c009696199b0b91e9fdf0f65ce0636df0ef5fc537291665",
    ("--break=A_bound", "--thm=2"): "539f8200abc19a7c7c009696199b0b91e9fdf0f65ce0636df0ef5fc537291665",
    ("--break=A_bound", "--prop=all"): "539f8200abc19a7c7c009696199b0b91e9fdf0f65ce0636df0ef5fc537291665",
    ("--break=B_bound", "--thm=1"): "1e072567941241523526f255733696022e9b617eb657129a8db72840a98ef377",
    ("--break=B_bound", "--thm=2"): "1e072567941241523526f255733696022e9b617eb657129a8db72840a98ef377",
    ("--break=B_bound", "--prop=all"): "1e072567941241523526f255733696022e9b617eb657129a8db72840a98ef377",
    ("--break=P_centering", "--thm=1"): "e82b9d82e05875e9f290b6b14882ec46a2cbbc62d4dc8571bc9f48441964da6b",
    ("--break=P_centering", "--thm=2"): "e82b9d82e05875e9f290b6b14882ec46a2cbbc62d4dc8571bc9f48441964da6b",
    ("--break=P_centering", "--prop=all"): "e82b9d82e05875e9f290b6b14882ec46a2cbbc62d4dc8571bc9f48441964da6b",
    ("--break=strictness", "--thm=1"): "a6cd2ca630cb5a2dae9a82ccf5ae43ff8dc0f65dbd711aefb1c82291fae5c647",
    ("--break=strictness", "--thm=2"): "a6cd2ca630cb5a2dae9a82ccf5ae43ff8dc0f65dbd711aefb1c82291fae5c647",
    ("--break=strictness", "--prop=all"): "a6cd2ca630cb5a2dae9a82ccf5ae43ff8dc0f65dbd711aefb1c82291fae5c647",
    ("I_3", "--thm=3"): "eb13d8707a6c26cc3e4fa75a66dd0765a010fadd74d07a85f283599d3b75030c",
    ("theta", "--thm=3"): "842901261ddebab8a92b34c77ec4253af71a382571e24e6475183cefd233779c",
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


def test_verify_degree_out_of_range_exit_four(monkeypatch, capsys):
    inst = dumps(instance_to_json(gen_cs_instance(GenProfile(seed=3))))
    code, _, err = run_cli(["verify", "-", "--prop", "P1", "--k", "99"],
                           stdin_text=inst, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 4
    assert "degree" in err


def test_monodromy_zero_dimensional_operator(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"space": {"dim": 0, "steps": {}}, "matrix": []}))
    code, out, _ = run_cli(["monodromy", str(path), "--center", "5", "--cross-check"],
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 0 and payload["steps"] == {}


def test_console_entry_point_subprocess():
    gen = subprocess.run(
        [sys.executable, "-m", "csverify", "generate", "--seed", "12"],
        capture_output=True, text=True)
    assert gen.returncode == 0
    ver = subprocess.run(
        [sys.executable, "-m", "csverify", "verify", "-", "--prop", "all"],
        input=gen.stdout, capture_output=True, text=True)
    assert ver.returncode == 0


_ONE_NODE = '"range": [0, 0], "P": {"0": {"dim": 1, "steps": {"0": [["1"]]}}}'


@pytest.mark.parametrize("args, stdin_text", [
    (["verify", "-"], '{' + _ONE_NODE + ', "N": {"0": [5]}}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "purity": "x"}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "purity": [1]}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "col": []}'),
    (["verify", "-"], '{' + _ONE_NODE + ', "row": 5}'),
    (["verify", "-"], '{"range": [0, 1e400]}'),
    (["generate", "--seed", "1", "--max-dim", "-1"], None),
    (["generate", "--seed", "1", "--range", "5:1"], None),
    (["generate", "--seed", "1", "--weight-spread", "0"], None),
    (["fixture", "curve", "--graph", "-"], '{"vertices": 2, "edges": [[0]]}'),
    (["fixture", "curve", "--graph", "-"],
     '{"vertices": 2, "edges": [[0, 1], [0, 1]], "self": [0, -2]}'),
], ids=["N-row-not-array", "purity-text", "purity-array", "col-array", "row-number",
        "range-overflow", "max-dim-negative", "range-reversed", "weight-spread-zero",
        "edge-one-vertex", "self-intersection-not-minus-degree"])
def test_malformed_input_exit_four_without_traceback(args, stdin_text):
    proc = subprocess.run([sys.executable, "-m", "csverify", *args],
                          input=stdin_text, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
