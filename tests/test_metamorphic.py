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

Duality: the linear dual of an instance, with W_w(V^v) = ann W_{-w-1}(V)
and every map transposed, exchanges "weights <=" with "weights >=".  It
sends A_k, B_k, C_k and P_k to B'_{-k}, A'_{-k}, C'_{-k-1} and
P'_{-k-2} = P_k^v(1), so A_bound and B_bound trade places, and P1_k and
P4_k become P2_{-k-2} and P3_{-k-2}.  The dual fails exactly the mapped
hypothesis verdicts, each conclusion's exactness and weights maps the
same way, and dualizing twice gives the instance back over the range
widened by 2 on each side.

Clebsch-Gordan: the filtration of N1 (x) 1 + 1 (x) N2 centered at
k1 + k2 is the convolution of the filtrations of N1 centered at k1 and
of N2 centered at k2, the sl2 tensor rule (Deligne, Weil II 1.6).  It is
an answer known from theory, not from a second construction.

Long Jordan blocks: the generator caps Jordan blocks at MAX_JORDAN_BLOCK
= 3; with the cap raised, instances carry blocks of 4-6, and every one
must be clean with every THM 1-3 verdict exact and duality holding.
"""

import io
import json
import random

import pytest

from csverify import generators
from csverify.cli import main
from csverify.degenerations import curve_cs_instance
from csverify.filtration import FilteredSpace, direct_sum, tate_twist
from csverify.generators import (
    GenProfile,
    _conjugate,
    gen_adversarial,
    gen_centered_mhs,
    gen_cs_instance,
    split_seed,
)
from csverify.linalg import Matrix, hstack, jordan_chains, kernel, span_of_vectors, transpose, vstack
from csverify.monodromy import (
    CenteredFiltration,
    NilpotentOp,
    centered_filtration,
    centered_filtration_recursive,
    ker_coker_weight_bounds,
    verify_centered_axioms,
)
from csverify.verifier import (
    ARROWS,
    BREAKABLE_HYPOTHESES,
    CONCLUSIONS,
    NODES,
    SEQUENCES,
    CSInstance,
    assemble_and_verify_les,
    check_instance_hypotheses,
    conclusion_exactness,
    verify_invariant_cycles,
    verify_unipotent_cs,
)
from corpus import cycle_graph, failed_categories, theta_graph

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
    return {(which, k): conclusion_exactness(inst, which, k).ok
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
        assert set(failed_categories(rt)) == set(failed_categories(rx)) | set(failed_categories(ry))
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


# what each part of an instance becomes in its dual, as (part, d): the part at
# degree k goes to the named one at degree d - k
DUAL_NODES = {"A": ("B", 0), "B": ("A", 0), "C": ("C", -1), "P": ("P", -2)}
# the nodes of the exactness verdicts: exactness at P_k and at P_k(-1) trade places
DUAL_MIDDLES = {**DUAL_NODES, "P": ("P(-1)", -2), "P(-1)": ("P", -2)}
DUAL_ARROWS = {"b": ("b", 0), "a": ("c", -1), "c": ("a", -1), "r": ("s", -1), "s": ("r", -1), "N": ("N", -2)}
DUAL_BOUNDS = {"A_bound": ("B_bound", 0), "B_bound": ("A_bound", 0), "P_centering": ("P_centering", -2)}
DUAL_CONCLUSIONS = {"P1": "P2", "P2": "P1", "P3": "P4", "P4": "P3"}  # P_k goes to P_{-k-2}


def dual_space(v: FilteredSpace) -> FilteredSpace:
    """V^v, with W_w(V^v) = ann W_{-w-1}(V): a jump of V at w is one of V^v at -w."""
    return FilteredSpace(v.dim, {-w: kernel(v.step(w - 1).basis) for w in v.jumps})


def dual_instance(inst: CSInstance) -> CSInstance:
    """The dual over [-k_max - 2, -k_min]; P'_{-k-2} is P_k^v(1), centered at -k-2."""
    spaces = {node: {} for node in NODES}
    for node in NODES:
        target, d = DUAL_NODES[node]
        for k in range(inst.k_min, inst.k_max + 1):
            dual = dual_space(inst.space(node, k))
            spaces[target][d - k] = tate_twist(dual, 1) if node == "P" else dual
    maps = {}
    for label, family in inst.maps.items():
        target, d = DUAL_ARROWS[label]
        maps[target] = {d - k: transpose(m) for k, m in family.items()}
    return CSInstance((-inst.k_max - 2, -inst.k_min), spaces, maps, inst.profile)


def dual_failure(category, key):
    """The hypothesis verdict of the dual that mirrors (category, key) of the instance."""
    if category in SEQUENCES:
        k, node = key
        target, d = DUAL_MIDDLES[node]
        return category, (d - k, target)
    if category == "strictness":
        label, k = key
        target, d = DUAL_ARROWS[label]
        return category, (target, d - k)
    target, d = DUAL_BOUNDS[category]
    return target, d - key


def dual_tag(tag: str) -> str:
    category, k = tag.split("@")
    target, d = dual_failure(category, int(k))
    return f"{target}@{d}"


def assert_duality(inst: CSInstance, name):
    dual = dual_instance(inst)
    twice = dual_instance(dual)
    assert (twice.k_min, twice.k_max) == (inst.k_min - 2, inst.k_max + 2)
    assert twice.maps == inst.maps, name
    assert all(twice.space(node, k) == inst.space(node, k)
               for node in NODES for k in range(twice.k_min, twice.k_max + 1)), name
    report, dual_report = check_instance_hypotheses(inst), check_instance_hypotheses(dual)
    assert sorted(dual_report.failures()) == sorted(dual_failure(*f) for f in report.failures()), name
    flags = exact_flags(inst)
    assert flags == {(which, k): conclusion_exactness(dual, DUAL_CONCLUSIONS[which], -k - 2).ok
                     for which, k in flags}, name
    if report.clean:
        dual_verdicts = {(v.proposition, v.degree): v for v in assemble_and_verify_les(dual, report=dual_report)}
        for v in assemble_and_verify_les(inst, report=report):
            mirror = dual_verdicts.get((DUAL_CONCLUSIONS[v.proposition], -v.degree - 2))
            if mirror is not None:
                assert mirror.exact == v.exact, name
                assert mirror.weights_used == tuple(map(dual_tag, v.weights_used)), name


@pytest.mark.parametrize("broken", CASES)
def test_duality(broken):
    for seed in range(1, 11):
        assert_duality(generated(seed, broken), (seed, broken))


def test_duality_of_curve_fixtures():
    for name, graph in (("I_1", cycle_graph(1)), ("I_3", cycle_graph(3)), ("theta", theta_graph())):
        assert_duality(curve_cs_instance(graph), name)


def kron(x: Matrix, y: Matrix) -> Matrix:
    """x (x) y, acting on u (x) v, the vector of the products u_i v_j in that order, as xu (x) yv."""
    return Matrix.from_rows([[a * b for a in rx for b in ry] for rx in x.rows for ry in y.rows],
                            ncols=x.ncols * y.ncols)


def convolution(m1: FilteredSpace, m2: FilteredSpace) -> FilteredSpace:
    """W_w = the sum over a + b = w of W_a(m1) (x) W_b(m2); a at the jumps of m1 is enough."""
    dim = m1.dim * m2.dim
    steps = {}
    for w in range(m1.jumps[0] + m2.jumps[0], m1.jumps[-1] + m2.jumps[-1] + 1):
        steps[w] = span_of_vectors([[x * y for x in u for y in v] for a in m1.jumps
                                    for u in m1.step(a).basis.rows for v in m2.step(w - a).basis.rows], dim)
    return FilteredSpace(dim, steps)


def test_clebsch_gordan():
    indices = set()
    for i in range(60):
        d1, d2, k1, k2 = 1 + i % 5, 1 + (i // 5) % 4, i % 5 - 2, (i // 3) % 5 - 2
        m1, op1 = gen_centered_mhs(split_seed(91, 2 * i), d1, k1)
        m2, op2 = gen_centered_mhs(split_seed(91, 2 * i + 1), d2, k2)
        n = kron(op1.matrix, Matrix.identity(d2)) + kron(Matrix.identity(d1), op2.matrix)
        k, want = k1 + k2, convolution(m1, m2)
        assert centered_filtration(n, k) == want == centered_filtration_recursive(n, k), i
        op = NilpotentOp(want, n)
        assert verify_centered_axioms(CenteredFiltration(k, want), op).ok, i
        assert ker_coker_weight_bounds(op, k).ok, i
        indices.add(op.index)
    assert max(indices) >= 6  # blocks of the tensor operator up to length 6 at least


def test_long_jordan_blocks(monkeypatch):
    monkeypatch.setattr(generators, "MAX_JORDAN_BLOCK", 7)
    sizes = set()
    for seed in range(1, 25):
        inst = gen_cs_instance(GenProfile(seed=seed, max_dim_per_node=12))
        sizes.update(len(chain) for n in inst.maps["N"].values() for chain in jordan_chains(n))
        report = check_instance_hypotheses(inst)
        assert report.clean, seed
        geometric = CSInstance((inst.k_min, inst.k_max), inst.spaces,
                               inst.maps, profile="geometric")
        verdicts = (assemble_and_verify_les(inst, report=report)
                    + [verify_invariant_cycles(inst, k, report=report) for k in inst.degrees(pad=1)]
                    + verify_unipotent_cs(geometric, report=check_instance_hypotheses(geometric)))
        assert all(v.exact for v in verdicts), seed
        assert_duality(inst, seed)
    assert {4, 5, 6} <= sizes
