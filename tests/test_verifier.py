import hashlib
import inspect
import json
from collections import Counter

import pytest

from csverify.cli import main
from csverify.degenerations import curve_cs_instance
from csverify.filtration import (
    FilteredMap,
    FilteredSpace,
    StrictnessVerdict,
    WeightCompatibilityError,
    exactness_at,
    strictness,
    weights_geq,
    weights_leq,
)
from csverify.generators import GenProfile, gen_adversarial, gen_cs_instance, split_seed
from csverify.linalg import Matrix, image, kernel, span_of_vectors
from csverify.monodromy import centered_filtration
from csverify.serialize import dumps, instance_from_json, instance_to_json
from csverify.verifier import (
    BREAKABLE_HYPOTHESES,
    CONCLUSIONS,
    NODES,
    CSInstance,
    DegreeRangeError,
    HypothesesNotSatisfiedError,
    HypothesisReport,
    MalformedInstanceError,
    ProfileError,
    VerdictReport,
    assemble_and_verify_les,
    check_instance_hypotheses,
    conclusion_exactness,
    verify_invariant_cycles,
    verify_proposition,
    verify_unipotent_cs,
)
from csverify import linalg, verifier
from csverify.verifier import _instance_maps, _weights_used
import corpus
from corpus import cycle_graph, failed_categories, subspace_sum, theta_graph
from test_linalg_oracle import ref_contains_vector


def zero_instance():
    return CSInstance((0, 0), {}, {})


def test_all_zero_instance_clean_and_exact():
    inst = zero_instance()
    report = check_instance_hypotheses(inst)
    assert report.clean
    for which in ("P1", "P2", "P3", "P4"):
        assert verify_proposition(inst, which, 0, report=report).exact
    assert all(v.exact for v in assemble_and_verify_les(inst, report=report))
    assert verify_invariant_cycles(inst, 0, report=report).exact


def test_i1_fixture_clean_report():
    inst = curve_cs_instance(cycle_graph(1))
    report = check_instance_hypotheses(inst)
    assert report.clean
    assert not report.failures()


def test_i1_proposition_one_at_degree_one():
    # image of the special-fibre H^1 (dim 1, weight 0) equals ker N_1
    inst = curve_cs_instance(cycle_graph(1))
    report = check_instance_hypotheses(inst)
    assert verify_proposition(inst, "P1", 1, report=report).exact
    a_to_p = inst.map("sa", 1)
    assert image(a_to_p) == kernel(inst.map("N", 1))
    assert image(a_to_p).dim == 1


def test_i1_les_and_twisted_boundary_iso():
    inst = curve_cs_instance(cycle_graph(1))
    report = check_instance_hypotheses(inst)
    verdicts = assemble_and_verify_les(inst, report=report)
    assert all(v.exact for v in verdicts)
    # P_2(-1) -> B_4 is an isomorphism of one-dimensional weight-4 spaces
    ptw_to_b = inst.map("cr", 3)
    assert ptw_to_b.nrows == ptw_to_b.ncols == 1
    assert kernel(ptw_to_b).dim == 0
    assert inst.space("B", 4) == FilteredSpace.pure(1, 4)


def test_i1_invariant_cycles():
    inst = curve_cs_instance(cycle_graph(1))
    report = check_instance_hypotheses(inst)
    verdict = verify_invariant_cycles(inst, 1, report=report)
    assert verdict.exact


def test_invariant_cycles_with_trivial_monodromy():
    # N = 0 profile: A_0 -> P_0 surjective onto ker N = P_0; the twisted
    # copy P_0(-1) flows through C_1 into B_2
    p = FilteredSpace.pure(2, 0)
    inst = CSInstance(
        (0, 2),
        spaces={"A": {0: FilteredSpace.pure(2, 0)},
                "B": {2: FilteredSpace.pure(2, 2)},
                "C": {0: p, 1: FilteredSpace.pure(2, 2)},
                "P": {0: p}},
        maps={"a": {0: Matrix.identity(2)}, "c": {1: Matrix.identity(2)},
              "r": {1: Matrix.identity(2)}, "s": {0: Matrix.identity(2)}},
    )
    report = check_instance_hypotheses(inst)
    assert report.clean
    assert verify_invariant_cycles(inst, 0, report=report).exact


def _line(w):
    """Q at weight w, as a filtered space of the instance JSON."""
    return {"dim": 1, "steps": {str(w): [["1"]]}}


_ONE = [["1"]]

# (p, c, b, the one failing hypothesis) and (w, a, the one failing hypothesis)
_S_WITNESSES = [
    (0, 0, 0, ("B_bound", 1)),
    (2, 2, 2, ("P_centering", 0)),
    (0, 1, 1, ("strictness", ("s", 0))),
]
_A_WITNESSES = [
    (0, 2, ("A_bound", 1)),
    (0, 1, ("strictness", ("a", 1))),
    (-1, 1, ("P_centering", 0)),
]


def _s_witness(p, c, b):
    """P_0 = Q at weight p with N = 0, C_0 = Q at weight c, B_1 = Q at weight b, C_1 = B_2 = Q at
    weight p+2, s_0 = r_1 = c_0 = c_1 = 1 and no A."""
    return instance_from_json({
        "range": [0, 2], "P": {"0": _line(p)}, "C": {"0": _line(c), "1": _line(p + 2)},
        "B": {"1": _line(b), "2": _line(p + 2)},
        "row": {"s": {"0": _ONE}, "r": {"1": _ONE}}, "col": {"c": {"0": _ONE, "1": _ONE}}})


def _a_witness(w, a):
    """P_0 = A_0 = C_0 = Q at weight w with N = 0, C_1 = Q at weight w+2, A_1 = Q at weight a,
    s_0 = a_0 = r_1 = a_1 = 1 and no B."""
    return instance_from_json({
        "range": [0, 2], "P": {"0": _line(w)}, "A": {"0": _line(w), "1": _line(a)},
        "C": {"0": _line(w), "1": _line(w + 2)},
        "row": {"s": {"0": _ONE}, "r": {"1": _ONE}}, "col": {"a": {"0": _ONE, "1": _ONE}}})


def _non_exact(inst):
    """{(conclusion, degree): verdict} of every non-exact conclusion over the padded window, ungated."""
    return {(which, k): v for k in inst.degrees(pad=2) for which in CONCLUSIONS
            if not (v := conclusion_exactness(inst, which, k)).exact}


@pytest.mark.parametrize("p, c, b, failure", _S_WITNESSES)
def test_one_dimensional_witnesses_that_hypotheses_bear_load(p, c, b, failure):
    """Each choice of weights of ``_s_witness`` fails one hypothesis alone, and then exactly P1 at
    0 and P3 at -1 are non-exact: ker N_0 = P_0 and B_1 are each the kernel of their conclusion,
    with nothing mapping in (A_0 = 0, P_{-1} = 0)."""
    inst = _s_witness(p, c, b)
    assert check_instance_hypotheses(inst).failures() == [failure]
    non_exact = {key: (v.reason, v.witness) for key, v in _non_exact(inst).items()}
    assert non_exact == {("P1", 0): ("kernel_exceeds_image", (1,)), ("P3", -1): ("kernel_exceeds_image", (1,))}


@pytest.mark.parametrize("w, a, failure", _A_WITNESSES)
def test_one_dimensional_witnesses_that_a_bears_load(w, a, failure):
    """Each choice of weights of ``_a_witness`` fails one hypothesis alone, and then exactly P2 at
    0 and P4 at 1 are non-exact: P_0(-1) and A_1 are each the kernel of their conclusion (B = 0),
    with nothing mapping in (N_0 = 0, B_1 = 0).  Strictness of a_1 is a hypothesis that neither
    row of CONCLUSIONS lists.  With the witnesses above, every weight hypothesis of every
    CONCLUSIONS row has one that fails it alone."""
    inst = _a_witness(w, a)
    assert check_instance_hypotheses(inst).failures() == [failure]
    non_exact = {key: (v.reason, v.witness) for key, v in _non_exact(inst).items()}
    assert non_exact == {("P2", 0): ("kernel_exceeds_image", (1,)), ("P4", 1): ("kernel_exceeds_image", (1,))}


# conclusion -> (the exactness hypotheses, each (category, node, degree offset), and the map, as
# (label, degree offset), whose strictness its proof reads besides the weight hypotheses of its
# CONCLUSIONS row)
_DEPENDENCIES = {
    "P1": ((("row_exact", "P", 0), ("column_exact", "C", 0)), ("s", 0)),
    "P2": ((("row_exact", "P(-1)", 0), ("column_exact", "C", 1)), ("a", 1)),
    "P3": ((("row_exact", "C", 1), ("column_exact", "B", 2)), ("s", 1)),
    "P4": ((("column_exact", "A", 0), ("row_exact", "C", 0)), ("a", 0)),
}


def _dependencies(which, k):
    """The hypothesis verdicts, each (category, key) as in HypothesisReport, that conclusion which at k rests on."""
    exactness, (label, d) = _DEPENDENCIES[which]
    return ([(hyp, k + dk) for hyp, dk in CONCLUSIONS[which][2]]
            + [(category, (k + dk, node)) for category, node, dk in exactness]
            + [("strictness", (label, k + d))])


def _locality_corpus():
    yield from (inst for seed, _, _, inst in corpus.generated() if seed <= 20)
    yield from (_s_witness(p, c, b) for p, c, b, _ in _S_WITNESSES)
    yield from (_a_witness(w, a) for w, a, _ in _A_WITNESSES)


def test_every_non_exact_conclusion_has_a_failing_dependency():
    """Locality of the conclusions: a conclusion that is not exact, run ungated, fails some
    hypothesis verdict that its proof reads, as ``_DEPENDENCIES`` and its CONCLUSIONS row list
    them.  One with every dependency passing would be a counterexample to the theorem as the
    table states it, so either the table or the code would be wrong.  The strictness entries
    are the ones CONCLUSIONS omits (the two FOUND lines of CHANGES.md on its P2, P3 and P4 rows):
    only the pinned one-dimensional witnesses need them, and each row's entry is there the one
    failing dependency of some non-exact conclusion of that row."""
    unexplained, alone = [], set()
    non_exact = 0
    for inst in _locality_corpus():
        verdicts = check_instance_hypotheses(inst).verdicts
        for which, k in _non_exact(inst):
            non_exact += 1
            failing = [(category, key) for category, key in _dependencies(which, k)
                       if not verdicts[category].get(key, True)]
            if not failing:
                unexplained.append((which, k, instance_to_json(inst)))
            elif len(failing) == 1 and failing[0][0] == "strictness":
                alone.add(which)
    assert non_exact > 0
    assert unexplained == []
    assert alone == set(CONCLUSIONS)


def test_gating_refuses_dirty_instances():
    inst = gen_adversarial(GenProfile(seed=5, broken_hypothesis="A_bound"))
    report = check_instance_hypotheses(inst)
    with pytest.raises(HypothesesNotSatisfiedError):
        verify_proposition(inst, "P1", 1, report=report)
    with pytest.raises(HypothesesNotSatisfiedError):
        assemble_and_verify_les(inst, report=report)
    with pytest.raises(HypothesesNotSatisfiedError):
        verify_invariant_cycles(inst, 1, report=report)


def test_degree_out_of_range():
    inst = zero_instance()
    report = check_instance_hypotheses(inst)
    with pytest.raises(DegreeRangeError):
        verify_proposition(inst, "P1", 99, report=report)
    with pytest.raises(DegreeRangeError):
        verify_invariant_cycles(inst, -99, report=report)


def test_unknown_proposition():
    with pytest.raises(ValueError):
        conclusion_exactness(zero_instance(), "P9", 0)


def test_malformed_shapes_rejected():
    with pytest.raises(MalformedInstanceError):
        CSInstance((0, 1), {"A": {0: FilteredSpace.pure(1, 0)}}, {"a": {0: Matrix.identity(2)}})
    with pytest.raises(MalformedInstanceError):
        CSInstance((0, 1), {"A": {5: FilteredSpace.pure(1, 0)}}, {})
    with pytest.raises(MalformedInstanceError):
        CSInstance((1, 0), {}, {})


def test_profile_gate_for_unipotent_entry_point():
    inst = gen_cs_instance(GenProfile(seed=2, max_dim_per_node=4))
    report = check_instance_hypotheses(inst)
    with pytest.raises(ProfileError):
        verify_unipotent_cs(inst, report=report)
    fixture = curve_cs_instance(cycle_graph(2))
    verdicts = verify_unipotent_cs(fixture, report=check_instance_hypotheses(fixture))
    assert verdicts and all(v.exact for v in verdicts)
    assert all(v.proposition.startswith("THM3:") for v in verdicts)


def _clean_stand_in(inst):
    """A clean hypothesis report with no verdicts, whatever the instance."""
    return HypothesisReport({category: {} for category in BREAKABLE_HYPOTHESES})


# `verify --thm <t>` of _s_witness(0, 0, 0), written by instance_to_json, with the hypothesis
# check replaced by _clean_stand_in: t -> (the non-exact verdicts of the JSON report, SHA-256 of
# that report with timing_ms removed, SHA-256 of the text report), recorded from an earlier version
_NON_EXACT_REPORTS = {
    "1": ([{"exact": False, "k": -1, "proposition": "P3", "weights_used": ["B_bound@1", "P_centering@0"],
            "witness": ["1"]},
           {"exact": False, "k": 0, "proposition": "P1", "weights_used": ["P_centering@0", "B_bound@1"],
            "witness": ["1"]}],
          "29dcf1430d8b3ebf7eacefec87ddbe4051d84b01764b70fbda0de893a6e2af8d",
          "a7e6871c574f2636d1faca5735e171e031314c4d6880af9cbef10656588dee2f"),
    "2": ([{"exact": False, "k": 0, "proposition": "THM2", "weights_used": ["P_centering@0", "B_bound@1"],
            "witness": ["1"]}],
          "07f01dee5119e03651fc946748088a80aa2faf5edc2b7ef3e3dc31540a796118",
          "9d9f6e5db73a2d0ca7730b42cae96650f74af9df58fd47aa900e5320366ad083"),
}


def test_non_exact_conclusions_exit_three_with_witnesses(tmp_path, monkeypatch, capsys):
    """No clean instance has a non-exact conclusion, so the CLI's hypothesis check is replaced by
    a clean stand-in: _s_witness(0, 0, 0), which fails B_bound at 1 alone, then reports P3 at -1
    and P1 at 0 non-exact under --thm 1 and THM2 at 0 under --thm 2, each with witness ["1"], and
    exits 3.  Every verdict that the four engines return, on that instance, on the clean generated
    corpus and on curve fixtures, carries a witness exactly when it is not exact."""
    path = tmp_path / "s_witness.json"
    path.write_text(dumps(instance_to_json(_s_witness(0, 0, 0))))
    monkeypatch.setattr("csverify.cli.check_instance_hypotheses", _clean_stand_in)
    for thm, (non_exact, json_sha, text_sha) in _NON_EXACT_REPORTS.items():
        assert main(["verify", str(path), "--thm", thm, "--format", "json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        del payload["timing_ms"]
        assert [v for v in payload["verdicts"] if not v["exact"]] == non_exact
        assert hashlib.sha256(dumps(payload).encode()).hexdigest() == json_sha
        assert main(["verify", str(path), "--thm", thm, "--format", "text"]) == 3
        text = capsys.readouterr().out
        assert [line for line in text.splitlines() if "NOT EXACT" in line] == [
            f"{v['proposition']} k={v['k']}: NOT EXACT" for v in non_exact]
        assert hashlib.sha256(text.encode()).hexdigest() == text_sha

    instances = [_s_witness(0, 0, 0)] + [inst for _, _, broken, inst in corpus.generated() if broken is None]
    instances += [curve_cs_instance(graph) for graph in (cycle_graph(1), cycle_graph(3), theta_graph())]
    for inst in instances:
        report = _clean_stand_in(inst)
        verdicts = assemble_and_verify_les(inst, report)
        verdicts += [verify_proposition(inst, which, k, report) for which in CONCLUSIONS for k in inst.degrees(pad=2)]
        verdicts += [verify_invariant_cycles(inst, k, report) for k in inst.degrees(pad=1)]
        if inst.profile == "geometric":
            verdicts += verify_unipotent_cs(inst, report)
        assert all((v.witness is None) == v.exact for v in verdicts)


def test_weight_mechanics_of_the_proofs():
    # on clean instances: (a) A_k -> C_k surjects onto W_k(C_k);
    # (b) ker(c_k) lies inside W_k(C_k); (c) the image of s_k lies in
    # W_k(P_k), and C_k is spanned by W_k(C_k) together with im(r_k)
    for i in range(10):
        inst = gen_cs_instance(GenProfile(seed=split_seed(88, i), max_dim_per_node=8))
        assert check_instance_hypotheses(inst).clean
        for k in inst.degrees():
            c_k = inst.space("C", k)
            if c_k.dim == 0:
                continue
            w_k = c_k.step(k)
            assert image(inst.map("a", k)) == w_k
            assert w_k.contains(kernel(inst.map("c", k)))
            p_k = inst.space("P", k)
            if p_k.dim:
                assert p_k.step(k).contains(image(inst.map("s", k)))
            assert subspace_sum(w_k, image(inst.map("r", k))) == span_of_vectors(
                [tuple(1 if i == j else 0 for j in range(c_k.dim)) for i in range(c_k.dim)],
                c_k.dim)


def test_les_equivalent_to_proposition_conjunction():
    inst = gen_cs_instance(GenProfile(seed=91, max_dim_per_node=8))
    report = check_instance_hypotheses(inst)
    les = assemble_and_verify_les(inst, report=report)
    for v in les:
        direct = verify_proposition(inst, v.proposition, v.degree, report=report)
        assert direct.exact == v.exact


def test_foreign_incompatible_map_reported_not_raised():
    # a loaded instance with a weight-raising map gets a strictness verdict
    # naming the defect, not an exception (malformed is reserved for shapes)
    from csverify.serialize import instance_from_json, instance_to_json

    data = instance_to_json(curve_cs_instance(cycle_graph(1)))
    data["col"]["a"]["1"] = [["1"], ["0"]]  # weight-0 line into the weight-2 slot
    inst = instance_from_json(data)
    report = check_instance_hypotheses(inst)
    verdict = report.verdicts["strictness"][("a", 1)]
    assert not verdict.strict
    assert verdict.reason == "not weight-compatible"
    assert "strictness" in failed_categories(report)


def test_boundary_degrees_treated_as_zero():
    inst = curve_cs_instance(cycle_graph(3))
    assert inst.space("A", 5).dim == 0
    assert inst.space("B", -1).dim == 0
    assert inst.map("b", 7).nrows == 0
    report = check_instance_hypotheses(inst)
    # exactness entries exist at the boundary degrees
    assert (inst.k_min - 1, "A") in report.verdicts["column_exact"]
    assert (inst.k_max + 1, "B") in report.verdicts["column_exact"]


def ref_invariant_cycles(inst, k):
    """THM2 with its own search: P4, then im(s.a) against ker N directly."""
    at_a = conclusion_exactness(inst, "P4", k)
    if not at_a.exact:
        return VerdictReport("THM2", k, False, witness=at_a.witness, weights_used=_weights_used("P4", k))
    im = image(inst.map("sa", k))
    ker_n = kernel(inst.map("N", k))
    if im != ker_n:
        witness = next((row for row in ker_n.basis.rows if not ref_contains_vector(im, row)), None)
        if witness is None:
            witness = next(row for row in im.basis.rows if not ref_contains_vector(ker_n, row))
        return VerdictReport("THM2", k, False, witness=witness, weights_used=_weights_used("P1", k))
    used = tuple(sorted(set(_weights_used("P4", k)) | set(_weights_used("P1", k))))
    return VerdictReport("THM2", k, True, weights_used=used)


def _partial_invariants_instance():
    # A_0 meets only a line of ker N_0 = P_0, while B_0 -> A_0 -> P_0 is
    # exact: P4 holds and P1 fails with a ker N witness
    return CSInstance(
        (0, 0),
        spaces={"A": {0: FilteredSpace.pure(1, 0)}, "C": {0: FilteredSpace.pure(2, 0)},
                "P": {0: FilteredSpace.pure(2, 0)}},
        maps={"a": {0: Matrix.from_rows([[1], [0]])}, "s": {0: Matrix.identity(2)}},
    )


_THM2_CASES = (
    [("clean", i) for i in range(6)]
    + [("curve", n) for n in range(1, 8)] + [("curve", "theta")]
    + [(tag, i) for tag in BREAKABLE_HYPOTHESES for i in range(3)]
    + [("partial", 0)]
)


@pytest.mark.parametrize("kind,index", _THM2_CASES)
def test_invariant_cycles_match_reference(kind, index):
    if kind == "clean":
        inst = gen_cs_instance(GenProfile(seed=split_seed(21, index), max_dim_per_node=(6, 10)[index % 2]))
        report = check_instance_hypotheses(inst)
    elif kind == "curve":
        inst = curve_cs_instance(theta_graph() if index == "theta" else cycle_graph(index))
        report = check_instance_hypotheses(inst)
    else:
        # a stand-in clean report lets non-exact verdicts through the gate
        inst = (_partial_invariants_instance() if kind == "partial" else
                gen_adversarial(GenProfile(seed=split_seed(21, index), broken_hypothesis=kind)))
        report = HypothesisReport({category: {} for category in BREAKABLE_HYPOTHESES})
    assert report.clean
    verdicts = []
    for k in inst.degrees(pad=2):
        # both computations agree wherever N.s = 0, which every profile keeps
        assert (inst.map("N", k) @ inst.map("s", k)).is_zero()
        got, want = verify_invariant_cycles(inst, k, report=report), ref_invariant_cycles(inst, k)
        assert (got.exact, got.witness, got.weights_used) == (want.exact, want.witness, want.weights_used)
        verdicts.append(got)
    if kind in ("column_exact", "row_exact", "partial"):
        assert any(not v.exact and v.witness is not None for v in verdicts)
    if kind == "partial":
        assert verdicts[2].weights_used == _weights_used("P1", 0) and verdicts[2].witness == (0, 1)


# -- the conclusion table against the four hand-written branches ------------

_REF_BOUNDS = {
    "P1": ("P_centering@{k}", "B_bound@{k1}"),
    "P2": ("P_centering@{k}", "A_bound@{k1}"),
    "P3": ("B_bound@{k2}", "P_centering@{k1}"),
    "P4": ("A_bound@{k}", "P_centering@{km1}"),
}


def ref_conclusion_exactness(inst, which, k):
    """Each conclusion spelled out, with fresh composite products."""
    a_to_p = inst.map("s", k) @ inst.map("a", k)
    ptw_to_b = inst.map("c", k + 1) @ inst.map("r", k + 1)
    if which == "P1":
        return exactness_at(a_to_p, inst.map("N", k))
    if which == "P2":
        return exactness_at(inst.map("N", k), ptw_to_b)
    if which == "P3":
        return exactness_at(ptw_to_b, inst.map("b", k + 2))
    return exactness_at(inst.map("b", k), a_to_p)


def _conclusions_match_reference(inst):
    """Compare every conclusion at every degree; the non-exact ones, per proposition."""
    failing = {which: 0 for which in CONCLUSIONS}
    for k in inst.degrees(pad=2):
        for which in CONCLUSIONS:
            got, want = conclusion_exactness(inst, which, k), ref_conclusion_exactness(inst, which, k)
            assert (got.exact, got.reason, got.witness) == (want.exact, want.reason, want.witness)
            used = tuple(t.format(k=k, k1=k + 1, k2=k + 2, km1=k - 1) for t in _REF_BOUNDS[which])
            assert _weights_used(which, k) == used
            failing[which] += not got.exact
    return failing


def test_conclusions_match_reference_on_clean_and_curve_instances():
    instances = [gen_cs_instance(GenProfile(seed=split_seed(61, i), max_dim_per_node=(6, 10)[i % 2]))
                 for i in range(8)]
    instances += [curve_cs_instance(cycle_graph(n)) for n in range(1, 8)] + [curve_cs_instance(theta_graph())]
    for inst in instances:
        assert sum(_conclusions_match_reference(inst).values()) == 0


def test_conclusions_match_reference_on_adversarial_instances():
    failing = {which: 0 for which in CONCLUSIONS}
    for tag in BREAKABLE_HYPOTHESES:
        for seed in range(1, 31):
            inst = gen_adversarial(GenProfile(seed=seed, broken_hypothesis=tag))
            for which, n in _conclusions_match_reference(inst).items():
                failing[which] += n
    # the comparison covers non-exact verdicts, witnesses included, of every conclusion
    assert all(failing.values()) and sum(failing.values()) == 146


def test_composites_built_once_and_invisible():
    inst = gen_cs_instance(GenProfile(seed=7, max_dim_per_node=8))
    stored = [k for k in inst.degrees() if k in inst.maps["s"] and k in inst.maps["a"]]
    assert stored
    for k in stored:
        assert inst.map("sa", k) is inst.map("sa", k)
        assert inst.map("sa", k) == inst.map("s", k) @ inst.map("a", k)
    k = inst.k_max + 1
    assert k not in inst.maps["r"]
    assert inst.map("cr", k) is Matrix.zero(inst.space("B", k + 1).dim, inst.space("P", k - 1).dim)
    for k in inst.degrees(pad=2):
        for which in CONCLUSIONS:
            conclusion_exactness(inst, which, k)
    assert inst._products
    assert instance_from_json(instance_to_json(inst)) == inst


# -- a passing verdict is a count --------------------------------------------

def _check_work(monkeypatch, inst) -> Counter:
    """The work check_instance_hypotheses(inst) does, counted: full and forward-only eliminations,
    the column spaces behind ``image``, null spaces (every kernel), Jordan chains (every centered
    filtration), products formed inside ``exactness_at``, and the verdicts that pass there."""
    work, inside = Counter(), []
    real_rref, real_matmul, real_exactness = linalg.rref, Matrix.__matmul__, verifier.exactness_at

    def rref(m, pivots_only=False):
        work["forward pass" if pivots_only else "full rref"] += 1
        return real_rref(m, pivots_only)

    def matmul(a, b):
        work["product in exactness_at"] += bool(inside)
        return real_matmul(a, b)

    def exactness(f, g):
        inside.append(None)
        try:
            verdict = real_exactness(f, g)
        finally:
            inside.pop()
        work["exact"] += verdict.exact
        return verdict

    def counted(name, real):
        return lambda *args: work.update((name,)) or real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "rref", rref)
        patch.setattr(Matrix, "__matmul__", matmul)
        patch.setattr(verifier, "exactness_at", exactness)
        for name in ("_column_space", "null_space", "jordan_chains"):
            patch.setattr(linalg, name, counted(name, getattr(linalg, name)))
        report = check_instance_hypotheses(inst)
    work["clean"] = report.clean
    return work


def test_a_clean_check_builds_no_image_kernel_or_centered_filtration(monkeypatch):
    """On clean instances read afresh from JSON, so that nothing is kept on their matrices yet,
    every hypothesis verdict passes on a count or a zero test: every elimination is rref's forward
    pass, so no column space, kernel or subspace sum is reduced; no Jordan chain, and so no
    centered filtration, is built; and no product Matrix is formed for a passing exactness
    verdict.  A failing verdict still builds its witness, which the same counters see."""
    fresh = [gen_cs_instance(GenProfile(seed=seed, max_dim_per_node=(6, 10)[seed % 2])) for seed in range(1, 7)]
    fresh += [curve_cs_instance(theta_graph()), curve_cs_instance(cycle_graph(4))]
    for inst in fresh:
        work = _check_work(monkeypatch, instance_from_json(instance_to_json(inst)))
        assert work["clean"] and work["exact"] and work["forward pass"], work
        assert set(+work) == {"clean", "exact", "forward pass"}, work
    broken = gen_adversarial(GenProfile(seed=1, max_dim_per_node=6, broken_hypothesis="column_exact"))
    work = _check_work(monkeypatch, instance_from_json(instance_to_json(broken)))
    assert not work["clean"] and work["_column_space"] and work["full rref"], work


# -- the category-keyed report against the six-field one --------------------

def every_degree(inst, pad):
    return range(inst.k_min - pad, inst.k_max + pad + 1)


def ref_failures(inst):
    """Failures as the six-field report listed them: one field per category, each in sorted key order."""
    column, row, bounds_a, bounds_b, centering_p, strict = {}, {}, {}, {}, {}, {}
    for k in every_degree(inst, 1):
        b, a, c, r, s, n = (inst.map(label, k) for label in ("b", "a", "c", "r", "s", "N"))
        column[(k, "A")] = exactness_at(b, a)
        column[(k, "C")] = exactness_at(a, c)
        column[(k, "B")] = exactness_at(inst.map("c", k - 1), b)
        row[(k, "C")] = exactness_at(r, s)
        row[(k, "P")] = exactness_at(s, n)
        row[(k, "P(-1)")] = exactness_at(n, inst.map("r", k + 1))
    for k in range(inst.k_min, inst.k_max + 1):
        bounds_a[k] = weights_leq(inst.space("A", k), k)
        bounds_b[k] = weights_geq(inst.space("B", k), k)
        centering_p[k] = centered_filtration(inst.map("N", k), k) == inst.space("P", k)
    for k in every_degree(inst, 1):
        for label, mat, src, tgt in _instance_maps(inst, k):
            if mat.nrows == 0 or mat.ncols == 0:
                continue
            try:
                strict[(label, k)] = strictness(FilteredMap(src, tgt, mat))
            except WeightCompatibilityError:
                strict[(label, k)] = StrictnessVerdict(False, reason="not weight-compatible")
    out = []
    out += [("column_exact", key) for key, v in sorted(column.items()) if not v.exact]
    out += [("row_exact", key) for key, v in sorted(row.items()) if not v.exact]
    out += [("A_bound", k) for k, ok in sorted(bounds_a.items()) if not ok]
    out += [("B_bound", k) for k, ok in sorted(bounds_b.items()) if not ok]
    out += [("P_centering", k) for k, ok in sorted(centering_p.items()) if not ok]
    out += [("strictness", key) for key, v in sorted(strict.items()) if not v.strict]
    return out


def test_failures_match_six_field_report_on_clean_instances():
    instances = [gen_cs_instance(GenProfile(seed=split_seed(61, i), max_dim_per_node=(6, 10)[i % 2]))
                 for i in range(8)]
    instances += [curve_cs_instance(cycle_graph(n)) for n in range(1, 8)] + [curve_cs_instance(theta_graph())]
    for inst in instances:
        report = check_instance_hypotheses(inst)
        assert report.failures() == ref_failures(inst) == []
        assert report.clean


def test_failures_match_six_field_report_on_adversarial_instances():
    for tag in BREAKABLE_HYPOTHESES:
        for seed in range(1, 31):
            inst = gen_adversarial(GenProfile(seed=seed, broken_hypothesis=tag))
            report = check_instance_hypotheses(inst)
            want = ref_failures(inst)
            assert report.failures() == want and want
            assert not report.clean and failed_categories(report) == (tag,)


def test_failures_match_six_field_report_across_categories():
    # every stored map but N becomes all ones and every A_k pure of weight k + 1:
    # many failures in four categories per instance
    for i in range(1, 6):
        inst = gen_cs_instance(GenProfile(seed=split_seed(62, i), max_dim_per_node=6))
        spaces = {node: getattr(inst, node) for node in NODES}
        spaces["A"] = {k: FilteredSpace.pure(a.dim, k + 1) for k, a in inst.A.items()}
        maps = {label: {k: m if label == "N" else Matrix.from_rows([[1] * m.ncols] * m.nrows)
                        for k, m in family.items()} for label, family in inst.maps.items()}
        inst = CSInstance((inst.k_min, inst.k_max), spaces, maps)
        report = check_instance_hypotheses(inst)
        assert report.failures() == ref_failures(inst)
        assert failed_categories(report) == ("A_bound", "column_exact", "row_exact", "strictness")


def test_report_is_frozen_with_one_field():
    """The report is built from one field, ``verdicts``; every other public attribute is derived
    from it, and none can be assigned."""
    report = check_instance_hypotheses(zero_instance())
    assert list(inspect.signature(HypothesisReport).parameters) == ["verdicts"]
    assert [name for name in dir(report) if not name.startswith("_")
            and not callable(getattr(report, name))] == ["clean", "verdicts"]
    assert list(report.verdicts) == list(BREAKABLE_HYPOTHESES)
    for name in ("verdicts", "clean", "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, {})


# -- the degree window against every declared degree -----------------------

def ref_hypotheses(inst):
    """The hypothesis verdicts at every declared degree, as the full-range loop computed them."""
    verdicts = {category: {} for category in BREAKABLE_HYPOTHESES}
    for k in every_degree(inst, 1):
        for category, nodes in verifier.SEQUENCES.items():
            for node, (f, g) in nodes.items():
                verdicts[category][(k, node)] = exactness_at(inst.map(f[0], k + f[1]), inst.map(g[0], k + g[1]))
        if inst.k_min <= k <= inst.k_max:
            verdicts["A_bound"][k] = weights_leq(inst.space("A", k), k)
            verdicts["B_bound"][k] = weights_geq(inst.space("B", k), k)
            verdicts["P_centering"][k] = centered_filtration(inst.map("N", k), k) == inst.space("P", k)
        for label, mat, src, tgt in _instance_maps(inst, k):
            if mat.nrows == 0 or mat.ncols == 0:
                continue
            try:
                verdict = strictness(FilteredMap(src, tgt, mat))
            except WeightCompatibilityError:
                verdict = StrictnessVerdict(False, reason="not weight-compatible")
            verdicts["strictness"][(label, k)] = verdict
    return verdicts


def ref_les(inst):
    """Every conclusion at every degree of [k_min - 2, k_max + 2], ungated."""
    out = []
    for k in every_degree(inst, 2):
        for which in CONCLUSIONS:
            verdict = conclusion_exactness(inst, which, k)
            out.append(VerdictReport(which, k, verdict.exact, witness=verdict.witness,
                                     weights_used=_weights_used(which, k)))
    return out


def _widened(inst, width):
    return CSInstance((inst.k_min - width, inst.k_max + width), {node: getattr(inst, node) for node in NODES},
                      inst.maps, profile=inst.profile)


def _gapped_instance():
    # stored data at degrees 0 and 10 only: the window is two blocks with a trivial gap between
    spaces = {node: dict(getattr(_partial_invariants_instance(), node)) for node in NODES}
    spaces["P"][10] = FilteredSpace.pure(2, 10)
    return CSInstance((0, 10), spaces, {"a": {0: Matrix.from_rows([[1], [0]])}, "s": {0: Matrix.identity(2)}})


def _window_case(kind, index):
    if kind == "clean":
        return gen_cs_instance(GenProfile(seed=split_seed(71, index), max_dim_per_node=(6, 10)[index % 2]))
    if kind == "curve":
        return curve_cs_instance(theta_graph() if index == "theta" else cycle_graph(index))
    if kind == "gapped":
        return _gapped_instance()
    return gen_adversarial(GenProfile(seed=split_seed(71, index), broken_hypothesis=kind))


def _key_degree(category, key):
    """The degree of a verdict key: k, (k, node) or (label, k)."""
    if isinstance(key, int):
        return key
    return key[1] if category == "strictness" else key[0]


_WINDOW_CASES = (
    [("clean", i) for i in range(3)]
    + [(tag, i) for tag in BREAKABLE_HYPOTHESES for i in range(2)]
    + [("curve", n) for n in range(1, 8)] + [("curve", "theta"), ("gapped", 0)]
)


@pytest.mark.parametrize("width", [0, 3, 50])
@pytest.mark.parametrize("kind,index", _WINDOW_CASES)
def test_window_matches_every_degree_reference(kind, index, width):
    inst = _widened(_window_case(kind, index), width)
    window = inst.degrees(pad=2)
    trivial = [k for a, b in inst.trivial_degrees() for k in range(a, b + 1)]
    assert sorted(window + trivial) == list(every_degree(inst, 2))
    got, want = check_instance_hypotheses(inst).verdicts, ref_hypotheses(inst)
    for category in BREAKABLE_HYPOTHESES:
        for key, verdict in want[category].items():
            if _key_degree(category, key) in window:
                assert got[category].pop(key) == verdict
            else:
                assert _key_degree(category, key) in trivial and verdict
        assert not got[category]
    # a stand-in clean report lets every conclusion through the gate
    stand_in = HypothesisReport({category: {} for category in BREAKABLE_HYPOTHESES})
    les = {(v.proposition, v.degree): v for v in assemble_and_verify_les(inst, report=stand_in)}
    for verdict in ref_les(inst):
        if verdict.degree in window:
            assert les.pop((verdict.proposition, verdict.degree)) == verdict
        else:
            assert verdict.degree in trivial and verdict.exact and verdict.witness is None
    assert not les


def test_window_work_independent_of_declared_width(monkeypatch):
    # a sparse_range-style instance: data in degrees 0..4, declared over [0, width]
    base = instance_to_json(gen_cs_instance(GenProfile(seed=split_seed(1, 0), max_dim_per_node=6)))
    real = verifier.exactness_at
    calls = []
    monkeypatch.setattr(verifier, "exactness_at", lambda f, g: calls.append(None) or real(f, g))
    counts, windows = [], []
    for width in (8, 100000):
        inst = instance_from_json(dict(base, range=[0, width]))
        calls.clear()
        assert all(v.exact for v in assemble_and_verify_les(inst, report=check_instance_hypotheses(inst)))
        counts.append(len(calls))
        windows.append(inst.degrees(pad=2))
        assert inst.trivial_degrees() == [(windows[-1][-1] + 1, width + 2)]
    assert counts[0] == counts[1] > 0 and windows[0] == windows[1]


# -- exactness at a zero middle node ----------------------------------------

# row of SEQUENCES or CONCLUSIONS -> its middle node at degree k, as (node, degree offset),
# spelled out apart from ARROWS: P(-1) and P2's middle are the twist of P_k
_MIDDLE = {"A": ("A", 0), "C": ("C", 0), "B": ("B", 0), "P": ("P", 0), "P(-1)": ("P", 0),
           "P1": ("P", 0), "P2": ("P", 0), "P3": ("B", 2), "P4": ("A", 0)}


def _exactness_rows():
    """(name, f, g) of the six hypothesis rows and the four conclusions."""
    rows = [(node, f, g) for nodes in verifier.SEQUENCES.values() for node, (f, g) in nodes.items()]
    return rows + [(which, f, g) for which, (f, g, _) in CONCLUSIONS.items()]


@pytest.mark.parametrize("kind,index", _WINDOW_CASES)
def test_exactness_matches_built_maps_at_every_node(kind, index):
    inst = _window_case(kind, index)
    zero_middles = 0
    for k in inst.degrees(pad=2):
        for name, f, g in _exactness_rows():
            fm, gm = inst.map(f[0], k + f[1]), inst.map(g[0], k + g[1])
            assert verifier._exactness(inst, k, f, g) == exactness_at(fm, gm), (name, k)
            node, d = _MIDDLE[name]
            assert fm.nrows == inst.space(node, k + d).dim
            zero_middles += fm.nrows == 0
    assert zero_middles


def _middle_dims(inst, degrees, names):
    """The dimension of each named row's middle space at each degree, degree by degree."""
    return [inst.space(node, k + d).dim for k in degrees for node, d in map(_MIDDLE.get, names)]


def test_exactness_at_runs_only_at_nonzero_middle_nodes(monkeypatch):
    """exactness_at is called, in order, once per verdict whose middle space is nonzero, by the
    hypothesis check and by the spliced sequence alike."""
    real = verifier.exactness_at
    middles = []
    monkeypatch.setattr(verifier, "exactness_at", lambda f, g: middles.append(f.nrows) or real(f, g))
    stand_in = HypothesisReport({category: {} for category in BREAKABLE_HYPOTHESES})
    hypotheses = [node for nodes in verifier.SEQUENCES.values() for node in nodes]
    skipped = 0
    for kind, index in _WINDOW_CASES:
        inst = _window_case(kind, index)
        middles.clear()
        check_instance_hypotheses(inst)
        hypothesis_dims = _middle_dims(inst, inst.degrees(), hypotheses)
        assert middles == [d for d in hypothesis_dims if d], (kind, index)
        middles.clear()
        assemble_and_verify_les(inst, report=stand_in)
        conclusion_dims = _middle_dims(inst, inst.degrees(pad=2), CONCLUSIONS)
        assert middles == [d for d in conclusion_dims if d], (kind, index)
        skipped += (hypothesis_dims + conclusion_dims).count(0)
    assert skipped
