import pytest

from csverify.degenerations import curve_cs_instance, cycle_graph, theta_graph
from csverify.filtration import FilteredSpace
from csverify.generators import GenProfile, gen_adversarial, gen_cs_instance, split_seed
from csverify.linalg import Matrix, image, kernel, span_of_vectors
from csverify.verifier import (
    BREAKABLE_HYPOTHESES,
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
from csverify.verifier import _weights_used


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
    a_to_p = inst.map_a_to_p(1)
    assert image(a_to_p) == kernel(inst.map("N", 1))
    assert image(a_to_p).dim == 1


def test_i1_les_and_twisted_boundary_iso():
    inst = curve_cs_instance(cycle_graph(1))
    report = check_instance_hypotheses(inst)
    verdicts = assemble_and_verify_les(inst, report=report)
    assert all(v.exact for v in verdicts)
    # P_2(-1) -> B_4 is an isomorphism of one-dimensional weight-4 spaces
    ptw_to_b = inst.map_ptw_to_b(2)
    assert ptw_to_b.nrows == ptw_to_b.ncols == 1
    assert kernel(ptw_to_b).dim == 0
    assert inst.space("B", 4).graded_dims() == {4: 1}


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


def test_gating_refuses_dirty_instances():
    inst = gen_adversarial(GenProfile(seed=5, broken_hypothesis="A_bound"))
    with pytest.raises(HypothesesNotSatisfiedError):
        verify_proposition(inst, "P1", 1)
    with pytest.raises(HypothesesNotSatisfiedError):
        assemble_and_verify_les(inst)
    with pytest.raises(HypothesesNotSatisfiedError):
        verify_invariant_cycles(inst, 1)


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
    verdicts = verify_unipotent_cs(fixture)
    assert verdicts and all(v.exact for v in verdicts)
    assert all(v.proposition.startswith("THM3:") for v in verdicts)


def test_witness_field_consistency():
    with pytest.raises(ValueError):
        VerdictReport("P1", 0, True, witness=(1,))


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
            assert w_k.sum(image(inst.map("r", k))) == span_of_vectors(
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
    verdict = report.strictness[("a", 1)]
    assert not verdict.strict
    assert verdict.reason == "not weight-compatible"
    assert "strictness" in report.failed_categories()


def test_boundary_degrees_treated_as_zero():
    inst = curve_cs_instance(cycle_graph(3))
    assert inst.space("A", 5).dim == 0
    assert inst.space("B", -1).dim == 0
    assert inst.map("b", 7).nrows == 0
    report = check_instance_hypotheses(inst)
    # exactness entries exist at the boundary degrees
    assert (inst.k_min - 1, "A") in report.column
    assert (inst.k_max + 1, "B") in report.column


def ref_invariant_cycles(inst, k):
    """THM2 with its own search: P4, then im(s.a) against ker N directly."""
    at_a = conclusion_exactness(inst, "P4", k)
    if not at_a.exact:
        return VerdictReport("THM2", k, False, witness=at_a.witness, weights_used=_weights_used("P4", k))
    im = image(inst.map_a_to_p(k))
    ker_n = kernel(inst.map("N", k))
    if im != ker_n:
        witness = next((row for row in ker_n.basis.rows if not im.contains_vector(row)), None)
        if witness is None:
            witness = next(row for row in im.basis.rows if not ker_n.contains_vector(row))
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
        report = HypothesisReport()
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
