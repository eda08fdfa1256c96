"""Acceptance suite: every release criterion, one pass/fail line each.

All checks are exact (no tolerances); the randomized ones are fully
seeded, so this module is deterministic.  Run with `pytest -v
tests/test_acceptance.py` or let plain `pytest` pick it up.
"""

import json
import random
from pathlib import Path

from csverify.degenerations import curve_cs_instance
from csverify.generators import (
    GenProfile,
    gen_adversarial,
    gen_centered_mhs,
    gen_cs_instance,
    split_seed,
)
from csverify.linalg import Matrix, canonicalize, image, kernel, qstr
from csverify.monodromy import (
    ker_coker_weight_bounds,
    monodromy_filtration,
    monodromy_filtration_recursive,
    verify_centered_axioms,
)
from csverify.serialize import (
    dumps,
    graph_from_json,
    instance_from_json,
    instance_to_json,
    nilpotent_from_json,
)
from csverify.verifier import (
    BREAKABLE_HYPOTHESES,
    assemble_and_verify_les,
    check_instance_hypotheses,
    conclusion_exactness,
    verify_invariant_cycles,
    verify_unipotent_cs,
)
from corpus import cycle_graph, failed_categories, graph_to_json, nilpotent_to_json, subspace_sum, theta_graph
from load_bearing import search_load_bearing

FIXTURES = Path(__file__).parent / "fixtures"


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_monodromy_uniqueness():
    """Jordan-chain and recursive constructions agree on 1000 seeded
    nilpotents of dimension <= 10, and the centered axioms hold."""
    rng = random.Random(1)
    mismatches = 0
    for i in range(1000):
        dim = rng.randint(0, 10)
        center_gen = rng.randint(-3, 3)
        center = rng.randint(-3, 3)
        _, op = gen_centered_mhs(split_seed(101, i), dim, center_gen)
        chain = monodromy_filtration(op, center)
        recursive = monodromy_filtration_recursive(
            op, center, section_rng=random.Random(split_seed(102, i)))
        if chain != recursive or not verify_centered_axioms(chain, op).ok:
            mismatches += 1
    report("1 monodromy uniqueness (1000 ops, dim<=10)", mismatches == 0,
           f"{mismatches} mismatches")


def test_criterion_2_weight_bound_lemma():
    """Kernel/cokernel weight bounds hold on 500 seeded centered instances."""
    rng = random.Random(2)
    failures = 0
    for i in range(500):
        dim = rng.randint(0, 10)
        k = rng.randint(-3, 3)
        _, op = gen_centered_mhs(split_seed(201, i), dim, k)
        if not ker_coker_weight_bounds(op, k).ok:
            failures += 1
    report("2 weight-bound lemma (500 centered ops)", failures == 0, f"{failures} failures")


def test_criterion_3_theorem_backed_exactness():
    """500 seeded clean instances (node dims <= 12) pass every proposition
    verdict and the full spliced-sequence verification."""
    failures = 0
    for i in range(500):
        profile = GenProfile(seed=split_seed(301, i), max_dim_per_node=12,
                             degree_range=(0, 4))
        inst = gen_cs_instance(profile)
        rep = check_instance_hypotheses(inst)
        if not rep.clean:
            failures += 1
            continue
        verdicts = assemble_and_verify_les(inst, report=rep)
        if not all(v.exact for v in verdicts):
            failures += 1
    report("3 theorem-backed exactness (500 instances)", failures == 0, f"{failures} failures")


def test_criterion_4_checker_sensitivity():
    """For each breakable hypothesis, 50 adversarial instances fail exactly
    the named hypothesis, and proposition verdicts stay gated."""
    from csverify.verifier import HypothesesNotSatisfiedError, verify_proposition

    bad = []
    for tag_index, tag in enumerate(BREAKABLE_HYPOTHESES):
        for i in range(50):
            profile = GenProfile(seed=split_seed(401 + tag_index, i),
                                 max_dim_per_node=6, broken_hypothesis=tag)
            inst = gen_adversarial(profile)
            rep = check_instance_hypotheses(inst)
            if failed_categories(rep) != (tag,):
                bad.append((tag, i, failed_categories(rep)))
                continue
            try:
                verify_proposition(inst, "P1", inst.k_min, report=rep)
                bad.append((tag, i, "gating failed"))
            except HypothesesNotSatisfiedError:
                pass
    report("4 checker sensitivity (6 x 50 adversarial)", not bad, f"first issues: {bad[:3]}")


def test_criterion_5_geometry_fixtures():
    """I_n for n = 1..6 and the theta graph: hypotheses, monodromy
    invariants at k = 1 with dimension b1, and the unipotent sequence."""
    problems = []
    graphs = [("I_%d" % n, cycle_graph(n)) for n in range(1, 7)]
    graphs.append(("theta", theta_graph()))
    for name, g in graphs:
        b1 = len(g.edges) - g.vertices + 1
        inst = curve_cs_instance(g)
        rep = check_instance_hypotheses(inst)
        if not rep.clean:
            problems.append((name, "dirty"))
            continue
        t2 = verify_invariant_cycles(inst, 1, report=rep)
        if not t2.exact or image(inst.map("sa", 1)).dim != b1:
            problems.append((name, "invariant cycles"))
        if not all(v.exact for v in verify_unipotent_cs(inst, report=rep)):
            problems.append((name, "unipotent sequence"))
    report("5 geometry fixtures (I_1..I_6, theta)", not problems, str(problems))


def test_criterion_6_load_bearing_weights(tmp_path):
    """The randomized search persists an adversarial instance whose local
    invariant cycles or kernel-sequence conclusion is literally non-exact,
    with a stored witness; an exhausted budget is reported as inconclusive
    without failing."""
    result = search_load_bearing(seed=20260811)
    if not result.found:
        report("6 load-bearing weights", True, "inconclusive: budget exhausted")
        return
    payload = {
        "broken_hypothesis": result.broken,
        "proposition": result.proposition,
        "degree": result.degree,
        "witness": [qstr(x) for x in result.witness],
        "instance": instance_to_json(result.instance),
    }
    out = tmp_path / "load_bearing.json"
    out.write_text(dumps(payload))
    restored = instance_from_json(json.loads(out.read_text())["instance"])
    verdict = conclusion_exactness(restored, result.proposition, result.degree)
    ok = (not verdict.ok
          and result.witness is not None
          and result.proposition in ("P1", "P4")
          and failed_categories(check_instance_hypotheses(restored)) == (result.broken,)
          # the persisted counterexample is the document this seed finds, on its third try
          and result.tries == 3
          and payload == json.loads((FIXTURES / "load_bearing.json").read_text()))
    report("6 load-bearing weights", ok,
           f"{result.broken} breaks {result.proposition} at k={result.degree} "
           f"(found in {result.tries} tries)")


def test_criterion_6_regression_fixture():
    """The persisted counterexample stays non-exact, with a valid witness."""
    data = json.loads((FIXTURES / "load_bearing.json").read_text())
    inst = instance_from_json(data["instance"])
    assert failed_categories(check_instance_hypotheses(inst)) == (data["broken_hypothesis"],)
    verdict = conclusion_exactness(inst, data["proposition"], data["degree"])
    assert not verdict.ok
    stored = tuple(qstr(x) for x in verdict.witness)
    assert list(stored) == data["witness"]
    report("6b regression fixture", True,
           f"{data['broken_hypothesis']} -> {data['proposition']} non-exact at k={data['degree']}")


def test_criterion_7_infrastructure():
    """Subspace-lattice laws on 1000 random matrices up to 10x10, and JSON
    round-trip identity on every fixture and 100 generated instances."""
    rng = random.Random(7)
    lattice_bad = 0
    for _ in range(1000):
        n = rng.randint(1, 10)
        m = rng.randint(0, 10)
        mat = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], ncols=n)
        sub = canonicalize(mat)
        if canonicalize(sub.basis) != sub:
            lattice_bad += 1
        if kernel(mat).dim + image(mat).dim != n:
            lattice_bad += 1
        other = canonicalize(
            Matrix.from_rows([[rng.randint(-4, 4) for _ in range(n)]
                              for _ in range(rng.randint(0, n))], ncols=n))
        if subspace_sum(sub, other).dim != sub.dim + other.dim - sub.intersect(other).dim:
            lattice_bad += 1

    roundtrip_bad = 0
    graphs = [cycle_graph(n) for n in range(1, 7)] + [theta_graph()]
    for g in graphs:
        if graph_from_json(graph_to_json(g)) != g:
            roundtrip_bad += 1
        inst = curve_cs_instance(g)
        if instance_from_json(instance_to_json(inst)) != inst:
            roundtrip_bad += 1
    for i in range(100):
        inst = gen_cs_instance(GenProfile(seed=split_seed(701, i), max_dim_per_node=8))
        if instance_from_json(instance_to_json(inst)) != inst:
            roundtrip_bad += 1
    for i in range(10):
        _, op = gen_centered_mhs(split_seed(702, i), i, 0)
        parsed = nilpotent_from_json(nilpotent_to_json(op))
        if parsed.space != op.space or parsed.matrix != op.matrix:
            roundtrip_bad += 1
    report("7 infrastructure (lattice laws + JSON round-trips)",
           lattice_bad == 0 and roundtrip_bad == 0,
           f"lattice {lattice_bad}, roundtrip {roundtrip_bad}")
