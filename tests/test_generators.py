import pytest

from csverify.generators import (
    GenProfile,
    gen_adversarial,
    gen_centered_mhs,
    gen_cs_instance,
    search_load_bearing,
    split_seed,
)
from csverify.monodromy import monodromy_filtration, verify_centered_axioms
from csverify.serialize import dumps, instance_to_json
from csverify.verifier import (
    BREAKABLE_HYPOTHESES,
    check_instance_hypotheses,
    conclusion_exactness,
)


def test_split_seed_is_deterministic_and_spreading():
    assert split_seed(1, 0) == split_seed(1, 0)
    outputs = {split_seed(123, i) for i in range(100)}
    assert len(outputs) == 100
    assert all(0 <= x < 2 ** 64 for x in outputs)


def test_profile_validation():
    with pytest.raises(ValueError):
        GenProfile(seed=1, max_dim_per_node=-1)
    with pytest.raises(ValueError):
        GenProfile(seed=1, degree_range=(3, 1))
    with pytest.raises(ValueError):
        GenProfile(seed=1, broken_hypothesis="nonsense")


def test_gen_centered_dim_zero_and_determinism():
    space, op = gen_centered_mhs(9, 0, 4)
    assert space.dim == 0 and op.matrix.nrows == 0
    a = gen_centered_mhs(17, 7, 1)
    b = gen_centered_mhs(17, 7, 1)
    assert a[0] == b[0] and a[1].matrix == b[1].matrix


def test_gen_centered_satisfies_axioms():
    for i in range(60):
        dim = i % 11
        k = (i % 7) - 3
        space, op = gen_centered_mhs(split_seed(3, i), dim, k)
        assert space == op.space
        assert verify_centered_axioms(monodromy_filtration(op, k), op).ok


def test_gen_cs_rejects_broken_profile():
    with pytest.raises(ValueError):
        gen_cs_instance(GenProfile(seed=1, broken_hypothesis="A_bound"))
    with pytest.raises(ValueError):
        gen_adversarial(GenProfile(seed=1))


def test_max_dim_zero_gives_all_zero_instance():
    inst = gen_cs_instance(GenProfile(seed=11, max_dim_per_node=0))
    assert inst.node_dims() == {"A": {}, "B": {}, "C": {}, "P": {}}
    assert check_instance_hypotheses(inst).clean


def test_instance_determinism_byte_identical():
    p = GenProfile(seed=987654321, max_dim_per_node=8, degree_range=(-1, 5))
    a = dumps(instance_to_json(gen_cs_instance(p)))
    b = dumps(instance_to_json(gen_cs_instance(p)))
    assert a == b
    adv = GenProfile(seed=5, broken_hypothesis="strictness")
    assert (dumps(instance_to_json(gen_adversarial(adv)))
            == dumps(instance_to_json(gen_adversarial(adv))))


def test_clean_instances_validate():
    for i in range(25):
        prof = GenProfile(seed=split_seed(600, i), max_dim_per_node=10,
                          degree_range=(0, 4 + (i % 2)))
        inst = gen_cs_instance(prof, verify=False)
        report = check_instance_hypotheses(inst)
        assert report.clean, (i, report.failures()[:3])
        assert all(inst.space("A", k).dim <= 10 for k in inst.degrees())


def test_node_dims_respect_cap():
    for i in range(10):
        inst = gen_cs_instance(GenProfile(seed=split_seed(601, i), max_dim_per_node=6),
                               verify=False)
        for family in inst.node_dims().values():
            assert all(d <= 6 for d in family.values())


@pytest.mark.parametrize("tag", BREAKABLE_HYPOTHESES)
def test_adversarial_breaks_exactly_named_hypothesis(tag):
    for i in range(4):
        prof = GenProfile(seed=split_seed(700, i), max_dim_per_node=6,
                          broken_hypothesis=tag)
        inst = gen_adversarial(prof)
        report = check_instance_hypotheses(inst)
        assert report.failed_categories() == (tag,), report.failures()[:5]


def test_adversarial_needs_wide_enough_range():
    with pytest.raises(ValueError):
        gen_adversarial(GenProfile(seed=1, degree_range=(0, 1), broken_hypothesis="row_exact"))


def test_search_finds_witnessed_counterexample():
    result = search_load_bearing(seed=7, budget=300)
    assert result.found
    assert result.proposition in ("P1", "P4")
    assert result.witness is not None
    report = check_instance_hypotheses(result.instance)
    assert report.failed_categories() == (result.broken,)
    verdict = conclusion_exactness(result.instance, result.proposition, result.degree)
    assert not verdict.exact


def test_search_reports_inconclusive_budget():
    # a pure centering shift never changes any matrix, so no conclusion
    # can break and the budget runs out
    result = search_load_bearing(seed=7, budget=4, tags=("P_centering",))
    assert not result.found
    assert result.tries == 4
    assert result.instance is None
