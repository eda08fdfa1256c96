import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csverify import generators, linalg
from csverify.filtration import FilteredSpace, graded_complement
from csverify.generators import (
    MAX_GEN_CELLS,
    MAX_GEN_DIM,
    MAX_GEN_WIDTH,
    GenProfile,
    _jordan_pair,
    _rand_q,
    gen_adversarial,
    gen_centered_mhs,
    gen_cs_instance,
    random_filtered_automorphism,
    random_invertible,
    split_seed,
)
from csverify.linalg import Matrix, extend_basis, image, inverse, span_of_vectors, transpose, vstack
from csverify.monodromy import monodromy_filtration, verify_centered_axioms
from csverify.serialize import dumps, instance_to_json
from csverify.verifier import (
    BREAKABLE_HYPOTHESES,
    check_instance_hypotheses,
    conclusion_exactness,
)
import load_bearing
from corpus import failed_categories
from load_bearing import search_load_bearing


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


def test_generation_checks_nothing(monkeypatch):
    """Generation builds and ``verifier.checked`` checks: drawing a clean or tampered instance derives
    no Jordan chains and wraps no P_k in a NilpotentOp, whose constructor checks it."""
    monkeypatch.setattr(linalg, "jordan_chains", lambda f: pytest.fail("Jordan chains derived"))
    monkeypatch.setattr(generators, "NilpotentOp", lambda *args: pytest.fail("NilpotentOp built"))
    for seed in range(1, 4):
        gen_cs_instance(GenProfile(seed=seed, max_dim_per_node=10))
        for tag in BREAKABLE_HYPOTHESES:
            gen_adversarial(GenProfile(seed=seed, max_dim_per_node=10, broken_hypothesis=tag))


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
        inst = gen_cs_instance(prof)
        report = check_instance_hypotheses(inst)
        assert report.clean, (i, report.failures()[:3])
        assert all(inst.space("A", k).dim <= 10 for k in inst.degrees())


def test_node_dims_respect_cap():
    for i in range(10):
        inst = gen_cs_instance(GenProfile(seed=split_seed(601, i), max_dim_per_node=6))
        for family in inst.node_dims().values():
            assert all(d <= 6 for d in family.values())


@pytest.mark.parametrize("tag", BREAKABLE_HYPOTHESES)
def test_adversarial_breaks_exactly_named_hypothesis(tag):
    for i in range(4):
        prof = GenProfile(seed=split_seed(700, i), max_dim_per_node=6,
                          broken_hypothesis=tag)
        inst = gen_adversarial(prof)
        report = check_instance_hypotheses(inst)
        assert failed_categories(report) == (tag,), report.failures()[:5]


def test_adversarial_needs_wide_enough_range():
    """The profile itself refuses a tamper that its degree range is too narrow for."""
    for tag in ("A_bound", "row_exact", "P_centering"):
        with pytest.raises(ValueError, match=f"^degree range too narrow to break {tag}$"):
            GenProfile(seed=1, degree_range=(0, 1), broken_hypothesis=tag)
        assert gen_adversarial(GenProfile(seed=1, degree_range=(0, 2), broken_hypothesis=tag)).k_max == 2
    for tag in ("column_exact", "B_bound", "strictness"):
        assert gen_adversarial(GenProfile(seed=1, degree_range=(0, 0), broken_hypothesis=tag)).k_max == 0


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be >= 0"),
    ({"seed": 1, "max_dim_per_node": -1}, "max_dim_per_node must be >= 0"),
    ({"seed": 1, "max_dim_per_node": MAX_GEN_DIM + 1}, f"max_dim_per_node must be <= {MAX_GEN_DIM}"),
    ({"seed": 1, "degree_range": (3, 2)}, "empty degree range"),
    ({"seed": 1, "degree_range": (-5, MAX_GEN_WIDTH - 4)}, f"degree range wider than {MAX_GEN_WIDTH}"),
    ({"seed": 1, "max_dim_per_node": 16, "degree_range": (0, 80)},
     f"max_dim_per_node squared times the number of degrees exceeds {MAX_GEN_CELLS}"),
    ({"seed": 1, "broken_hypothesis": "a_bound"}, "unknown hypothesis tag 'a_bound'"),
], ids=["seed", "max-dim-negative", "max-dim-cap", "range-empty", "range-cap", "joint-cap", "tag"])
def test_profile_refusals_keep_their_messages(kwargs, message):
    with pytest.raises(ValueError) as refused:
        GenProfile(**kwargs)
    assert str(refused.value) == message


def test_profile_accepts_the_dimension_cap():
    """--max-dim at its cap is accepted at the default range; nothing is drawn at it."""
    profile = GenProfile(seed=1, max_dim_per_node=MAX_GEN_DIM)
    assert (profile.max_dim_per_node, profile.degree_range) == (MAX_GEN_DIM, (0, 4))


def test_profile_accepts_the_width_cap():
    """A range at the width cap is accepted at the default --max-dim."""
    profile = GenProfile(seed=1, degree_range=(-5, MAX_GEN_WIDTH - 5))
    assert (profile.max_dim_per_node, profile.degree_range) == (6, (-5, MAX_GEN_WIDTH - 5))


def test_profile_bounds_the_two_sizes_together():
    """max_dim^2 * (b - a + 1) at MAX_GEN_CELLS is accepted (one degree more is the refusal table's
    joint-cap row), and past it the joint bound refuses, both single caps at once included."""
    assert MAX_GEN_CELLS == MAX_GEN_DIM ** 2 * 5 == 16 ** 2 * 80
    assert GenProfile(seed=1, max_dim_per_node=16, degree_range=(0, 79)).degree_range == (0, 79)
    for dims, degrees in ((MAX_GEN_DIM, (0, 5)), (MAX_GEN_DIM, (0, MAX_GEN_WIDTH))):
        with pytest.raises(ValueError, match="^max_dim_per_node squared times the number of degrees"):
            GenProfile(seed=1, max_dim_per_node=dims, degree_range=degrees)


def test_search_finds_witnessed_counterexample():
    result = search_load_bearing(seed=7)
    assert result.found
    assert result.proposition in ("P1", "P4")
    assert (result.broken, result.proposition, result.degree, result.tries) == ("A_bound", "P4", 2, 1)
    assert result.witness is not None
    report = check_instance_hypotheses(result.instance)
    assert failed_categories(report) == (result.broken,)
    verdict = conclusion_exactness(result.instance, result.proposition, result.degree)
    assert not verdict.exact


def test_search_reports_inconclusive_budget(monkeypatch):
    # a pure centering shift never changes any matrix, so no conclusion
    # can break and the budget runs out
    monkeypatch.setattr(load_bearing, "SEARCH_TAGS", ("P_centering",))
    monkeypatch.setattr(load_bearing, "SEARCH_BUDGET", 4)
    result = search_load_bearing(seed=7)
    assert not result.found
    assert result.tries == 4
    assert result.instance is None


def ref_jordan_filtration(t, sizes, center):
    """The Jordan-form weights written out: coordinate j of a block of size s
    has weight center - s + 1 + 2j, and each step is t applied to the span
    of the coordinates of weight at most w."""
    dim = t.nrows
    weights = [center - s + 1 + 2 * j for s in sizes for j in range(s)]
    steps = {}
    for w in sorted(set(weights)):
        rows = [[1 if i == idx else 0 for i in range(dim)] for idx, wt in enumerate(weights) if wt <= w]
        steps[w] = image(t, span_of_vectors(rows, dim))
    return FilteredSpace(dim, steps)


def jordan_types(n, largest=None):
    """Partitions of n, largest block first."""
    if n == 0:
        yield ()
    for first in range(min(n, largest or n), 0, -1):
        for rest in jordan_types(n - first, first):
            yield (first,) + rest


def test_jordan_pair_matches_reference_weights():
    """Every Jordan type of dim 1..7 at centers -2..2; _jordan_pair draws
    its change of basis t first, so a twin stream reproduces t."""
    seed = 0
    for dim in range(1, 8):
        for sizes in jordan_types(dim):
            for center in range(-2, 3):
                seed += 1
                t = random_invertible(random.Random(seed), dim)
                space, _ = _jordan_pair(random.Random(seed), sizes, center)
                assert space == ref_jordan_filtration(t, sizes, center), (sizes, center)


@st.composite
def filtered_spaces(draw):
    """Q^d, d <= 6, with steps spanned by small integer vectors, each drawn with a weight."""
    dim = draw(st.integers(0, 6))
    vectors = draw(st.lists(st.tuples(st.integers(-2, 3), st.lists(st.integers(-2, 2), min_size=dim,
                                                                    max_size=dim)), max_size=dim))
    steps = {w: span_of_vectors([v for wt, v in vectors if wt <= w], dim) for w, _ in vectors}
    steps[4] = span_of_vectors([[int(i == j) for j in range(dim)] for i in range(dim)], dim)
    return FilteredSpace(dim, steps)


def ref_random_filtered_automorphism(rng, fs):
    """The automorphism as s.b.s^-1 always, s the adapted basis even where it is the identity."""
    d = fs.dim
    if d == 0:
        return Matrix.identity(0), Matrix.identity(0)
    adapted, diagonal, block_of = [], [], []
    for bi, w in enumerate(fs.jumps):
        adapted.append(extend_basis(fs.step(w - 1), fs.step(w).basis))
        start, size = len(block_of), adapted[-1].nrows
        block_of += [bi] * size
        for r in random_invertible(rng, size).rows:
            diagonal.append([0] * start + list(r) + [0] * (d - start - size))
    upper = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if block_of[j] > block_of[i] and rng.random() < 0.5:
                num, den = _rand_q(rng)
                upper[i][j] = Fraction(num, den)
    b = Matrix.from_rows(diagonal) + Matrix.from_rows(upper)
    s = transpose(Matrix.from_rows([r for m in adapted for r in m.rows], ncols=d))
    s_inv = inverse(s)
    return s @ b @ s_inv, s @ inverse(b) @ s_inv


@st.composite
def coordinate_spaces(draw):
    """Q^d, d <= 6, each step spanned by the coordinate vectors of weight at most its own; with
    the weights ascending the adapted basis is the identity."""
    dim = draw(st.integers(0, 6))
    weights = draw(st.lists(st.integers(-2, 3), min_size=dim, max_size=dim))
    if draw(st.booleans()):
        weights.sort()
    unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return FilteredSpace(dim, {w: span_of_vectors([unit[i] for i in range(dim) if weights[i] <= w], dim)
                               for w in weights})


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.builds(FilteredSpace.pure, st.integers(0, 6), st.integers(-3, 3)),
                 coordinate_spaces(), filtered_spaces()),
       st.integers(0, 2**32))
def test_random_filtered_automorphism_preserves_every_step(fs, seed):
    """On pure, coordinate-step and general spaces, and equal to the always-conjugating
    reference from the same random stream, which it leaves in the same state."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    t, t_inv = random_filtered_automorphism(rng, fs)
    assert (t, t_inv) == ref_random_filtered_automorphism(ref_rng, fs)
    assert rng.getstate() == ref_rng.getstate()
    assert (t.nrows, t.ncols) == (fs.dim, fs.dim)
    for _, step in fs.steps:
        assert image(t, step) == step
    assert t_inv == inverse(t)
    assert t @ t_inv == Matrix.identity(fs.dim)
    for w in fs.jumps:
        assert graded_complement(fs, w).nrows == fs.step(w).dim - fs.step(w - 1).dim


def test_automorphism_of_pure_space_neither_inverts_nor_multiplies_by_basis(monkeypatch):
    """On a pure space s is the identity: the one inverse taken is of b = t, and the one
    product is the L.U of b's single diagonal block."""
    inverted, products = [], []
    real_inverse, real_matmul = generators.inverse, Matrix.__matmul__
    monkeypatch.setattr(generators, "inverse", lambda a: inverted.append(a) or real_inverse(a))
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(None) or real_matmul(a, b))
    for dim in range(1, 8):
        for seed in range(4):
            inverted.clear()
            products.clear()
            t, _ = random_filtered_automorphism(random.Random(seed), FilteredSpace.pure(dim, seed - 2))
            assert inverted == [t] and len(products) == 1


def test_automorphism_inverts_only_the_basis_and_t_and_sums_nothing(monkeypatch):
    """Where the adapted basis s is not the identity, b is drawn as one table of entries with no
    matrix sum, and the inverses taken are of s and of t alone, never of b."""
    spaces = [gen_centered_mhs(split_seed(77, i), 2 + i % 6, 0)[0] for i in range(20)]
    bases = [transpose(reduce(vstack, [graded_complement(fs, w) for w in fs.jumps])) for fs in spaces]
    inverted = []
    real_inverse = generators.inverse
    monkeypatch.setattr(generators, "inverse", lambda a: inverted.append(a) or real_inverse(a))
    monkeypatch.setattr(Matrix, "__add__", lambda a, b: pytest.fail("matrix sum"))
    checked = 0
    for i, (fs, s) in enumerate(zip(spaces, bases)):
        if s != Matrix.identity(fs.dim):
            inverted.clear()
            t, _ = random_filtered_automorphism(random.Random(i), fs)
            assert inverted == [s, t]
            checked += 1
    assert checked >= 10
