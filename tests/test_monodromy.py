import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csverify import linalg, monodromy
from csverify.filtration import (
    FilteredSpace,
    full_subspace,
    graded_complement,
    induced_on_subspace,
    tate_twist,
)
from csverify.generators import (
    GenProfile,
    gen_adversarial,
    gen_centered_mhs,
    gen_cs_instance,
    random_invertible,
    split_seed,
)
from csverify.linalg import (
    DimensionMismatchError,
    Matrix,
    canonicalize,
    hstack,
    image,
    inverse,
    jordan_chains,
    kernel,
    kernel_flag,
    maps_into,
    quotient_map,
    rank,
    span_of_vectors,
    transpose,
    vstack,
)
from csverify.monodromy import (
    AxiomVerdict,
    CenteredFiltration,
    NilpotencyError,
    NilpotentOp,
    centered_axioms,
    centered_filtration,
    centered_filtration_recursive,
    ker_coker_weight_bounds,
    monodromy_filtration,
    monodromy_filtration_recursive,
    nilpotency_index,
    verify_centered_axioms,
)
from csverify.verifier import check_instance_hypotheses

import corpus


def graded_dims(fs):
    """{jump weight w: dim W_w - dim of the step below}, read off the stored steps."""
    dims = [sub.dim for _, sub in fs.steps]
    return {w: d - prev for w, d, prev in zip(fs.jumps, dims, [0] + dims)}


def jordan_block(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    return Matrix.from_rows(rows, ncols=n)


def op_on_pure(matrix, dim, weight=0):
    return NilpotentOp(FilteredSpace.pure(dim, weight), matrix)


def test_non_nilpotent_rejected():
    with pytest.raises(NilpotencyError):
        nilpotency_index(Matrix.identity(2))
    with pytest.raises(NilpotencyError):
        op_on_pure(Matrix.identity(2), 2)


def test_zero_operator_concentrated():
    op = op_on_pure(Matrix.zero(3, 3), 3)
    for k in (-1, 0, 4):
        cf = monodromy_filtration(op, k)
        assert cf.filtration == FilteredSpace.pure(3, k)
        assert monodromy_filtration_recursive(op, k) == cf
        assert verify_centered_axioms(cf, op).ok


def test_jordan_two_center_one():
    op = op_on_pure(jordan_block(2), 2)
    cf = monodromy_filtration(op, 1)
    fs = cf.filtration
    # chain tail at weight 0, head at weight 2
    assert fs.jumps == (0, 2)
    assert fs.step(-1).dim == 0
    assert fs.step(0) == fs.step(1) == span_of_vectors([[1, 0]], 2)
    assert fs.step(2) == full_subspace(2)
    assert verify_centered_axioms(cf, op).ok


def test_jordan_21_center_zero():
    m = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    op = op_on_pure(m, 3)
    cf = monodromy_filtration(op, 0)
    assert graded_dims(cf.filtration) == {-1: 1, 0: 1, 1: 1}


def test_jordan_three_recursive():
    op = op_on_pure(jordan_block(3), 3)
    cf = monodromy_filtration_recursive(op, 0)
    assert graded_dims(cf.filtration) == {-2: 1, 0: 1, 2: 1}
    assert monodromy_filtration(op, 0) == cf


def test_axioms_fail_on_concentrated_with_nonzero_n():
    op = op_on_pure(jordan_block(2), 2)
    trivial = CenteredFiltration(1, FilteredSpace.pure(2, 1))
    verdict = verify_centered_axioms(trivial, op)
    assert not verdict.ok
    assert verdict.failed_axiom in ("shift", "graded_iso")


def _weights_minus_one_and_one():
    """Q^2 with W_{-1} = <e1> and W_1 everything."""
    return FilteredSpace(2, {-1: span_of_vectors([[1, 0]], 2), 1: full_subspace(2)})


@pytest.mark.parametrize("matrix, space, expected", [
    (Matrix.zero(2, 2), _weights_minus_one_and_one(), (False, "graded_iso", 1)),  # Gr_1 -> Gr_-1 has rank 0
    (Matrix.zero(1, 1), FilteredSpace.pure(1, 1), (False, "graded_iso", 1)),  # dim Gr_1 = 1, dim Gr_-1 = 0
    (jordan_block(2), FilteredSpace.pure(2, 0), (False, "shift", 0)),  # N.W_0 is not inside W_-2 = 0
    (jordan_block(2), _weights_minus_one_and_one(), (True, None, None)),
], ids=["zero-map-rank", "graded-dims-differ", "shift", "jordan-two"])
def test_axiom_verdicts_at_center_zero(matrix, space, expected):
    verdict = verify_centered_axioms(CenteredFiltration(0, space), op_on_pure(matrix, space.dim))
    assert (verdict.ok, verdict.failed_axiom, verdict.failed_index) == expected


def test_axioms_pass_on_200_random_nilpotents():
    rng = random.Random(8)
    for i in range(200):
        dim = rng.randint(0, 10)
        k = rng.randint(-3, 3)
        _, op = gen_centered_mhs(split_seed(51, i), dim, k)
        cf = monodromy_filtration(op, k)
        assert verify_centered_axioms(cf, op).ok


def test_uniqueness_cross_algorithm_and_duality():
    rng = random.Random(4)
    for i in range(120):
        dim = rng.randint(0, 10)
        k = rng.randint(-2, 2)
        _, op = gen_centered_mhs(split_seed(52, i), dim, rng.randint(-2, 2))
        chain = monodromy_filtration(op, k)
        recursive = monodromy_filtration_recursive(op, k)
        assert chain == recursive
        dims = graded_dims(chain.filtration)
        for w, d in dims.items():
            assert dims.get(2 * k - w, 0) == d  # centered duality


def test_recursive_section_independence():
    """Perturbed lifts give the canonical lift's filtration, which is the chain construction's, at
    every dimension 0-10 and centre -3..3; the perturbation is drawn for some operators."""
    rng = random.Random(10)
    drawn = 0
    for i in range(88):
        dim, k = i % 11, rng.randint(-3, 3)
        _, op = gen_centered_mhs(split_seed(53, i), dim, rng.randint(-3, 3))
        chain = monodromy_filtration(op, k)
        assert monodromy_filtration_recursive(op, k) == chain
        for seed in (i, i + 1000):
            section_rng = random.Random(seed)
            assert monodromy_filtration_recursive(op, k, section_rng=section_rng) == chain
            drawn += section_rng.getstate() != random.Random(seed).getstate()
    assert drawn


def test_conjugation_equivariance():
    rng = random.Random(14)
    for i in range(30):
        dim = rng.randint(1, 8)
        _, op = gen_centered_mhs(split_seed(54, i), dim, 1)
        t = random_invertible(rng, dim)
        conj = t @ op.matrix @ inverse(t)
        f1 = centered_filtration(op.matrix, 1)
        f2 = centered_filtration(conj, 1)
        moved = FilteredSpace(dim, {w: image(t, sub) for w, sub in f1.steps})
        assert f2 == moved


def test_weak_weight_compatibility_enforced():
    # N must not raise stored weights by more than two
    space = FilteredSpace(2, {0: span_of_vectors([[1, 0]], 2), 5: full_subspace(2)})
    raising = Matrix.from_rows([[0, 0], [1, 0]])  # sends weight-0 e1 to weight-5 e2
    with pytest.raises(NilpotencyError):
        NilpotentOp(space, raising)


def test_bounds_zero_operator_pure():
    op = NilpotentOp(FilteredSpace.pure(2, 3), Matrix.zero(2, 2))
    assert ker_coker_weight_bounds(op, 3).ok


def test_bounds_jordan_two():
    for k in (-1, 0, 2):
        fs = centered_filtration(jordan_block(2), k)
        op = NilpotentOp(fs, jordan_block(2))
        verdict = ker_coker_weight_bounds(op, k)
        assert verdict.ok
        # twisted target is pure k+3 above the image: bound >= k+2 holds strictly
        coker_top = tate_twist(fs, -1).jumps[-1]
        assert coker_top == k + 3


def test_bounds_hypothesis_gate_is_distinct():
    op = NilpotentOp(FilteredSpace.pure(2, 0), jordan_block(2))
    verdict = ker_coker_weight_bounds(op, 0)
    assert verdict.status == "hypothesis_not_satisfied"
    assert not verdict.ok


def test_bounds_sweep():
    rng = random.Random(31)
    for i in range(120):
        dim = rng.randint(0, 10)
        k = rng.randint(-3, 3)
        _, op = gen_centered_mhs(split_seed(55, i), dim, k)
        assert ker_coker_weight_bounds(op, k).ok


# -- kernel flag against dense powers ------------------------------------

def ref_kernel_flag(m):
    """kernel(N^j) for j = 0, 1, ... from dense powers of N."""
    flag, power = [], Matrix.identity(m.nrows)
    for _ in range(m.nrows + 1):
        flag.append(kernel(power))
        if power.is_zero():
            return tuple(flag)
        power = power @ m
    raise NilpotencyError("no power up to the dimension vanishes")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10), st.integers(-3, 3))
@example(0, 0, 0)  # the 0x0 operator
def test_kernel_flag_matches_dense_powers(seed, dim, k):
    _, op = gen_centered_mhs(seed, dim, k)
    want = ref_kernel_flag(op.matrix)
    assert kernel_flag(op.matrix) == want
    assert op.index == nilpotency_index(op.matrix) == len(want) - 1
    # each chain (v, Nv, ..., N^(m-1)v) has N^m v = 0 and head in ker N^m outside ker N^(m-1);
    # together the chains are a basis
    step = transpose(op.matrix)
    vectors = []
    for chain in jordan_chains(op.matrix):
        rows = Matrix.of(chain, dim)
        assert (Matrix.of(chain[-1:], dim) @ step).is_zero()
        if len(chain) > 1:
            assert Matrix.of(chain[:-1], dim) @ step == Matrix.of(chain[1:], dim)
        head = Matrix.of(chain[:1], dim).rows[0]
        line = span_of_vectors([head], dim)
        assert want[len(chain)].contains(line) and not want[len(chain) - 1].contains(line)
        vectors += rows.rows
    assert len(vectors) == dim and span_of_vectors(vectors, dim).dim == dim


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 6), st.integers(1, 4))
def test_kernel_flag_rejects_non_nilpotent(seed, nil_dim, unit_dim):
    """T (J + U) T^-1 with J nilpotent and U invertible: the rank stops
    falling at dim U, after up to nil_dim steps."""
    rng = random.Random(seed)
    j = gen_centered_mhs(rng, nil_dim, 0)[1].matrix
    u = random_invertible(rng, unit_dim)
    block = vstack(hstack(j, Matrix.zero(nil_dim, unit_dim)),
                   hstack(Matrix.zero(unit_dim, nil_dim), u))
    t = random_invertible(rng, nil_dim + unit_dim)
    m = t @ block @ inverse(t)
    with pytest.raises(NilpotencyError):
        ref_kernel_flag(m)
    with pytest.raises(NilpotencyError, match="matrix is not nilpotent"):
        nilpotency_index(m)
    with pytest.raises(NilpotencyError, match="matrix is not nilpotent"):
        NilpotentOp(FilteredSpace.pure(nil_dim + unit_dim, 0), m)
    with pytest.raises(NilpotencyError, match="matrix is not nilpotent"):
        centered_filtration(m, 0)
    # the flag itself stops where the kernel stops growing, at the generalized kernel t(Q^nil_dim)
    flag, power = kernel_flag(m), Matrix.identity(nil_dim + unit_dim)
    for step in flag:
        assert step == kernel(power)
        power = power @ m
    assert kernel(power) == flag[-1] == image(t, span_of_vectors(
        Matrix.identity(nil_dim + unit_dim).rows[:nil_dim], nil_dim + unit_dim))


def test_one_derivation_per_operator():
    """Every construction reads the kernel flag and the centre-0 steps kept on the matrix:
    across all of them, each is built once for N, and the flag's step ker N is
    kernel(N).  Builds are counted as the memo helper stores them on the matrix; a non-square
    matrix has no flag, so each call raises and none is stored."""
    built = Counter()

    class CountingMemo(dict):
        def __setitem__(self, slot, value):
            built[slot] += 1
            super().__setitem__(slot, value)

    space, op = gen_centered_mhs(split_seed(57, 2), 8, 1)  # Jordan type 3, 2, 2, 1
    n = Matrix.of(op.matrix.irows, 8)  # a copy with no memos yet
    n.__dict__ = CountingMemo(n.__dict__)
    assert kernel_flag(n)[1] is kernel(n)
    fresh = NilpotentOp(space, n)
    assert fresh.index == 3
    assert monodromy_filtration(fresh, 1).filtration == centered_filtration(n, 1) == space
    assert monodromy_filtration(fresh, -2).filtration == centered_filtration_recursive(n, -2)
    assert ker_coker_weight_bounds(fresh, 1).ok
    assert centered_filtration_recursive(n, 1) == space
    assert {slot: built[slot] for slot in ("_kernel_flag", "_centered_steps")} == {
        "_kernel_flag": 1, "_centered_steps": 1}
    assert set(built.values()) == {1}  # nor is any other memo built twice

    built.clear()
    wide = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
    wide.__dict__ = CountingMemo(wide.__dict__)
    for _ in range(3):
        with pytest.raises(DimensionMismatchError):
            kernel_flag(wide)
    assert not built


# -- chain filtrations against the from-scratch construction ---------------

def ref_chain_filtration(chains, dim, k):
    """Each step W_w eliminated from scratch: all the chain vectors of weight <= w at once."""
    weighted = []  # (weight, vector)
    for chain in chains:
        m = len(chain)
        for pos, vec in enumerate(chain):
            weighted.append((k + m - 1 - 2 * pos, vec))
    steps = {}
    for w in sorted({w for w, _ in weighted}):
        rows = tuple(vec for wt, vec in weighted if wt <= w)
        steps[w] = canonicalize(Matrix.of(rows, dim))
    return FilteredSpace(dim, steps)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10), st.integers(-3, 3))
@example(0, 0, 0)  # the 0x0 operator
def test_chain_filtration_matches_the_from_scratch_reference(seed, dim, k):
    _, op = gen_centered_mhs(seed, dim, k)
    chains = jordan_chains(op.matrix)
    want = ref_chain_filtration(chains, dim, k)
    assert want == op.space
    for center in range(-3, 4):
        assert centered_filtration(op.matrix, center) == ref_chain_filtration(chains, dim, center)


# -- the axiom check against canonical images and dense powers ---------------

def ref_verify_centered_axioms(f, n):
    """The axiom check that reduces each image N(M_w) and forms the powers N^i."""
    space, k = f.filtration, f.center
    for w in space.jumps:
        if not space.step(w - 2).contains(image(n.matrix, space.step(w))):
            return AxiomVerdict(False, failed_axiom="shift", failed_index=w)
    spread = max((abs(w - k) for w in space.jumps), default=0)
    power = n.matrix
    for i in range(1, spread + 1):
        up = graded_complement(space, k + i)
        below = space.step(k - i - 1)
        if up.nrows != space.step(k - i).dim - below.dim:
            return AxiomVerdict(False, failed_axiom="graded_iso", failed_index=i)
        if up.nrows and rank(quotient_map(below) @ power @ transpose(up)) != up.nrows:
            return AxiomVerdict(False, failed_axiom="graded_iso", failed_index=i)
        power = power @ n.matrix
    return AxiomVerdict(True)


def moved_step(space, pos):
    """space with one jump moved to another weight strictly between its neighbours (an end
    jump may move by up to two), the choice indexed by pos."""
    jumps = space.jumps
    moves = []
    for j, w in enumerate(jumps):
        lo = jumps[j - 1] + 1 if j else w - 2
        hi = jumps[j + 1] - 1 if j + 1 < len(jumps) else w + 2
        moves += [(w, x) for x in range(lo, hi + 1) if x != w]
    old, new = moves[pos % len(moves)]
    return FilteredSpace(space.dim, {new if w == old else w: sub for w, sub in space.steps})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10), st.integers(-3, 3),
       st.sampled_from(["true", "centre", "moved", "squared"]), st.integers(-2, 2), st.integers(0, 99))
@example(0, 0, 0, "true", 0, 0)  # the 0x0 operator
@example(5, 4, 0, "moved", 0, 0)
@example(5, 4, 0, "moved", 0, 3)
@example(5, 6, 1, "centre", 1, 0)
@example(7, 8, -1, "centre", -2, 0)
@example(5, 6, 0, "squared", 0, 0)
def test_axioms_match_the_dense_power_reference(seed, dim, k, kind, offset, pos):
    """On true centered filtrations, on a wrong centre, on a moved step and against N^2 (which
    keeps the shift axiom but kills Gr_{k+1} modulo W_{k-2}): the same verdict, failed axiom and
    failed index as the check with canonical images and powers of N."""
    space, op = gen_centered_mhs(seed, dim, k)
    centre = k + offset if kind == "centre" else k
    if kind == "moved" and dim:
        space = moved_step(space, pos)
    if kind == "squared":
        op = NilpotentOp(space, op.matrix @ op.matrix)
    cf = CenteredFiltration(centre, space)
    got, want = verify_centered_axioms(cf, op), ref_verify_centered_axioms(cf, op)
    assert (got.ok, got.failed_axiom, got.failed_index) == (want.ok, want.failed_axiom, want.failed_index)
    if kind == "true":
        assert got.ok


def test_the_perturbations_reach_both_axioms():
    """The true filtrations pass, and the moved steps, wrong centres and squared operators of the
    differential test fail each axiom somewhere."""
    outcomes = Counter()
    for i in range(30):
        space, op = gen_centered_mhs(split_seed(59, i), 3 + i % 8, 0)
        squared = NilpotentOp(space, op.matrix @ op.matrix)
        for cf, n in ((CenteredFiltration(0, space), op), (CenteredFiltration(1, space), op),
                      (CenteredFiltration(0, moved_step(space, i)), op), (CenteredFiltration(0, space), squared)):
            got, want = verify_centered_axioms(cf, n), ref_verify_centered_axioms(cf, n)
            assert got == want
            outcomes[got.failed_axiom, n is squared] += 1
    # N^2 fails only on rank, since the dimensions of the graded pieces are those of N's filtration
    assert outcomes["shift", False] and outcomes["graded_iso", False] and outcomes[None, False]
    assert outcomes["graded_iso", True] and not outcomes["shift", True]


def test_fast_paths_match_the_oracles_on_generated_instances():
    """On the P nodes of generated CS instances, clean and with P_centering broken (one node's
    filtration centred a weight too high): ``maps_into`` between any two steps agrees with
    containment of the reduced image, and the axiom check with the dense-power reference and
    with uniqueness (the axioms hold iff the stored filtration is the one built from N)."""
    seen = Counter()
    for seed in range(1, 13):
        for inst in (gen_cs_instance(GenProfile(seed=seed)),
                     gen_adversarial(GenProfile(seed=seed, broken_hypothesis="P_centering"))):
            for k, space in inst.P.items():
                n = inst.map("N", k)
                steps = [space.step(w) for w in space.jumps]
                for s in steps:
                    for t in steps:
                        assert maps_into(n, s, t) == t.contains(image(n, s))
                cf, op = CenteredFiltration(k, space), NilpotentOp(space, n)
                got = verify_centered_axioms(cf, op)
                assert got == ref_verify_centered_axioms(cf, op)
                assert got.ok == (centered_filtration(n, k) == space)
                seen[got.ok] += 1
    assert seen[True] and seen[False]


def test_uniqueness_three_deciders_agree_on_every_stored_p():
    """Uniqueness of the monodromy filtration as a test: on every stored P_k of clean and
    P_centering-tampered instances (seeds 1-40, --max-dim 6 and 10), the axioms hold on the stored
    filtration iff it equals ``centered_filtration`` iff the report's P_centering verdict passes."""
    outcomes = Counter()
    for seed, max_dim, broken, inst in corpus.generated():
        if broken not in (None, "P_centering"):
            continue
        report = check_instance_hypotheses(inst)
        for k, space in inst.P.items():
            n = inst.map("N", k)
            axioms = verify_centered_axioms(CenteredFiltration(k, space), NilpotentOp(space, n))
            deciders = (axioms.ok, centered_filtration(n, k) == space, report.verdicts["P_centering"][k])
            assert len(set(deciders)) == 1, (seed, max_dim, broken, k, deciders)
            outcomes[axioms.failed_axiom] += 1
    # the tampered nodes fail: P_k centred one weight too high keeps the shift axiom
    assert outcomes[None] and outcomes["graded_iso"] and not outcomes["shift"]


def ref_p_centering(space, k, n):
    """The P_centering verdict as the filtration it names, built: N's centered filtration at k
    equals the stored one, and a non-nilpotent N fails."""
    try:
        return centered_filtration(n, k) == space
    except NilpotencyError:
        return False


def test_p_centering_by_axioms_matches_the_built_filtration():
    """The verifier decides P_centering by the two axioms alone, which uniqueness allows.  Against
    the built filtration: every degree of the shared corpus (seeds 1-40, max dim 6 and 10, clean
    and each break); ``gen_centered_mhs`` draws tested at their centre k and at k - 1 and k + 1;
    and non-nilpotent operators on those draws (the identity, N + 1, a coordinate projection),
    which the shift axiom alone refuses."""
    outcomes = Counter()
    for _, _, _, inst in corpus.generated():
        verdicts = check_instance_hypotheses(inst).verdicts["P_centering"]
        for k in range(inst.k_min, inst.k_max + 1):
            space, n = inst.space("P", k), inst.map("N", k)
            assert verdicts[k] == centered_axioms(space, k, n).ok == ref_p_centering(space, k, n), k
            outcomes["corpus", verdicts[k]] += 1
    for i in range(80):
        centre = i % 7 - 3
        space, op = gen_centered_mhs(split_seed(97, i), i % 11, centre)
        for k in (centre - 1, centre, centre + 1):
            got = centered_axioms(space, k, op.matrix)
            assert got.ok == ref_p_centering(space, k, op.matrix), (i, k)
            outcomes["draw", got.ok] += 1
        if not space.dim:
            continue
        one = Matrix.identity(space.dim)
        projection = Matrix.of((one.irows[0],) + Matrix.zero(space.dim - 1, space.dim).irows, space.dim)
        for other in (one, op.matrix + one, projection):
            got = centered_axioms(space, centre, other)
            assert (got.ok, got.failed_axiom) == (False, "shift") and not ref_p_centering(space, centre, other)
            outcomes["not nilpotent"] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 5, outcomes


def test_a_shift_failure_is_not_the_centered_filtration():
    """Q^2 with W_0 = <e1>, W_2 = Q^2 and N e1 = e2, centred at 1: N.W_0 = <e2> is not in W_-2 = 0,
    and N's own filtration centred at 1 puts the chain's tail e2, not e1, at weight 0."""
    space = FilteredSpace(2, {0: span_of_vectors([[1, 0]], 2), 2: full_subspace(2)})
    n = Matrix.from_rows([[0, 0], [1, 0]])
    verdict = verify_centered_axioms(CenteredFiltration(1, space), NilpotentOp(space, n))
    assert (verdict.ok, verdict.failed_axiom, verdict.failed_index) == (False, "shift", 0)
    assert centered_filtration(n, 1) == FilteredSpace(2, {0: span_of_vectors([[0, 1]], 2), 2: full_subspace(2)})
    assert centered_filtration(n, 1) != space


# -- eliminations per derived object -----------------------------------------

def test_eliminations_per_kernel_flag_and_axiom_check(monkeypatch):
    """Counted on fresh matrices: a kernel takes one rref, a kernel flag one per level above
    ker N plus one for ker N, and the axiom check none for the shift axiom, which runs before
    the first graded piece is taken.  The filtration a subspace inherits takes one rref per step."""
    calls, graded_at = [], []
    real_rref, real_graded = linalg.rref, monodromy.graded_complement
    monkeypatch.setattr(linalg, "rref", lambda m, *args, **kwargs: calls.append(m) or real_rref(m, *args, **kwargs))
    monkeypatch.setattr(monodromy, "graded_complement",
                        lambda v, i: graded_at.append(len(calls)) or real_graded(v, i))

    def fresh(m):
        return Matrix.of(m.irows, m.ncols)

    for m in (Matrix.from_rows([[1, 2, 3], [2, 4, 6]]), Matrix.identity(3), Matrix.zero(2, 4)):
        calls.clear()
        kernel(fresh(m))
        assert len(calls) == 1
    calls.clear()
    assert len(kernel_flag(fresh(Matrix.identity(3)))) == 1 and len(calls) == 1  # ker N = ker N^0
    for i in range(20):
        space, op = gen_centered_mhs(split_seed(58, i), 1 + i % 10, 0)
        calls.clear()
        flag = kernel_flag(fresh(op.matrix))
        assert len(calls) == len(flag) - 1 == op.index
        fresh_op = NilpotentOp(space, fresh(op.matrix))
        concentrated = FilteredSpace.pure(space.dim, 0)  # fails the shift axiom unless N = 0
        for cf, ok in ((CenteredFiltration(0, space), True),
                       (CenteredFiltration(0, concentrated), op.matrix.is_zero())):
            calls.clear()
            graded_at.clear()
            assert verify_centered_axioms(cf, fresh_op).ok is ok
            assert (graded_at or [len(calls)])[0] == 0
        for sub in (flag[1], flag[-1], linalg.zero_subspace(space.dim)):  # ker N, the whole space, zero
            calls.clear()
            induced_on_subspace(space, sub)
            assert len(calls) == len(space.steps)


# -- centered filtrations are shifted, not re-checked -------------------------

def test_centered_filtration_equals_validated_filtration_and_builds_none(monkeypatch):
    """Against FilteredSpace built from the same centre-0 steps, and the recursion; no centre, the
    first on a fresh matrix included, constructs a validated FilteredSpace."""
    built = []
    real_init = FilteredSpace.__init__
    monkeypatch.setattr(FilteredSpace, "__init__",
                        lambda self, dim, steps: built.append(dim) or real_init(self, dim, steps))
    for i in range(40):
        _, op = gen_centered_mhs(split_seed(83, i), i % 11, 0)
        matrix = Matrix.of(op.matrix.irows, op.matrix.ncols)  # no memo yet
        for k in range(-3, 4):
            built.clear()
            got = centered_filtration(matrix, k)
            assert not built
            want = FilteredSpace(matrix.nrows, {w + k: sub for w, sub in linalg.centered_steps(matrix)})
            assert got == want and got.steps == want.steps
            assert got == centered_filtration_recursive(matrix, k)
