import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csverify.filtration import (
    ExactnessVerdict,
    FiltrationError,
    FilteredMap,
    FilteredSpace,
    StrictnessVerdict,
    WeightCompatibilityError,
    direct_sum,
    exactness_at,
    graded_complement,
    induced_on_quotient,
    induced_on_subspace,
    shifted,
    strictness,
    tate_twist,
    weights_geq,
    weights_leq,
)
from csverify.generators import GenProfile, gen_adversarial, gen_cs_instance, random_invertible
from csverify.linalg import (
    DimensionMismatchError,
    Matrix,
    canonicalize,
    coords_map,
    extend_basis,
    full_subspace,
    hstack,
    image,
    inverse,
    kernel,
    product_is_zero,
    quotient_map,
    span_of_vectors,
    transpose,
    zero_subspace,
)
from csverify.verifier import CONCLUSIONS, SEQUENCES, _instance_maps

import corpus
from test_linalg_oracle import ref_contains_vector


def two_step():
    # W_0 = <e1> inside Q^2, W_2 = everything
    return FilteredSpace(2, {0: span_of_vectors([[1, 0]], 2), 2: full_subspace(2)})


def graded_dims(fs):
    """{jump weight w: dim W_w - dim of the step below}, read off the stored steps."""
    dims = [sub.dim for _, sub in fs.steps]
    return {w: d - prev for w, d, prev in zip(fs.jumps, dims, [0] + dims)}


def column(*entries):
    return Matrix.from_rows([[x] for x in entries], ncols=1)


# -- FilteredSpace construction ------------------------------------------

def test_normalization_drops_non_jumps():
    fs = FilteredSpace(2, {-5: span_of_vectors([], 2),
                           0: span_of_vectors([[1, 0]], 2),
                           1: span_of_vectors([[1, 0]], 2),
                           2: full_subspace(2)})
    assert fs.jumps == (0, 2)
    assert fs == two_step()


def test_non_nested_rejected():
    with pytest.raises(FiltrationError):
        FilteredSpace(2, {0: span_of_vectors([[1, 0]], 2), 1: span_of_vectors([[0, 1]], 2)})


def test_non_exhaustive_rejected():
    with pytest.raises(FiltrationError):
        FilteredSpace(2, {0: span_of_vectors([[1, 0]], 2)})


def test_zero_space():
    z = FilteredSpace.zero()
    assert z.dim == 0 and z.jumps == ()
    assert weights_leq(z, -100) and weights_geq(z, 100)


# -- graded pieces --------------------------------------------------------

def test_graded_pure():
    assert graded_dims(FilteredSpace.pure(4, 3)) == {3: 4}


def test_graded_two_step():
    fs = two_step()
    assert [graded_dims(fs).get(i, 0) for i in (0, 1, 2)] == [1, 0, 1]


def test_graded_dims_sum_random():
    # dimension-count oracle on a 5-dim space with jumps at -1, 0, 3
    rng = random.Random(12)
    for _ in range(20):
        basis = None
        while basis is None or basis.dim < 5:
            basis = span_of_vectors([[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)], 5)
        rows = basis.basis.rows
        fs = FilteredSpace(5, {-1: span_of_vectors(rows[:2], 5),
                               0: span_of_vectors(rows[:3], 5),
                               3: full_subspace(5)})
        assert graded_dims(fs) == {-1: 2, 0: 1, 3: 2}
        assert {w: graded_complement(fs, w).nrows for w in range(-2, 5)} == {
            w: graded_dims(fs).get(w, 0) for w in range(-2, 5)}


# -- Tate twists -----------------------------------------------------------

def test_twist_examples():
    assert tate_twist(FilteredSpace.pure(1, 0), -1) == FilteredSpace.pure(1, 2)
    v = two_step()
    assert tate_twist(tate_twist(v, -1), 1) == v
    assert tate_twist(v, -1).jumps == (2, 4)


def test_twist_preserves_graded_dims():
    v = two_step()
    tw = tate_twist(v, -2)
    assert graded_dims(tw) == {w + 4: d for w, d in graded_dims(v).items()}


# -- weight predicates -----------------------------------------------------

def test_weight_predicates():
    p = FilteredSpace.pure(2, 5)
    assert weights_leq(p, 5) and weights_geq(p, 5)
    assert not weights_leq(p, 4) and not weights_geq(p, 6)
    v = two_step()
    assert not weights_leq(v, 1)
    assert weights_leq(v, 2)
    assert weights_geq(v, 0) and not weights_geq(v, 1)


# -- strictness ------------------------------------------------------------

def test_identity_and_zero_strict():
    v = two_step()
    assert strictness(FilteredMap(v, v, Matrix.identity(2))).strict
    assert strictness(FilteredMap(v, FilteredSpace.pure(1, 2), Matrix.zero(1, 2))).strict


def test_weight_dropping_identity_not_strict():
    # compatible because weights only drop; not strict because the image
    # meets W_0 of the target while W_0 of the source is zero
    f = FilteredMap(FilteredSpace.pure(1, 2), FilteredSpace.pure(1, 0), Matrix.identity(1))
    verdict = strictness(f)
    assert not verdict.strict and verdict.failing_weight == 0


def test_weight_raising_identity_rejected():
    with pytest.raises(WeightCompatibilityError):
        FilteredMap(FilteredSpace.pure(1, 0), FilteredSpace.pure(1, 2), Matrix.identity(1))


def test_strict_graded_additivity_on_generated_maps():
    # strictness <=> graded additivity dim Gr_i(src) = dim Gr_i(ker) + dim Gr_i(im)
    inst = gen_cs_instance(GenProfile(seed=202, max_dim_per_node=8))
    checked = 0
    for k in inst.degrees():
        for src, tgt, mat in [
            (inst.space("B", k), inst.space("A", k), inst.map("b", k)),
            (inst.space("A", k), inst.space("C", k), inst.map("a", k)),
            (inst.space("C", k), inst.space("P", k), inst.map("s", k)),
        ]:
            if src.dim == 0 or tgt.dim == 0:
                continue
            f = FilteredMap(src, tgt, mat)
            assert strictness(f).strict
            ker_fs = induced_on_subspace(src, kernel(mat))
            im_fs = induced_on_subspace(tgt, image(mat))
            gr_src, gr_ker, gr_im = graded_dims(src), graded_dims(ker_fs), graded_dims(im_fs)
            for i in set(src.jumps) | set(tgt.jumps):
                assert gr_src.get(i, 0) == gr_ker.get(i, 0) + gr_im.get(i, 0)
            checked += 1
    assert checked


def test_composites_of_generated_strict_maps_are_compatible():
    inst = gen_cs_instance(GenProfile(seed=203, max_dim_per_node=6))
    for k in inst.degrees():
        if inst.space("A", k).dim and inst.space("P", k).dim:
            # A_k -> C_k -> P_k composes to a weight-compatible map
            FilteredMap(inst.space("A", k), inst.space("P", k), inst.map("sa", k))


# -- strictness against the intersection reference --------------------------

def ref_strictness(f):
    """Compare im(f) . W_w(target) with f(W_w(source)) as subspaces at every jump."""
    im = image(f.matrix)
    for w in sorted(set(f.source.jumps) | set(f.target.jumps)):
        if im.intersect(f.target.step(w)) != image(f.matrix, f.source.step(w)):
            return StrictnessVerdict(False, failing_weight=w)
    return StrictnessVerdict(True)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from([None, "strictness", "A_bound", "B_bound"]))
def test_strictness_matches_reference_on_instance_maps(seed, broken):
    profile = GenProfile(seed=seed, max_dim_per_node=8, broken_hypothesis=broken)
    inst = gen_cs_instance(profile) if broken is None else gen_adversarial(profile)
    verdicts = []
    for k in inst.degrees():
        for _, mat, src, tgt in _instance_maps(inst, k):
            try:
                f = FilteredMap(src, tgt, mat)
            except WeightCompatibilityError:
                continue
            verdicts.append(strictness(f))
            assert verdicts[-1] == ref_strictness(f)
    if broken == "strictness":
        assert not all(verdicts)


def _adapted_space(rng, dim):
    """A random filtration on Q^dim with its adapted basis (columns of t) and weights."""
    weights = [rng.randint(-2, 2) for _ in range(dim)]
    t = random_invertible(rng, dim)
    steps = {w: image(t, span_of_vectors([[int(i == j) for j in range(dim)]
                                          for i in range(dim) if weights[i] <= w], dim))
             for w in set(weights)}
    return FilteredSpace(dim, steps), t, weights


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_strictness_matches_reference_on_compatible_maps(seed, m, n, zero_frac):
    # u_i of weight a_i goes to a combination of the v_j with b_j <= a_i,
    # so the map is weight-compatible by construction; zeroed coefficients
    # make it non-strict often
    rng = random.Random(seed)
    src, u, a = _adapted_space(rng, n)
    tgt, v, b = _adapted_space(rng, m)
    coeffs = Matrix.from_rows(
        [[rng.randint(-3, 3) if b[j] <= a[i] and rng.random() >= zero_frac else 0
          for i in range(n)] for j in range(m)], ncols=n)
    f = FilteredMap(src, tgt, v @ coeffs @ inverse(u))
    assert strictness(f) == ref_strictness(f)


# -- compatibility and strictness counted, against the subspaces they replace -

def ref_filtered_map(src, tgt, mat):
    """(image_dims, strictness verdict) from built subspaces, or None where mat is not
    weight-compatible: f(W_w) is image(f, W_w), which must lie in W_w of the target, and the
    count reads dim(im + W_w) off im.sum(W_w)."""
    image_dims = {}
    for w, sub in src.steps:
        mapped = image(mat, sub)
        if not tgt.step(w).contains(mapped):
            return None
        image_dims[w] = mapped.dim
    im, mapped = image(mat), 0
    for w in sorted(set(src.jumps) | set(tgt.jumps)):
        mapped = image_dims.get(w, mapped)
        step = tgt.step(w)
        if mapped != im.dim + step.dim - im.sum(step).dim:
            return image_dims, StrictnessVerdict(False, failing_weight=w)
    return image_dims, StrictnessVerdict(True)


def counted_filtered_map(src, tgt, mat):
    try:
        f = FilteredMap(src, tgt, mat)
    except WeightCompatibilityError:
        return None
    return f.image_dims, strictness(f)


def test_compatibility_and_strictness_counts_match_built_subspaces():
    """Every map with two nonzero ends in the shared corpus (seeds 1-40, max dim 6 and 10, clean
    and each break), then random maps on adapted spaces: compatible by construction with
    coefficients zeroed to break strictness, or arbitrary."""
    outcomes = Counter()

    def compare(src, tgt, mat):
        got = counted_filtered_map(src, tgt, mat)
        assert got == ref_filtered_map(src, tgt, mat)
        outcomes["incompatible" if got is None else bool(got[1])] += 1

    for _, _, _, inst in corpus.generated():
        for k in inst.degrees():
            for _, mat, src, tgt in _instance_maps(inst, k):
                compare(src, tgt, mat)
    rng = random.Random(93)
    for _ in range(300):
        src, u, a = _adapted_space(rng, rng.randint(1, 5))
        tgt, v, b = _adapted_space(rng, rng.randint(1, 5))
        zero_frac = rng.choice((0.0, 0.3, 0.7))
        coeffs = Matrix.from_rows([[rng.randint(-3, 3) if b[j] <= a[i] and rng.random() >= zero_frac else 0
                                    for i in range(src.dim)] for j in range(tgt.dim)], ncols=src.dim)
        compare(src, tgt, v @ coeffs @ inverse(u))
        compare(src, tgt, Matrix.from_rows([[rng.randint(-1, 1) for _ in range(src.dim)]
                                            for _ in range(tgt.dim)], ncols=src.dim))
    assert min(outcomes[key] for key in ("incompatible", True, False)) >= 20, outcomes


def test_zero_test_matches_the_built_product_on_generated_pairs():
    """g.f = 0 tested entry by entry against the built product, for every exactness hypothesis and
    conclusion of the shared corpus, whose rows carry different denominators."""
    rows = [pair for nodes in SEQUENCES.values() for pair in nodes.values()]
    rows += [(f, g) for f, g, _ in CONCLUSIONS.values()]
    outcomes = Counter()
    for _, _, _, inst in corpus.generated():
        for k in inst.degrees(pad=2):
            for (f, df), (g, dg) in rows:
                fm, gm = inst.map(f, k + df), inst.map(g, k + dg)
                if fm.is_zero() or gm.is_zero():
                    continue
                want = (gm @ fm).is_zero()
                assert product_is_zero(gm, fm) == want
                outcomes[want] += 1
                outcomes["mixed denominators"] += len({d for _, d in fm.irows}) > 1
    assert min(outcomes.values()) >= 50, outcomes


# -- exactness -------------------------------------------------------------

def test_exact_identity_and_split():
    v = two_step()
    f = FilteredMap(FilteredSpace.zero(), v, Matrix.zero(2, 0))
    g = FilteredMap(v, v, Matrix.identity(2))
    assert exactness_at(f.matrix, g.matrix).exact

    q = FilteredSpace.pure(1, 0)
    q2 = FilteredSpace.pure(2, 0)
    inj = FilteredMap(q, q2, Matrix.from_rows([[1], [0]]))
    proj_second = FilteredMap(q2, q, Matrix.from_rows([[0, 1]]))
    assert exactness_at(inj.matrix, proj_second.matrix).exact


def test_not_exact_composite_nonzero():
    q = FilteredSpace.pure(1, 0)
    q2 = FilteredSpace.pure(2, 0)
    inj = FilteredMap(q, q2, Matrix.from_rows([[1], [0]]))
    proj_first = FilteredMap(q2, q, Matrix.from_rows([[1, 0]]))
    verdict = exactness_at(inj.matrix, proj_first.matrix)
    assert not verdict.exact
    assert verdict.reason == "composite_nonzero"
    assert verdict.witness is not None


def test_not_exact_kernel_exceeds_image():
    q2 = FilteredSpace.pure(2, 0)
    f = FilteredMap(FilteredSpace.zero(), q2, Matrix.zero(2, 0))
    g = FilteredMap(q2, FilteredSpace.zero(), Matrix.zero(0, 2))
    verdict = exactness_at(f.matrix, g.matrix)
    assert not verdict.exact
    assert verdict.reason == "kernel_exceeds_image"
    assert verdict.witness in ((1, 0), (0, 1))


def test_composability_checked():
    v = two_step()
    f = FilteredMap(v, v, Matrix.identity(2))
    g = FilteredMap(FilteredSpace.pure(1, 2), FilteredSpace.pure(1, 2), Matrix.identity(1))
    with pytest.raises(DimensionMismatchError):
        exactness_at(f.matrix, g.matrix)


def reference_exactness(f, g):
    """The verdict as image(f) == kernel(g): on a failure, the first basis row of im(f)
    that g does not kill, else the first basis row of ker(g) outside im(f)."""
    im = image(f)
    ker = kernel(g)
    for row in im.basis.rows:
        if not (g @ column(*row)).is_zero():
            return ExactnessVerdict(False, reason="composite_nonzero", witness=row)
    for row in ker.basis.rows:
        if not ref_contains_vector(im, row):
            return ExactnessVerdict(False, reason="kernel_exceeds_image", witness=row)
    return ExactnessVerdict(True)


def random_subspace(rng, b, r):
    """A random r-dimensional subspace of Q^b."""
    while True:
        sub = canonicalize(Matrix.from_rows([[rng.randint(-2, 2) for _ in range(b)] for _ in range(r)], ncols=b))
        if sub.dim == r:
            return sub


def map_onto(rng, sub):
    """A map Q^(dim+1) -> Q^b with image sub: its basis, transposed, after a random surjection."""
    onto = hstack(random_invertible(rng, sub.dim), Matrix.from_rows([[rng.randint(-2, 2)] for _ in range(sub.dim)]))
    return transpose(sub.basis) @ onto


def map_killing(rng, sub):
    """A map out of Q^b with kernel sub: its quotient map, then a random isomorphism."""
    return random_invertible(rng, sub.ambient_dim - sub.dim) @ quotient_map(sub)


def constructed_pairs(rng):
    """(f, g, expected reason) with f and g both nonzero, for each way a verdict can go."""
    for _ in range(40):
        b = rng.randint(3, 6)
        r = rng.randint(2, b - 1)
        ker = random_subspace(rng, b, r)
        yield map_onto(rng, ker), map_killing(rng, ker), None
        # g.f = 0, but im(f) is a hyperplane of ker(g): short of rank
        short = canonicalize(Matrix.of(ker.basis.irows[:r - 1], b))
        yield map_onto(rng, short), map_killing(rng, ker), "kernel_exceeds_image"
        # rank f + rank g = b, yet im(f) is not ker(g): a count of ranks alone would pass it
        other = random_subspace(rng, b, r)
        if other != ker:
            yield map_onto(rng, other), map_killing(rng, ker), "composite_nonzero"


def test_exactness_matches_brute_force_oracle():
    rng = random.Random(77)
    for _ in range(200):
        a, b, c = (rng.randint(0, 6) for _ in range(3))
        f = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(a)] for _ in range(b)], ncols=a)
        g = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(b)] for _ in range(c)], ncols=b)
        assert exactness_at(f, g) == reference_exactness(f, g)
    reasons = Counter()
    for f, g, reason in constructed_pairs(rng):
        assert not f.is_zero() and not g.is_zero()
        if reason == "composite_nonzero":
            assert image(f).dim + image(g).dim == f.nrows and not (g @ f).is_zero()
        verdict = exactness_at(f, g)
        assert verdict == reference_exactness(f, g)
        assert verdict.reason == reason
        reasons[reason] += 1
    assert min(reasons.values()) >= 20 and len(reasons) == 3


# -- induced filtrations ---------------------------------------------------

def sub_quotient(f):
    """Kernel, image and cokernel of the filtered map f with the filtrations they inherit."""
    im = image(f.matrix)
    return (induced_on_subspace(f.source, kernel(f.matrix)), induced_on_subspace(f.target, im),
            induced_on_quotient(f.target, quotient_map(im)))


def test_induced_identity_and_zero():
    v = two_step()
    ker_fs, im_fs, coker_fs = sub_quotient(FilteredMap(v, v, Matrix.identity(2)))
    assert ker_fs == FilteredSpace.zero()
    assert im_fs == v
    assert coker_fs == FilteredSpace.zero()

    w = FilteredSpace.pure(1, 2)
    ker_fs, im_fs, coker_fs = sub_quotient(FilteredMap(v, w, Matrix.zero(1, 2)))
    assert ker_fs == v and coker_fs == w and im_fs == FilteredSpace.zero()


def test_induced_projection_example():
    # (a, b) -> b from Q^2 (weights 0, 2; W_0 = <e1>) onto Q of weight 2
    v = two_step()
    w = FilteredSpace.pure(1, 2)
    f = FilteredMap(v, w, Matrix.from_rows([[0, 1]]))
    ker_fs, im_fs, _ = sub_quotient(f)
    assert ker_fs == FilteredSpace.pure(1, 0)
    assert im_fs == FilteredSpace.pure(1, 2)
    assert ker_fs.dim + im_fs.dim == v.dim


def test_direct_sum():
    v = direct_sum(FilteredSpace.pure(1, 0), FilteredSpace.pure(2, 2))
    assert v.dim == 3
    assert graded_dims(v) == {0: 1, 2: 2}


def ref_direct_sum(x, y):
    """The block direct sum by elimination: each step's block-diagonal bases, canonicalized."""
    dim = x.dim + y.dim
    steps = {}
    for w in sorted(set(x.jumps) | set(y.jumps)):
        xs, ys = x.step(w), y.step(w)
        rows = [r + (0,) * y.dim for r in xs.basis.rows]
        rows += [(0,) * x.dim + r for r in ys.basis.rows]
        steps[w] = canonicalize(Matrix.from_rows(rows, ncols=dim))
    return FilteredSpace(dim, steps)


@st.composite
def filtrations(draw):
    """Q^d, d <= 5, with steps spanned by small integer vectors, each drawn with a weight."""
    dim = draw(st.integers(0, 5))
    vectors = draw(st.lists(st.tuples(st.integers(-2, 3), st.lists(st.integers(-2, 2), min_size=dim,
                                                                    max_size=dim)), max_size=dim))
    steps = {w: span_of_vectors([v for wt, v in vectors if wt <= w], dim) for w, _ in vectors}
    steps[draw(st.integers(3, 5))] = full_subspace(dim)
    return FilteredSpace(dim, steps)


@settings(max_examples=100, deadline=None)
@given(st.lists(filtrations(), max_size=4))
def test_direct_sum_matches_reference(xs):
    """The sum of 0-4 spaces in one pass against a pairwise fold of the reference."""
    assert direct_sum(*xs) == reduce(ref_direct_sum, xs, FilteredSpace.zero())


def ref_induced_on_subspace(v, sub):
    """Each step as sub . W_i(v) through Subspace.intersect, then read in sub's coordinates by image."""
    coords = coords_map(sub)
    return FilteredSpace(sub.dim, {w: image(coords, sub.intersect(step)) for w, step in v.steps})


@settings(max_examples=150, deadline=None)
@given(filtrations(), st.data())
def test_induced_on_subspace_matches_reference(v, data):
    """Against the intersect-then-image formula, on zero, whole and drawn subspaces."""
    n = v.dim
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=n + 1))
    for sub in (zero_subspace(n), full_subspace(n), span_of_vectors(rows, n)):
        assert induced_on_subspace(v, sub) == ref_induced_on_subspace(v, sub)


# -- the unchecked weight shift and the lowest graded piece ----------------

@settings(max_examples=100, deadline=None)
@given(filtrations(), st.integers(-3, 3))
def test_tate_twist_equals_validated_filtration_and_builds_none(v, n):
    want = FilteredSpace(v.dim, {w - 2 * n: sub for w, sub in v.steps})
    built = []
    real_init = FilteredSpace.__init__
    FilteredSpace.__init__ = lambda self, dim, steps: built.append(dim) or real_init(self, dim, steps)
    try:
        got = tate_twist(v, n)
    finally:
        FilteredSpace.__init__ = real_init
    assert got == want and got.steps == want.steps and not built


def test_shifted_reads_its_space_off_the_top_step():
    """``shifted`` is given no dimension: the space is that of its top step, the whole space, and Q^0
    when there are no steps; a lower step spans less."""
    v = FilteredSpace(3, {-1: span_of_vectors([[1, 0, 0]], 3), 1: span_of_vectors([[1, 0, 0], [0, 1, 1]], 3),
                          2: full_subspace(3)})
    assert shifted(v.steps, 5) == FilteredSpace(3, {w + 5: sub for w, sub in v.steps})
    assert shifted(v.steps, 5).dim == 3
    assert shifted((), 5) == FilteredSpace.zero() and shifted((), 5).dim == 0


@settings(max_examples=100, deadline=None)
@given(filtrations())
def test_graded_complement_at_lowest_jump_is_extension_of_zero(v):
    """At and below the lowest jump, W_{i-1} is zero and the representatives are all of W_i's basis."""
    lowest = v.jumps[0] if v.jumps else 0
    for i in range(lowest - 2, lowest + 1):
        assert graded_complement(v, i) == extend_basis(zero_subspace(v.dim), v.step(i).basis)
