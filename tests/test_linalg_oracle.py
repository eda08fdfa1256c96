"""Differential tests: the integer kernels of csverify.linalg against a
plain Fraction reference.

The reference functions below are the straightforward Fraction loops
(every multiply-add on a Fraction).  The kernels in linalg scale rows to
integers and eliminate fraction-free; both must give the same pivots,
the same entries, Fraction-typed, with the same printed form.

The product with a transpose that builds none, the quotient map read
off a reduced basis, the image and kernel kept on each Matrix, the
kernel read off one elimination of the reversed columns, the row-by-row
test of f(S) <= T, the greedy basis extension, the zero test of a
product that builds none, the sum that skips
elimination beside a zero or whole operand, the intersection through
a quotient map and its coordinates in one operand's basis (``within``)
are compared with the direct computations they replace.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from csverify.linalg import (
    Matrix,
    canonicalize,
    extend_basis,
    full_subspace,
    hstack,
    image,
    kernel,
    maps_into,
    null_space,
    product_is_zero,
    quotient_map,
    rref,
    span_of_vectors,
    times_transpose,
    transpose,
    vstack,
    within,
    zero_subspace,
)

_ZERO = Fraction(0)


def ref_rref(m):
    rows = [list(r) for r in m.rows]
    pivots, pr = [], 0
    for c in range(m.ncols):
        pivot_row = next((i for i in range(pr, m.nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = 1 / rows[pr][c]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(m.nrows):
            factor = rows[i][c]
            if i != pr and factor != 0:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(c)
        pr += 1
    return tuple(tuple(r) for r in rows[:pr]), tuple(pivots)


def ref_apply(m, vec):
    return tuple(sum((r[k] * vec[k] for k in range(m.ncols)), _ZERO) for r in m.rows)


def ref_matmul(a, b):
    cols = [tuple(r[j] for r in b.rows) for j in range(b.ncols)]
    return tuple(tuple(sum((r[k] * col[k] for k in range(a.ncols)), _ZERO) for col in cols)
                 for r in a.rows)


def ref_contains_vector(sub, vec):
    v = list(vec)
    for row, p in zip(sub.basis.rows, sub.pivots):
        c = v[p]
        if c != 0:
            v = [x - c * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def same_entries(got, want):
    assert got == want
    for row_got, row_want in zip(got, want):
        assert all(type(x) is Fraction for x in row_got)
        assert [str(x) for x in row_got] == [str(x) for x in row_want]


# small integers, and ~10^12 numerators over pairwise coprime denominators
rationals = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**12, 10**12),
              st.sampled_from([1, 2, 3, 5, 7, 11, 999983, 1000003])),
)
dims = st.integers(0, 6)


def matrices(nrows=dims, ncols=dims):
    @st.composite
    def build(draw):
        m, n = draw(nrows), draw(ncols)
        rows = [[draw(rationals) for _ in range(n)] for _ in range(m)]
        if rows and draw(st.booleans()):
            # one row becomes a duplicated or scaled copy of another
            source = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from([1, -1, 3, Fraction(-2, 7)]))
            rows[draw(st.integers(0, m - 1))] = [scale * x for x in source]
        return Matrix.from_rows(rows, ncols=n)
    return build()


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(Matrix.from_rows([], ncols=4))
@example(Matrix.from_rows([[]] * 3, ncols=0))
@example(Matrix.from_rows([[-2, 4, 1], [6, -3, 0], [-4, 8, 2]]))
@example(Matrix.from_rows([[0, -5, 10], [0, -5, 10]]))
def test_rref_matches_reference(m):
    reduced, pivots = rref(m)
    rows = reduced.rows
    want_rows, want_pivots = ref_rref(m)
    assert pivots == want_pivots
    same_entries(rows, want_rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matmul_and_apply_match_reference(data):
    inner = data.draw(dims)
    a = data.draw(matrices(ncols=st.just(inner)))
    b = data.draw(matrices(nrows=st.just(inner)))
    product = a @ b
    assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
    same_entries(product.rows, ref_matmul(a, b))
    vec = tuple(data.draw(rationals) for _ in range(inner))
    # a matrix applied to a vector: the product with the vector as one column
    column = Matrix.from_rows([[x] for x in vec], ncols=1)
    same_entries(transpose(a @ column).rows, (ref_apply(a, vec),))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_contains_matches_reference(data):
    sub = canonicalize(data.draw(matrices()))
    n = sub.ambient_dim
    if sub.dim and data.draw(st.booleans()):
        # a combination of the basis, sometimes nudged off the subspace
        coeffs = [data.draw(rationals) for _ in range(sub.dim)]
        vec = [sum((c * r[j] for c, r in zip(coeffs, sub.basis.rows)), _ZERO) for j in range(n)]
        if n and data.draw(st.booleans()):
            vec[data.draw(st.integers(0, n - 1))] += data.draw(rationals)
    else:
        vec = [data.draw(rationals) for _ in range(n)]
    assert sub.contains(span_of_vectors([vec], n)) == ref_contains_vector(sub, vec)


def ref_kernel(f):
    """Kernel by eliminating f and canonicalizing one vector per free column."""
    reduced, pivots = rref(f)
    reduced = reduced.rows
    rows = []
    for fc in (c for c in range(f.ncols) if c not in pivots):
        v = [_ZERO] * f.ncols
        v[fc] = Fraction(1)
        for r, p in zip(reduced, pivots):
            v[p] = -r[fc]
        rows.append(v)
    return canonicalize(Matrix.from_rows(rows, ncols=f.ncols))


def ref_image(f, s=None):
    return canonicalize(transpose(f) if s is None else s.basis @ transpose(f))


def ref_extend_basis(base, rows):
    """The greedy loop: keep a row outside the span so far, add its line."""
    kept = []
    for row in rows:
        if not ref_contains_vector(base, row):
            kept.append(row)
            base = base.sum(span_of_vectors([row], base.ambient_dim))
    return kept


@settings(max_examples=100, deadline=None)
@given(matrices())
@example(Matrix.from_rows([], ncols=4))
@example(Matrix.from_rows([[]] * 3, ncols=0))
@example(Matrix.zero(2, 3))
def test_kept_image_and_kernel_match_reference(f):
    fresh = Matrix.from_rows(f.rows, ncols=f.ncols)
    ker, im = kernel(f), image(f)
    assert ker == ref_kernel(fresh)
    assert im == ref_image(fresh)
    assert kernel(f) is ker and image(f) is im
    # image of the whole domain reads the same memo
    assert image(f, full_subspace(f.ncols)) is im
    same_entries(ker.basis.rows, ref_kernel(fresh).basis.rows)
    same_entries(im.basis.rows, ref_image(fresh).basis.rows)
    # a filled memo changes neither equality, hash nor repr
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_image_of_subspace_matches_reference(data):
    f = data.draw(matrices())
    s = canonicalize(data.draw(matrices(ncols=st.just(f.ncols))))
    assert image(f, s) == ref_image(f, s)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_of_reduced_basis_matches_reference(m):
    sub = canonicalize(m)
    got = kernel(sub.basis)
    want = ref_kernel(sub.basis)
    assert got == want
    same_entries(got.basis.rows, want.basis.rows)


@st.composite
def matrices_with_zero_lines(draw):
    """A drawn matrix with some of its rows and columns set to zero."""
    m = draw(matrices())
    rows = draw(st.sets(st.integers(0, m.nrows - 1))) if m.nrows else set()
    cols = draw(st.sets(st.integers(0, m.ncols - 1))) if m.ncols else set()
    return Matrix.from_rows([[0 if i in rows or j in cols else x for j, x in enumerate(r)]
                             for i, r in enumerate(m.rows)], ncols=m.ncols)


@settings(max_examples=200, deadline=None)
@given(matrices_with_zero_lines())
@example(Matrix.from_rows([], ncols=4))  # 0 x n: the whole space
@example(Matrix.from_rows([[]] * 3, ncols=0))  # n x 0: the zero space of Q^0
@example(Matrix.zero(2, 3))
@example(Matrix.from_rows([[0, 1, 2, 0], [0, 2, 4, 0]]))  # zero first and last columns
@example(Matrix.from_rows([[1, 2, 3], [0, 0, 0], [2, 4, 7]]))
@example(Matrix.identity(3))  # kernel zero
def test_null_space_matches_reference_kernel(m):
    """One elimination of the reversed columns gives the kernel's reduced basis: the same
    pivots and entries as eliminating m and reducing one vector per free column."""
    got, want = null_space(m), ref_kernel(m)
    assert got == want and got.pivots == want.pivots
    same_entries(got.basis.rows, want.basis.rows)
    assert got.basis.nrows == m.ncols - len(rref(m)[1])


def few_rows(n, most=None):
    """The span of fewer than n drawn rows (of at most ``most``), in Q^n."""
    count = st.integers(0, max(n - 1, 0) if most is None else most)
    return matrices(nrows=count, ncols=st.just(n)).map(canonicalize)


def subspaces(n):
    """Zero, whole, or the row space of a drawn matrix, in Q^n."""
    return st.one_of(st.just(zero_subspace(n)), st.just(full_subspace(n)),
                     matrices(ncols=st.just(n)).map(canonicalize))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_maps_into_matches_image_containment(data):
    f = data.draw(matrices())
    # s and t are often proper: s spans fewer rows than its dimension, and t is some or all of
    # f(s) and at most one more row, so that f(s) <= t can hold while f of the whole space does not
    s = data.draw(st.one_of(subspaces(f.ncols), few_rows(f.ncols)))
    mapped = image(f, s).basis.rows
    shared = list(mapped[:data.draw(st.integers(0, len(mapped)))])
    extra = data.draw(st.one_of(subspaces(f.nrows), few_rows(f.nrows, 1)))
    t = canonicalize(Matrix.from_rows(shared + list(extra.basis.rows), ncols=f.nrows))
    assert maps_into(f, s, t) == t.contains(image(f, s))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_extend_basis_matches_greedy_loop(data):
    base = canonicalize(data.draw(matrices()))
    n = base.ambient_dim
    rows = list(data.draw(matrices(ncols=st.just(n))).rows)
    rows += [data.draw(st.sampled_from(base.basis.rows))] if base.dim else []
    rows = data.draw(st.permutations(rows))
    got = list(extend_basis(base, Matrix.from_rows(rows, ncols=n)).rows)
    assert got == ref_extend_basis(base, rows)
    total = canonicalize(Matrix.from_rows(list(base.basis.rows) + rows, ncols=n))
    assert len(got) == total.dim - base.dim


def test_zero_matrix_shared_per_shape():
    assert Matrix.zero(2, 3) is Matrix.zero(2, 3)
    assert Matrix.zero(2, 3) == Matrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert Matrix.zero(0, 4) is not Matrix.zero(4, 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sum_matches_reference(data):
    n = data.draw(dims)
    def operand():
        return data.draw(st.one_of(st.just(zero_subspace(n)), st.just(full_subspace(n)),
                                   matrices(ncols=st.just(n)).map(canonicalize)))
    a, b = operand(), operand()
    got = a.sum(b)
    assert got == canonicalize(vstack(a.basis, b.basis))
    if b.dim == 0 or a.dim == n:
        assert got is a


def ref_intersect(a, b):
    """The stacked-coefficient construction: pairs (x, y) with x.A = y.B form the kernel of [A^T | -B^T]."""
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient_dim)
    minus_bt = Matrix.from_rows([[-x for x in r] for r in transpose(b.basis).rows], ncols=b.dim)
    combos = kernel(hstack(transpose(a.basis), minus_bt))
    x = Matrix.from_rows([comb[:a.dim] for comb in combos.basis.rows], ncols=a.dim)
    return canonicalize(x @ a.basis)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_intersect_matches_reference(data):
    n = data.draw(dims)
    def operand():
        return data.draw(st.one_of(st.just(zero_subspace(n)), st.just(full_subspace(n)),
                                   matrices(ncols=st.just(n)).map(canonicalize)))
    a = operand()
    # b often shares rows with a, so that the intersection is not only zero
    shared = list(a.basis.rows[:data.draw(st.integers(0, a.dim))])
    b = canonicalize(Matrix.from_rows(shared + list(operand().basis.rows), ncols=n))
    got, want = a.intersect(b), ref_intersect(a, b)
    assert got == want
    same_entries(got.basis.rows, want.basis.rows)
    assert got.dim == a.dim + b.dim - a.sum(b).dim


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_within_matches_reference_intersection_coordinates(data):
    """within(t, s) against the reference t . s with each basis row read at t's pivots, which are
    the coordinates of a vector of t in t's reduced basis."""
    n = data.draw(dims)
    t = data.draw(subspaces(n))
    shared = list(t.basis.rows[:data.draw(st.integers(0, t.dim))])
    s = canonicalize(Matrix.from_rows(shared + list(data.draw(subspaces(n)).basis.rows), ncols=n))
    want = canonicalize(Matrix.from_rows([[r[p] for p in t.pivots] for r in ref_intersect(t, s).basis.rows],
                                         ncols=t.dim))
    got = within(t, s)
    assert got == want
    same_entries(got.basis.rows, want.basis.rows)


@st.composite
def product_pairs(draw):
    """(a, b) with as many columns each, either or both sometimes all zero."""
    a = draw(matrices_with_zero_lines())
    b = draw(matrices(ncols=st.just(a.ncols)))
    if draw(st.booleans()):
        b = Matrix.zero(b.nrows, b.ncols)
    return a, b


@settings(max_examples=100, deadline=None)
@given(product_pairs())
@example((Matrix.from_rows([], ncols=3), Matrix.from_rows([[1, 2, 3]])))  # 0 rows
@example((Matrix.from_rows([[1, 2]]), Matrix.from_rows([], ncols=2)))  # 0 rows in b: 1 x 0
@example((Matrix.from_rows([[]] * 2, ncols=0), Matrix.from_rows([[]] * 3, ncols=0)))  # 0 columns
@example((Matrix.zero(2, 3), Matrix.zero(4, 3)))
@example((Matrix.from_rows([[Fraction(1, 6), Fraction(-1, 3)]]), Matrix.from_rows([[2, -1], [4, 2]])))
def test_times_transpose_matches_product_with_transpose(pair):
    """The same stored rows, in lowest terms, as the product with a built transpose, and the
    same entries as the Fraction loop."""
    a, b = pair
    got = times_transpose(a, b)
    assert got == a @ transpose(b)  # shape and stored rows
    same_entries(got.rows, ref_matmul(a, transpose(b)))


@st.composite
def killing_pairs(draw):
    """(g, f), with g.f = 0 unless one entry of g was moved: g's rows are combinations of the
    left kernel of f (the reference kernel of f's transpose), and f's rows keep their own
    denominators, so a zero test that reads f's numerators alone goes wrong."""
    f = draw(matrices())
    left = ref_kernel(transpose(f)).basis.rows
    rows = []
    for _ in range(draw(dims)):
        coeffs = [draw(rationals) for _ in left]
        rows.append([sum((c * y[j] for c, y in zip(coeffs, left)), _ZERO) for j in range(f.nrows)])
    if rows and f.nrows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, f.nrows - 1))] += draw(rationals)
    return Matrix.from_rows(rows, ncols=f.nrows), f


@settings(max_examples=100, deadline=None)
@given(killing_pairs())
@example((Matrix.from_rows([[2, -3]]), Matrix.from_rows([[Fraction(1, 2)], [Fraction(1, 3)]])))
@example((Matrix.from_rows([], ncols=2), Matrix.from_rows([[1], [2]])))
@example((Matrix.from_rows([[]], ncols=0), Matrix.from_rows([], ncols=3)))
def test_product_is_zero_matches_the_built_product(pair):
    g, f = pair
    want = (g @ f).is_zero()
    assert want == all(x == 0 for row in ref_matmul(g, f) for x in row)
    assert product_is_zero(g, f) == want


def ref_quotient_rows(s):
    """One stored row per free column j, read off the transposed basis: column j in lowest terms
    c/d gives the row d at j and -c at the pivots."""
    rows = []
    for j, (c, d) in enumerate(transpose(s.basis).irows):
        if j not in s.pivots:
            row = [0] * s.ambient_dim
            row[j] = d
            for p, x in zip(s.pivots, c):
                row[p] = -x
            rows.append((tuple(row), d))
    return tuple(rows)


@settings(max_examples=150, deadline=None)
@given(matrices_with_zero_lines())
@example(Matrix.from_rows([], ncols=4))
@example(Matrix.from_rows([[]] * 3, ncols=0))
@example(Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], [0, 0, Fraction(7, 3)]]))
def test_quotient_map_matches_the_transposed_basis(m):
    """For bases from canonicalize, null_space and zero_subspace, the quotient map read off the
    scaled basis has the rows read off the transpose, and ``_residual`` of a vector's numerators
    is those rows applied to it: m's rows and the unit vectors."""
    n = m.ncols
    vectors = [r for r, _ in m.irows] + [r for r, _ in Matrix.identity(n).irows]
    for s in (canonicalize(m), null_space(m), zero_subspace(n), full_subspace(n)):
        want = ref_quotient_rows(s)
        got = quotient_map(s)
        assert (got.nrows, got.ncols, got.irows) == (n - s.dim, n, want)
        for v in vectors:
            assert s._residual(v) == [sum(q[i] * v[i] for i in range(n)) for q, _ in want]
