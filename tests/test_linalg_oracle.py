"""Differential tests: the integer kernels of csverify.linalg against a
plain Fraction reference.

The reference functions below are the straightforward Fraction loops
(every multiply-add on a Fraction).  The kernels in linalg scale rows to
integers and eliminate fraction-free; both must give the same pivots,
the same entries, Fraction-typed, with the same printed form.

The image and kernel kept on each Matrix, the kernel read off a reduced
basis and the greedy basis extension are compared with the direct
computations they replace.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from csverify.linalg import (
    Matrix,
    canonicalize,
    extend_basis,
    full_subspace,
    image,
    kernel,
    rref,
    span_of_vectors,
    transpose,
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
@example(Matrix(0, 4, ()))
@example(Matrix(3, 0, ((),) * 3))
@example(Matrix.from_rows([[-2, 4, 1], [6, -3, 0], [-4, 8, 2]]))
@example(Matrix.from_rows([[0, -5, 10], [0, -5, 10]]))
def test_rref_matches_reference(m):
    rows, pivots = rref(m)
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
    same_entries((a.apply(vec),), (ref_apply(a, vec),))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_contains_vector_matches_reference(data):
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
    assert sub.contains_vector(vec) == ref_contains_vector(sub, vec)


def ref_kernel(f):
    """Kernel by eliminating f and canonicalizing one vector per free column."""
    reduced, pivots = rref(f)
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
        if not base.contains_vector(row):
            kept.append(row)
            base = base.sum(span_of_vectors([row], base.ambient_dim))
    return kept


@settings(max_examples=100, deadline=None)
@given(matrices())
@example(Matrix(0, 4, ()))
@example(Matrix(3, 0, ((),) * 3))
@example(Matrix.zero(2, 3))
def test_kept_image_and_kernel_match_reference(f):
    fresh = Matrix(f.nrows, f.ncols, f.rows)
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
def test_annihilator_matches_reference_kernel(m):
    sub = canonicalize(m)
    got = sub.annihilator()
    want = ref_kernel(sub.basis)
    assert got == want
    same_entries(got.basis.rows, want.basis.rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_extend_basis_matches_greedy_loop(data):
    base = canonicalize(data.draw(matrices()))
    n = base.ambient_dim
    rows = list(data.draw(matrices(ncols=st.just(n))).rows)
    rows += [data.draw(st.sampled_from(base.basis.rows))] if base.dim else []
    rows = data.draw(st.permutations(rows))
    got = extend_basis(base, rows)
    assert got == ref_extend_basis(base, rows)
    total = canonicalize(Matrix.from_rows(list(base.basis.rows) + rows, ncols=n))
    assert len(got) == total.dim - base.dim


def test_zero_matrix_shared_per_shape():
    assert Matrix.zero(2, 3) is Matrix.zero(2, 3)
    assert Matrix.zero(2, 3) == Matrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert Matrix.zero(0, 4) is not Matrix.zero(4, 0)
