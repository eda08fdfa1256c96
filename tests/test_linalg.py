import random

import pytest

from csverify.linalg import (
    DimensionMismatchError,
    Matrix,
    Q,
    canonicalize,
    full_subspace,
    image,
    inverse,
    kernel,
    quotient_map,
    rank,
    section_of_quotient,
    solve,
    span_of_vectors,
    transpose,
)


def rows(m):
    return [[int(x) if x == int(x) else x for x in r] for r in m.rows]


def test_canonicalize_identity():
    s = canonicalize(Matrix.identity(2))
    assert s.basis == Matrix.identity(2)
    assert s.dim == 2


def test_canonicalize_dependent_rows():
    # hand row-reduction: (2,4) is twice (1,2)
    s = canonicalize(Matrix.from_rows([[1, 2], [2, 4]]))
    assert s.dim == 1
    assert s.basis.rows == ((Q(1), Q(2)),)


def test_canonicalize_zero():
    s = canonicalize(Matrix.zero(3, 3))
    assert s.dim == 0
    assert s.ambient_dim == 3


def test_canonicalize_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        m = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)], ncols=4)
        s = canonicalize(m)
        assert canonicalize(s.basis) == s


def test_sum_idempotent_and_complementary():
    v = canonicalize(Matrix.from_rows([[1, 0], [0, 1]]))
    assert v.sum(v) == v
    e1 = span_of_vectors([[1, 0]], 2)
    e2 = span_of_vectors([[0, 1]], 2)
    assert e1.sum(e2) == full_subspace(2)


def test_sum_stacked_reduction():
    a = span_of_vectors([[1, 1, 0]], 3)
    b = span_of_vectors([[1, -1, 0]], 3)
    assert a.sum(b) == span_of_vectors([[1, 0, 0], [0, 1, 0]], 3)


def test_intersect_transverse_lines():
    e1 = span_of_vectors([[1, 0]], 2)
    e2 = span_of_vectors([[0, 1]], 2)
    assert e1.intersect(e2).dim == 0


def test_intersect_planes():
    a = span_of_vectors([[1, 0, 0], [0, 1, 0]], 3)
    b = span_of_vectors([[0, 1, 0], [0, 0, 1]], 3)
    assert a.intersect(b) == span_of_vectors([[0, 1, 0]], 3)
    assert a.intersect(a) == a


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        span_of_vectors([[1, 0]], 2).sum(span_of_vectors([[1, 0, 0]], 3))
    with pytest.raises(DimensionMismatchError):
        span_of_vectors([[1, 0]], 2).intersect(span_of_vectors([[1, 0, 0]], 3))


def test_kernel_identity_and_projection():
    assert kernel(Matrix.identity(3)).dim == 0
    f = Matrix.from_rows([[1, 0], [0, 0]])
    assert image(f) == span_of_vectors([[1, 0]], 2)
    assert kernel(f) == span_of_vectors([[0, 1]], 2)


def test_preimage_and_kernel_rank_one():
    f = Matrix.from_rows([[1, 1], [1, 1]])
    assert image(f) == span_of_vectors([[1, 1]], 2)
    assert kernel(f) == span_of_vectors([[1, -1]], 2)


def test_rank_nullity_random():
    rng = random.Random(99)
    for _ in range(200):
        m = rng.randint(0, 10)
        n = rng.randint(0, 10)
        f = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], ncols=n)
        assert kernel(f).dim + image(f).dim == n


def test_modular_dimension_law_random():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 6)
        def rand_space():
            k = rng.randint(0, n)
            return span_of_vectors(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)], n)
        a, b = rand_space(), rand_space()
        assert a.sum(b).dim == a.dim + b.dim - a.intersect(b).dim
        # lattice modular law on triples with a <= c
        c = a.sum(rand_space())
        assert a.sum(b).intersect(c) == a.sum(b.intersect(c))


def in_span_by_solve(sub, vec):
    # membership oracle independent of the echelon representation: solve
    # basis^T . x = vec
    if sub.dim == 0:
        return all(x == 0 for x in vec)
    return solve(transpose(sub.basis), vec) is not None


def test_canonical_equality_matches_membership_oracle():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(1, 5)
        mk = lambda: span_of_vectors(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        a, b = mk(), mk()
        same_sets = (all(in_span_by_solve(b, r) for r in a.basis.rows)
                     and all(in_span_by_solve(a, r) for r in b.basis.rows))
        assert (a == b) == same_sets


def test_membership_and_quotient_maps():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        s = span_of_vectors(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        q = quotient_map(s)
        assert kernel(q) == s
        assert image(q).dim == n - s.dim  # surjective
        if n - s.dim:
            sec = section_of_quotient(s)
            assert q @ sec == Matrix.identity(n - s.dim)


def test_solve_and_inverse():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    x = solve(a, (1, 1))
    assert a.apply(x) == (Q(1), Q(1))
    assert a @ inverse(a) == Matrix.identity(2)
    assert solve(Matrix.from_rows([[1, 1], [1, 1]]), (0, 1)) is None
    with pytest.raises(DimensionMismatchError):
        inverse(Matrix.from_rows([[1, 1], [1, 1]]))


def test_rank():
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.zero(2, 5)) == 0
