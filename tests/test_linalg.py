import random
from fractions import Fraction
from functools import cached_property
from math import gcd

import pytest

from csverify import linalg
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
    maps_into,
    quotient_map,
    rank,
    rref,
    span_of_vectors,
    times_transpose,
    transpose,
    vstack,
    within,
)
from corpus import subspace_sum
from test_linalg_oracle import ref_rref


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
    assert s.basis.rows == ((Fraction(1), Fraction(2)),)


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
    assert subspace_sum(v, v) == v
    e1 = span_of_vectors([[1, 0]], 2)
    e2 = span_of_vectors([[0, 1]], 2)
    assert subspace_sum(e1, e2) == full_subspace(2)


def test_sum_stacked_reduction():
    a = span_of_vectors([[1, 1, 0]], 3)
    b = span_of_vectors([[1, -1, 0]], 3)
    assert subspace_sum(a, b) == span_of_vectors([[1, 0, 0], [0, 1, 0]], 3)


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
        subspace_sum(span_of_vectors([[1, 0]], 2), span_of_vectors([[1, 0, 0]], 3))
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
        assert subspace_sum(a, b).dim == a.dim + b.dim - a.intersect(b).dim
        # lattice modular law on triples with a <= c
        c = subspace_sum(a, rand_space())
        assert subspace_sum(a, b).intersect(c) == subspace_sum(a, b.intersect(c))


def in_span_by_elimination(sub, vec):
    # membership oracle independent of the echelon representation: the plain
    # Fraction elimination finds no new pivot when vec joins the basis rows
    rows = list(sub.basis.rows)
    return (len(ref_rref(Matrix.from_rows(rows + [vec], ncols=sub.ambient_dim))[1])
            == len(ref_rref(Matrix.from_rows(rows, ncols=sub.ambient_dim))[1]))


def test_canonical_equality_matches_membership_oracle():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(1, 5)
        mk = lambda: span_of_vectors(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        a, b = mk(), mk()
        same_sets = (all(in_span_by_elimination(b, r) for r in a.basis.rows)
                     and all(in_span_by_elimination(a, r) for r in b.basis.rows))
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


def test_quotient_map_kept_on_its_subspace():
    """Containment, ``within`` and ``maps_into`` all read the one quotient map kept on s."""
    s = span_of_vectors([[1, 2, 0, 1], [0, 1, 3, 0]], 4)
    t = span_of_vectors([[1, 3, 3, 1]], 4)
    u = span_of_vectors([[0, 1, 0, 0], [0, 0, 1, 1]], 4)
    first = quotient_map(s)
    assert s.contains(t) and within(t, s).dim == 1
    assert not maps_into(Matrix.identity(4), u, s)
    assert quotient_map(s) is first
    assert quotient_map(linalg.zero_subspace(3)) is quotient_map(linalg.zero_subspace(3))


def test_linalg_keeps_no_cached_property():
    """Every derived object goes through ``_kept``; no class of linalg memoises a second way."""
    assert not hasattr(linalg, "cached_property")
    for cls in (v for v in vars(linalg).values() if isinstance(v, type) and v.__module__ == linalg.__name__):
        assert not any(isinstance(attr, cached_property) for attr in vars(cls).values()), cls


def test_within_reads_the_intersection_in_the_basis_of_t():
    """within(t, s) lives in Q^(dim t); mapped through t's basis it is t . s, and it is everything
    exactly when t lies in s."""
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(0, 6)
        s, t = (span_of_vectors([[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
                for _ in range(2))
        got = within(t, s)
        assert got.ambient_dim == t.dim
        assert canonicalize(got.basis @ t.basis) == t.intersect(s)
        assert got.dim == t.dim + s.dim - subspace_sum(t, s).dim
        assert (got.dim == t.dim) == s.contains(t)
        assert within(t, t).dim == t.dim and within(t, linalg.zero_subspace(n)).dim == 0


def test_solve_and_inverse():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[1], [1]])
    assert a @ (inverse(a) @ b) == b
    assert a @ inverse(a) == Matrix.identity(2)
    singular = Matrix.from_rows([[1, 1], [1, 1]])
    assert not image(singular).contains(span_of_vectors([(0, 1)], 2))  # singular.x = (0, 1) has no solution
    with pytest.raises(DimensionMismatchError):
        inverse(singular)


def test_rank():
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.zero(2, 5)) == 0


def assert_canonical(m):
    """Each row stored as int numerators over an int denominator > 0, in lowest terms."""
    assert len(m.irows) == m.nrows
    for nums, den in m.irows:
        assert type(nums) is tuple and len(nums) == m.ncols
        assert all(type(x) is int for x in nums) and type(den) is int and den > 0
        assert gcd(den, *nums) == 1
    assert all(type(x) is Fraction for r in m.rows for x in r)


def random_rational_matrix(rng, m, n):
    def entry():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9]))
    return Matrix.from_rows([[entry() for _ in range(n)] for _ in range(m)], ncols=n)


def test_every_operation_stores_the_canonical_form():
    rng = random.Random(11)
    for _ in range(60):
        m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, b = random_rational_matrix(rng, m, k), random_rational_matrix(rng, k, n)
        c = random_rational_matrix(rng, m, k)
        s, t = canonicalize(a), canonicalize(c)
        made = [a, Matrix.from_rows(a.rows, ncols=k), Matrix.identity(k), Matrix.zero(m, k), a @ b, a + c,
                transpose(a), hstack(a, c), vstack(a, c), rref(a)[0], s.basis, kernel(a).basis,
                image(a).basis, image(a, canonicalize(transpose(b))).basis, subspace_sum(s, t).basis,
                s.intersect(t).basis, quotient_map(s), coords_map(s), within(s, t).basis,
                extend_basis(s, c), times_transpose(a, c), times_transpose(transpose(b), a)]
        if m == k and rank(a) == m:
            made.append(inverse(a))
        for product in made:
            assert_canonical(product)


def test_equal_values_compare_and_hash_equal_however_built():
    ints = [[2, -4, 0], [0, 6, 3]]
    by_ints = Matrix.from_rows(ints)
    by_fractions = Matrix.from_rows([[Fraction(2 * x, 2) for x in r] for r in ints])
    by_product = Matrix.from_rows([[Fraction(1, 3), Fraction(-2, 3), 0], [0, 1, Fraction(1, 2)]]) @ (
        Matrix.from_rows([[6, 0, 0], [0, 6, 0], [0, 0, 6]]))
    by_transposes = transpose(transpose(by_ints))
    for m in (by_fractions, by_product, by_transposes):
        assert m == by_ints and hash(m) == hash(by_ints)
        assert m.irows == by_ints.irows
    rng = random.Random(4)
    for _ in range(40):
        m = random_rational_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        for same in (transpose(transpose(m)), m @ Matrix.identity(m.ncols),
                     Matrix.identity(m.nrows) @ m, m + Matrix.zero(m.nrows, m.ncols),
                     Matrix.from_rows(m.rows, ncols=m.ncols)):
            assert same == m and hash(same) == hash(m)


def test_from_rows_is_the_one_rational_constructor():
    """Entries are ints and Fractions only: text, floats and bools are refused, not parsed."""
    for bad in ("1/2", 0.5, True):
        with pytest.raises(TypeError):
            Matrix.from_rows([[1, bad]])
        with pytest.raises(TypeError):
            span_of_vectors([[1, bad]], 2)
    for args in ((1, 2, [[1, 2]]), ()):
        with pytest.raises(TypeError):
            Matrix(*args)


def test_eliminations_go_through_module_rref(monkeypatch):
    """The benchmark's tracer counts eliminations by wrapping linalg.rref; each
    entry point below must reach it through the module name."""
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m, *args, **kwargs: calls.append(m) or real(m, *args, **kwargs))

    def fresh():  # a new matrix: no derived object is kept on it yet
        return Matrix.from_rows([[1, 2], [3, 4]])

    s, t = span_of_vectors([[1, 2]], 2), span_of_vectors([[1, 3]], 2)
    for run in (lambda: canonicalize(fresh()), lambda: inverse(fresh()), lambda: rank(fresh()),
                lambda: extend_basis(linalg.zero_subspace(2), fresh()),
                lambda: image(fresh()), lambda: image(fresh(), s), lambda: kernel(fresh()),
                lambda: s.intersect(t), lambda: within(s, t)):
        calls.clear()
        run()
        assert calls
