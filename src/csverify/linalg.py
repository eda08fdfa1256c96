"""Exact dense linear algebra over the rationals.

Everything downstream (filtrations, monodromy, the sequence verifiers)
reduces to the subspace lattice implemented here: canonical reduced
row-echelon bases, sums, intersections, images, kernels and preimages.
No floating point is used anywhere: entries are fractions.Fraction.
The inner loops (elimination, products, membership) run on Python ints:
each row or column is scaled to integer numerators over a common
denominator, elimination is fraction-free, and a Fraction is built once
per output entry.  Only this module knows the integer form.

Conventions:
  * vectors are tuples of rationals, acted on as column vectors;
  * a matrix of shape (m, n) maps Q^n -> Q^m;
  * a Subspace stores a basis whose rows are in reduced row-echelon
    form, so two subspaces are equal as sets iff they compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union


def Q(value: Union[int, str, Fraction] = 0, den: Optional[int] = None) -> Fraction:
    """Parse a rational: an int, a Fraction, "p/q" text, or value/den."""
    return Fraction(value, den)


QLike = Union[int, str, Fraction]

_ZERO = Q(0)
_ONE = Q(1)


class DimensionMismatchError(ValueError):
    """Shapes of the operands are incompatible."""


def qstr(x) -> str:
    """Render a rational as "p/q" (or "p" when integral)."""
    return str(x)


def _row(values: Iterable[QLike]) -> tuple:
    # a Fraction is immutable, so one already in hand is kept, not copied
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _int_row(values) -> tuple:
    """(integer numerators, common denominator) of a row of rationals."""
    dens = [x.denominator for x in values]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // d) for x, d in zip(values, dens)], den


def _frac(num: int, den: int) -> Fraction:
    if not num:
        return _ZERO
    if den == 1:
        return Fraction(num)
    return Fraction(num, den)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with explicit shape (rows may be empty)."""

    nrows: int
    ncols: int
    rows: tuple

    @staticmethod
    def from_rows(rows: Sequence[Sequence[QLike]], ncols: Optional[int] = None) -> "Matrix":
        rows = [_row(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatchError("rows have varying lengths")
            if ncols is not None and ncols != width:
                raise DimensionMismatchError(f"expected {ncols} columns, got {width}")
            ncols = width
        elif ncols is None:
            raise DimensionMismatchError("column count required for a matrix with no rows")
        return Matrix(len(rows), ncols, tuple(rows))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(m: int, n: int) -> "Matrix":
        """The zero matrix, one shared instance per shape (a Matrix is never mutated)."""
        return Matrix(m, n, ((_ZERO,) * n,) * m)

    # read through image/kernel; kept outside the fields, so eq/hash/repr are unchanged
    @cached_property
    def _image(self) -> "Subspace":
        return canonicalize(transpose(self))

    @cached_property
    def _kernel(self) -> "Subspace":
        return canonicalize(self).annihilator()

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        # integer dot products of rows by columns, one Fraction per entry
        cols = [_int_row(c) for c in transpose(other).rows]
        out = []
        for r in self.rows:
            a, da = _int_row(r)
            out.append(tuple(_frac(sum(map(mul, a, b)), da * db) for b, db in cols))
        return Matrix(self.nrows, other.ncols, tuple(out))

    def apply(self, vec: Sequence[QLike]) -> tuple:
        """Matrix times column vector."""
        v = _row(vec)
        if len(v) != self.ncols:
            raise DimensionMismatchError(f"vector of length {len(v)} for {self.nrows}x{self.ncols}")
        b, db = _int_row(v)
        out = []
        for r in self.rows:
            a, da = _int_row(r)
            out.append(_frac(sum(map(mul, a, b)), da * db))
        return tuple(out)

    def transpose(self) -> "Matrix":
        return transpose(self)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("shape mismatch in matrix sum")
        return Matrix(self.nrows, self.ncols,
                      tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)))

    def scale(self, c: QLike) -> "Matrix":
        c = Q(c)
        return Matrix(self.nrows, self.ncols, tuple(tuple(c * x for x in r) for r in self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(qstr(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


def transpose(m: Matrix) -> Matrix:
    if m.nrows == 0:
        return Matrix(m.ncols, 0, tuple(() for _ in range(m.ncols)))
    return Matrix(m.ncols, m.nrows, tuple(zip(*m.rows)))


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.ncols:
        raise DimensionMismatchError("vstack with differing column counts")
    return Matrix(a.nrows + b.nrows, a.ncols, a.rows + b.rows)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.nrows != b.nrows:
        raise DimensionMismatchError("hstack with differing row counts")
    return Matrix(a.nrows, a.ncols + b.ncols, tuple(r1 + r2 for r1, r2 in zip(a.rows, b.rows)))


def rref(m: Matrix) -> tuple:
    """Reduced row-echelon form.

    Returns (rows, pivots) where rows are the nonzero reduced rows and
    pivots the strictly increasing pivot column indices.

    Fraction-free Gauss-Jordan: each row is scaled to integers (scaling
    a row leaves its span, and so the reduced form, unchanged), every
    update p*row - f*pivot_row is divided by the row's content, and the
    pivot rows are divided by their pivots once at the end.
    """
    if not m.nrows or not m.ncols:
        return (), ()
    rows = [_int_row(r)[0] for r in m.rows]
    nrows = m.nrows
    pivots = []
    pr = 0
    for c in range(m.ncols):
        for i in range(pr, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[pr], rows[i] = rows[i], rows[pr]
        prow = rows[pr]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != pr:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    reduced = []
    for row, c in zip(rows, pivots):
        p = row[c]
        reduced.append(tuple(_frac(x, p) for x in row))
    return tuple(reduced), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim with canonical echelon basis.

    Construct through :func:`canonicalize`; the canonical form makes
    set equality coincide with structural equality.
    """

    ambient_dim: int
    basis: Matrix
    pivots: tuple

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @cached_property
    def _int_basis(self) -> tuple:
        """(den, [(j, column j of den * basis)] over the non-pivot columns j)."""
        den = lcm(*[x.denominator for r in self.basis.rows for x in r])
        pivot_set = set(self.pivots)
        free = [(j, [x.numerator * (den // x.denominator) for x in col])
                for j, col in enumerate(transpose(self.basis).rows) if j not in pivot_set]
        return den, free

    def contains_vector(self, vec: Sequence[QLike]) -> bool:
        v = _row(vec)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector/ambient dimension mismatch")
        # Eliminating v against the reduced basis leaves v - sum_i v[p_i] * row_i,
        # which is zero on the pivot columns; v is in the span iff it is zero
        # on the free columns too.
        v, _ = _int_row(v)
        den, free = self._int_basis
        coeffs = [v[p] for p in self.pivots]
        return all(den * v[j] == sum(map(mul, coeffs, col)) for j, col in free)

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimension mismatch")
        if other.dim > self.dim:
            return False
        return all(self.contains_vector(r) for r in other.basis.rows)

    def annihilator(self) -> "Subspace":
        """The kernel of the basis matrix, read off the reduced rows.

        Each free column j gives the vector with 1 at j and -row_i[j] at the
        pivot of row i; the basis is not eliminated again.
        """
        n = self.ambient_dim
        pivot_set = set(self.pivots)
        rows = []
        for j in range(n):
            if j not in pivot_set:
                v = [_ZERO] * n
                v[j] = _ONE
                for r, p in zip(self.basis.rows, self.pivots):
                    v[p] = -r[j]
                rows.append(tuple(v))
        return canonicalize(Matrix(len(rows), n, tuple(rows)))

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimension mismatch")
        return canonicalize(vstack(self.basis, other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked-coefficient system.

        A combination x.A = y.B of the two bases lies in both spaces; the
        pairs (x, y) form the kernel of [A^T | -B^T].
        """
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimension mismatch")
        p, q = self.dim, other.dim
        if p == 0 or q == 0:
            return zero_subspace(self.ambient_dim)
        stacked = hstack(transpose(self.basis), transpose(other.basis).scale(-1))
        combos = kernel(stacked)
        x = Matrix(combos.dim, p, tuple(comb[:p] for comb in combos.basis.rows))
        return canonicalize(x @ self.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def canonicalize(m: Matrix) -> Subspace:
    """Row space of m in canonical reduced-echelon form."""
    reduced, pivots = rref(m)
    return Subspace(m.ncols, Matrix(len(reduced), m.ncols, reduced), pivots)


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix(0, ambient_dim, ()), ())


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix.identity(ambient_dim), tuple(range(ambient_dim)))


def span_of_vectors(vectors: Sequence[Sequence[QLike]], ambient_dim: int) -> Subspace:
    return canonicalize(Matrix.from_rows(list(vectors), ncols=ambient_dim))


def image(f: Matrix, s: Optional[Subspace] = None) -> Subspace:
    """Image f(s), defaulting to the full column space of f (kept on f)."""
    if s is not None and s.ambient_dim != f.ncols:
        raise DimensionMismatchError("subspace not in the domain of f")
    if s is None or s.dim == f.ncols:
        return f._image
    if s.dim == 0:
        return zero_subspace(f.nrows)
    return canonicalize(s.basis @ transpose(f))


def kernel(f: Matrix) -> Subspace:
    """Kernel of f as a canonical subspace of the domain (kept on f)."""
    return f._kernel


def extend_basis(base: Subspace, rows: Iterable[Sequence[QLike]]) -> list:
    """The rows, in order, that lie outside the span of base and of the rows kept before them."""
    kept = []
    for row in rows:
        if not base.contains_vector(row):
            kept.append(row)
            base = canonicalize(vstack(base.basis, Matrix.from_rows([row], ncols=base.ambient_dim)))
    return kept


def preimage(f: Matrix, s: Subspace) -> Subspace:
    """{v : f(v) in s}, computed as the kernel of (membership of s) . f."""
    if s.ambient_dim != f.nrows:
        raise DimensionMismatchError("subspace not in the codomain of f")
    return kernel(membership_matrix(s) @ f)


def membership_matrix(s: Subspace) -> Matrix:
    """A square matrix E with kernel exactly s (residual after reduction)."""
    n = s.ambient_dim
    bt = transpose(s.basis)
    sel = coords_map(s)
    return Matrix.identity(n) + (bt @ sel).scale(-1)


def coords_map(s: Subspace) -> Matrix:
    """Selector P with P.v = coordinates of v in the basis of s (valid on s)."""
    rows = []
    for p in s.pivots:
        rows.append(tuple(_ONE if j == p else _ZERO for j in range(s.ambient_dim)))
    return Matrix(s.dim, s.ambient_dim, tuple(rows))


def quotient_map(s: Subspace) -> Matrix:
    """Surjection Q^n -> Q^(n-dim s) with kernel exactly s."""
    n = s.ambient_dim
    e = membership_matrix(s)
    pivot_set = set(s.pivots)
    rows = tuple(e.rows[j] for j in range(n) if j not in pivot_set)
    return Matrix(n - s.dim, n, rows)


def section_of_quotient(s: Subspace) -> Matrix:
    """Canonical right inverse of quotient_map(s) (columns on free coords)."""
    n = s.ambient_dim
    pivot_set = set(s.pivots)
    free = [j for j in range(n) if j not in pivot_set]
    rows = []
    for i in range(n):
        rows.append(tuple(_ONE if i == free[c] else _ZERO for c in range(len(free))))
    return Matrix(n, len(free), tuple(rows))


def solve(a: Matrix, b: Sequence[QLike]) -> Optional[tuple]:
    """One solution of a.x = b, or None when inconsistent (free vars 0)."""
    bv = _row(b)
    if len(bv) != a.nrows:
        raise DimensionMismatchError("right-hand side has wrong length")
    aug = Matrix(a.nrows, a.ncols + 1, tuple(r + (bv[i],) for i, r in enumerate(a.rows)))
    reduced, pivots = rref(aug)
    x = [_ZERO] * a.ncols
    for row, p in zip(reduced, pivots):
        if p == a.ncols:
            return None
        x[p] = row[a.ncols]
    return tuple(x)


def inverse(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    n = a.nrows
    aug = hstack(a, Matrix.identity(n))
    reduced, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise DimensionMismatchError("matrix is singular")
    return Matrix(n, n, tuple(r[n:] for r in reduced))


def rank(a: Matrix) -> int:
    return len(rref(a)[1])
