"""Exact dense linear algebra over the rationals.

Everything downstream (filtrations, monodromy, the sequence verifiers)
reduces to the subspace lattice implemented here: canonical reduced
row-echelon bases, sums, intersections, images, kernels and quotients.
No floating point is used anywhere.

A Matrix stores each row as integers over one denominator: ``irows``
holds one (numerators, denominator) pair per row, the denominator
positive and the pair in lowest terms (no prime divides the denominator
and every numerator).  That form is unique, so equality and hashing
stay structural.  Every operation reads and writes it directly:
elimination is fraction-free, a product scales the right factor to one
denominator and reduces each output row by one gcd.  ``times_transpose(a,
b)`` is a.b^T by the same rule with b's rows in place of columns, so a
map applied to the rows of a basis (images, containment, intersections,
Jordan chains, the monodromy axiom check) builds no transpose.  Fractions
are built only at the boundary: ``Matrix.rows`` builds them on each read,
and ``serialize`` formats and parses the integers.  ``Matrix.from_rows``
is the one constructor that takes rows of ints and Fractions; callers
that build matrices in bulk write the stored form through
``Matrix.of(irows, ncols)`` and ``ratio_row``.  Sizes come from the data:
``Matrix.of`` counts its rows (ncols is given for a matrix with none) and
``Subspace(basis, pivots)`` lives in Q^basis.ncols, so what callers still
keep by hand is the stored form itself, lowest terms and reduced bases.
Every elimination is ``rref``; ``rank`` and ``extend_basis`` stop after its
forward pass.  Each derived object is computed once and kept on its
matrix or subspace by one helper, ``_kept``: ``rank``, ``kernel``, ``kernel_flag``
(for a square matrix; its step ker f is the kernel memo),
``jordan_chains`` (built from the flag), ``centered_steps`` (the steps of
the weight filtration centered at 0 that the chains span), the full
column space behind ``image`` and a subspace's ``quotient_map`` (read off
its scaled basis: the one reduction modulo a subspace, behind every
containment, cokernel and ``within``) are each that memoised function.
``chain_steps`` is the one place where chains become weights, for these
steps and for the generators' Jordan forms alike; it adds one weight
at a time to the reduced basis of the step below.  Every kernel is one
elimination (``null_space``), ``within(t, s)`` (t . s in t's coordinates, behind
intersections, induced filtrations and the monodromy recursion) too.  The zero
subspace is one shared instance per dimension, like ``Matrix.zero`` and ``identity``.

Conventions:
  * vectors are tuples of rationals, acted on as column vectors;
  * a matrix of shape (m, n) maps Q^n -> Q^m;
  * a Subspace stores a basis whose rows are in reduced row-echelon
    form, so two subspaces are equal as sets iff they compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence, Union


# the rational type every boundary returns; bench/run.py reports it as the backend
Q = Fraction

QLike = Union[int, Fraction]


class DimensionMismatchError(ValueError):
    """Shapes of the operands are incompatible."""


def qstr(x) -> str:
    """Render a rational as "p/q" (or "p" when integral)."""
    return str(x)


def _lowest(nums, den: int) -> tuple:
    """(nums, den) divided by their gcd, for den > 0; a zero row becomes (zeros, 1)."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([x // g for x in nums]), den // g


def ratio_row(pairs) -> tuple:
    """The stored form of the row of rationals p/q, given as integer pairs (p, q) with q != 0."""
    den = lcm(*[q for _, q in pairs])  # lcm is never negative
    return _lowest([p * (den // q) for p, q in pairs], den)


def _irow(values) -> tuple:
    """The stored form of a row of ints and Fractions; text, floats and bools are a TypeError."""
    if not all(type(x) is int or type(x) is Fraction for x in values):
        raise TypeError("matrix entries must be int or Fraction")
    return ratio_row([(x.numerator, x.denominator) for x in values])


def _scaled(irows) -> tuple:
    """(D, rows scaled to integers over D), for D the lcm of the row denominators."""
    den = lcm(*[d for _, d in irows])
    return den, [r if d == den else [x * (den // d) for x in r] for r, d in irows]


class Matrix:
    """Immutable dense matrix with explicit shape (rows may be empty).

    ``irows`` is the stored form described in the module docstring.  Build
    one with ``from_rows`` (rows of ints and Fractions) or ``of`` (rows
    already stored); ``Matrix(...)`` itself refuses.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Matrix with Matrix.from_rows (rational rows) or Matrix.of (stored rows)")

    @staticmethod
    def of(irows: tuple, ncols: int) -> "Matrix":
        """The matrix with these rows, already in the stored form; ncols is its width, needed when there are none."""
        m = object.__new__(Matrix)
        m.nrows, m.ncols, m.irows = len(irows), ncols, irows
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence[QLike]], ncols: Optional[int] = None) -> "Matrix":
        """The matrix with these rows; ncols is required when there are none."""
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatchError("rows have varying lengths")
            if ncols is not None and ncols != width:
                raise DimensionMismatchError(f"expected {ncols} columns, got {width}")
            ncols = width
        elif ncols is None:
            raise DimensionMismatchError("column count required for a matrix with no rows")
        return Matrix.of(tuple(map(_irow, rows)), ncols)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int) -> "Matrix":
        """The identity, one shared instance per size, like ``zero``."""
        return Matrix.of(tuple((tuple(int(i == j) for j in range(n)), 1) for i in range(n)), n)

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(m: int, n: int) -> "Matrix":
        """The zero matrix, one shared instance per shape (a Matrix is never mutated); no row when m = 0."""
        return Matrix.of((((0,) * n, 1),) * m if m else (), n)

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, built on each read."""
        return tuple(tuple(Fraction(x, d) for x in r) for r, d in self.irows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.nrows == other.nrows and self.ncols == other.ncols and self.irows == other.irows

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.irows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        if not other.nrows:
            return Matrix.zero(self.nrows, other.ncols)
        # integer dot products with the columns of other over one denominator, one gcd per row
        den, scaled = _scaled(other.irows)
        cols = list(zip(*scaled))
        return Matrix.of(tuple(
            _lowest([sum(map(mul, a, c)) for c in cols], da * den) for a, da in self.irows), other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("shape mismatch in matrix sum")
        out = []
        for (a, da), (b, db) in zip(self.irows, other.irows):
            den = lcm(da, db)
            fa, fb = den // da, den // db
            out.append(_lowest([x * fa + y * fb for x, y in zip(a, b)], den))
        return Matrix.of(tuple(out), self.ncols)

    def is_zero(self) -> bool:
        return not any(any(r) for r, _ in self.irows)

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(qstr(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


def transpose(m: Matrix) -> Matrix:
    if m.nrows == 0:
        return Matrix.zero(m.ncols, 0)
    den, scaled = _scaled(m.irows)
    return Matrix.of(tuple(_lowest(c, den) for c in zip(*scaled)), m.nrows)


def times_transpose(a: Matrix, b: Matrix) -> Matrix:
    """a @ transpose(b) without building the transpose: the rows of a dotted with b's rows,
    scaled once to one denominator, one gcd per output row.  With b = f, a row v of a becomes
    the vector f v, so this applies f to rows."""
    if a.ncols != b.ncols:
        raise DimensionMismatchError(
            f"cannot multiply {a.nrows}x{a.ncols} by the transpose of {b.nrows}x{b.ncols}")
    den, scaled = _scaled(b.irows)
    return Matrix.of(tuple(
        _lowest([sum(map(mul, x, r)) for r in scaled], dx * den) for x, dx in a.irows), b.nrows)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.ncols:
        raise DimensionMismatchError("vstack with differing column counts")
    return Matrix.of(a.irows + b.irows, a.ncols)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """Side by side; two rows in lowest terms over lcm(da, db) need no gcd."""
    if a.nrows != b.nrows:
        raise DimensionMismatchError("hstack with differing row counts")
    rows = []
    for (x, dx), (y, dy) in zip(a.irows, b.irows):
        den = lcm(dx, dy)
        fx, fy = den // dx, den // dy
        rows.append((tuple([v * fx for v in x] + [v * fy for v in y]), den))
    return Matrix.of(tuple(rows), a.ncols + b.ncols)


def rref(m: Matrix, pivots_only: bool = False) -> tuple:
    """Reduced row-echelon form: (reduced, pivots), the nonzero reduced rows as a Matrix and the
    strictly increasing pivot columns.  A forward pass finds the pivots, then back-substitution
    clears each pivot column above its row; with ``pivots_only`` it returns (None, pivots) after
    the forward pass, whose pivots are already the reduced form's.

    Fraction-free on the numerators (a row's denominator does not change its span): every update
    p*row - f*pivot_row is divided by the row's content, and at the end each pivot row, made
    primitive with a positive pivot p, is stored over p.
    """
    if not m.nrows or not m.ncols:
        return None if pivots_only else Matrix.zero(0, m.ncols), ()
    rows = [list(r) for r, _ in m.irows]
    nrows = m.nrows
    pivots = []
    for c in range(m.ncols):
        pr = len(pivots)
        for i in range(pr, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[pr], rows[i] = rows[i], rows[pr]
        pivots.append(c)
        _clear(rows, range(pr + 1, nrows), pr, c)
        if len(pivots) == nrows:
            break
    if pivots_only:
        return None, tuple(pivots)
    for pr in range(len(pivots) - 1, 0, -1):  # last pivot first: row pr is already clear at the later pivots
        _clear(rows, range(pr), pr, pivots[pr])
    reduced = []
    for row, c in zip(rows, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        if g != 1:
            row = [x // g for x in row]
        reduced.append((tuple(row), row[c]))
    return Matrix.of(tuple(reduced), m.ncols), tuple(pivots)


def _clear(rows: list, targets, pr: int, c: int):
    """Clear column c of rows[i], for i in targets, with the pivot row rows[pr], each row kept primitive."""
    prow = rows[pr]
    p = prow[c]
    for i in targets:
        f = rows[i][c]
        if f:
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(rows[i], prow)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


class Subspace:
    """A subspace of Q^ambient_dim with canonical echelon basis.

    Construct through :func:`canonicalize`; the canonical form makes
    set equality coincide with structural equality, over (ambient_dim,
    basis, pivots); what ``_kept`` keeps on it does not count.
    """

    def __init__(self, basis: Matrix, pivots: tuple):
        self.ambient_dim, self.basis, self.pivots = basis.ncols, basis, pivots

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.pivots == other.pivots and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis, self.pivots))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def _residual(self, v) -> list:
        """v's integer numerators under the quotient map: v - sum_i v[p_i] * row_i, which is zero
        on the pivot columns, read on each free column and scaled by that column's denominator."""
        return [sum(map(mul, q, v)) for q, _ in quotient_map(self).irows]

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimension mismatch")
        return self.contains_rows(other.basis)

    def contains_rows(self, m: Matrix) -> bool:
        """Whether every row of m lies in the subspace: each residual is zero."""
        return not any(any(self._residual(r)) for r, _ in m.irows)

    def sum(self, other: "Subspace") -> "Subspace":
        """The span of both; an operand is returned as is when the other is zero or the whole space."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimension mismatch")
        if other.dim == 0 or self.dim == self.ambient_dim:
            return self
        if self.dim == 0 or other.dim == other.ambient_dim:
            return other
        return canonicalize(vstack(self.basis, other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection: its coordinates in other's basis (``within``), mapped back through that basis."""
        return canonicalize(within(other, self).basis @ other.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def canonicalize(m: Matrix) -> Subspace:
    """Row space of m in canonical reduced-echelon form."""
    reduced, pivots = rref(m)
    return Subspace(reduced, pivots) if pivots else zero_subspace(m.ncols)


@lru_cache(maxsize=None)
def zero_subspace(ambient_dim: int) -> Subspace:
    """The zero subspace, one shared instance per ambient dimension (a Subspace is never mutated)."""
    return Subspace(Matrix.zero(0, ambient_dim), ())


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(Matrix.identity(ambient_dim), tuple(range(ambient_dim)))


def span_of_vectors(vectors: Sequence[Sequence[QLike]], ambient_dim: int) -> Subspace:
    return canonicalize(Matrix.from_rows(list(vectors), ncols=ambient_dim))


def _kept(build):
    """``build`` memoised on its matrix or subspace: build(f) runs on the first call for f, and its
    result is kept on f under the name of ``build``, outside eq/hash/repr."""
    slot = "_" + build.__name__

    @wraps(build)
    def kept(f):
        memo = f.__dict__
        if slot not in memo:
            memo[slot] = build(f)
        return memo[slot]
    return kept


@_kept
def _column_space(f: Matrix) -> Subspace:
    return canonicalize(transpose(f))


def image(f: Matrix, s: Optional[Subspace] = None) -> Subspace:
    """Image f(s), defaulting to the full column space of f (kept on f)."""
    if s is not None and s.ambient_dim != f.ncols:
        raise DimensionMismatchError("subspace not in the domain of f")
    if s is None or s.dim == f.ncols:
        return _column_space(f)
    return canonicalize(times_transpose(s.basis, f))


@_kept
def kernel(f: Matrix) -> Subspace:
    """Kernel of f as a canonical subspace of the domain (kept on f)."""
    return null_space(f)


def null_space(m: Matrix) -> Subspace:
    """Kernel of m, canonical, from one elimination: m reduced with its columns reversed has a quotient
    map whose rows, each reversed and taken in reverse order, are already ker m's reduced basis."""
    n = m.ncols
    rev = canonicalize(Matrix.of(tuple((r[::-1], d) for r, d in m.irows), n))
    rows = tuple((r[::-1], d) for r, d in reversed(quotient_map(rev).irows))
    pivots = tuple(j for j in range(n) if n - 1 - j not in rev.pivots)
    return Subspace(Matrix.of(rows, n), pivots) if rows else zero_subspace(n)


def within(t: Subspace, s: Subspace) -> Subspace:
    """t . s in the coordinates of t's basis (a vector of t has its entries at t's pivots there), from
    one elimination: the combinations of t's basis rows that the quotient map of s kills."""
    return null_space(times_transpose(quotient_map(s), t.basis))


def maps_into(f: Matrix, s: Subspace, t: Subspace) -> bool:
    """Whether f(s) lies in t, tested row by row against t's reduced basis: no image of s is reduced."""
    if s.ambient_dim != f.ncols or t.ambient_dim != f.nrows:
        raise DimensionMismatchError("subspaces not in the domain and target of f")
    return (s.dim == 0 or t.dim == t.ambient_dim  # f(0) = 0 lies in t, and anything lies in the whole space
            or t.contains_rows(times_transpose(s.basis, f)))


@_kept
def kernel_flag(f: Matrix) -> tuple:
    """(ker f^0, ker f^1, ..., ker f^p) for a square f, up to the first power whose kernel stops
    growing (kept on f).  It ends in the whole space iff f^p = 0; its step ker f^1 is kernel(f).

    No power of f is formed: ker f^(j+1) is the null space of f followed by the quotient map of
    ker f^j, one elimination per level."""
    if f.nrows != f.ncols:
        raise DimensionMismatchError("kernel flag of a non-square matrix")
    flag = [zero_subspace(f.ncols), kernel(f)]
    while flag[-2].dim < flag[-1].dim < f.ncols:
        flag.append(null_space(quotient_map(flag[-1]) @ f))
    return tuple(flag) if flag[-2].dim < flag[-1].dim else tuple(flag[:-1])


@_kept
def jordan_chains(f: Matrix) -> tuple:
    """Jordan chains spanning the last step of f's kernel flag (kept on f), each head first in
    the stored row form of ``Matrix.irows``: (v, fv, ..., f^(m-1)v) with f^m v = 0.

    Top down: a new chain starts at each row of ker f^j outside ker f^(j-1) and the running chains."""
    flag = kernel_flag(f)
    chains = []  # every chain started so far gets one more vector per lower level
    for level in range(len(flag) - 1, 0, -1):
        have = flag[level - 1]
        if chains:
            tails = times_transpose(Matrix.of(tuple(c[-1] for c in chains), f.nrows), f)
            for chain, row in zip(chains, tails.irows):
                chain.append(row)
            have = canonicalize(vstack(have.basis, tails))
        chains += [[row] for row in extend_basis(have, flag[level].basis).irows]
    if sum(map(len, chains)) != flag[-1].dim:
        raise AssertionError(f"Jordan chain vectors do not span ker f^{len(flag) - 1}")
    return tuple(map(tuple, chains))


@_kept
def centered_steps(f: Matrix) -> tuple:
    """``chain_steps`` of f's Jordan chains (kept on f): the weight filtration centered at 0
    that f's chains span, as (weight, step) pairs."""
    return chain_steps(jordan_chains(f), f.nrows)


def chain_steps(chains, dim: int) -> tuple:
    """(w, W_w) ascending, one pair per weight w that occurs, where a chain of length m gives its
    rows, head first, the weights m-1, m-3, ..., 1-m and W_w is the span of the rows of weight <= w.

    One weight at a time: W_w is the reduced basis of the step below stacked with the rows of
    weight w, so only those rows meet unreduced entries."""
    by_weight = {}
    for chain in chains:
        m = len(chain)
        for pos, row in enumerate(chain):
            by_weight.setdefault(m - 1 - 2 * pos, []).append(row)
    steps, below = [], zero_subspace(dim)
    for w in sorted(by_weight):
        rows = below.basis.irows + tuple(by_weight[w])
        below = canonicalize(Matrix.of(rows, dim))
        steps.append((w, below))
    return tuple(steps)


def extend_basis(base: Subspace, m: Matrix) -> Matrix:
    """The rows of m, in order, that lie outside the span of base and of the rows kept before them.

    Each row is reduced against base once; scaling a column keeps the
    dependencies among the residuals, and a row is kept iff its residual
    is a pivot column of the transposed residuals."""
    if base.ambient_dim != m.ncols:
        raise DimensionMismatchError("rows and base live in different spaces")
    residuals = [base._residual(r) for r, _ in m.irows]
    if not any(map(any, residuals)):
        return Matrix.zero(0, m.ncols)
    _, pivots = rref(Matrix.of(tuple((c, 1) for c in zip(*residuals)), m.nrows), pivots_only=True)
    return Matrix.of(tuple(m.irows[i] for i in pivots), m.ncols)


def coords_map(s: Subspace) -> Matrix:
    """Selector P with P.v = coordinates of v in the basis of s (valid on s)."""
    n = s.ambient_dim
    return Matrix.of(tuple((tuple(int(j == p) for j in range(n)), 1) for p in s.pivots), n)


@_kept
def quotient_map(s: Subspace) -> Matrix:
    """Surjection Q^n -> Q^(n-dim s) with kernel exactly s, read off the reduced basis (kept on s).

    Free column j gives the row with 1 at j and -row_i[j] at the pivot of
    row i; it reads entry j of v's residual after reduction against s.
    Column j, read off the basis scaled to one denominator, is c/d in lowest
    terms, so over d the row is d at j and -c at the pivots.
    """
    n = s.ambient_dim
    den, scaled = _scaled(s.basis.irows)
    rows = []
    for j in range(n):
        if j not in s.pivots:
            c, d = _lowest([r[j] for r in scaled], den)
            v = [0] * n
            v[j] = d
            for p, x in zip(s.pivots, c):
                v[p] = -x
            rows.append((tuple(v), d))
    return Matrix.of(tuple(rows), n)


def inverse(a: Matrix) -> Matrix:
    """The inverse, read off rref[a | I]; the right half of a row over its pivot is in lowest terms."""
    if a.nrows != a.ncols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    n = a.nrows
    reduced, pivots = rref(hstack(a, Matrix.identity(n)))
    if pivots != tuple(range(n)):
        raise DimensionMismatchError("matrix is singular")
    return Matrix.of(tuple((r[n:], d) for r, d in reduced.irows), n)


@_kept
def rank(a: Matrix) -> int:
    """The rank, from rref's forward pass alone (kept on a)."""
    return len(rref(a, pivots_only=True)[1])


def product_is_zero(g: Matrix, f: Matrix) -> bool:
    """Whether g.f = 0, entry by entry, stopping at the first nonzero one: f's rows are scaled to one
    denominator, as by ``@``, and no product Matrix is built."""
    if g.ncols != f.nrows:
        raise DimensionMismatchError(f"cannot multiply {g.nrows}x{g.ncols} by {f.nrows}x{f.ncols}")
    cols = list(zip(*_scaled(f.irows)[1]))
    return not any(sum(map(mul, a, c)) for a, _ in g.irows for c in cols)
