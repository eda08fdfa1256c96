"""Nilpotent operators and their centered weight filtrations.

For a nilpotent endomorphism N of Q^d and a center k there is a unique
finite increasing filtration M with N.M_i contained in M_{i-2} such that
the i-th power of N induces an isomorphism Gr_{k+i} -> Gr_{k-i}.  It is
determined by the kernel flag ker N < ker N^2 < ... < ker N^p = Q^d,
which ``kernel_flag`` builds from reduced row spaces without forming a
power of N.  A ``NilpotentOp`` computes its flag and its Jordan chains
once; the chain construction and the weight-bound check read them from
there.  Two independent constructions are implemented:

* ``monodromy_filtration`` builds Jordan chains of N from the kernel
  flag (the only eigenvalue is 0, so no eigenvalue machinery is needed)
  and assigns a chain of length m the weights k+m-1, k+m-3, ...,
  k-m+1 from head to tail;

* ``monodromy_filtration_recursive`` uses the classical recursion: with
  N^m nonzero and N^{m+1} = 0 the extreme steps are forced (full space,
  ker N^m, im N^m, zero) and the middle ones are lifted from the centered
  filtration of the operator induced on ker(N^m)/im(N^m).

The two share the flag but no chain or recursion logic.  Uniqueness
makes their agreement a sharp cross-check, exercised at scale by the
test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .filtration import FilteredSpace, graded_piece
from .linalg import (
    DimensionMismatchError,
    Matrix,
    canonicalize,
    coords_map,
    extend_basis,
    image,
    quotient_map,
    rank,
    section_of_quotient,
    span_of_vectors,
    transpose,
    zero_subspace,
)


class NilpotencyError(ValueError):
    """The matrix is not nilpotent."""


def kernel_flag(matrix: Matrix) -> tuple:
    """(ker N^0, ker N^1, ..., ker N^p) for N = matrix, where N^p = 0.

    No power of N is formed: if R_j is the reduced basis of the row space
    of N^j, the row space of N^{j+1} is that of R_j.N, and ker N^j is
    ker R_j, read off R_j's pivots.  Raises NilpotencyError when the
    rank stops falling while still above zero.
    """
    if matrix.nrows != matrix.ncols:
        raise DimensionMismatchError("kernel flag of a non-square matrix")
    flag = [zero_subspace(matrix.ncols)]
    rank, rows = matrix.nrows, canonicalize(matrix)
    while rank:
        if rows.dim == rank:
            raise NilpotencyError("matrix is not nilpotent")
        flag.append(rows.annihilator())
        rank = rows.dim
        if rank:
            rows = canonicalize(rows.basis @ matrix)
    return tuple(flag)


def nilpotency_index(m: Matrix) -> int:
    """Least p with m^p = 0; raises NilpotencyError if m is not nilpotent."""
    return len(kernel_flag(m)) - 1


class NilpotentOp:
    """A nilpotent endomorphism N of a filtered space, viewed as landing
    in the space twisted by -1.

    Weight compatibility in that twisted sense means N may raise stored
    weights by at most two: N.W_i must land in W_{i+2}.
    """

    __slots__ = ("space", "matrix", "flag", "chains")

    def __init__(self, space: FilteredSpace, matrix: Matrix):
        if matrix.nrows != space.dim or matrix.ncols != space.dim:
            raise DimensionMismatchError(
                f"operator is {matrix.nrows}x{matrix.ncols} on a space of dimension {space.dim}")
        self.flag = kernel_flag(matrix)
        for w in space.jumps:
            if not space.step(w + 2).contains(image(matrix, space.step(w))):
                raise NilpotencyError(f"operator raises weight {w} by more than two")
        self.chains = _jordan_chains(matrix, self.flag)  # independent of the center
        self.space = space
        self.matrix = matrix

    @property
    def index(self) -> int:
        """Nilpotency index: the least p with N^p = 0."""
        return len(self.flag) - 1

    def __repr__(self) -> str:
        return f"NilpotentOp(dim {self.space.dim}, index {self.index})"


@dataclass(frozen=True)
class CenteredFiltration:
    """A candidate monodromy filtration: a center and the step data."""

    center: int
    filtration: FilteredSpace


def _jordan_chains(matrix: Matrix, flag: tuple) -> tuple:
    """Jordan chains of a nilpotent matrix from its kernel flag.

    Returns the chains, each a tuple of vectors head-first, so a chain of
    length m is (v, Nv, ..., N^{m-1}v) with N^m v = 0.
    """
    d = matrix.nrows
    chains = []  # every chain started so far gets one more vector per lower level
    for level in range(len(flag) - 1, 0, -1):
        for chain in chains:
            chain.append(matrix.apply(chain[-1]))
        have = flag[level - 1]
        if chains:
            have = span_of_vectors(have.basis.rows + tuple(c[-1] for c in chains), d)
        chains += [[row] for row in extend_basis(have, flag[level].basis.rows)]
    total = sum(len(c) for c in chains)
    if total != d:
        raise AssertionError(f"Jordan chain vectors span dimension {total}, expected {d}")
    return tuple(map(tuple, chains))


def _chain_filtration(chains: tuple, dim: int, k: int) -> FilteredSpace:
    """Centered weight filtration at k on Q^dim, from Jordan chains."""
    weighted = []  # (weight, vector)
    for chain in chains:
        m = len(chain)
        for pos, vec in enumerate(chain):
            weighted.append((k + m - 1 - 2 * pos, vec))
    weights = sorted({w for w, _ in weighted})
    steps = {}
    for w in weights:
        rows = [vec for wt, vec in weighted if wt <= w]
        steps[w] = span_of_vectors(rows, dim)
    return FilteredSpace(dim, steps)


def centered_filtration(matrix: Matrix, k: int) -> FilteredSpace:
    """Centered weight filtration of a nilpotent matrix, by Jordan chains."""
    if matrix.nrows == 0:
        return FilteredSpace.zero()
    return _chain_filtration(_jordan_chains(matrix, kernel_flag(matrix)), matrix.nrows, k)


def monodromy_filtration(n: NilpotentOp, k: int) -> CenteredFiltration:
    """The unique filtration centered at k attached to the nilpotent n."""
    return CenteredFiltration(k, _chain_filtration(n.chains, n.space.dim, k))


def centered_filtration_recursive(matrix: Matrix, k: int,
                                  section_rng: Optional[random.Random] = None) -> FilteredSpace:
    """Centered filtration by the classical recursion on ker(N^m)/im(N^m).

    The induced operator on the subquotient is computed through a linear
    section of ker(N^m) onto the quotient; any section gives the same
    induced matrix, and ``section_rng`` perturbs the canonical choice by
    an arbitrary correction into im(N^m) to let tests exercise that.
    """
    dim = matrix.nrows
    if dim == 0:
        return FilteredSpace.zero()
    flag = kernel_flag(matrix)
    m = len(flag) - 2
    if m <= 0:
        return FilteredSpace.pure(dim, k)
    ker_nm = flag[m]
    im_nm = image(matrix)
    for _ in range(m - 1):
        im_nm = image(matrix, im_nm)
    k_basis = ker_nm.basis          # kappa x dim
    k_coords = coords_map(ker_nm)   # kappa x dim
    n_on_ker = k_coords @ matrix @ transpose(k_basis)
    im_in_k = image(k_coords, im_nm)
    q2 = quotient_map(im_in_k)
    sigma = section_of_quotient(im_in_k)
    if section_rng is not None and im_in_k.dim > 0 and q2.nrows > 0:
        correction = Matrix.from_rows(
            [[section_rng.randint(-3, 3) for _ in range(q2.nrows)] for _ in range(im_in_k.dim)],
            ncols=q2.nrows)
        sigma = sigma + (transpose(im_in_k.basis) @ correction)
    induced = q2 @ n_on_ker @ sigma
    inner = centered_filtration_recursive(induced, k, section_rng)

    steps = {k + m: canonicalize(Matrix.identity(dim)), k + m - 1: ker_nm, k - m: im_nm}
    lift = transpose(k_basis) @ sigma  # quotient coords -> ambient
    for w, sub in inner.steps:
        if w <= k - m or w > k + m - 2:
            continue
        rows = list(im_nm.basis.rows)
        for row in sub.basis.rows:
            rows.append(lift.apply(row))
        steps[w] = span_of_vectors(rows, dim)
    return FilteredSpace(dim, steps)


def monodromy_filtration_recursive(n: NilpotentOp, k: int,
                                   section_rng: Optional[random.Random] = None) -> CenteredFiltration:
    """Same object as monodromy_filtration, by the independent recursion."""
    return CenteredFiltration(k, centered_filtration_recursive(n.matrix, k, section_rng))


@dataclass(frozen=True)
class AxiomVerdict:
    """Result of checking the two centered-filtration axioms."""

    ok: bool
    failed_axiom: Optional[str] = None   # "shift" or "graded_iso"
    failed_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_centered_axioms(f: CenteredFiltration, n: NilpotentOp) -> AxiomVerdict:
    """Check N.M_i <= M_{i-2} and that N^i induces Gr_{k+i} ~ Gr_{k-i}.

    Returns the first failing axiom with its witness index; this is a
    verdict, not an exception.
    """
    space = f.filtration
    if space.dim != n.space.dim:
        raise DimensionMismatchError("filtration and operator live on different spaces")
    k = f.center
    for w in space.jumps:
        if not space.step(w - 2).contains(image(n.matrix, space.step(w))):
            return AxiomVerdict(False, failed_axiom="shift", failed_index=w)
    spread = max((abs(w - k) for w in space.jumps), default=0)
    power = n.matrix
    for i in range(1, spread + 1):
        up = _graded_complement(space, k + i)
        down_proj = graded_piece(space, k - i).projection
        dim_up = up.nrows
        dim_down = down_proj.nrows
        if dim_up != dim_down:
            return AxiomVerdict(False, failed_axiom="graded_iso", failed_index=i)
        if dim_up:
            induced = down_proj @ power @ transpose(up)
            if rank(induced) != dim_up:
                return AxiomVerdict(False, failed_axiom="graded_iso", failed_index=i)
        power = power @ n.matrix
    return AxiomVerdict(True)


def _graded_complement(space: FilteredSpace, w: int) -> Matrix:
    """Rows spanning W_w modulo W_{w-1} (representatives of Gr_w)."""
    return Matrix.from_rows(extend_basis(space.step(w - 1), space.step(w).basis.rows), ncols=space.dim)


@dataclass(frozen=True)
class BoundsVerdict:
    """Outcome of the kernel/cokernel weight-bound check.

    ``status`` is "ok", "hypothesis_not_satisfied" (the space's weight
    filtration is not the centered filtration of the operator, so the
    bounds are not even in question), "ker_bound_failed" or
    "coker_bound_failed".
    """

    status: str
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __bool__(self) -> bool:
        return self.ok


def ker_coker_weight_bounds(n: NilpotentOp, k: int) -> BoundsVerdict:
    """ker N has weights <= k and coker(N: V -> V(-1)) has weights >= k+2.

    Requires the weight filtration of n.space to equal the centered
    filtration of n at k.  The cokernel bound is checked in quotient
    form: W_{k+1} of the cokernel vanishes iff W_{k-1}(V) lies in im N.
    """
    if monodromy_filtration(n, k).filtration != n.space:
        return BoundsVerdict("hypothesis_not_satisfied",
                             "weight filtration differs from the centered filtration")
    ker_n = n.flag[min(n.index, 1)]  # the zero space has index 0 and ker N = ker N^0
    if not n.space.step(k).contains(ker_n):
        return BoundsVerdict("ker_bound_failed", f"ker N not contained in W_{k}")
    im_n = image(n.matrix)
    if not im_n.contains(n.space.step(k - 1)):
        return BoundsVerdict("coker_bound_failed", f"W_{k - 1} not contained in im N")
    return BoundsVerdict("ok")
