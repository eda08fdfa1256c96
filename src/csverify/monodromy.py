"""Nilpotent operators and their centered weight filtrations.

For a nilpotent endomorphism N of Q^d and a center k there is a unique
finite increasing filtration M with N.M_i contained in M_{i-2} such that
the i-th power of N induces an isomorphism Gr_{k+i} -> Gr_{k-i}.  It is
determined by the kernel flag ker N < ker N^2 < ... < ker N^p = Q^d.
The flag, its Jordan chains and the steps of the filtration centered
at 0 are kept on the matrix (``linalg``'s ``kernel_flag``,
``jordan_chains`` and ``centered_steps``), so every caller reads one
derivation; ``nilpotency_index`` is the one nilpotency check, and a
``NilpotentOp`` keeps only its space and matrix.  Two independent
constructions are implemented:

* ``centered_filtration`` (``monodromy_filtration`` on an operator)
  gives a Jordan chain of length m the weights k+m-1, k+m-3, ...,
  k-m+1 from head to tail (0 is the only eigenvalue): it shifts the
  centre-0 steps kept on the matrix by k with ``filtration.shifted``,
  which re-checks nothing, since the steps come from a Jordan basis
  that ``linalg`` asserts spans the space;

* ``centered_filtration_recursive`` (``monodromy_filtration_recursive``)
  uses the classical recursion: with N^m nonzero and N^{m+1} = 0 the
  extreme steps are forced (full space, ker N^m, im N^m, zero) and the
  middle ones are lifted from the centered filtration of the operator
  induced on ker(N^m)/im(N^m), read by ``linalg.within`` and lifted by
  rows of ker N^m's basis, with no transpose.

The two share the flag but no chain or recursion logic.  Uniqueness
makes their agreement a sharp cross-check, run by every `monodromy`
command and at scale by the test suite.  ``linalg.chain_steps`` is the
one place that turns chains into weights: the matrix's centre-0 steps
come from it, and so do the generators' P_k, from the chains of a Jordan
form.  The axiom check, ``centered_axioms`` (the verifier's P_centering), takes graded
pieces from ``filtration.graded_complement``.  Its verdict, the bounds verdict and a
``CenteredFiltration`` are named tuples; each verdict is true iff it passes.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .filtration import FilteredSpace, graded_complement, shifted
from .linalg import (
    DimensionMismatchError,
    Matrix,
    canonicalize,
    centered_steps,
    coords_map,
    full_subspace,
    image,
    kernel,
    kernel_flag,
    maps_into,
    quotient_map,
    rank,
    times_transpose,
    vstack,
    within,
)


class NilpotencyError(ValueError):
    """The matrix is not nilpotent."""


def nilpotency_index(m: Matrix) -> int:
    """Least p with m^p = 0, where m's kernel flag ends; raises NilpotencyError if m is not nilpotent."""
    flag = kernel_flag(m)
    if flag[-1].dim != m.ncols:
        raise NilpotencyError("matrix is not nilpotent")
    return len(flag) - 1


class NilpotentOp:
    """A nilpotent endomorphism N of a filtered space that raises weights
    by at most two: N.W_i must land in W_{i+2}.

    This is weaker than N being a filtered map into the twist by -1,
    which under ``tate_twist`` asks N.W_i to land in W_{i-2}; the
    verifier's strictness check of N applies that condition.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: FilteredSpace, matrix: Matrix):
        if matrix.nrows != space.dim or matrix.ncols != space.dim:
            raise DimensionMismatchError(
                f"operator is {matrix.nrows}x{matrix.ncols} on a space of dimension {space.dim}")
        nilpotency_index(matrix)
        for w in space.jumps:
            if not maps_into(matrix, space.step(w), space.step(w + 2)):
                raise NilpotencyError(f"operator raises weight {w} by more than two")
        self.space = space
        self.matrix = matrix

    @property
    def index(self) -> int:
        """Nilpotency index: the least p with N^p = 0."""
        return nilpotency_index(self.matrix)

    def __repr__(self) -> str:
        return f"NilpotentOp(dim {self.space.dim}, index {self.index})"


class CenteredFiltration(NamedTuple):
    """A candidate monodromy filtration: a center and the step data."""

    center: int
    filtration: FilteredSpace


def centered_filtration(matrix: Matrix, k: int) -> FilteredSpace:
    """Centered weight filtration of a nilpotent matrix: the centre-0 steps kept on it, shifted to k."""
    nilpotency_index(matrix)
    return shifted(centered_steps(matrix), k)


def monodromy_filtration(n: NilpotentOp, k: int) -> CenteredFiltration:
    """The unique filtration centered at k attached to the nilpotent n."""
    return CenteredFiltration(k, centered_filtration(n.matrix, k))


def centered_filtration_recursive(matrix: Matrix, k: int,
                                  section_rng: Optional[random.Random] = None) -> FilteredSpace:
    """Centered filtration by the classical recursion on ker(N^m)/im(N^m).

    im(N^m) is read in the coordinates of ker(N^m)'s basis by ``linalg.within``.  The induced
    operator on the subquotient is computed on rows lifted from the quotient into ker(N^m); any
    lift gives the same induced matrix, and ``section_rng`` perturbs the canonical one (basis
    rows of ker(N^m)) by an arbitrary correction in im(N^m) to let tests exercise that.
    """
    dim = matrix.nrows
    m = nilpotency_index(matrix) - 1
    if m <= 0:
        return FilteredSpace.pure(dim, k)
    ker_nm = kernel_flag(matrix)[m]
    im_nm = image(matrix)
    for _ in range(m - 1):
        im_nm = image(matrix, im_nm)
    im_in_k = within(ker_nm, im_nm)  # im N^m lies in ker N^m, as N^(m+1) = 0
    q2 = quotient_map(im_in_k)
    # q2's canonical section, in Q^dim: the basis rows of ker N^m at im_in_k's free coordinates
    lift = Matrix.of(tuple(r for j, r in enumerate(ker_nm.basis.irows) if j not in im_in_k.pivots), dim)
    if section_rng is not None:
        lift = lift + Matrix.from_rows([[section_rng.randint(-3, 3) for _ in range(im_nm.dim)]
                                        for _ in range(q2.nrows)], ncols=im_nm.dim) @ im_nm.basis
    # row j: N applied to lift row j, in the coordinates of ker N^m's basis
    n_lift = times_transpose(times_transpose(lift, matrix), coords_map(ker_nm))
    inner = centered_filtration_recursive(times_transpose(q2, n_lift), k, section_rng)

    steps = {k + m: full_subspace(dim), k + m - 1: ker_nm, k - m: im_nm}
    for w, sub in inner.steps:
        if k - m < w <= k + m - 2:
            steps[w] = canonicalize(vstack(im_nm.basis, sub.basis @ lift))
    return FilteredSpace(dim, steps)


def monodromy_filtration_recursive(n: NilpotentOp, k: int,
                                   section_rng: Optional[random.Random] = None) -> CenteredFiltration:
    """Same object as monodromy_filtration, by the independent recursion."""
    return CenteredFiltration(k, centered_filtration_recursive(n.matrix, k, section_rng))


class AxiomVerdict(NamedTuple):
    """Result of checking the two centered-filtration axioms."""

    ok: bool
    failed_axiom: Optional[str] = None   # "shift" or "graded_iso"
    failed_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def centered_axioms(space: FilteredSpace, k: int, matrix: Matrix) -> AxiomVerdict:
    """Check N.M_i <= M_{i-2} and that N^i induces Gr_{k+i} ~ Gr_{k-i}, for M = space, N = matrix.

    Returns the first failing axiom with its witness index; this is a verdict, not an exception.
    No power of N, and no image of a step, is formed: N is applied i times to the rows representing
    Gr_{k+i} by ``linalg.times_transpose``.  The centered filtration is the unique finite one with
    both properties, so this decides ``centered_filtration(matrix, k) == space`` with none built.
    N need not be known to be nilpotent: under the shift axiom N^p maps the top step M_t into
    M_{t-2p}, zero once t - 2p is below the lowest jump, so a non-nilpotent N fails it.
    """
    if matrix.nrows != space.dim or matrix.ncols != space.dim:
        raise DimensionMismatchError("filtration and operator live on different spaces")
    for w in space.jumps:
        if not maps_into(matrix, space.step(w), space.step(w - 2)):
            return AxiomVerdict(False, failed_axiom="shift", failed_index=w)
    spread = max((abs(w - k) for w in space.jumps), default=0)
    for i in range(1, spread + 1):
        up = graded_complement(space, k + i)
        below = space.step(k - i - 1)
        iso = up.nrows == space.step(k - i).dim - below.dim
        if iso and up.nrows:
            for _ in range(i):
                up = times_transpose(up, matrix)  # the row v becomes the vector N v
            # the shift axiom puts N^i.up inside W_{k-i}; modulo W_{k-i-1} it must keep full rank
            iso = rank(times_transpose(up, quotient_map(below))) == up.nrows
        if not iso:
            return AxiomVerdict(False, failed_axiom="graded_iso", failed_index=i)
    return AxiomVerdict(True)


def verify_centered_axioms(f: CenteredFiltration, n: NilpotentOp) -> AxiomVerdict:
    """``centered_axioms`` of a candidate filtration and an operator."""
    return centered_axioms(f.filtration, f.center, n.matrix)


class BoundsVerdict(NamedTuple):
    """Outcome of the kernel/cokernel weight-bound check.

    ``status`` is "ok", "hypothesis_not_satisfied" (the space's weight
    filtration is not the centered filtration of the operator, so the
    bounds are not even in question), "ker_bound_failed" or
    "coker_bound_failed".
    """

    status: str

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
    if centered_filtration(n.matrix, k) != n.space:
        return BoundsVerdict("hypothesis_not_satisfied")
    if not n.space.step(k).contains(kernel(n.matrix)):
        return BoundsVerdict("ker_bound_failed")
    if not image(n.matrix).contains(n.space.step(k - 1)):
        return BoundsVerdict("coker_bound_failed")
    return BoundsVerdict("ok")
