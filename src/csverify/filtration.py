"""Finite-dimensional rational vector spaces with increasing weight filtrations.

A FilteredSpace is Q^d together with a finite increasing, exhaustive and
bounded filtration W recorded sparsely at its jump weights.  Maps between
filtered spaces must not raise weights; the strict ones are exactly those
whose kernel/image/cokernel inherit well-behaved filtrations, which is what
every exactness argument downstream leans on.  Strictness is decided by
counting dimensions: a FilteredMap keeps dim f(W_i), the rank of the rows
its compatibility check forms, and no subspace sum is formed.  Exactness
passes on two ranks and a zero test of the composite; an image or kernel
is built only for a failure's witness.  Every check of the package
returns one named tuple, ``Verdict(ok, reason, witness)``, true iff it
passes.

Three constructions live here and nowhere else: the filtration a
subspace inherits (``induced_on_subspace``, one elimination per step:
``linalg.within`` reads sub . W_i in sub's coordinates), the one a
surjection pushes forward (``induced_on_quotient``), and representatives
of a graded piece (``graded_complement``).  The monodromy constructions
and the generators build on them.  Every FilteredSpace is validated when
it is built but one: ``shifted(steps, by)``, behind the Tate twist and every
centered filtration, moves the weights of jump data that is already valid,
on the space of its top step.

Tate twist convention: ``tate_twist(v, n)`` models v(n) and shifts every
weight by -2n, so twisting by -1 raises all weights by 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Tuple

from .linalg import (
    DimensionMismatchError,
    Matrix,
    Subspace,
    extend_basis,
    full_subspace,
    image,
    kernel,
    product_is_zero,
    quotient_map,
    rank,
    times_transpose,
    within,
    zero_subspace,
)


class FiltrationError(ValueError):
    """The given steps do not form a nested, exhaustive filtration."""


class WeightCompatibilityError(ValueError):
    """A map sends some W_i of its source outside W_i of its target."""


class FilteredSpace:
    """Q^dim with a finite increasing weight filtration.

    Steps are stored only at jump weights; W_i is constant between jumps,
    zero below the smallest jump and the full space at and above the
    largest one.  Equality is structural: same dimension, same canonical
    jump data.
    """

    __slots__ = ("dim", "steps")

    def __init__(self, dim: int, steps: Mapping[int, Subspace]):
        if dim < 0:
            raise FiltrationError("negative dimension")
        normalized = []
        prev = zero_subspace(dim)
        for w in sorted(steps):
            sub = steps[w]
            if sub.ambient_dim != dim:
                raise FiltrationError(f"step at weight {w} lives in Q^{sub.ambient_dim}, not Q^{dim}")
            if sub == prev:
                continue
            if not sub.contains(prev):
                raise FiltrationError(f"filtration not increasing at weight {w}")
            normalized.append((w, sub))
            prev = sub
        if dim > 0 and (not normalized or normalized[-1][1].dim != dim):
            raise FiltrationError("filtration is not exhaustive (top step must be the full space)")
        self.dim = dim
        self.steps = tuple(normalized)

    @staticmethod
    def pure(dim: int, weight: int) -> "FilteredSpace":
        if dim == 0:
            return _ZERO_SPACE
        return FilteredSpace(dim, {weight: full_subspace(dim)})

    @staticmethod
    def zero() -> "FilteredSpace":
        """The zero space, one shared instance (a FilteredSpace is never mutated)."""
        return _ZERO_SPACE

    @property
    def jumps(self) -> Tuple[int, ...]:
        return tuple(w for w, _ in self.steps)

    def step(self, i: int) -> Subspace:
        """W_i: the largest recorded step at weight <= i."""
        current = zero_subspace(self.dim)
        for w, sub in self.steps:
            if w > i:
                break
            current = sub
        return current

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilteredSpace):
            return NotImplemented
        return self.dim == other.dim and self.steps == other.steps

    def __hash__(self):
        return hash((self.dim, self.steps))

    def __repr__(self) -> str:
        parts = ", ".join(f"{w}:{sub.dim}" for w, sub in self.steps)
        return f"FilteredSpace(dim {self.dim}; W {parts})"


_ZERO_SPACE = FilteredSpace(0, {})


def shifted(steps, by: int) -> FilteredSpace:
    """The jump data ``steps`` with every weight moved by ``by``, on the space of its top step (Q^0
    when there is none).  The steps must already be jump data (a FilteredSpace's, or the centre-0
    steps of a Jordan basis), so nothing is re-checked."""
    moved = object.__new__(FilteredSpace)
    moved.dim, moved.steps = steps[-1][1].dim if steps else 0, tuple((w + by, sub) for w, sub in steps)
    return moved


def tate_twist(v: FilteredSpace, n: int) -> FilteredSpace:
    """v(n): same underlying space, weights shifted by -2n."""
    return shifted(v.steps, -2 * n)


def direct_sum(*spaces: FilteredSpace) -> FilteredSpace:
    """Block direct sum of any number of spaces, each in the coordinates after those before it.

    Each step stacks every summand's reduced basis, padded to its block; the stack is already in
    reduced echelon form (pivots shifted by the dimensions before), so it needs no elimination."""
    dim = sum(x.dim for x in spaces)
    steps = {}
    for w in sorted(set().union(*(x.jumps for x in spaces))):
        rows, pivots, before = [], [], 0
        for x in spaces:
            sub, left, right = x.step(w), (0,) * before, (0,) * (dim - before - x.dim)
            rows += [(left + r + right, d) for r, d in sub.basis.irows]
            pivots += [p + before for p in sub.pivots]
            before += x.dim
        steps[w] = Subspace(Matrix.of(tuple(rows), dim), tuple(pivots))
    return FilteredSpace(dim, steps)


def weights_leq(v: FilteredSpace, k: int) -> bool:
    """True iff W_k is the full space."""
    return v.step(k).dim == v.dim


def weights_geq(v: FilteredSpace, k: int) -> bool:
    """True iff W_{k-1} vanishes."""
    return v.step(k - 1).dim == 0


def graded_complement(v: FilteredSpace, i: int) -> Matrix:
    """Rows of W_i's basis, in order, that span it modulo W_{i-1} (representatives of Gr_i);
    all of them when W_{i-1} is zero."""
    below = v.step(i - 1)
    return v.step(i).basis if below.dim == 0 else extend_basis(below, v.step(i).basis)


def induced_on_subspace(v: FilteredSpace, sub: Subspace) -> FilteredSpace:
    """sub with the steps sub . W_i(v), in the coordinates of sub's basis: one ``within`` each."""
    return FilteredSpace(sub.dim, {w: within(sub, step) for w, step in v.steps})


def induced_on_quotient(v: FilteredSpace, q: Matrix) -> FilteredSpace:
    """The target of the surjection q with the steps q(W_i(v))."""
    return FilteredSpace(q.nrows, {w: image(q, step) for w, step in v.steps})


class Verdict(NamedTuple):
    """The outcome of a check, true iff it passes (``ok``); a failure may say why and show where.

    Exactness fails with reason "kernel_exceeds_image" and a vector of ker(g) outside im(f), or
    "composite_nonzero" and a vector of im(f) that g does not kill; strictness with its failing
    weight as the witness, or the reason "not weight-compatible"; the centered axioms with the
    reason "shift" or "graded_iso" and the failing index as the witness.
    """

    ok: bool
    reason: Optional[str] = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


class FilteredMap:
    """A weight-compatible linear map between filtered spaces.

    f(W_w) is formed once per source jump w, as rows (f applied to W_w's basis): they must lie
    in W_w of the target, and their rank is ``image_dims[w]`` = dim f(W_w), kept for strictness.
    """

    __slots__ = ("source", "target", "matrix", "image_dims")

    def __init__(self, source: FilteredSpace, target: FilteredSpace, matrix: Matrix):
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise DimensionMismatchError(
                f"map matrix is {matrix.nrows}x{matrix.ncols}, expected {target.dim}x{source.dim}")
        image_dims = {}
        for w, sub in source.steps:
            into, whole = target.step(w), sub.dim == source.dim  # f(whole source) = im f, its rank kept on f
            mapped = None if whole and into.dim == target.dim else times_transpose(sub.basis, matrix)
            if into.dim < target.dim and not into.contains_rows(mapped):
                raise WeightCompatibilityError(f"W_{w} of the source is not carried into W_{w} of the target")
            image_dims[w] = rank(matrix) if whole else rank(mapped)
        self.source = source
        self.target = target
        self.matrix = matrix
        self.image_dims = image_dims

    def __repr__(self) -> str:
        return f"FilteredMap({self.source!r} -> {self.target!r})"


def strictness(f: FilteredMap) -> Verdict:
    """Check im(f) . W_i(target) = f(W_i(source)) at every jump weight.

    A weight-compatible f has f(W_i(source)) inside im(f) . W_i(target),
    the fact behind strictness of morphisms (Deligne, Theorie de Hodge
    II, 1971), so the two are equal iff their dimensions are:
    dim f(W_i) = dim im + dim W_i(target) - dim(im + W_i(target)).  The
    sum is counted, not built: dim W_i + rank(q.f) for q the quotient map
    of W_i, or the larger dimension where a summand is 0 or everything.
    """
    im, n = rank(f.matrix), f.target.dim
    mapped = 0  # dim f(W_i(source)), constant between source jumps
    for w in sorted(set(f.source.jumps) | set(f.target.jumps)):
        mapped = f.image_dims.get(w, mapped)
        step = f.target.step(w)
        if im in (0, n) or step.dim in (0, n):  # one summand is zero or everything: the sum is the larger
            total = max(im, step.dim)
        else:
            total = step.dim + rank(quotient_map(step) @ f.matrix)
        if mapped != im + step.dim - total:
            return Verdict(False, witness=w)
    return Verdict(True)


def exactness_at(f: Matrix, g: Matrix) -> Verdict:
    """Exactness of the two-map matrix sequence . -f-> . -g-> . at the middle.

    Like ``strictness``, a passing verdict is a dimension count: im(f) =
    ker(g) iff rank f + rank g = dim of the middle and g.f = 0, tested by
    ``product_is_zero`` only when the count holds and f is nonzero.  A
    failing verdict's witness is the first basis row of im(f) that g does
    not kill, else the first one of ker(g), built only then, outside im(f).
    """
    if g.ncols != f.nrows:
        raise DimensionMismatchError(
            f"maps do not compose: f lands in Q^{f.nrows}, g starts from Q^{g.ncols}")
    rank_f = rank(f)
    if rank_f + rank(g) == f.nrows and (rank_f == 0 or product_is_zero(g, f)):
        return Verdict(True)
    im = image(f)
    rows, reason = im.basis, "composite_nonzero"
    hits = [any(r) for r, _ in times_transpose(rows, g).irows]
    if not any(hits):  # then im(f) lies in ker(g), and the quotient map of im(f) finds a row outside it
        rows, reason = kernel(g).basis, "kernel_exceeds_image"
        hits = [any(r) for r, _ in times_transpose(rows, quotient_map(im)).irows]
    v, den = rows.irows[hits.index(True)]
    return Verdict(False, reason, tuple(Fraction(x, den) for x in v))
