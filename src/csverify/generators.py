"""Seeded construction of clean and adversarial CS instances.

The clean recipe builds the graded skeleton and then conjugates:

  1. draw a centered nilpotent (P_k, N_k) for each degree: random Jordan
     type, the operator in Jordan form, its centered filtration, then a
     random invertible change of basis;
  2. define C_k = coker(N_{k-1}) (+) ker(N_k) with the induced weights;
     the row maps r_k, s_k are the canonical projection/inclusion, so the
     row sequence is exact by construction;
  3. set A_k = ker(N_k)-part (+) F_k and B_k = coker(N_{k-2})-part (+) F_k
     where F_k is a random pure weight-k filler carried from B_k onto the
     kernel of A_k -> C_k, making the column exact with the right bounds;
  4. conjugate every map by random filtered automorphisms of the nodes.

Exact sequences of filtered spaces with strict maps are graded-split, so
building split and conjugating loses no generality for testing purposes.
Adversarial variants tamper with exactly one named hypothesis before the
conjugation step.  All randomness is drawn from a single stream seeded by
the profile, so a profile determines its instance byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .filtration import FilteredSpace, direct_sum, tate_twist
from .linalg import (
    Matrix,
    coords_map,
    extend_basis,
    hstack,
    image,
    inverse,
    kernel,
    quotient_map,
    span_of_vectors,
    transpose,
    vstack,
)
from .monodromy import NilpotentOp, monodromy_filtration
from .verifier import (
    ARROWS,
    BREAKABLE_HYPOTHESES,
    NODES,
    CSInstance,
    check_instance_hypotheses,
    conclusion_exactness,
)


class GeneratorError(RuntimeError):
    """Internal consistency failure while generating an instance."""


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def split_seed(seed: int, index: int) -> int:
    """Derive the seed for parallel task number ``index`` from a base seed.

    This is the splitmix64 finalizer applied to seed + (index+1) * 2^64/phi;
    distinct indices give statistically independent streams, and the split
    is documented so parallel drivers can reproduce any single task.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GenProfile:
    """Parameters of one generation task."""

    seed: int
    max_dim_per_node: int = 6
    degree_range: Tuple[int, int] = (0, 4)
    weight_spread: int = 3
    broken_hypothesis: Optional[str] = None

    def __post_init__(self):
        if self.max_dim_per_node < 0:
            raise ValueError("max_dim_per_node must be >= 0")
        if self.degree_range[0] > self.degree_range[1]:
            raise ValueError("empty degree range")
        if self.weight_spread < 1:
            raise ValueError("weight_spread must be >= 1")
        if self.broken_hypothesis is not None and self.broken_hypothesis not in BREAKABLE_HYPOTHESES:
            raise ValueError(f"unknown hypothesis tag {self.broken_hypothesis!r}")


def _rand_q(rng: random.Random):
    """Small random rational: |numerator|, denominator <= 7."""
    from .linalg import Q

    return Q(rng.randint(-7, 7), rng.randint(1, 7))


def _rand_unit_triangular(rng: random.Random, n: int, lower: bool) -> Matrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1)
            elif (j < i) == lower and rng.random() < 0.6:
                row.append(_rand_q(rng))
            else:
                row.append(0)
        rows.append(row)
    return Matrix.from_rows(rows, ncols=n)


def random_invertible(rng: random.Random, n: int) -> Matrix:
    """Random invertible rational matrix with small entries (unit L.U)."""
    return _rand_unit_triangular(rng, n, lower=True) @ _rand_unit_triangular(rng, n, lower=False)


def random_filtered_automorphism(rng: random.Random, fs: FilteredSpace) -> Matrix:
    """Random automorphism preserving every step of the filtration.

    Built block-upper-triangular in a basis adapted to the flag of steps,
    then conjugated back to standard coordinates.
    """
    d = fs.dim
    if d == 0:
        return Matrix.identity(0)
    adapted: List[tuple] = []
    boundaries = []
    for w, sub in fs.steps:
        adapted += extend_basis(fs.step(w - 1), sub.basis.rows)
        boundaries.append(len(adapted))
    block_of = []
    for idx in range(d):
        block_of.append(next(bi for bi, bound in enumerate(boundaries) if idx < bound))
    upper = [[0] * d for _ in range(d)]
    for bi, bound in enumerate(boundaries):
        start = boundaries[bi - 1] if bi else 0
        size = bound - start
        diag = random_invertible(rng, size)
        for i in range(size):
            for j in range(size):
                upper[start + i][start + j] = diag.rows[i][j]
    for i in range(d):
        for j in range(d):
            if block_of[j] > block_of[i] and rng.random() < 0.5:
                upper[i][j] = _rand_q(rng)
    b = Matrix.from_rows(upper, ncols=d)
    s = transpose(Matrix.from_rows(adapted, ncols=d))
    return s @ b @ inverse(s)


def _jordan_pair(rng: random.Random, sizes, dim: int, center: int) -> Tuple[FilteredSpace, NilpotentOp]:
    """Nilpotent of the given Jordan type with the filtration centered at
    ``center``, conjugated by a random invertible matrix."""
    entries = [[0] * dim for _ in range(dim)]
    weights = [0] * dim
    offset = 0
    for s in sizes:
        for j in range(s):
            weights[offset + j] = center - s + 1 + 2 * j
            if j:
                entries[offset + j - 1][offset + j] = 1
        offset += s
    n_jordan = Matrix.from_rows(entries, ncols=dim)
    t = random_invertible(rng, dim)
    t_inv = inverse(t)
    n_mat = t @ n_jordan @ t_inv
    steps = {}
    for w in sorted(set(weights)):
        rows = [tuple(1 if i == idx else 0 for i in range(dim))
                for idx, wt in enumerate(weights) if wt <= w]
        steps[w] = image(t, span_of_vectors(rows, dim))
    space = FilteredSpace(dim, steps)
    return space, NilpotentOp(space, n_mat)


def gen_centered_mhs(seed, dim: int, k: int,
                     max_block: Optional[int] = None) -> Tuple[FilteredSpace, NilpotentOp]:
    """A random nilpotent with weight filtration centered at k.

    Picks a random Jordan type of total size ``dim``, writes the operator
    in Jordan form, assigns the centered filtration along the chains and
    conjugates both by a random invertible matrix.  The result is verified
    internally: the space's filtration equals the centered filtration of
    the operator.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if dim == 0:
        space = FilteredSpace.zero()
        return space, NilpotentOp(space, Matrix.identity(0))
    cap = dim if max_block is None else min(dim, max(1, max_block))
    sizes = []
    remaining = dim
    while remaining:
        s = rng.randint(1, min(cap, remaining))
        sizes.append(s)
        remaining -= s
    space, op = _jordan_pair(rng, sizes, dim, k)
    if monodromy_filtration(op, k).filtration != space:
        raise GeneratorError("generated filtration is not the centered filtration of the operator")
    return space, op


class _RowData:
    """Per-degree kernel/cokernel bookkeeping for the row assembly."""

    __slots__ = ("ker_sub", "ker_fs", "coker_fs", "coker_map", "kdim", "cdim")

    def __init__(self, p: FilteredSpace, n: Matrix):
        ker = kernel(n)
        kc = coords_map(ker)
        self.ker_sub = ker
        self.ker_fs = FilteredSpace(
            ker.dim, {w: image(kc, ker.intersect(p.step(w))) for w in p.jumps})
        twisted = tate_twist(p, -1)
        q = quotient_map(image(n))
        self.coker_map = q
        self.coker_fs = FilteredSpace(
            q.nrows, {w: image(q, twisted.step(w)) for w in twisted.jumps})
        self.kdim = ker.dim
        self.cdim = q.nrows


def assemble_row(p_family: Dict[int, FilteredSpace], n_family: Dict[int, Matrix],
                 degrees) -> Tuple[Dict[int, _RowData], Dict[int, FilteredSpace],
                                   Dict[int, Matrix], Dict[int, Matrix]]:
    """Build C_k = coker(N_{k-1}) (+) ker(N_k) with its canonical row maps.

    Returns (per-degree data, C family, r family, s family); the row long
    exact sequence holds by construction.
    """
    data = {}
    for k in degrees:
        p = p_family.get(k, FilteredSpace.zero())
        n = n_family.get(k, Matrix.zero(p.dim, p.dim))
        data[k] = _RowData(p, n)
    c_family, r_family, s_family = {}, {}, {}
    for k in degrees:
        prev = data.get(k - 1)
        cur = data[k]
        coker_fs = prev.coker_fs if prev else FilteredSpace.zero()
        coker_dim = coker_fs.dim
        c_fs = direct_sum(coker_fs, cur.ker_fs)
        if c_fs.dim == 0:
            continue
        c_family[k] = c_fs
        if prev is not None and prev.coker_map.ncols > 0:
            r_family[k] = vstack(prev.coker_map, Matrix.zero(cur.kdim, prev.coker_map.ncols))
        p_dim = cur.ker_sub.ambient_dim
        if p_dim > 0:
            s_family[k] = hstack(Matrix.zero(p_dim, coker_dim), transpose(cur.ker_sub.basis))
    return data, c_family, r_family, s_family


def _partition_min_two(rng: random.Random, total: int, cap: int):
    """Partition of total >= 2 into parts between 2 and cap."""
    sizes = []
    remaining = total
    while remaining:
        s = rng.randint(2, max(2, min(cap, remaining)))
        if remaining - s == 1:
            s = s + 1 if s + 1 <= remaining else s - 1
        sizes.append(s)
        remaining -= s
    return sizes


def gen_cs_instance(profile: GenProfile, verify: bool = True) -> CSInstance:
    """A clean CS instance drawn deterministically from the profile.

    With ``verify`` the instance's own hypothesis report is computed and
    must come back clean; a failure is a generator bug and raises.
    """
    if profile.broken_hypothesis is not None:
        raise ValueError("profile requests a broken hypothesis; use gen_adversarial")
    inst = _generate(profile, random.Random(profile.seed))
    if verify:
        report = check_instance_hypotheses(inst)
        if not report.clean:
            raise GeneratorError(f"generated instance is not clean: {report.failures()[:3]}")
    return inst


def gen_adversarial(profile: GenProfile) -> CSInstance:
    """An instance failing exactly the profile's named hypothesis."""
    if profile.broken_hypothesis is None:
        raise ValueError("profile names no hypothesis to break")
    return _generate(profile, random.Random(profile.seed))


def _generate(profile: GenProfile, rng: random.Random) -> CSInstance:
    a, b = profile.degree_range
    broken = profile.broken_hypothesis
    max_dim = profile.max_dim_per_node
    p_degrees = range(a, b - 1)  # P_k may be nonzero for a <= k <= b-2

    tamper_degree = None
    variant = None
    if broken is not None:
        tamper_degree, variant = _plan_tamper(rng, broken, a, b)

    p_dims = {}
    for k in p_degrees:
        p_dims[k] = rng.randint(0, max(0, max_dim // 2))
    if broken == "row_exact":
        p_dims[tamper_degree] = max(1, p_dims.get(tamper_degree, 0))
    if broken == "P_centering":
        p_dims[tamper_degree] = max(2, p_dims.get(tamper_degree, 0))
    if broken == "A_bound" and variant == "absorbing":
        p_dims[tamper_degree - 1] = max(1, p_dims.get(tamper_degree - 1, 0))

    p_family, n_family = {}, {}
    for k in p_degrees:
        if broken == "P_centering" and k == tamper_degree:
            # off-center node: all Jordan blocks of size >= 2 keep the kernel
            # and cokernel bounds valid for the filtration centered one higher,
            # so only the centering hypothesis fails
            d = p_dims[k]
            sizes = _partition_min_two(rng, d, max(2, profile.weight_spread))
            space, op = _jordan_pair(rng, sizes, d, k + 1)
            p_family[k] = space
            n_family[k] = op.matrix
            continue
        space, op = gen_centered_mhs(rng, p_dims[k], k, max_block=profile.weight_spread)
        if space.dim:
            p_family[k] = space
            n_family[k] = op.matrix

    data, c_family, r_family, s_family = assemble_row(p_family, n_family, range(a, b + 1))

    fillers = {}
    for k in range(a, b + 1):
        kdim = data[k].kdim if k in data else 0
        cdim = data[k - 2].cdim if k - 2 in data else 0
        cap = min(3, max_dim - max(kdim, cdim))
        fillers[k] = rng.randint(0, max(0, cap))
    if broken == "column_exact":
        fillers[tamper_degree] = max(1, fillers[tamper_degree])

    a_family, b_family = {}, {}
    b_maps, a_maps, c_maps = {}, {}, {}
    for k in range(a, b + 1):
        row = data[k]
        prev = data.get(k - 1)
        prev2 = data.get(k - 2)
        f = fillers[k]
        a_family[k] = direct_sum(row.ker_fs, FilteredSpace.pure(f, k))
        b_family[k] = direct_sum(prev2.coker_fs if prev2 else FilteredSpace.zero(),
                                 FilteredSpace.pure(f, k))
        coker2 = prev2.cdim if prev2 else 0
        b_maps[k] = vstack(Matrix.zero(row.kdim, coker2 + f),
                           hstack(Matrix.zero(f, coker2), Matrix.identity(f)))
        coker1 = prev.cdim if prev else 0
        a_maps[k] = vstack(Matrix.zero(coker1, row.kdim + f),
                           hstack(Matrix.identity(row.kdim), Matrix.zero(row.kdim, f)))
        # c_k : C_k -> B_{k+1} = coker(N_{k-1})-block (+) filler block
        f_next = fillers.get(k + 1, 0)
        c_maps[k] = vstack(hstack(Matrix.identity(coker1), Matrix.zero(coker1, row.kdim)),
                           Matrix.zero(f_next, coker1 + row.kdim))

    if broken is not None:
        _apply_tamper(broken, variant, tamper_degree, data, fillers,
                      a_family, b_family, a_maps, b_maps, c_maps, s_family, rng)

    inst = CSInstance(
        (a, b), {"A": a_family, "B": b_family, "C": c_family, "P": p_family},
        {"b": b_maps, "a": a_maps, "c": c_maps, "r": r_family, "s": s_family, "N": n_family})
    return _conjugate(inst, rng)


def _plan_tamper(rng: random.Random, broken: str, a: int, b: int):
    needs_p = broken in ("row_exact", "P_centering")
    needs_prev_p = broken == "A_bound"
    if (needs_p or needs_prev_p) and b - a < 2:
        raise ValueError(f"degree range too narrow to break {broken}")
    if needs_p:
        return rng.randint(a, b - 2), None
    if broken == "A_bound":
        variant = rng.choice(["floating", "absorbing"])
        if variant == "absorbing":
            return rng.randint(a + 1, b - 1), variant
        return rng.randint(a, b), variant
    return rng.randint(a, b), None


def _append_pure_line(fs: FilteredSpace, weight: int) -> FilteredSpace:
    return direct_sum(fs, FilteredSpace.pure(1, weight))


def _apply_tamper(broken, variant, t, data, fillers,
                  a_family, b_family, a_maps, b_maps, c_maps, s_family, rng):
    if broken == "column_exact":
        b_maps[t] = Matrix.zero(b_maps[t].nrows, b_maps[t].ncols)
        return
    if broken == "row_exact":
        if t in s_family:
            s_family[t] = Matrix.zero(s_family[t].nrows, s_family[t].ncols)
        return
    if broken == "P_centering":
        return  # handled when drawing the P family
    if broken in ("A_bound", "B_bound", "strictness") and variant != "absorbing":
        if broken == "A_bound":
            wa = wb = t + 1
        elif broken == "B_bound":
            wa = wb = t - 1
        else:
            wa, wb = t - 1, t
        a_family[t] = _append_pure_line(a_family[t], wa)
        b_family[t] = _append_pure_line(b_family[t], wb)
        old_b = b_maps[t]
        b_maps[t] = vstack(hstack(old_b, Matrix.zero(old_b.nrows, 1)),
                           hstack(Matrix.zero(1, old_b.ncols), Matrix.identity(1)))
        a_maps[t] = hstack(a_maps[t], Matrix.zero(a_maps[t].nrows, 1))
        if (t - 1) in c_maps:
            c_maps[t - 1] = vstack(c_maps[t - 1], Matrix.zero(1, c_maps[t - 1].ncols))
        return
    if broken == "A_bound" and variant == "absorbing":
        prev = data.get(t - 1)
        row = data[t]
        a_family[t] = direct_sum(a_family[t], prev.coker_fs)
        a_maps[t] = hstack(a_maps[t], vstack(Matrix.identity(prev.cdim), Matrix.zero(row.kdim, prev.cdim)))
        b_maps[t] = vstack(b_maps[t], Matrix.zero(prev.cdim, b_maps[t].ncols))
        f_next = fillers.get(t + 1, 0)
        b_family[t + 1] = FilteredSpace.pure(f_next, t + 1)
        c_maps[t] = Matrix.zero(f_next, c_maps[t].ncols)
        b_maps[t + 1] = vstack(Matrix.zero(data[t + 1].kdim, f_next), Matrix.identity(f_next))
        return
    raise AssertionError(f"unhandled tamper {broken}/{variant}")


def _conjugate(inst: CSInstance, rng: random.Random) -> CSInstance:
    """Conjugate every stored map by random filtered automorphisms of its ends.

    The automorphisms of one degree are drawn in the order A_k, B_k,
    B_{k+1}, C_k, P_k, P_{k-1} (the ends of ARROWS sorted by node and
    |offset|); that order fixes the random stream, and so the bytes of
    every generated instance.
    """
    autos: Dict[Tuple[str, int], Tuple[Matrix, Matrix]] = {}
    ends = sorted({end for src, ds, tgt, dt in ARROWS.values() for end in ((src, ds), (tgt, dt))},
                  key=lambda end: (end[0], abs(end[1])))
    for k in sorted(set().union(*inst.maps.values())):
        for node, d in ends:
            if (node, k + d) not in autos:
                t = random_filtered_automorphism(rng, inst.space(node, k + d))
                autos[(node, k + d)] = (t, inverse(t))
    new = {}
    for label, family in inst.maps.items():
        source, ds, target, dt = ARROWS[label]
        new[label] = {k: autos[(target, k + dt)][0] @ m @ autos[(source, k + ds)][1]
                      for k, m in family.items()}
    return CSInstance((inst.k_min, inst.k_max), {node: getattr(inst, node) for node in NODES}, new,
                      purity_weight=inst.purity_weight, profile=inst.profile)


@dataclass(frozen=True)
class LoadBearingResult:
    """Outcome of the search for a hypothesis-dropping counterexample."""

    found: bool
    tries: int
    instance: Optional[CSInstance] = None
    broken: Optional[str] = None
    proposition: Optional[str] = None
    degree: Optional[int] = None
    witness: Optional[tuple] = None


def search_load_bearing(seed: int, budget: int = 10_000,
                        max_dim: int = 6, degree_range: Tuple[int, int] = (0, 4),
                        tags: Tuple[str, ...] = ("A_bound", "P_centering"),
                        propositions: Tuple[str, ...] = ("P4", "P1")) -> LoadBearingResult:
    """Search adversarial instances for a literally non-exact conclusion.

    Alternates over the given broken-hypothesis tags; on a hit the
    instance's hypothesis report is re-checked to confirm only the named
    hypothesis failed.  Exhausting the budget is reported as inconclusive,
    not as a failure.
    """
    for i in range(budget):
        tag = tags[i % len(tags)]
        profile = GenProfile(seed=split_seed(seed, i), max_dim_per_node=max_dim,
                             degree_range=degree_range, broken_hypothesis=tag)
        inst = gen_adversarial(profile)
        for k in inst.degrees(pad=2):
            for which in propositions:
                verdict = conclusion_exactness(inst, which, k)
                if verdict.exact:
                    continue
                report = check_instance_hypotheses(inst)
                if report.failed_categories() != (tag,):
                    raise GeneratorError(
                        f"adversarial instance broke {report.failed_categories()}, wanted only {tag}")
                return LoadBearingResult(True, i + 1, instance=inst, broken=tag,
                                         proposition=which, degree=k, witness=verdict.witness)
    return LoadBearingResult(False, budget)
