"""Seeded construction of clean and adversarial CS instances.

The clean recipe builds the graded skeleton and then conjugates:

  1. draw a centered nilpotent (P_k, N_k) for each degree: random Jordan
     type with blocks of at most MAX_JORDAN_BLOCK, the operator in Jordan
     form, its centered filtration, then a random invertible change of
     basis;
  2. define C_k = coker(N_{k-1}) (+) ker(N_k) with the induced weights;
     the row maps r_k, s_k are the canonical projection/inclusion, so the
     row sequence is exact by construction;
  3. set A_k = ker(N_k) (+) F_k and B_k = coker(N_{k-2}) (+) F_k, F_k a random
     pure weight-k filler, as listed in SUMMANDS; b_k, a_k and c_k are the
     identity between equally named summands and zero elsewhere, which
     makes the column exact with the right bounds;
  4. conjugate every map by random filtered automorphisms of the nodes.

Steps 2 and 3 are the split construction in ``verifier``, shared with the
curve fixtures; only the draws and the tampers live here.  Exact sequences
of filtered spaces with strict maps are graded-split, so building split and
conjugating loses no generality for testing purposes.  The weights come
from the library's own constructions: the Jordan chains go through
``linalg.chain_steps``, the kernel and cokernel weights through
``filtration.induced_on_subspace``/``induced_on_quotient``, and the adapted
bases of the automorphisms through ``filtration.graded_complement``.
Nothing is checked here, and no check or verdict engine is imported: each
P_k, off-centre too, is one ``_jordan_pair`` draw, and each node one
``filtration.direct_sum`` of its summands.
Adversarial variants break exactly one named hypothesis by editing the
summands before the conjugation step: a pure line added to A_t and B_t
under one name breaks a weight bound or strictness, moving coker(N_{t-1})
from B_{t+1} to A_t breaks A_bound too, and zeroing b_t or s_t breaks
exactness.  All randomness is drawn from a single stream seeded by the
profile, so a profile determines its instance byte for byte.
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Dict, Optional, Tuple

from .filtration import FilteredSpace, direct_sum, graded_complement, shifted
from .linalg import Matrix, chain_steps, inverse, ratio_row, transpose, vstack
from .monodromy import NilpotentOp
from .verifier import (
    ARROWS,
    BREAKABLE_HYPOTHESES,
    CSInstance,
    assemble_row,
    identity_on_shared,
    node_summands,
)


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


class GenProfile:
    """Parameters of one generation task, each checked here: every input check of ``generate``."""

    __slots__ = ("seed", "max_dim_per_node", "degree_range", "broken_hypothesis")

    def __init__(self, seed: int, max_dim_per_node: int = 6, degree_range: Tuple[int, int] = (0, 4),
                 broken_hypothesis: Optional[str] = None):
        if seed < 0:  # random.Random would seed with abs(seed)
            raise ValueError("seed must be >= 0")
        if max_dim_per_node < 0:
            raise ValueError("max_dim_per_node must be >= 0")
        if max_dim_per_node > MAX_GEN_DIM:
            raise ValueError(f"max_dim_per_node must be <= {MAX_GEN_DIM}")
        width = degree_range[1] - degree_range[0]
        if width < 0:
            raise ValueError("empty degree range")
        if width > MAX_GEN_WIDTH:
            raise ValueError(f"degree range wider than {MAX_GEN_WIDTH}")
        if max_dim_per_node ** 2 * (width + 1) > MAX_GEN_CELLS:
            raise ValueError(f"max_dim_per_node squared times the number of degrees exceeds {MAX_GEN_CELLS}")
        if broken_hypothesis is not None and broken_hypothesis not in BREAKABLE_HYPOTHESES:
            raise ValueError(f"unknown hypothesis tag {broken_hypothesis!r}")
        # row_exact and P_centering tamper at a degree t <= k_max - 2, A_bound's absorbing variant inside
        if broken_hypothesis in ("row_exact", "P_centering", "A_bound") and width < 2:
            raise ValueError(f"degree range too narrow to break {broken_hypothesis}")
        self.seed, self.max_dim_per_node = seed, max_dim_per_node
        self.degree_range, self.broken_hypothesis = degree_range, broken_hypothesis


def _rand_q(rng: random.Random) -> Tuple[int, int]:
    """Small random rational as a (numerator, denominator) pair: |numerator|, denominator <= 7."""
    return rng.randint(-7, 7), rng.randint(1, 7)


def _rand_unit_triangular(rng: random.Random, n: int, lower: bool) -> Matrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append((1, 1))
            elif (j < i) == lower and rng.random() < 0.6:
                row.append(_rand_q(rng))
            else:
                row.append((0, 1))
        rows.append(ratio_row(row))
    return Matrix.of(tuple(rows), n)


def random_invertible(rng: random.Random, n: int) -> Matrix:
    """Random invertible rational matrix with small entries (unit L.U)."""
    return _rand_unit_triangular(rng, n, lower=True) @ _rand_unit_triangular(rng, n, lower=False)


def random_filtered_automorphism(rng: random.Random, fs: FilteredSpace) -> Tuple[Matrix, Matrix]:
    """Random automorphism t preserving every step of the filtration, with its inverse.

    t = s.b.s^-1: b is block upper triangular in a basis s adapted to
    the flag of steps, with unit L.U diagonal blocks, drawn as one table
    of entries; t^-1 is inverse(t), the one inverse taken of t.
    When s is the identity (a pure space, or coordinate steps) t is b itself,
    and s is neither inverted nor multiplied.
    """
    d = fs.dim
    if d == 0:
        return Matrix.identity(0), Matrix.identity(0)
    adapted = []
    entries = [[(0, 1)] * d for _ in range(d)]  # b, as (numerator, denominator) pairs
    block_of = []  # the graded piece of each adapted vector
    for bi, w in enumerate(fs.jumps):
        adapted.append(graded_complement(fs, w))
        start, size = len(block_of), adapted[-1].nrows
        block_of += [bi] * size
        for row, (nums, den) in zip(entries[start:], random_invertible(rng, size).irows):
            row[start:start + size] = [(x, den) for x in nums]
    for i in range(d):
        for j in range(d):
            if block_of[j] > block_of[i] and rng.random() < 0.5:
                entries[i][j] = _rand_q(rng)
    t = Matrix.of(tuple(map(ratio_row, entries)), d)  # b, which is t where s is the identity
    stacked = reduce(vstack, adapted)
    if stacked != Matrix.identity(d):
        s = transpose(stacked)
        t = s @ t @ inverse(s)
    return t, inverse(t)


def _jordan_pair(rng: random.Random, sizes, center: int) -> Tuple[FilteredSpace, Matrix]:
    """Nilpotent of the given Jordan type on Q^sum(sizes) conjugated by a random invertible t, with the
    filtration centered at ``center`` that t's columns span as chains: a basis, so its steps need no check."""
    dim = sum(sizes)
    t = random_invertible(rng, dim)
    columns = transpose(t).irows
    entries = [[0] * dim for _ in range(dim)]
    chains, start = [], 0
    for s in sizes:
        for j in range(start + 1, start + s):
            entries[j - 1][j] = 1  # N e_j = e_{j-1}, so t e_j, last first, is a chain of t N t^-1
        chains.append(columns[start:start + s][::-1])
        start += s
    return shifted(chain_steps(chains, dim), center), t @ Matrix.from_rows(entries, ncols=dim) @ inverse(t)


def _partition(rng: random.Random, total: int, cap: int, least: int):
    """Random parts drawn between least and cap summing to total; a remainder below least joins the last part."""
    sizes = []
    remaining = total
    while remaining:
        s = rng.randint(least, max(least, min(cap, remaining)))
        if remaining - s < least:
            s = remaining
        sizes.append(s)
        remaining -= s
    return sizes


def gen_centered_mhs(seed, dim: int, k: int) -> Tuple[FilteredSpace, NilpotentOp]:
    """A random nilpotent with weight filtration centered at k.

    Picks a random Jordan type of total size ``dim``, writes the operator
    in Jordan form, assigns the centered filtration along the chains and
    conjugates both by a random invertible matrix.  Nothing compares it with
    ``centered_filtration``; ``NilpotentOp`` checks nilpotency and N.W_i <= W_{i+2}.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    space, matrix = _jordan_pair(rng, _partition(rng, dim, dim, 1), k)
    return space, NilpotentOp(space, matrix)


# tampered hypothesis -> weights, as offsets from t, of the line b_t carries from B_t onto A_t
_LINE_WEIGHTS = {"A_bound": (1, 1), "B_bound": (-1, -1), "strictness": (-1, 0)}
# tampered hypothesis -> the map that is zero at t
_ZEROED_MAP = {"column_exact": "b", "row_exact": "s"}


def gen_cs_instance(profile: GenProfile) -> CSInstance:
    """A clean CS instance drawn deterministically from the profile.

    It is built, not checked: ``cli generate`` passes it through
    ``verifier.checked``, so a generator bug is exit 1 there.
    """
    if profile.broken_hypothesis is not None:
        raise ValueError("profile requests a broken hypothesis; use gen_adversarial")
    return _generate(profile)


def gen_adversarial(profile: GenProfile) -> CSInstance:
    """An instance failing exactly the profile's named hypothesis."""
    if profile.broken_hypothesis is None:
        raise ValueError("profile names no hypothesis to break")
    return _generate(profile)


def _generate(profile: GenProfile) -> CSInstance:
    rng = random.Random(profile.seed)
    a, b = profile.degree_range
    broken = profile.broken_hypothesis
    max_dim = profile.max_dim_per_node
    p_degrees = range(a, b - 1)  # P_k may be nonzero for a <= k <= b-2

    t, variant = _plan_tamper(rng, broken, a, b)  # the tampered degree and the A_bound variant

    p_dims = {k: rng.randint(0, max(0, max_dim // 2)) for k in p_degrees}
    if broken == "row_exact":
        p_dims[t] = max(1, p_dims[t])
    if broken == "P_centering":
        p_dims[t] = max(2, p_dims[t])
    if variant == "absorbing":
        p_dims[t - 1] = max(1, p_dims[t - 1])

    p_family, n_family = {}, {}
    for k in p_degrees:
        # an off-center node (P_centering's at t) has Jordan blocks of size >= 2 only: they keep the
        # kernel and cokernel bounds valid for the filtration centered one higher, so only the
        # centering hypothesis fails
        off = broken == "P_centering" and k == t
        space, matrix = _jordan_pair(rng, _partition(rng, p_dims[k], MAX_JORDAN_BLOCK, 2 if off else 1),
                                     k + 1 if off else k)
        if space.dim:
            p_family[k] = space
            n_family[k] = matrix

    parts, c_family, r_family, s_family = assemble_row(p_family, n_family, range(a - 2, b + 1))

    fillers = {}
    for k in range(a, b + 1):
        cap = min(3, max_dim - max(parts[("ker", k)].dim, parts[("coker", k - 2)].dim))
        fillers[k] = rng.randint(0, max(0, cap))
    if broken == "column_exact":
        fillers[t] = max(1, fillers[t])
    parts.update({("F", k): FilteredSpace.pure(f, k) for k, f in fillers.items()})

    table = {(node, k): node_summands(node, k, parts) for node in "ABC" for k in range(a, b + 1)}
    if variant == "absorbing":
        moved = ("coker", t - 1)
        table[("A", t)][moved] = table[("B", t + 1)].pop(moved)
    elif broken in _LINE_WEIGHTS:
        wa, wb = _LINE_WEIGHTS[broken]
        table[("A", t)][("line", t)] = FilteredSpace.pure(1, t + wa)
        table[("B", t)][("line", t)] = FilteredSpace.pure(1, t + wb)

    maps = {"r": r_family, "s": s_family, "N": n_family}
    for label in "bac":
        source, ds, target, dt = ARROWS[label]
        maps[label] = {k: identity_on_shared(table[(source, k + ds)], table[(target, k + dt)])
                       for k in range(a, b + 1) if (target, k + dt) in table}
    if broken in _ZEROED_MAP:
        del maps[_ZEROED_MAP[broken]][t]

    spaces = {node: {k: direct_sum(*table[(node, k)].values()) for k in range(a, b + 1)}
              for node in "AB"}
    inst = CSInstance((a, b), {**spaces, "C": c_family, "P": p_family}, maps)
    return _conjugate(inst, rng)


def _plan_tamper(rng: random.Random, broken: Optional[str], a: int, b: int):
    if broken is None:
        return None, None
    if broken in ("row_exact", "P_centering"):
        return rng.randint(a, b - 2), None
    if broken == "A_bound":
        variant = rng.choice(["floating", "absorbing"])
        if variant == "absorbing":
            return rng.randint(a + 1, b - 1), variant
        return rng.randint(a, b), variant
    return rng.randint(a, b), None


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
                autos[(node, k + d)] = random_filtered_automorphism(rng, inst.space(node, k + d))
    new = {}
    for label, family in inst.maps.items():
        source, ds, target, dt = ARROWS[label]
        new[label] = {k: autos[(target, k + dt)][0] @ m @ autos[(source, k + ds)][1]
                      for k, m in family.items()}
    return CSInstance((inst.k_min, inst.k_max), inst.spaces, new, profile=inst.profile)


# the largest Jordan block of a drawn P_k, and of the off-center node a P_centering tamper draws
MAX_JORDAN_BLOCK = 3

# GenProfile's caps on max_dim_per_node and on k_max - k_min: each P_k is dense, every degree is drawn
MAX_GEN_DIM = 64
MAX_GEN_WIDTH = 256
# and on the two together, max_dim_per_node^2 * (k_max - k_min + 1): each cap alone at the other's default
MAX_GEN_CELLS = MAX_GEN_DIM ** 2 * 5
