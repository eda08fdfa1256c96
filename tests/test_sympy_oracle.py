"""Differential tests against a third-party oracle: sympy's DomainMatrix over QQ.

The reference in ``test_linalg_oracle.py`` is Fraction code written on the
same canonical-form ideas as ``csverify.linalg``; sympy shares nothing with
it.  Each matrix is drawn once as Fractions and handed to both libraries
separately.  Reduced rows, products and inverses are compared as whole
Matrix values, so a row stored outside the canonical form (a negative
denominator, or a common factor left in) fails even when its Fractions
are right.

The exactness and strictness verdicts of generated instances, clean and
with each hypothesis broken, are recomputed from ranks taken in sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from csverify.generators import GenProfile, gen_adversarial, gen_cs_instance
from csverify.linalg import (
    DimensionMismatchError,
    Matrix,
    inverse,
    jordan_chains,
    kernel,
    kernel_flag,
    rank,
    rref,
    span_of_vectors,
    transpose,
)
from csverify.verifier import (
    BREAKABLE_HYPOTHESES,
    CONCLUSIONS,
    SEQUENCES,
    _instance_maps,
    check_instance_hypotheses,
    conclusion_exactness,
)

rationals = st.one_of(
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 60)),
)


# entries over 1000 bits, beside the small ones, for the forward-pass rank
huge_rationals = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-2**1100, 2**1100), st.integers(1, 2**1030)),
)


@st.composite
def fraction_rows(draw, nrows=st.integers(0, 8), ncols=st.integers(0, 8), entries=rationals):
    """Rows of Fractions with duplicated, scaled and zero rows mixed in."""
    m, n = draw(nrows), draw(ncols)
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2)) if m else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        scale = draw(st.sampled_from([0, 1, -1, 3, Fraction(-5, 7)]))
        rows[i] = [scale * x for x in rows[j]]
    return m, n, rows


def to_sympy(m, n, rows) -> DomainMatrix:
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows], (m, n), QQ)


def from_sympy(rows) -> list:
    return [[Fraction(x.numerator, x.denominator) for x in r] for r in rows]


@settings(max_examples=100, deadline=None)
@given(fraction_rows())
@example((0, 3, []))
@example((2, 0, [[], []]))
@example((2, 3, [[0, -3, 6], [0, -1, 2]]))
def test_rref_rank_and_kernel_match_sympy(case):
    m, n, rows = case
    ours, theirs = Matrix.from_rows(rows, ncols=n), to_sympy(m, n, rows)
    want, want_pivots = theirs.rref()
    reduced, pivots = rref(ours)
    assert pivots == tuple(want_pivots)
    want_rows = from_sympy(want.to_list()[:len(want_pivots)])
    assert reduced == Matrix.from_rows(want_rows, ncols=n)
    assert [list(r) for r in reduced.rows] == want_rows
    assert rank(ours) == theirs.rank()
    gram = from_sympy(theirs.matmul(theirs.transpose()).to_list())
    assert ours @ transpose(ours) == Matrix.from_rows(gram, ncols=m)
    ker = kernel(ours)
    assert ker.dim == n - theirs.rank()
    if ker.dim:
        assert ker == span_of_vectors(from_sympy(theirs.nullspace().to_list()), n)


_BIG = 2**1024 + 7


@settings(max_examples=40, deadline=None)
@given(fraction_rows(nrows=st.integers(0, 6), ncols=st.integers(0, 6), entries=huge_rationals))
@example((3, 3, [[_BIG, Fraction(1, _BIG), 0], [1, 1, 1], [_BIG + 1, Fraction(1, _BIG) + 1, 1]]))
@example((2, 2, [[Fraction(_BIG, 3), -_BIG], [Fraction(-1, _BIG), Fraction(3, _BIG)]]))
def test_forward_pass_rank_matches_full_rref_and_sympy(case):
    """rank stops after rref's forward pass: its pivots are the reduced form's, and its count is sympy's."""
    m, n, rows = case
    ours = Matrix.from_rows(rows, ncols=n)
    _, pivots = rref(ours)
    assert rref(ours, pivots_only=True) == (None, pivots)
    assert rank(ours) == len(pivots) == to_sympy(m, n, rows).rank()


@settings(max_examples=60, deadline=None)
@given(fraction_rows(nrows=st.shared(st.integers(0, 8), key="n"),
                     ncols=st.shared(st.integers(0, 8), key="n")))
@example((2, 2, [[1, 2], [2, 4]]))
def test_inverse_matches_sympy(case):
    n, _, rows = case
    ours, theirs = Matrix.from_rows(rows, ncols=n), to_sympy(n, n, rows)
    if theirs.rank() < n:
        with pytest.raises(DimensionMismatchError):
            inverse(ours)
        return
    assert inverse(ours) == Matrix.from_rows(from_sympy(theirs.inv().to_list()), ncols=n)


@st.composite
def nilpotents(draw):
    """P.N.P^-1 formed in sympy: N strictly upper triangular, P = L.U unit triangular."""
    n = draw(st.integers(0, 8))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

    def unit_triangular(keep):
        return [[draw(small) if keep(i, j) else Fraction(int(i == j)) for j in range(n)]
                for i in range(n)]

    # sparse strictly upper parts give a spread of Jordan types
    upper = [[draw(st.sampled_from([0, 0, 1, Fraction(-2, 3)])) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    p = to_sympy(n, n, unit_triangular(lambda i, j: j < i)).matmul(
        to_sympy(n, n, unit_triangular(lambda i, j: j > i)))
    return n, p.matmul(to_sympy(n, n, upper)).matmul(p.inv())


@settings(max_examples=50, deadline=None)
@given(nilpotents())
def test_kernel_flag_jordan_type_matches_sympy_ranks(case):
    """Blocks of size >= j: dim ker N^j - dim ker N^(j-1) = rank N^(j-1) - rank N^j, and as
    many Jordan chains have length >= j."""
    n, theirs = case
    ours = Matrix.from_rows(from_sympy(theirs.to_list()), ncols=n)
    flag = kernel_flag(ours)
    lengths = [len(chain) for chain in jordan_chains(ours)]
    ranks = [n]
    power = DomainMatrix.eye(n, QQ).to_dense()
    for _ in range(len(flag) - 1):
        power = power.matmul(theirs)
        ranks.append(power.rank())
    assert ranks[-1] == 0
    assert len(flag) == 1 or ranks[-2] > 0  # the flag stops at the nilpotency index
    for j in range(1, len(flag)):
        assert flag[j].dim - flag[j - 1].dim == ranks[j - 1] - ranks[j]
        assert sum(length >= j for length in lengths) == ranks[j - 1] - ranks[j]
    assert sum(lengths) == n


def sympy_of(m: Matrix) -> DomainMatrix:
    return to_sympy(m.nrows, m.ncols, m.rows)


def sympy_exact(f: Matrix, g: Matrix) -> bool:
    """-f-> . -g-> is exact at the middle iff g.f = 0 and rank f + rank g = dim of the middle."""
    sf, sg = sympy_of(f), sympy_of(g)
    return sg.matmul(sf).is_zero_matrix and sf.rank() + sg.rank() == f.nrows


def sympy_strict(f: Matrix, source, target) -> bool:
    """At each jump w, with B_w the basis rows of a step: f.B_src,w^T lies in W_w(tgt)
    (compatibility), and rank f.B_src,w^T = rank f + dim W_w(tgt) - rank [f | B_tgt,w^T]."""
    sf = sympy_of(f)
    for w in sorted(set(source.jumps) | set(target.jumps)):
        mapped = sf.matmul(sympy_of(source.step(w).basis).transpose())
        step = sympy_of(target.step(w).basis).transpose()
        if step.hstack(mapped).rank() != step.rank():
            return False
        if mapped.rank() != sf.rank() + step.rank() - sf.hstack(step).rank():
            return False
    return True


@settings(max_examples=24, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((None,) + BREAKABLE_HYPOTHESES), st.integers(2, 6))
def test_instance_verdicts_match_sympy_ranks(seed, broken, max_dim):
    profile = GenProfile(seed=seed, max_dim_per_node=max_dim, broken_hypothesis=broken)
    inst = gen_cs_instance(profile) if broken is None else gen_adversarial(profile)
    verdicts = check_instance_hypotheses(inst).verdicts
    for category, nodes in SEQUENCES.items():
        assert {node for _, node in verdicts[category]} <= set(nodes)
        for (k, node), verdict in verdicts[category].items():
            (f, df), (g, dg) = nodes[node]
            assert verdict.exact == sympy_exact(inst.map(f, k + df), inst.map(g, k + dg)), (category, k, node)
    for which, ((f, df), (g, dg), _) in CONCLUSIONS.items():
        for k in inst.degrees(pad=2):
            want = sympy_exact(inst.map(f, k + df), inst.map(g, k + dg))
            assert conclusion_exactness(inst, which, k).exact == want, (which, k)
    strict = {(label, k): sympy_strict(mat, src, tgt)
              for k in inst.degrees() for label, mat, src, tgt in _instance_maps(inst, k)
              if mat.nrows and mat.ncols}
    assert {key: bool(verdict) for key, verdict in verdicts["strictness"].items()} == strict
    if broken is not None:
        assert not all(map(bool, verdicts[broken].values()))
