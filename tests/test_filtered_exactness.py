"""Filtered exactness of the conclusions, computed in the tests only; no output reads it yet.

The Clemens-Schmid sequence is a sequence of mixed Hodge structures, and a morphism of those is
strictly compatible with W (Deligne, Theorie de Hodge II, 1.1), so an exact conclusion
-f-> Y -g-> should stay exact on every W_w.  Given exactness, W_w X -> W_w Y -> W_w Z is exact at
W_w Y iff dim f(W_w X) + dim g(W_w Y) = dim W_w Y.  The strictness verdicts are what the proof
reads for that, and the corpus breaks them without making any conclusion non-exact: so these
tests see the strictness hypothesis bear load where exactness alone does not.
"""

from collections import Counter

from csverify.degenerations import curve_cs_instance
from csverify.filtration import tate_twist
from csverify.linalg import image
from csverify.verifier import ARROWS, COMPOSITES, CONCLUSIONS, conclusion_exactness

import corpus
from corpus import cycle_graph, theta_graph


def ends(inst, label, j):
    """(source, target) of label_j as filtered spaces, stored or composite, twists applied: r leaves
    P_{j-1}(-1), so cr_j does too, and N lands in P_j(-1)."""
    outer, inner = COMPOSITES.get(label, (label, label))
    source, ds = ARROWS[inner][:2]
    target, dt = ARROWS[outer][2:]
    src, tgt = inst.space(source, j + ds), inst.space(target, j + dt)
    return (tate_twist(src, -1) if inner == "r" else src), (tate_twist(tgt, -1) if outer == "N" else tgt)


def filtered_exact(inst, which, k):
    """Whether the conclusion ``which`` at degree k is exact and, at every jump w of its three
    spaces, dim f(W_w X) + dim g(W_w Y) = dim W_w Y."""
    if not conclusion_exactness(inst, which, k):
        return False
    (f, df), (g, dg), _ = CONCLUSIONS[which]
    x, y = ends(inst, f, k + df)
    z = ends(inst, g, k + dg)[1]
    fm, gm = inst.map(f, k + df), inst.map(g, k + dg)
    return all(image(fm, x.step(w)).dim + image(gm, y.step(w)).dim == y.step(w).dim
               for w in set(x.jumps) | set(y.jumps) | set(z.jumps))


def euler_defect(inst):
    """{(parity, w): sum over k of that parity of Gr_w B_k - Gr_w A_k + Gr_w P_k - Gr_{w-2} P_k},
    nonzero entries only.  The spliced sequence B_k -> A_k -> P_k -> P_k(-1) -> B_{k+2} -> ... of
    one parity is exact on each Gr_w when it is strict, so its alternating graded dimensions sum
    to zero; Gr_w of P_k(-1) is Gr_{w-2} of P_k.  No map is read."""
    total = Counter()
    for node, sign, shift in (("B", 1, 0), ("A", -1, 0), ("P", 1, 0), ("P", -1, 2)):
        for k, space in inst.spaces[node].items():
            below = 0
            for w, step in space.steps:
                total[(k % 2, w + shift)] += sign * (step.dim - below)
                below = step.dim
    return {key: n for key, n in total.items() if n}


def _conclusions(inst):
    return [(which, k) for k in inst.degrees(pad=2) for which in CONCLUSIONS]


def _curves():
    return [curve_cs_instance(cycle_graph(n)) for n in range(1, 8)] + [curve_cs_instance(theta_graph())]


def test_clean_and_curve_instances_are_filtered_exact_with_no_euler_defect():
    instances = [inst for _, _, broken, inst in corpus.generated() if broken is None] + _curves()
    assert len(instances) == 88
    for inst in instances:
        assert all(filtered_exact(inst, which, k) for which, k in _conclusions(inst))
        assert euler_defect(inst) == {}


def test_strictness_breaks_are_exact_but_not_filtered_exact():
    """Each of the 80 strictness breaks leaves every conclusion exact, and at least one of them
    not filtered exact; its graded dimensions already show the defect."""
    breaks = [inst for _, _, broken, inst in corpus.generated() if broken == "strictness"]
    assert len(breaks) == 80
    for inst in breaks:
        conclusions = _conclusions(inst)
        assert all(conclusion_exactness(inst, which, k) for which, k in conclusions)
        assert not all(filtered_exact(inst, which, k) for which, k in conclusions)
        assert euler_defect(inst)


def test_a_bound_breaks_have_an_euler_defect_iff_a_conclusion_fails():
    """The graded identity fails on exactly the A_bound breaks with a non-exact conclusion, 36 of 80."""
    with_defect, non_exact = set(), set()
    for seed, max_dim, broken, inst in corpus.generated():
        if broken != "A_bound":
            continue
        if euler_defect(inst):
            with_defect.add((seed, max_dim))
        if not all(conclusion_exactness(inst, which, k) for which, k in _conclusions(inst)):
            non_exact.add((seed, max_dim))
    assert with_defect == non_exact and len(non_exact) == 36
