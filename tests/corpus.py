"""What several tests read: the generated instances, built once per pytest run, and small helpers
that no command or benchmark path needs (curve graphs, the JSON documents of a graph and of a
nilpotent operator, the sum of two subspaces, the failed categories of a hypothesis report).

Not collected by pytest (its name does not match ``test_*.py``).  An instance keeps what it
derives on its matrices, so a test that counts work must build its own instance instead.
"""

from functools import lru_cache

from csverify.degenerations import DualGraph
from csverify.generators import GenProfile, gen_adversarial, gen_cs_instance
from csverify.linalg import canonicalize, vstack
from csverify.serialize import filtered_space_to_json, matrix_to_json
from csverify.verifier import BREAKABLE_HYPOTHESES


@lru_cache(maxsize=None)
def generated() -> tuple:
    """(seed, max_dim, broken, instance) over ``GenProfile`` seeds 1-40 x max dim 6 and 10: for
    each pair the clean instance (broken is None), then one per breakable hypothesis, in order."""
    out = []
    for seed in range(1, 41):
        for max_dim in (6, 10):
            for broken in (None,) + BREAKABLE_HYPOTHESES:
                profile = GenProfile(seed=seed, max_dim_per_node=max_dim, broken_hypothesis=broken)
                out.append((seed, max_dim, broken, gen_adversarial(profile) if broken else gen_cs_instance(profile)))
    return tuple(out)


def cycle_graph(n: int) -> DualGraph:
    """The dual graph of an n-gon of rational curves (type I_n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return DualGraph.make(n, [(i, (i + 1) % n) for i in range(n)])


def theta_graph() -> DualGraph:
    """Two vertices joined by three parallel edges."""
    return DualGraph.make(2, [(0, 1), (0, 1), (0, 1)])


def graph_to_json(g) -> dict:
    """The dual-graph document ``fixture curve --graph`` reads, without the optional "self"."""
    return {"vertices": g.vertices, "edges": [[i, j] for i, j in g.edges]}


def nilpotent_to_json(op) -> dict:
    """The nilpotent-operator document ``monodromy`` reads."""
    return {"space": filtered_space_to_json(op.space), "matrix": matrix_to_json(op.matrix)}


def subspace_sum(a, b):
    """The span of both subspaces; DimensionMismatchError when their ambient dimensions differ."""
    return canonicalize(vstack(a.basis, b.basis))


def failed_categories(report) -> tuple:
    """The sorted hypothesis categories with at least one failing verdict in the report."""
    return tuple(sorted({category for category, _ in report.failures()}))
