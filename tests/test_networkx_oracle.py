"""The first Betti number of a dual graph against a third-party oracle: networkx.

``betti`` counts b1 = e - v + 1, and ``fixture curve`` builds A_1 of
dimension b1 and P_1 of dimension 2 b1 from it.  networkx counts the
independent cycles of the graph itself.  Its ``cycle_basis`` takes simple
graphs only, so every edge is cut into three: a loop becomes a triangle
and a multi-edge a cycle through the new vertices, and no cycle is gained
or lost.
"""

import contextlib
import io
import json
import sys

import networkx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csverify.cli import main
from csverify.degenerations import DualGraph, betti


@st.composite
def multigraphs(draw):
    """(vertices, edges) of a connected multigraph: a random spanning tree, then loops and repeated edges."""
    v = draw(st.integers(1, 6))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, v)]
    vertex = st.integers(0, v - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=5))
    return v, edges


def cycle_rank(v, edges) -> int:
    """len(networkx.cycle_basis) of the graph with every edge cut into three."""
    h = networkx.Graph()
    h.add_nodes_from(range(v))
    for t, (i, j) in enumerate(edges):
        networkx.add_path(h, [i, ("cut", t, 0), ("cut", t, 1), j])
    return len(networkx.cycle_basis(h))


def fixture_curve(graph: dict) -> dict:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(json.dumps(graph).encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out):
            assert main(["fixture", "curve", "--graph", "-"]) == 0
    finally:
        sys.stdin = saved
    return json.loads(out.getvalue())


@settings(max_examples=30, deadline=None)
@given(multigraphs())
@example((2, [(0, 1), (0, 1), (0, 1), (0, 0)]))  # the theta graph with a loop: b1 = 3
@example((1, []))
def test_betti_and_fixture_dimensions_match_networkx_cycle_basis(case):
    v, edges = case
    b1 = cycle_rank(v, edges)
    assert betti(DualGraph.make(v, edges)) == (1, b1)
    inst = fixture_curve({"vertices": v, "edges": [list(e) for e in edges]})
    absent = {"dim": 0}  # an instance stores nonzero spaces only
    assert inst["A"].get("1", absent)["dim"] == b1
    assert inst["P"].get("1", absent)["dim"] == 2 * b1
