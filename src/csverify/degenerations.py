"""Ground-truth instances from dual graphs of degenerate curve fibres.

For a one-parameter family of curves whose special fibre is totally
degenerate (all components rational, simple normal crossings, inside a
smooth total surface), every cohomology group in the picture is governed
by the combinatorics of the dual graph: vertices are components, edges
are nodes, and the first Betti number b1 = e - v + 1 controls the
weight-0 part of the limit H^1.  The dictionary used here:

  degree k :   0            1                          2
  A_k      :   Q (wt 0)     Q^b1 (wt 0)                Q^v (wt 2)
  P_k      :   Q (wt 0)     Q^b1(wt 0) + Q^b1(wt 2)    Q (wt 2)
  B_{k+2}  :   Q^v (wt 2)   Q^b1 (wt 4)                Q (wt 4)

with the nilpotent operator on P_1 pairing the weight-2 copy identically
onto the weight-0 copy, and the map B_2 -> A_2 given by the intersection
matrix of the components.  The graph is all the geometric input: the
fibre F = sum C_j has F.C_j = 0, which forces C_j^2 to be minus the
number of edges from j to other vertices (a loop adds nothing), so the
matrix has row sums zero and kernel the line of (1, ..., 1), exactly what
exactness of the assembled sequences needs.  The row and the maps into
and out of C come from the split construction in ``verifier``
(``assemble_row``, ``into_summand``).  ``cli fixture curve`` passes every
fixture it emits through ``verifier.checked``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

from .filtration import FilteredSpace
from .linalg import Matrix, full_subspace, span_of_vectors, transpose
from .verifier import CSInstance, assemble_row, into_summand, node_summands


# the largest node ``graph_from_json`` lets a fixture build, Q^v or Q^(2*b1), every map of it dense
MAX_FIXTURE_DIM = 64


class DisconnectedGraphError(ValueError):
    """The dual graph of a fibre must be connected."""


class DualGraph(NamedTuple):
    """Dual graph of a degenerate fibre: loops and multi-edges allowed."""

    vertices: int
    edges: Tuple[Tuple[int, int], ...]

    @staticmethod
    def make(vertices: int, edges: Sequence[Sequence[int]]) -> "DualGraph":
        if vertices < 1:
            raise ValueError("a dual graph needs at least one vertex")
        norm = []
        for e in edges:
            i, j = map(int, e)
            if not (0 <= i < vertices and 0 <= j < vertices):
                raise ValueError(f"edge {e} out of range")
            norm.append((min(i, j), max(i, j)))
        graph = DualGraph(vertices, tuple(sorted(norm)))
        if not graph._connected():
            raise DisconnectedGraphError("dual graph is not connected")
        return graph

    def _connected(self) -> bool:
        if len(self.edges) < self.vertices - 1:  # too few edges to span, so build nothing per vertex
            return False
        parent = list(range(self.vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.edges:
            parent[find(i)] = find(j)
        return len({find(x) for x in range(self.vertices)}) == 1


def betti(g: DualGraph) -> Tuple[int, int]:
    """(b0, b1) of the graph; b0 is 1, since ``DualGraph.make`` refuses a disconnected graph."""
    return 1, len(g.edges) - g.vertices + 1


def intersection_matrix(g: DualGraph) -> Matrix:
    """Symmetric intersection pairing of the fibre components.

    Off-diagonal entries are edge multiplicities; the diagonal entry
    C_j^2 = -sum_{i != j} C_i.C_j makes every row sum to zero (F.C_j = 0),
    so the kernel is spanned by (1, ..., 1).  Loops add nothing.
    """
    v = g.vertices
    rows = [[0] * v for _ in range(v)]
    for i, j in g.edges:
        if i != j:
            rows[i][j] += 1
            rows[j][i] += 1
            rows[i][i] -= 1
            rows[j][j] -= 1
    return Matrix.from_rows(rows, ncols=v)


def curve_cs_instance(g: DualGraph) -> CSInstance:
    """Full CS instance of a totally degenerate curve with dual graph g.

    It is built, not checked: ``cli fixture curve`` passes it through
    ``verifier.checked``.
    """
    _, b1 = betti(g)
    v = g.vertices

    p_family = {0: FilteredSpace.pure(1, 0), 2: FilteredSpace.pure(1, 2)}
    n_family = {0: Matrix.zero(1, 1), 2: Matrix.zero(1, 1)}
    if b1 > 0:
        w0 = span_of_vectors(
            [tuple(1 if c == i else 0 for c in range(2 * b1)) for i in range(b1)], 2 * b1)
        p_family[1] = FilteredSpace(2 * b1, {0: w0, 2: full_subspace(2 * b1)})
        n_rows = [[0] * (2 * b1) for _ in range(2 * b1)]
        for i in range(b1):
            n_rows[i][b1 + i] = 1
        n_family[1] = Matrix.from_rows(n_rows, ncols=2 * b1)

    parts, c_family, r_family, s_family = assemble_row(p_family, n_family, range(-1, 5))
    c_summands = {k: node_summands("C", k, parts) for k in range(4)}

    a_family = {0: FilteredSpace.pure(1, 0), 1: FilteredSpace.pure(b1, 0), 2: FilteredSpace.pure(v, 2)}
    b_family = {2: FilteredSpace.pure(v, 2), 3: FilteredSpace.pure(b1, 4), 4: FilteredSpace.pure(1, 4)}

    ones_row = Matrix.from_rows([[1] * v], ncols=v)
    # a_k lands in the ker(N_k) summand of C_k, and c_k reads its coker(N_{k-1}) summand
    a_maps = {k: into_summand(c_summands[k], ("ker", k), m)
              for k, m in ((0, Matrix.identity(1)), (1, Matrix.identity(b1)), (2, ones_row))}
    b_maps = {2: intersection_matrix(g)}
    c_maps = {k: transpose(into_summand(c_summands[k], ("coker", k - 1), m))
              for k, m in ((1, ones_row), (2, Matrix.identity(b1)), (3, Matrix.identity(1)))}

    return CSInstance((0, 4), {"A": a_family, "B": b_family, "C": c_family, "P": p_family},
                      {"b": b_maps, "a": a_maps, "c": c_maps, "r": r_family, "s": s_family, "N": n_family},
                      profile="geometric")
