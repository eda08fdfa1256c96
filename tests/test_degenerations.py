import random

import pytest

from csverify.degenerations import (
    DisconnectedGraphError,
    DualGraph,
    betti,
    curve_cs_instance,
    cycle_graph,
    intersection_matrix,
    theta_graph,
)
from csverify.linalg import image, kernel, span_of_vectors
from csverify.verifier import (
    check_instance_hypotheses,
    verify_invariant_cycles,
    verify_unipotent_cs,
)


def ints(m):
    return [[int(x) for x in row] for row in m.rows]


def test_betti_numbers():
    assert betti(cycle_graph(1)) == (1, 1)
    for n in range(2, 7):
        assert betti(cycle_graph(n)) == (1, 1)
    assert betti(theta_graph()) == (1, 2)
    assert betti(DualGraph.make(3, [(0, 1), (1, 2)])) == (1, 0)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        DualGraph.make(2, [])
    with pytest.raises(DisconnectedGraphError):
        DualGraph.make(4, [(0, 1), (2, 3)])


def test_bad_graph_data():
    with pytest.raises(ValueError):
        DualGraph.make(0, [])
    with pytest.raises(ValueError):
        DualGraph.make(2, [(0, 5)])


def test_intersection_matrix_i1():
    # a loop adds nothing: F.F = 0
    assert ints(intersection_matrix(cycle_graph(1))) == [[0]]


def test_intersection_matrix_i3_circulant():
    assert ints(intersection_matrix(cycle_graph(3))) == [
        [-2, 1, 1], [1, -2, 1], [1, 1, -2]]


def test_intersection_matrix_theta():
    assert ints(intersection_matrix(theta_graph())) == [[-3, 3], [3, -3]]


def test_intersection_matrix_row_sums_and_kernel():
    rng = random.Random(6)
    for _ in range(25):
        v = rng.randint(1, 6)
        edges = [(i, i + 1) for i in range(v - 1)]  # spanning path
        for _ in range(rng.randint(0, 6)):
            edges.append((rng.randrange(v), rng.randrange(v)))
        g = DualGraph.make(v, edges)
        m = intersection_matrix(g)
        assert all(sum(row) == 0 for row in m.rows)
        ker = kernel(m)
        assert ker.dim == 1
        assert ker == span_of_vectors([[1] * v], v)


def test_i1_node_dimensions():
    inst = curve_cs_instance(cycle_graph(1))
    dims = inst.node_dims()
    assert dims["A"] == {0: 1, 1: 1, 2: 1}
    assert dims["P"] == {0: 1, 1: 2, 2: 1}
    assert dims["B"] == {2: 1, 3: 1, 4: 1}
    n1 = inst.map("N", 1)
    assert image(n1).dim == 1
    assert ints(inst.map("b", 2)) == [[0]]


def test_fixture_families_pass_everything():
    graphs = [cycle_graph(n) for n in range(1, 7)] + [theta_graph()]
    for g in graphs:
        inst = curve_cs_instance(g)
        report = check_instance_hypotheses(inst)
        assert report.clean
        assert all(v.exact for v in verify_unipotent_cs(inst, report=report))
        assert verify_invariant_cycles(inst, 1, report=report).exact


def test_invariant_cycles_dimension_is_b1():
    for g in (cycle_graph(1), cycle_graph(4), theta_graph()):
        _, b1 = betti(g)
        inst = curve_cs_instance(g)
        assert image(inst.map("sa", 1)).dim == b1
        assert kernel(inst.map("N", 1)).dim == b1


def test_tree_has_trivial_monodromy():
    tree = DualGraph.make(3, [(0, 1), (1, 2)])
    inst = curve_cs_instance(tree)
    assert inst.space("P", 1).dim == 0
    report = check_instance_hypotheses(inst)
    assert report.clean
    assert verify_invariant_cycles(inst, 1, report=report).exact


def test_euler_characteristic_bookkeeping():
    for g in (cycle_graph(1), cycle_graph(5), theta_graph()):
        v = g.vertices
        _, b1 = betti(g)
        inst = curve_cs_instance(g)
        a_dims = [inst.space("A", k).dim for k in (0, 1, 2)]
        assert a_dims[0] - a_dims[1] + a_dims[2] == 1 - b1 + v


def test_instance_is_geometric_profile():
    inst = curve_cs_instance(cycle_graph(2))
    assert inst.profile == "geometric"
