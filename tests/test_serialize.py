import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csverify.degenerations import MAX_FIXTURE_DIM, curve_cs_instance, intersection_matrix
from csverify.filtration import FilteredSpace, full_subspace
from csverify.generators import GenProfile, gen_adversarial, gen_cs_instance, split_seed
from csverify.linalg import Matrix, ratio_row, span_of_vectors
from csverify.monodromy import NilpotentOp
from csverify.serialize import (
    SerializationError,
    dumps,
    filtered_space_from_json,
    filtered_space_to_json,
    graph_from_json,
    hypothesis_report_to_json,
    instance_from_json,
    instance_to_json,
    matrix_from_json,
    matrix_to_json,
    nilpotent_from_json,
)
from csverify.verifier import MalformedInstanceError, check_instance_hypotheses
from corpus import cycle_graph, graph_to_json, nilpotent_to_json, theta_graph


def test_rational_parse_and_format():
    def parse(entry):
        return matrix_from_json([[entry]], 1, 1).rows[0][0]

    assert parse("3/4") == Fraction(3, 4)
    assert parse("-7") == Fraction(-7)
    assert parse(5) == Fraction(5)
    assert matrix_to_json(Matrix.from_rows([[Fraction(6, 8), -7, 0]])) == [["3/4", "-7", "0"]]
    assert parse("1/-2") == Fraction(-1, 2)
    # int() alone would take "+1", " 1" and the Arabic-Indic digit one
    huge = "7" * 5000  # beyond the interpreter's 4300-digit limit
    for bad in ("x", "1/0", "1/2/3", None, 1.5, True, "1_0", "1/ 2", "", "1,2", "+1", " 1",
                "\u0661", huge, "1/" + huge, "-" + huge):
        with pytest.raises(SerializationError):
            parse(bad)
    for bad_row in (["1,2", "3"], ["1", "2,"], ["1", huge]):
        with pytest.raises(SerializationError):
            matrix_from_json([bad_row], 1, 2)
    # an entry holding a comma is one bad entry, never read as two integers
    for bad_row in (["1,2"], ["1,2", "3"]):
        with pytest.raises(SerializationError, match="cannot parse rational '1,2'"):
            matrix_from_json([bad_row], 1, len(bad_row))

    # a row of decimal integers skips the per-entry parse; both store what ratio_row stores
    def pair(entry):
        p, _, q = str(entry).partition("/")
        return int(p), int(q or 1)

    rows = [["0", "-3", "12"], ["-0", "0", "0"], ["4", "1/2", "-6/4"], ["1/-3", "2", "0"],
            ["10", 7, "-1"], ["2", "007", "-12"], ["6", "-4", "8"]]
    stored = matrix_from_json(rows, len(rows), 3).irows
    assert list(stored) == [ratio_row([pair(x) for x in row]) for row in rows]
    assert matrix_from_json([[]], 1, 0).irows == (ratio_row([]),)


def test_matrix_round_trip_and_shape_check():
    m = Matrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-5, 7)]])
    assert matrix_from_json(matrix_to_json(m), 2, 2) == m
    with pytest.raises(SerializationError):
        matrix_from_json(matrix_to_json(m), 3, 2)
    with pytest.raises(SerializationError):
        matrix_from_json([[]], 1, 2)


def test_filtered_space_round_trip():
    fs = FilteredSpace(3, {0: span_of_vectors([[1, 0, 0]], 3),
                           2: span_of_vectors([[1, 0, 0], [0, 1, 1]], 3),
                           5: full_subspace(3)})
    assert filtered_space_from_json(filtered_space_to_json(fs)) == fs
    assert filtered_space_from_json({"dim": 0, "steps": {}}) == FilteredSpace.zero()
    with pytest.raises(SerializationError):
        filtered_space_from_json({"steps": {}})


def test_nilpotent_round_trip():
    fs = FilteredSpace.pure(2, 0)
    op = NilpotentOp(fs, Matrix.from_rows([[0, 1], [0, 0]]))
    parsed = nilpotent_from_json(nilpotent_to_json(op))
    assert parsed.space == op.space and parsed.matrix == op.matrix


def test_graph_round_trip():
    for g in (cycle_graph(1), cycle_graph(4), theta_graph()):
        assert graph_from_json(graph_to_json(g)) == g
    assert graph_from_json({"vertices": 2, "edges": [[0, 1], [1, 0]], "self": [-2, -2]}) == cycle_graph(2)
    with pytest.raises(SerializationError):
        graph_from_json({"vertices": 2, "edges": [[0, 1], [1, 0]], "self": [-5, 1]})


def test_graph_cap_at_its_edge():
    """A fixture's nodes are Q^v and Q^(2*b1), b1 = e - v + 1 with loops counted: each at
    MAX_FIXTURE_DIM is read, one past it refused; nothing is built either way."""
    cap = MAX_FIXTURE_DIM
    path = [[j, j + 1] for j in range(cap - 1)]
    at_edge = {"path": {"vertices": cap, "edges": path},
               "loops": {"vertices": 1, "edges": [[0, 0]] * (cap // 2)},
               "parallel": {"vertices": 2, "edges": [[0, 1]] * (cap // 2 + 1)}}
    past = {"path": {"vertices": cap + 1, "edges": path + [[cap - 1, cap]]},
            "loops": {"vertices": 1, "edges": [[0, 0]] * (cap // 2 + 1)},
            "parallel": {"vertices": 2, "edges": [[0, 1]] * (cap // 2 + 2)}}
    for name, graph in at_edge.items():
        assert graph_from_json(graph).vertices == graph["vertices"], name
    for name, graph in past.items():
        with pytest.raises(SerializationError, match=f"^dual graph too large: .* capped at dimension {cap}, "):
            graph_from_json(graph)


def test_self_list_is_the_intersection_diagonal_loops_included():
    """"self" is read against the matrix ``fixture curve`` builds: C_j^2 is minus the edges from j to
    other vertices, and a loop adds nothing (F.C_j = 0).  On random connected multigraphs, each with
    a loop, the diagonal of intersection_matrix is accepted and every entry moved by one is refused."""
    rng = random.Random(3)
    for _ in range(100):
        v = rng.randint(1, 7)
        edges = [[j, rng.randrange(j)] for j in range(1, v)]
        edges += [[rng.randrange(v), rng.randrange(v)] for _ in range(rng.randint(0, 4))]
        edges += [[i, i] for i in rng.sample(range(v), rng.randint(1, v))]
        graph = {"vertices": v, "edges": edges}
        diagonal = [int(row[j]) for j, row in enumerate(intersection_matrix(graph_from_json(graph)).rows)]
        assert graph_from_json({**graph, "self": diagonal}) == graph_from_json(graph)
        for j in range(v):
            for step in (-1, 1):
                with pytest.raises(SerializationError):
                    graph_from_json({**graph, "self": diagonal[:j] + [diagonal[j] + step] + diagonal[j + 1:]})


def test_instance_round_trip_generated():
    for i in range(6):
        inst = gen_cs_instance(GenProfile(seed=split_seed(900, i), max_dim_per_node=8))
        assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_round_trip_negative_degrees():
    inst = gen_cs_instance(GenProfile(seed=31, max_dim_per_node=6, degree_range=(-3, 1)))
    assert any(k < 0 for k in inst.spaces["A"])
    assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_round_trip_adversarial_and_fixture():
    adv = gen_adversarial(GenProfile(seed=3, broken_hypothesis="strictness"))
    assert instance_from_json(instance_to_json(adv)) == adv
    fix = curve_cs_instance(cycle_graph(3))
    parsed = instance_from_json(instance_to_json(fix))
    assert parsed == fix
    assert parsed.profile == "geometric"


def test_dumps_deterministic():
    inst = gen_cs_instance(GenProfile(seed=1, max_dim_per_node=5))
    assert dumps(instance_to_json(inst)) == dumps(instance_to_json(inst))


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "3/4", "-7"])
_JSON = st.recursive(
    st.none() | st.booleans() | _TEXT
    | st.integers(-2**70, 2**70) | st.sampled_from([0, -1, 2**64, -2**64 - 1, 10**30]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=1) + "\n"


def test_dumps_edge_values():
    for value in ({}, [], [[]], {"a": {}}, [True, False, 1, 0, None], {"b": [1], "a": ["1", "x"]},
                  ["\"\\\u00e9", "\x01"], -2**64 - 5, (1, "2"), [[], {}, ""], [1.5, float("inf")]):
        assert dumps(value) == json.dumps(value, sort_keys=True, indent=1) + "\n"
    assert dumps([True, False]) == "[\n true,\n false\n]\n"
    with pytest.raises(TypeError):
        dumps([object()])


def test_report_json_round_trips_as_json():
    inst = gen_adversarial(GenProfile(seed=8, broken_hypothesis="column_exact"))
    payload = hypothesis_report_to_json(check_instance_hypotheses(inst))
    assert json.loads(dumps(payload)) == payload
    assert payload["clean"] is False


def test_malformed_instance_json():
    with pytest.raises(SerializationError):
        instance_from_json({"A": {}})  # no range
    with pytest.raises(SerializationError):
        instance_from_json({"range": [0, 1], "A": {"0": {"dim": 1, "steps": {}}}})
    good = instance_to_json(gen_cs_instance(GenProfile(seed=4, max_dim_per_node=4)))
    bad = json.loads(json.dumps(good))
    for fam in ("A", "B", "C", "P"):
        if bad[fam]:
            k, fs = next(iter(bad[fam].items()))
            fs["dim"] += 1  # break a shape
            with pytest.raises((SerializationError, MalformedInstanceError)):
                instance_from_json(bad)
            break
