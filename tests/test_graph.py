import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from steklov.enumeration import enumerate_connected_graphs, enumerate_trees
from steklov.errors import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NonPositiveMeasureError,
    NonPositiveWeightError,
    ParseError,
    SelfLoopError,
)
from steklov.graph import (
    Role,
    combinatorial_boundary,
    combinatorial_graph,
    component_passes,
    degree_roles,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    make_graph,
    save_graph,
)
from steklov.spectral import steklov_spectrum

from conftest import (
    code_decoders,
    path_graph,
    random_tree_edges,
    structurally_equal,
    two_step_graph,
    union_find_components,
)


def test_basic_construction():
    g = make_graph(3, [(0, 1, 2), (1, 2, Fraction(1, 3))])
    assert g.n == 3
    assert g.weight(1, 0) == 2
    assert g.weight(1, 2) == Fraction(1, 3)
    assert g.degree(1) == 2
    assert g.neighbors(1) == [0, 2]
    assert g.is_tree() and g.is_connected()


def test_validation_errors():
    with pytest.raises(SelfLoopError):
        make_graph(2, [(0, 0, 1)])
    with pytest.raises(DuplicateEdgeError):
        make_graph(2, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(NonPositiveWeightError):
        make_graph(2, [(0, 1, 0)])
    with pytest.raises(IndexOutOfRangeError):
        make_graph(2, [(0, 2, 1)])
    with pytest.raises(NonPositiveMeasureError):
        make_graph(2, [(0, 1, 1)], measures=[1, 0])


@pytest.mark.parametrize("edge", [(0, 0.5, 1), (1.0, 2, 1), (0, True, 1), (False, 1, 1),
                                  (0, "1", 1), (0, Fraction(1), 1)],
                         ids=["half", "float-1", "true", "false", "str", "fraction"])
def test_non_integer_endpoints_are_rejected(edge):
    # a float or a bool keys the adjacency like the int it equals, or not
    # at all (0.5), so the graph would break only when first read
    with pytest.raises(IndexOutOfRangeError):
        make_graph(3, [edge])


def test_integer_endpoints_of_any_integral_type_are_accepted():
    g = make_graph(3, [(np.int64(0), np.int64(1), 1), (1, 2, 1)])
    assert g.edges == ((0, 1, 1), (1, 2, 1)) and g.adjacency[1] == {0: 1, 2: 1}
    assert make_graph(np.int64(3), g.edges) == g


@pytest.mark.parametrize("n", [True, False, 2.0, 3.5, "2"], ids=repr)
def test_non_integer_vertex_count_is_rejected(n):
    # True built a graph with n=True; the float and string counts raised a
    # bare TypeError
    with pytest.raises(IndexOutOfRangeError):
        make_graph(n, [])
    for edges in ([], [(0, 1)]):
        with pytest.raises(IndexOutOfRangeError):
            combinatorial_graph(n, edges)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(np.inf), True, False],
                         ids=["inf", "-inf", "nan", "np-inf", "true", "false"])
def test_non_finite_weights_and_measures_are_rejected(value):
    # an infinite measure was accepted, and the path 0-1-2 with boundary
    # {0, 2} and measures [inf, 1, 1] gave the spectrum [0, 0.5]; an
    # infinite weight reached the solver and raised a bare ValueError; a
    # bool weight or measure built a graph, True read as 1
    roles = ["boundary", "interior", "boundary"]
    with pytest.raises(NonPositiveWeightError, match="finite"):
        make_graph(3, [(0, 1, value), (1, 2, 1)], roles=roles)
    with pytest.raises(NonPositiveMeasureError, match="finite"):
        make_graph(3, [(0, 1, 1), (1, 2, 1)], measures=[value, 1, 1], roles=roles)


def test_combinatorial_boundary_is_low_degree():
    g = combinatorial_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert set(g.boundary) == {0, 2, 3}
    assert g.roles[1] is Role.INTERIOR
    # read off the kept adjacency, the roles are those degree_roles gives
    # the edge list, with any weights and isolated vertices
    h = make_graph(5, [(2, 0, 2.0), (0, 1, Fraction(1, 3)), (1, 2, 1), (2, 3, 1)])
    assert combinatorial_boundary(h) == degree_roles(5, h.edges)
    assert combinatorial_boundary(h) == (Role.INTERIOR,) * 3 + (Role.BOUNDARY,) * 2


def test_combinatorial_graph_equals_the_two_step_build():
    # one construction gives the graph (weights, measures and roles, with
    # their types) that the all-interior graph given its degree roles is
    classes = [enumerate_trees(n) for n in range(1, 11)]
    classes += [enumerate_connected_graphs(n) for n in range(1, 8)]
    checked = 0
    for stream in classes:
        for code in stream.codes:
            n, edges = code_decoders(code)[0](code)
            g = combinatorial_graph(n, edges)
            oracle = two_step_graph(n, [(x, y, 1) for x, y in edges])
            assert g == oracle and repr(g) == repr(oracle), code
            assert combinatorial_boundary(g) == g.roles
            assert (g.boundary, g.dirichlet, g.interior) == tuple(
                tuple(v for v in range(n) if g.roles[v] is role)
                for role in (Role.BOUNDARY, Role.DIRICHLET, Role.INTERIOR))
            checked += 1
    assert checked == 201 + 996  # trees n <= 10, connected graphs n <= 7


@pytest.mark.parametrize("edges,error", [
    ([(0, 3)], IndexOutOfRangeError),
    ([(0, -1)], IndexOutOfRangeError),
    ([(1, 1)], SelfLoopError),
    ([(0, 1), (1, 0)], DuplicateEdgeError),
    ([(0, 1), (0, 1)], DuplicateEdgeError),
    ([(0, 0.5)], IndexOutOfRangeError),
    ([(0, 1.0), (1, 2)], IndexOutOfRangeError),
    ([(0, "1")], IndexOutOfRangeError),
])
def test_combinatorial_graph_rejects_bad_edges(edges, error):
    # the degree count behind the roles never runs ahead of validation
    with pytest.raises(error):
        combinatorial_graph(3, edges)


def test_delete_edges_and_components():
    g = path_graph(4)
    h = g.delete_edges([(1, 2)])
    assert sorted(map(sorted, h.components())) == [[0, 1], [2, 3]]
    with pytest.raises(EdgeNotFoundError):
        g.delete_edges([(0, 2)])


def test_components_match_union_find_oracle():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.5)
        g = make_graph(n, [(u, v, 1) for (u, v), k in zip(pairs, keep) if k])
        verts = [v for v in range(n) if rng.random() < 0.7]
        edges = [(u, v) for u, v, _ in g.edges]
        assert g.components(verts) == union_find_components(edges, verts)
        assert g.components() == union_find_components(edges, range(n))
        for comp, (order, parent, size) in component_passes(g.adjacency, verts):
            assert sorted(order) == list(comp) and order[0] == comp[0]
            assert parent[comp[0]] == -1 and size[comp[0]] == len(comp)


def test_induced_subgraph_relabels():
    g = path_graph(4)
    h = g.induced_subgraph([2, 3])
    assert h.n == 2 and h.edges == ((0, 1, 1),)


def test_subgraph_check():
    g = path_graph(4)
    h = g.delete_edges([(1, 2)])
    assert h.is_subgraph_of(g)
    assert not g.is_subgraph_of(h)


def test_json_round_trip(tmp_path):
    g = make_graph(
        3,
        [(0, 1, 0.5), (1, 2, 2.0)],
        measures=[1.0, 2.0, 1.5],
        roles=[Role.BOUNDARY, Role.INTERIOR, Role.DIRICHLET],
    )
    path = tmp_path / "g.json"
    save_graph(g, path)
    h = load_graph(path)
    assert structurally_equal(g, h)
    assert h.roles == g.roles


def test_json_rejects_unknown_fields(tmp_path):
    doc = graph_to_dict(path_graph(2))
    doc["vertices"][0]["color"] = "red"
    with pytest.raises(ParseError):
        graph_from_dict(doc)
    doc = graph_to_dict(path_graph(2))
    doc["edges"][0]["label"] = "x"
    with pytest.raises(ParseError):
        graph_from_dict(doc)
    path = tmp_path / "bad.json"
    # an entry that is no object, or a field that is no list, used to raise
    # a bare TypeError
    for text in ("not json", '{"vertices": [], "edges": [{"w": 1' + "0" * 5000 + "}]}",
                 '{"vertices": [5], "edges": []}', '{"vertices": [], "edges": ["uv"]}',
                 '{"vertices": [{"id": 0}, [1]], "edges": []}', '{"vertices": null, "edges": []}',
                 '{"vertices": [], "edges": {"u": 0}}', '{"vertices": "ab", "edges": []}'):
        path.write_text(text)
        with pytest.raises(ParseError):
            load_graph(path)
    path.write_bytes(b'{"vertices": [\xff]}')
    with pytest.raises(ParseError):
        load_graph(path)


@pytest.mark.parametrize("field,where", [("w", "edges"), ("measure", "vertices")])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, True, False],
                         ids=["inf", "-inf", "nan", "int-1e400", "true", "false"])
def test_json_rejects_non_finite_numbers(tmp_path, field, where, value):
    # true and false too: bool is an int in Python and True > 0
    doc = graph_to_dict(path_graph(3))
    doc[where][0][field] = value
    with pytest.raises(ParseError):
        graph_from_dict(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))  # written as Infinity, NaN, 400 digits, true or false
    with pytest.raises(ParseError):
        load_graph(path)


@pytest.mark.parametrize("field,where,value", [
    ("id", "vertices", True), ("id", "vertices", 1.0),
    ("u", "edges", 0.5), ("v", "edges", 1.0), ("u", "edges", False), ("v", "edges", "1"),
], ids=["id-true", "id-float", "u-half", "v-float", "u-false", "v-str"])
def test_json_rejects_non_integer_labels(tmp_path, field, where, value):
    doc = graph_to_dict(path_graph(3))
    doc[where][1 if where == "vertices" else 0][field] = value
    with pytest.raises(ParseError):
        graph_from_dict(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_graph(path)


@given(st.integers(min_value=2, max_value=10), st.randoms(use_true_random=False))
def test_round_trip_random_trees(n, pyrng):
    rng = np.random.default_rng(pyrng.randrange(2**32))
    g = combinatorial_graph(n, random_tree_edges(rng, n))
    assert structurally_equal(g, graph_from_dict(graph_to_dict(g)))


@pytest.mark.parametrize("build,error,fragment", [
    (lambda: graph_from_dict({"vertices": [], "edges": [], "extra": 1}), ParseError,
     "exactly 'vertices' and 'edges'"),
    (lambda: graph_from_dict({"vertices": [{"role": "boundary"}], "edges": []}), ParseError,
     "missing 'id'"),
    (lambda: graph_from_dict({"vertices": [{"id": 0, "role": "pinned"}], "edges": []}),
     ParseError, "unknown role 'pinned'"),
    (lambda: graph_from_dict({"vertices": [{"id": 0}, {"id": 1}], "edges": [{"u": 0}]}),
     ParseError, "missing 'u' or 'v'"),
    (lambda: make_graph(3, [], measures=[1, 1]), IndexOutOfRangeError,
     "measure list has wrong length"),
    (lambda: make_graph(3, [], roles=["boundary"]), IndexOutOfRangeError,
     "role list has wrong length"),
    (lambda: path_graph(3).with_roles([Role.BOUNDARY]), IndexOutOfRangeError,
     "role list has wrong length"),
    (lambda: path_graph(3).weight(0, 2), EdgeNotFoundError, "no edge {0,2}"),
    (lambda: make_graph(2, [(0, 1, "x")]), NonPositiveWeightError,
     "edge weight must be a positive finite number"),
    # a role name that names no role raised a bare ValueError
    (lambda: make_graph(2, [(0, 1, 1)], roles=["pinned", "boundary"]), InvalidParamsError,
     "unknown role 'pinned'"),
    (lambda: path_graph(3).with_roles(["boundary", "pinned", "boundary"]), InvalidParamsError,
     "unknown role 'pinned'"),
], ids=["extra-key", "vertex-without-id", "unknown-role", "edge-without-v",
        "measures-length", "roles-length", "with-roles-length", "missing-edge-weight",
        "string-weight", "make-graph-unknown-role", "with-roles-unknown-role"])
def test_graph_refusals(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()


def test_with_roles_reads_role_names():
    # the names were stored as strings and read as Dirichlet: B = () and
    # B_D = (0, 1, 2), so steklov_spectrum raised NoBoundaryError and
    # graph_to_dict AttributeError
    g = path_graph(3).with_roles(["boundary", "interior", "boundary"])
    assert g == combinatorial_graph(3, [(0, 1), (1, 2)])
    assert (g.boundary, g.dirichlet, g.dirichlet_interior) == ((0, 2), (), (0, 1, 2))
    assert graph_to_dict(g) == graph_to_dict(path_graph(3))
    spectra = [steklov_spectrum(h).eigenvalues.tolist() for h in (g, path_graph(3))]
    assert spectra[0] == spectra[1]


def test_induced_subgraph_stores_edges_as_make_graph_does():
    # [2, 3, 1] stored the edge (2, 0, 1), so weight(0, 2) raised
    # EdgeNotFoundError; verify_positivity cuts its pieces in such orders
    h = path_graph(4).induced_subgraph([2, 3, 1])
    assert h == make_graph(3, [(1, 0, 1), (2, 0, 1)],
                           roles=[Role.INTERIOR, Role.BOUNDARY, Role.INTERIOR])
    assert h.edges == ((0, 1, 1), (0, 2, 1)) and h.weight(0, 2) == 1
    assert path_graph(4).induced_subgraph(np.array([2, 3, 1])) == h


# the path 0-1-2 with measures (1, 2, 3) and roles (B, I, D)
MIXED_P3 = make_graph(3, [(0, 1, 1), (1, 2, 1)], measures=[1, 2, 3],
                      roles=["boundary", "interior", "dirichlet"])


@pytest.mark.parametrize("cut,fragment", [
    # a vertex 0 with vertex 2's measure and role, and no edge
    (lambda g: g.induced_subgraph([-1, 0]), "vertex -1 out of range for n=3"),
    # an isolated copy of vertex 0
    (lambda g: g.induced_subgraph([0, 0, 1]), "vertex 0 repeated"),
    # True read as vertex 1
    (lambda g: g.induced_subgraph([True, 2]), "vertex True out of range for n=3"),
    (lambda g: g.induced_subgraph([1.0, 2]), "vertex 1.0 out of range for n=3"),
    # a bare IndexError
    (lambda g: g.induced_subgraph([0, 5]), "vertex 5 out of range for n=3"),
    # the edge {0, 1} removed
    (lambda g: g.delete_edges([(0.0, 1)]), "vertex 0.0 out of range for n=3"),
    # the edge {1, 2} removed
    (lambda g: g.delete_edges([(True, 2)]), "vertex True out of range for n=3"),
    # an EdgeNotFoundError, as for a pair of vertices that is no edge
    (lambda g: g.delete_edges([(2, 3)]), "vertex 3 out of range for n=3"),
], ids=["induced-negative", "induced-repeat", "induced-true", "induced-float",
        "induced-too-large", "delete-float", "delete-true", "delete-too-large"])
def test_labels_that_are_not_vertices_are_refused(cut, fragment):
    with pytest.raises(IndexOutOfRangeError, match=re.escape(fragment)):
        cut(MIXED_P3)


@pytest.mark.parametrize("value,as_float", [
    (Fraction(1, 10**400), "0.0"), (10**400, "inf"), (Fraction(10**400, 3), "inf"),
], ids=["tiny-fraction", "huge-int", "huge-fraction"])
def test_numbers_without_a_positive_finite_float_are_rejected(value, as_float):
    # each built a graph, whose solve read the number as 0.0 or raised a
    # bare OverflowError, and which graph_to_dict refused
    with pytest.raises(NonPositiveWeightError,
                       match=re.escape(f"edge weight is {as_float} as a float")):
        make_graph(2, [(0, 1, value)])
    with pytest.raises(NonPositiveMeasureError,
                       match=re.escape(f"vertex measure is {as_float} as a float")):
        make_graph(2, [(0, 1, 1)], measures=[value, 1])


def test_subgraph_needs_the_same_vertices_and_measures():
    g = path_graph(3)
    assert g.is_subgraph_of(g)
    assert not g.is_subgraph_of(path_graph(4))
    assert not g.is_subgraph_of(make_graph(3, g.edges, [1, 2, 1], g.roles))
