import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import re

import steklov
from steklov import enumeration
from steklov.enumeration import (
    GENERATOR_VERSION,
    MAX_GRAPH_N,
    MAX_TREE_N,
    _class,
    _load_class,
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_count,
    graph_code,
    graph_edges,
    graph_from_code,
    tree_code,
    tree_edges,
    tree_from_code,
    unit_tree_code,
)
from steklov.errors import (
    InvalidParamsError,
    NotATreeError,
    OutOfSupportedRangeError,
    ParseError,
)
from steklov.graph import adjacency_sets, combinatorial_graph, make_graph

from conftest import (
    _ahu_form,
    _prufer_tree,
    brute_force_graph_code,
    code_decoders,
    counting_calls,
    graph_subset_classes,
    is_isomorphic,
    path_graph,
    prufer_tree_classes,
    random_unit_tree,
    two_step_graph,
)

TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # n = 1..12
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]  # n = 1..7
# SHA-256 of each class file (sorted codes, one per line) as generator
# version v2 writes it. The tree files are those of v1. The connected digests
# were derived independently from the v1 connected classes, which stored
# every member under its graph code: sort canonical_code(graph_from_code(c))
# over each class and hash the lines.
CLASS_DIGESTS = {
    ("trees", 1): "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b",
    ("trees", 2): "19b03f00fc8654cb9cd64c53f179ebc5aad7b94bf51eca39ee31cb06030acad5",
    ("trees", 3): "c38616534548af8d0ddb1a49096be126defd1de8c105349be6790a89f45fafd5",
    ("trees", 4): "be313b0b706626cbd25adba6560fd48bfeac83e40a9c2fe2767fd23dbb3d7dea",
    ("trees", 5): "b95eb129ced08e9c3052dfbe84ed34eefe14f22bfd9d1bf972698ee35b9234f8",
    ("trees", 6): "8271b121c29d10275f6be2473376d9303c7b6e31a83da310b1a43be4c504bee9",
    ("trees", 7): "484d24c40c4d0bafacef71079b409546674df3dccb0f07c6d497ac8c9443e43b",
    ("trees", 8): "08850e85fb92857be86e6b44bea79ba5a27ea6dbeea9dd581cea45627fd9f639",
    ("trees", 9): "3feab43ba59bced8b6898cc622dad17d21b7f80c7562f2e807223c8446ad7dbc",
    ("trees", 10): "b581b8783f7e5b96f0046b3216c10610a2a6a1065b0b1dc68e00a9980af84f99",
    ("trees", 11): "54ce627794a9fe1033c795a0cabed79fadf922b24e1aec1e2297c193c14fa8db",
    ("trees", 12): "6e0e78bbd958eab59068be12dad38b0afbca3dab0d848fcd2144074287260a23",
    ("trees", 13): "9e808c75cd8fe4d14de0d448771bf1b425151a7f7fe0d7029978065de1e29828",
    ("trees", 14): "8a3c95be6cf3cffe604f0bb905b545405063c44601eaeb76f44363c446b9183e",
    ("trees", 15): "5bb72cde8f8fd8afd325617cc03d27569fafed38bedaf235ca745847bc1e175c",
    ("trees", 16): "9133bd685c8f92cb27b0742f0a9e85d189931bf2afe803deeabc8efba6d1bd9b",
    ("connected", 1): "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b",
    ("connected", 2): "19b03f00fc8654cb9cd64c53f179ebc5aad7b94bf51eca39ee31cb06030acad5",
    ("connected", 3): "7c0cf075608c58dcade3c94374378f12a5e7df11cfff04cd52d106176b30e540",
    ("connected", 4): "c4e86c18bf5b9e8dec258ab576982e8034c3cb52b5a67d529f3ac587c320af58",
    ("connected", 5): "af52cdce798d6fc785d436c8c20a78faa4069ed2c61dedfa23ea54fde7f2871e",
    ("connected", 6): "6a271111a193eb115c1bacdb9e4ba2d758cd73548380bec82d933221de829f6a",
    ("connected", 7): "ed314f5423c19bdc71f9ba7c147076dcb41934d9f4e5e8600bbe78a17702827d",
}


def test_tree_counts_match_known_table():
    for n, expect in enumerate(TREE_COUNTS, start=1):
        assert len(enumerate_trees(n)) == expect, n


def test_tree_counts_match_counting_recurrence():
    for n in range(1, 13):
        assert free_tree_count(n) == TREE_COUNTS[n - 1]
    assert free_tree_count(16) == 19320
    for n in range(1, MAX_TREE_N + 1):
        assert len(enumerate_trees(n)) == free_tree_count(n), n


def test_tree_count_is_counted_once_per_n():
    # a second call does no recurrence work; a refused n stores nothing, a
    # numpy integer shares the int's entry
    enumeration._free_tree_count.cache_clear()
    for n in [*range(1, 13), 16]:
        expect = 19320 if n == 16 else TREE_COUNTS[n - 1]
        assert free_tree_count(n) == expect
        misses = enumeration._free_tree_count.cache_info().misses
        assert free_tree_count(n) == free_tree_count(np.int64(n)) == expect
        assert enumeration._free_tree_count.cache_info().misses == misses
    size = enumeration._free_tree_count.cache_info().currsize
    for bad in (0, -3, True, 6.0):
        with pytest.raises((InvalidParamsError, OutOfSupportedRangeError)):
            free_tree_count(bad)
    assert enumeration._free_tree_count.cache_info().currsize == size == 13


def test_class_codes_match_pinned_digests(tmp_path, monkeypatch):
    # generated afresh, not read from a cache file
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    for (kind, n), digest in CLASS_DIGESTS.items():
        text = "\n".join(_class(kind, n).codes) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (kind, n)


COLD_START = """
import json, runpy, sys
before = set(sys.modules)
import steklov

def loaded():
    # the steklov submodules and third-party packages loaded since
    # start-up, the latter other than numpy, and whether numpy is
    new = set(sys.modules) - before
    tops = {name.partition(".")[0] for name in new}
    return {
        "steklov": sorted(name for name in new if name.startswith("steklov.")),
        "numpy": "numpy" in tops,
        "others": sorted(tops - sys.stdlib_module_names - {"steklov", "numpy"}),
    }

seen = {"import": loaded()}
for stream in (steklov.enumerate_trees(8), steklov.enumerate_connected_graphs(5)):
    assert len(list(stream)) == len(stream.codes)
seen["enumerate and decode"] = loaded()
sys.argv = ["steklov", "--help"]
try:
    runpy.run_module("steklov.cli", run_name="__main__")
except SystemExit:
    pass
seen["cli --help"] = loaded()
from steklov import cli
assert cli.main(["verify", "--n", "6"]) == cli.EXIT_USAGE
seen["cli usage error"] = loaded()
g = steklov.build_path(5).graph
res = steklov.steklov_spectrum(g)
seen["first solve"] = loaded()
assert res.extensions.shape == (5, 2)
assert steklov.verify_nodal_theorem(g, *res.eigenpair(2)).ok
roles = ["boundary", "interior", "interior", "boundary"]
small = steklov.make_graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1)], roles=roles)
host = steklov.make_graph(5, [*small.edges, (1, 4, 1)], roles=roles + ["interior"])
assert steklov.check_rigidity_equivalence(host, small).agree
seen["extensions, nodal and rigidity"] = loaded()
steklov.predicted_bound(8, 3)
steklov.predicted_bound(9, 4)
seen["rational bound"] = loaded()
steklov.predicted_bound(8, 4)
seen["irrational bound"] = loaded()
print(json.dumps(seen))
"""


def test_cold_start_loads_numpy_only():
    # a fresh process loads no third-party package besides numpy: not to
    # enumerate and decode classes, print the CLI help, solve a spectrum,
    # read its extensions, check the nodal theorem or rigidity, or form a
    # rational bound (i = 2, or i not dividing n) or an irrational one
    # (i = 4 dividing n, rendered from its exact value). Importing the
    # package loads no submodule, and numpy and the layers past
    # enumeration load only with the first spectrum: the CLI's help and
    # usage errors need none of them
    out = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                         env={**os.environ, "STEKLOV_CACHE_DIR": ""}, timeout=120, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    light = ["steklov.enumeration", "steklov.errors", "steklov.graph"]
    solve = sorted([*light, "steklov.cli", "steklov.exact", "steklov.families",
                    "steklov.spectral"])
    checks = sorted([*solve, "steklov.extremal", "steklov.geometry"])
    assert seen == {
        "import": {"steklov": [], "numpy": False, "others": []},
        "enumerate and decode": {"steklov": light, "numpy": False, "others": []},
        "cli --help": {"steklov": light, "numpy": False, "others": []},
        "cli usage error": {"steklov": sorted([*light, "steklov.cli"]), "numpy": False,
                            "others": []},
        "first solve": {"steklov": solve, "numpy": True, "others": []},
        "extensions, nodal and rigidity": {"steklov": checks, "numpy": True, "others": []},
        "rational bound": {"steklov": checks, "numpy": True, "others": []},
        "irrational bound": {"steklov": checks, "numpy": True, "others": []},
    }


# every name the package exported when it imported all its layers eagerly:
# its functions and classes, and the layers themselves
PUBLIC_NAMES = [
    "BroomParams", "CertificationError", "GeometricPoint", "GraphError",
    "HypothesesNotMetError", "HypothesisViolatedError", "InvalidParamsError",
    "NoBoundaryError", "NotASubgraphError", "NotATreeError", "NotBipartiteError",
    "OutOfSupportedRangeError", "ParseError", "QuadraticSurd", "Role", "RootedTree",
    "SteklovError", "WeightedBoundaryGraph", "broom_lambda1", "build_broom",
    "build_comb", "build_cycle", "build_dumbbell", "build_path", "build_star",
    "build_star_paths", "canonical_code", "check_monotonicity",
    "check_rigidity_equivalence", "classify_type_AB", "clump_number", "clump_number_at",
    "clumps", "comb_spectrum", "combinatorial_boundary", "combinatorial_graph",
    "dtn_matrix", "enumerate_connected_graphs",
    "enumerate_trees", "enumeration", "errors", "exact", "extremal", "families",
    "find_removal_for_clump", "find_removal_sub_k", "geometry", "graph",
    "graph_from_dict", "graph_to_dict", "harmonic_extension", "inertia_counts",
    "is_sub_k", "lambda_value", "laplacian_spectrum", "load_graph", "make_graph",
    "minimal_broom", "minimal_broom_total", "nodal_domains", "normal_derivative",
    "predicted_bound", "rooted_path", "save_graph", "spectral", "steklov_spectrum",
    "tree_code", "verify_bipartite_top", "verify_extremal", "verify_lambda1_bound",
    "verify_nodal_theorem", "verify_positivity", "verify_reg_star",
    "verify_sigma2_tree", "verify_sigma_lambda", "verify_steklov_clump", "zero_set",
]


def test_package_namespace_is_unchanged():
    layers = {"clumps", "enumeration", "errors", "exact", "extremal", "families", "geometry",
              "graph", "spectral"}
    assert sorted(steklov.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(steklov))
    for name in PUBLIC_NAMES:
        value = getattr(steklov, name)
        if name in layers:
            assert value is importlib.import_module(f"steklov.{name}"), name
        else:
            module = importlib.import_module(value.__module__)
            assert module.__name__ in {f"steklov.{m}" for m in layers}, name
            assert value is getattr(module, name), name
    star = {}
    exec("from steklov import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC_NAMES
    assert all(star[name] is getattr(steklov, name) for name in PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        steklov.cli_main


def test_tree_generator_matches_prufer_oracle():
    for n in range(1, 9):
        assert set(_class("trees", n).codes) == prufer_tree_classes(n), n


def test_prufer_forms_match_tree_codes():
    # the oracle's integer forms against unit_tree_code on seeded random
    # Prufer sequences, 2 <= n <= 14: equal forms iff equal codes
    rng = random.Random(3131)
    for n in range(2, 15):
        ids, forms, codes = {(): 0}, {}, {}
        for _ in range(300):
            seq = [rng.randrange(n) for _ in range(n - 2)]
            order, parent = _prufer_tree(n, seq)
            assert sorted(order) == list(range(n)) and order[-1] == n - 1
            form = _ahu_form(order, parent, ids)
            code = unit_tree_code(adjacency_sets(n, [(parent[v], v) for v in range(n - 1)]))
            assert forms.setdefault(form, code) == code and codes.setdefault(code, form) == form
        assert len(forms) > 1 or n <= 3


def test_connected_counts_match_known_table():
    for n, expect in enumerate(CONNECTED_COUNTS, start=1):
        assert len(enumerate_connected_graphs(n)) == expect, n


def test_connected_generator_matches_subset_oracle():
    for n in range(1, 6):
        assert set(_class("connected", n).codes) == graph_subset_classes(n), n


def test_connected_class_stores_its_trees_under_tree_codes():
    # the members that are trees are the tree class, code for code
    for n in range(1, MAX_GRAPH_N + 1):
        codes = _class("connected", n).codes
        assert tuple(c for c in codes if c.startswith("(")) == _class("trees", n).codes, n


def test_automorphisms_match_brute_force():
    # every vertex permutation that keeps the adjacency, over connected n <= 6
    for n in range(1, 7):
        for edges in _class("connected", n).edge_lists():
            adj = adjacency_sets(n, edges)
            brute = [list(p) for p in itertools.permutations(range(n))
                     if all(p[v] in adj[p[u]] for u, v in edges)]
            assert enumeration._automorphisms(adj, enumeration._wl_colors(adj)) == brute, edges


def test_connected_generator_codes_each_orbit_once(monkeypatch):
    # joins to subsets in one orbit of the base's automorphisms are coded
    # once: 854 codes for the 853 classes at n = 7 (1,395 when every subset
    # was joined)
    classes = _class("connected", 7).codes  # the n = 6 base class is held too
    calls = [counting_calls(monkeypatch, enumeration, name)
             for name in ("_adjacency_code", "unit_tree_code")]
    codes = enumeration._connected_class(7)
    assert sorted(codes) == list(classes)
    assert sum(map(len, calls)) <= 854


def test_tree_code_round_trip(rng):
    for _ in range(100):
        g = random_unit_tree(rng, int(rng.integers(1, 12)))
        code = tree_code(g)
        h = tree_from_code(code)
        assert tree_code(h) == code
        assert is_isomorphic(g, h)


def test_tree_code_preserves_edge_lengths():
    g = make_graph(3, [(0, 1, 2), (1, 2, Fraction(1, 3))])
    code = tree_code(g)
    h = tree_from_code(code)
    lengths = sorted(Fraction(1) / Fraction(w) for _, _, w in h.edges)
    assert lengths == [Fraction(1, 2), Fraction(3)]


def test_tree_from_code_equals_the_two_step_build():
    # unit codes give Fraction(1) weights, numbered as tree_edges numbers them
    for n in range(1, 11):
        for code in enumerate_trees(n).codes:
            size, edges = tree_edges(code)
            oracle = two_step_graph(size, [(x, y, Fraction(1)) for x, y in edges])
            g = tree_from_code(code)
            assert g == oracle and repr(g) == repr(oracle), code
    for code in ("(1(1())1/2())", "(3/2(2()))", "(1/3()1/3()1/3())"):
        g = tree_from_code(code)
        assert repr(g) == repr(two_step_graph(g.n, g.edges)), code
        assert tree_code(g, root=0) == code


@pytest.mark.parametrize("one", [1, Fraction(1)])
def test_tree_code_labels_of_exact_and_float_weights(one):
    # an exact unit weight is labelled "1", a float one "1.0", any other
    # exact weight by the Fraction of its length
    edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
    exact = make_graph(5, [(x, y, one) for x, y in edges])
    assert tree_code(exact) == "(1()1()1(1()))"
    assert tree_code(exact) == unit_tree_code(exact.adjacency)
    floats = make_graph(5, [(x, y, 1.0) for x, y in edges])
    assert tree_code(floats) == "(1.0()1.0()1.0(1.0()))"
    mixed = make_graph(5, [(0, 1, one), (1, 2, 2), (1, 3, Fraction(2, 3)), (3, 4, 0.5)])
    assert tree_code(mixed) == "(1()1/2()3/2(2.0()))"


def test_rooted_code_distinguishes_roots():
    g = path_graph(3)
    assert tree_code(g, root=0) != tree_code(g, root=1)
    assert tree_code(g, root=0) == tree_code(g, root=2)


@pytest.mark.parametrize("root", [5, -1, "1", True, 1.0])
def test_tree_code_refuses_a_root_that_is_not_a_vertex(root):
    # a label out of range, or not an integer, as make_graph refuses a bool
    # or float label
    with pytest.raises(InvalidParamsError):
        tree_code(path_graph(4), root=root)


def test_tree_codes_of_a_deep_path():
    # both coders build bottom-up, with no recursion: on P_3001 the two
    # centroid arms of 1,500 vertices each read "1(1(1...()...)))"
    g = path_graph(3001)
    arm = "1" + "(1" * 1499 + "()" + ")" * 1499
    assert tree_code(g) == unit_tree_code(g.adjacency) == "(" + 2 * arm + ")"


def test_graph_code_round_trip():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            code = graph_code(g)
            assert graph_code(graph_from_code(code)) == code


def test_graph_code_is_isomorphism_invariant(rng):
    g = combinatorial_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    perm = [2, 4, 0, 3, 1]
    h = combinatorial_graph(
        5, [(perm[u], perm[v]) for u, v, _ in g.edges]
    )
    assert graph_code(g) == graph_code(h)
    assert is_isomorphic(g, h)


def _graph_and_sets(n, edges):
    return combinatorial_graph(n, edges), adjacency_sets(n, edges)


def test_graph_code_matches_brute_force_on_labelled_graphs():
    # every labelled graph on up to 5 vertices, connected or not
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pair for k, pair in enumerate(pairs) if (mask >> k) & 1]
            g, adj = _graph_and_sets(n, edges)
            assert graph_code(g) == brute_force_graph_code(adj), (n, edges)


def test_graph_code_matches_brute_force_on_relabelled_classes(rng):
    # tree members too, decoded from their tree codes
    for n in range(1, MAX_GRAPH_N + 1):
        for code in _class("connected", n).codes:
            perm = rng.permutation(n).tolist()
            edges = code_decoders(code)[0](code)[1]
            g, adj = _graph_and_sets(n, [(perm[u], perm[v]) for u, v in edges])
            assert graph_code(g) == brute_force_graph_code(adj)
            assert canonical_code(g) == code


def _symmetric_graphs():
    cycle = [(k, (k + 1) % 8) for k in range(8)]
    complete = list(itertools.combinations(range(8), 2))
    cube = [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]
    bipartite = [(u, v) for u in range(4) for v in range(4, 8)]
    return {"C8": cycle, "K8": complete, "Q3": cube, "K4,4": bipartite}


@pytest.mark.parametrize("name", ["C8", "K8", "Q3", "K4,4"])
def test_graph_code_matches_brute_force_on_symmetric_graphs(name):
    # one colour cell each: the brute force tries all 8! orders
    g, adj = _graph_and_sets(8, _symmetric_graphs()[name])
    assert graph_code(g) == brute_force_graph_code(adj)


def test_petersen_code_is_relabelling_invariant(rng):
    edges = [(k, (k + 1) % 5) for k in range(5)] + [(k, k + 5) for k in range(5)]
    edges += [(5 + k, 5 + (k + 2) % 5) for k in range(5)]
    code = graph_code(combinatorial_graph(10, edges))
    assert len(graph_edges(code)[1]) == 15
    for _ in range(20):
        perm = rng.permutation(10).tolist()
        assert graph_code(combinatorial_graph(10, [(perm[u], perm[v]) for u, v in edges])) == code


def test_canonical_code_dispatch():
    assert canonical_code(path_graph(3)).startswith("(")
    tri = combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_code(tri).startswith("g3:")


def test_non_isomorphic_detected():
    k13 = combinatorial_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(path_graph(4), k13)


def test_codes_are_sorted_and_distinct():
    for n in (6, 7):
        codes = list(_class("trees", n).codes)
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_range_gates():
    with pytest.raises(OutOfSupportedRangeError):
        enumerate_trees(MAX_TREE_N + 1)
    with pytest.raises(OutOfSupportedRangeError):
        enumerate_trees(0)
    with pytest.raises(OutOfSupportedRangeError):
        enumerate_connected_graphs(MAX_GRAPH_N + 1)


@pytest.mark.parametrize("n", [True, False, 6.0, Fraction(6), np.float64(6.0), "6"],
                         ids=["True", "False", "float", "Fraction", "float64", "str"])
def test_enumerators_refuse_non_integer_n(tmp_path, monkeypatch, n):
    # True used to return the 1-vertex class and store trees-nTrue (and
    # connected-nTrue) in the class cache, and the three oracles' 1-vertex
    # answer; 6.0 raised a bare TypeError
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    for enumerate_class in (enumerate_trees, enumerate_connected_graphs,
                            prufer_tree_classes, free_tree_count, graph_subset_classes):
        with pytest.raises(InvalidParamsError, match="must be an integer"):
            enumerate_class(n)
    assert list(tmp_path.iterdir()) == []
    assert free_tree_count(np.int64(6)) == len(prufer_tree_classes(np.int64(6))) == 6
    stream = enumerate_trees(np.int64(6))
    assert (stream.n, len(stream)) == (6, 6) and type(stream.n) is int
    assert [p.name for p in tmp_path.iterdir()] == [f"trees-n6-{GENERATOR_VERSION}.txt"]


def test_parse_errors(rng):
    # one grammar: both tree parsers refuse what breaks it, an empty edge
    # length and trailing junk included
    for bad in ("", "(", ")", "(1(", "(1())(", "()()", "(1()1)", "(())", "()x", "(1())x",
                "x()", "(1()))"):
        for parse in (tree_from_code, tree_edges):
            with pytest.raises(ParseError):
                parse(bad)
    # an unreadable or non-positive edge length is a parse error too
    for bad in ("(-1())", "(0())", "(x())", "(1/0())"):
        with pytest.raises(ParseError):
            tree_from_code(bad)
    with pytest.raises(ParseError):
        graph_from_code("g3:zz")
    # the unit parser takes unit-length tree codes only
    for bad in ("(2())", "(1/2())", "(11())", "(-1())"):
        with pytest.raises(ParseError):
            tree_edges(bad)
    with pytest.raises(ParseError):
        graph_edges("g3:0101")
    # every code that tree_code gives on a tree with fractional lengths
    # decodes to a tree with that code
    assert tree_code(tree_from_code("(1()1/2()3/2(2()))")) == "(1()1/2()3/2(2()))"
    lengths = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 3)]
    for n in range(2, 10):
        for _ in range(20):
            edges = [(int(rng.integers(v)), v, 1 / lengths[rng.integers(len(lengths))])
                     for v in range(1, n)]
            code = tree_code(make_graph(n, edges))
            assert tree_code(tree_from_code(code)) == code


def test_graph_codes_parse_only_as_written(tmp_path, monkeypatch, caplog):
    # the head is exactly "g" and n, and the one 1-vertex code is "g1:0";
    # a tree code with junk before it says so
    for bad in ("g+3:111", "g03:111", "g 3:111", "g1:junk", "g1:", "g-3:", "g3"):
        for parse in (graph_edges, graph_from_code):
            with pytest.raises(ParseError):
                parse(bad)
    assert graph_edges("g1:0") == (1, []) and graph_edges("g3:111")[0] == 3
    with pytest.raises(ParseError, match="leading characters"):
        tree_edges("x(1())")
    # a connected class file of the right count and order whose triangle is
    # misspelt is no class: it is generated again
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    path = tmp_path / f"connected-n3-{GENERATOR_VERSION}.txt"
    path.write_text("(1()1())\ng+3:111\n", encoding="utf-8")
    _load_class.cache_clear()
    assert enumerate_connected_graphs(3).codes == ("(1()1())", "g3:111")
    assert "generating the class again" in caplog.text
    assert path.read_text().split() == ["(1()1())", "g3:111"]


def test_fast_parsers_match_decoders():
    """tree_edges / graph_edges give the edge sets, and the vertex numbering,
    of tree_from_code / graph_from_code on every stored code, and the edge
    lists derived from the class object's store are theirs."""
    classes = [_class("trees", n) for n in range(1, 13)]
    classes += [_class("connected", n) for n in range(1, 8)]
    graph_codes = 0
    for stream in classes:
        for code, parsed in zip(stream.codes, stream.edge_lists(), strict=True):
            parse, decode = code_decoders(code)
            n, edges = parse(code)
            g = decode(code)
            assert n == g.n == stream.n and tuple(edges) == tuple(parsed)
            assert sorted(edges) == [(u, v) for u, v, _ in g.edges], code
            graph_codes += parse is graph_edges
    assert graph_codes == sum(CONNECTED_COUNTS) - sum(TREE_COUNTS[:7])


def test_stored_codes_are_canonical():
    """The sweep engine reports stored codes as canonical codes."""
    for n in range(1, 13):
        for code in _class("trees", n).codes:
            assert canonical_code(tree_from_code(code)) == code
    for n in range(1, 8):
        for code in _class("connected", n).codes:
            assert canonical_code(code_decoders(code)[1](code)) == code


def test_unit_tree_code_matches_tree_code(rng):
    for _ in range(300):
        n = int(rng.integers(1, 15))
        g = random_unit_tree(rng, n)
        adj = [list(g.adjacency[v]) for v in range(n)]
        assert unit_tree_code(adj) == tree_code(g)


def test_stream_iterates_afresh():
    # a stream holds no cursor: each iteration builds fresh graphs, from
    # the one store of its parsed codes
    stream = enumerate_trees(5)
    first = list(stream)
    assert [tree_code(g) for g in first] == list(stream.codes)
    second = list(stream)
    assert second == first and all(a is not b for a, b in zip(first, second))
    assert stream.store is stream.store


def test_store_rows_match_the_code_parsers():
    # every tree class 3 <= n <= 12 and connected class n <= 7: the store is
    # one flat bytes of edge ends with each row's offsets, row j is the
    # pairs of code j's parser, a row has n - 1 edges iff its code is a
    # tree code, and the degrees derived from it, by row and by one
    # bincount over the stacked arrays, are those of its neighbour sets
    classes = [enumerate_trees(n) for n in range(3, 13)]
    classes += [enumerate_connected_graphs(n) for n in range(1, 8)]
    rows = trees = 0
    for stream in classes:
        n, (ends, starts) = stream.n, stream.store
        assert type(ends) is bytes and len(starts) == len(stream) + 1
        assert starts[0] == 0 and starts[-1] == len(ends)
        owner, stacked = stream._edge_arrays()
        bincount = np.bincount((owner[:, None] * n + stacked).ravel(), minlength=len(stream) * n)
        for j, (code, row) in enumerate(zip(stream.codes, stream.rows(range(len(stream))))):
            assert row == ends[starts[j]:starts[j + 1]] == stream.rows([j])[0]
            parse = code_decoders(code)[0]
            size, edges = parse(code)
            assert size == n and list(zip(row[0::2], row[1::2])) == edges, code
            assert (len(row) == 2 * (n - 1)) == (parse is tree_edges), code
            degrees = [len(a) for a in adjacency_sets(n, edges)]
            assert [row.count(v) for v in range(n)] == degrees, code
            assert bincount[j * n:(j + 1) * n].tolist() == degrees, code
            rows += 1
            trees += parse is tree_edges
    assert rows == sum(TREE_COUNTS[2:]) + sum(CONNECTED_COUNTS)
    assert trees == sum(TREE_COUNTS[2:]) + sum(TREE_COUNTS[:7])


@pytest.mark.parametrize("kind,n,codes", [
    ("connected", 3, ("g3:011",)),  # a path: a tree's code is its tree code
    ("connected", 4, ("g4:100001",)),  # two disjoint edges
    ("connected", 3, ("(1())", "g3:111")),  # a 2-vertex tree code
    ("trees", 3, ("g3:011",)),
    ("trees", 4, ("(" + "1()" * 300 + ")",)),  # vertex labels past a byte
    ("connected", 4, ("g300:" + "1" * (300 * 299 // 2),)),
])
def test_store_refuses_codes_it_cannot_hold(kind, n, codes):
    stream = enumeration.GraphClassStream(kind, n, codes)
    for _ in range(2):
        with pytest.raises(ParseError):
            stream.rows([0])


def test_streamed_trees_equal_decoded_codes():
    # the stream reads unit edges straight from each code; the metric
    # decoder builds the same graph from it
    for n in range(1, 13):
        stream = enumerate_trees(n)
        assert list(stream) == [tree_from_code(code) for code in stream.codes], n


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    codes = _class("trees", 6).codes
    fname = tmp_path / f"trees-n6-{GENERATOR_VERSION}.txt"
    assert fname.exists()
    assert fname.read_text().split() == list(codes)
    assert [p.name for p in tmp_path.iterdir()] == [fname.name]  # no temp file left
    # a second call must read back the stored codes
    _load_class.cache_clear()
    assert _class("trees", 6).codes == codes
    # the cache is checked, not authoritative: an entry with the wrong class
    # count is a miss, and the class is generated and stored again
    bogus = tmp_path / f"trees-n3-{GENERATOR_VERSION}.txt"
    bogus.write_text("()\n")
    assert _class("trees", 3).codes == ("(1()1())",)
    assert bogus.read_text() == "(1()1())\n"


def test_class_memo_follows_cache_dir(tmp_path, monkeypatch):
    # one object per class file, its codes a tuple: a class read in one
    # cache directory is a new object, stored again, in the next
    name = f"trees-n6-{GENERATOR_VERSION}.txt"
    held = []
    for sub in ("a", "b"):
        monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path / sub))
        held.append(enumerate_trees(6))
        assert enumerate_trees(6) is held[-1] and type(held[-1].codes) is tuple
        assert len(held[-1]) == 6
        assert (tmp_path / sub / name).exists(), sub
    assert held[0] is not held[1] and held[0].codes == held[1].codes
    # a relative directory follows the working directory
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "cache")
    for sub in ("c", "d"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        assert len(enumerate_connected_graphs(5)) == 21
        assert (tmp_path / sub / "cache" / f"connected-n5-{GENERATOR_VERSION}.txt").exists(), sub


def test_class_file_memo_resolves_as_abspath(tmp_path, monkeypatch):
    # the memoised path of a class file is the one os.path.abspath gives,
    # for an absolute directory and, from two working directories, for a
    # relative one, ".." and "." parts included
    for sub in ("c", "d"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        for raw in (str(tmp_path / "x" / ".." / "y"), "cache", "a/../b", "./c/", ".."):
            monkeypatch.setenv("STEKLOV_CACHE_DIR", raw)
            file = f"trees-n5-{GENERATOR_VERSION}.txt"
            expect = os.path.join(os.path.abspath(raw), file)
            assert _class("trees", 5) is _load_class("trees", 5, expect), (sub, raw)
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "")
    assert _class("trees", 5) is _load_class("trees", 5, "")


@pytest.mark.parametrize("kind, n, codes", [
    ("trees", 9, lambda: _class("trees", 9).codes),
    ("connected", 5, lambda: _class("connected", 5).codes),
])
def test_corrupt_cache_entries_are_regenerated(tmp_path, monkeypatch, caplog, kind, n, codes):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    good = codes()
    path = tmp_path / f"{kind}-n{n}-{GENERATOR_VERSION}.txt"
    # truncated, duplicated and unsorted files each hold a wrong class, the
    # class written in UTF-16 is no UTF-8 file, and a file of the right
    # count and order whose last code does not parse (a tree code with
    # trailing junk, a graph code with the right "g5:" prefix and a bad bit)
    # is no class either
    corrupt = good[:-1] + (good[-1] + "x" if kind == "trees" else good[-1][:-1] + "2",)
    assert corrupt == tuple(sorted(set(corrupt)))
    wrong = [(good[:1], "utf-8"), (good[:-1] + good[:1], "utf-8"), (good[::-1], "utf-8"),
             (good, "utf-16"), (corrupt, "utf-8")]
    for lines, encoding in wrong:
        path.write_text("\n".join(lines) + "\n", encoding=encoding)
        _load_class.cache_clear()
        caplog.clear()
        assert codes() == good
        assert "generating the class again" in caplog.text
        assert path.read_text().split() == list(good)


@pytest.mark.parametrize("enumerate_class, n", [(enumerate_trees, 6),
                                                 (enumerate_connected_graphs, 5)])
def test_cache_path_that_is_a_file_is_skipped(tmp_path, monkeypatch, enumerate_class, n):
    # the cache is best-effort: a failed write, and its clean-up, leave the
    # class as with the cache off and the file as it was
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "")
    off = enumerate_class(n).codes
    blocker = tmp_path / "not-a-dir"
    blocker.write_bytes(b"keep")
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(blocker))
    assert enumerate_class(n).codes == off
    assert blocker.read_bytes() == b"keep" and list(tmp_path.iterdir()) == [blocker]


def test_cache_disabled_by_empty_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    assert len(_class("trees", 5).codes) == 3
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("build,error,fragment", [
    (lambda: tree_code(combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)])), NotATreeError,
     "tree codes need a tree"),
    (lambda: graph_code(make_graph(2, [(0, 1, 2)])), InvalidParamsError,
     "general graph codes are for unit-weight graphs"),
    (lambda: prufer_tree_classes(0), OutOfSupportedRangeError, "n >= 1"),
    (lambda: graph_subset_classes(0), OutOfSupportedRangeError, "n >= 1"),
    (lambda: graph_edges("gx:1"), ParseError, "bad graph code 'gx:1'"),
], ids=["tree-code-of-a-cycle", "graph-code-of-weight-2", "prufer-0", "subsets-0",
        "graph-code-without-n"])
def test_enumeration_refusals(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
