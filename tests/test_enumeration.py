import os
from fractions import Fraction

import pytest

from steklov.enumeration import (
    GENERATOR_VERSION,
    MAX_GRAPH_N,
    MAX_TREE_N,
    _graph_codes,
    _tree_codes,
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_count,
    graph_code,
    graph_edges,
    graph_from_code,
    graph_subset_classes,
    is_isomorphic,
    prufer_tree_classes,
    tree_code,
    tree_edges,
    tree_from_code,
    unit_tree_code,
)
from steklov.errors import OutOfSupportedRangeError, ParseError
from steklov.graph import combinatorial_graph, make_graph, structurally_equal

from conftest import path_graph, random_unit_tree

TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # n = 1..12
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]  # n = 1..7


def test_tree_counts_match_known_table():
    for n, expect in enumerate(TREE_COUNTS, start=1):
        assert len(enumerate_trees(n)) == expect, n


def test_tree_counts_match_counting_recurrence():
    for n in range(1, 13):
        assert free_tree_count(n) == TREE_COUNTS[n - 1]
    # the recurrence alone reaches beyond the generator range
    assert free_tree_count(16) == 19320


def test_tree_generator_matches_prufer_oracle():
    for n in range(1, 9):
        assert set(_tree_codes(n)) == prufer_tree_classes(n), n


def test_connected_counts_match_known_table():
    for n, expect in enumerate(CONNECTED_COUNTS, start=1):
        assert len(enumerate_connected_graphs(n)) == expect, n


def test_connected_generator_matches_subset_oracle():
    for n in range(1, 6):
        assert set(_graph_codes(n)) == graph_subset_classes(n), n


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


def test_rooted_code_distinguishes_roots():
    g = path_graph(3)
    assert tree_code(g, root=0) != tree_code(g, root=1)
    assert tree_code(g, root=0) == tree_code(g, root=2)


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


def test_canonical_code_dispatch():
    assert canonical_code(path_graph(3)).startswith("(")
    tri = combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_code(tri).startswith("g3:")


def test_non_isomorphic_detected():
    k13 = combinatorial_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(path_graph(4), k13)


def test_codes_are_sorted_and_distinct():
    for n in (6, 7):
        codes = list(_tree_codes(n))
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_range_gates():
    with pytest.raises(OutOfSupportedRangeError):
        enumerate_trees(MAX_TREE_N + 1)
    with pytest.raises(OutOfSupportedRangeError):
        enumerate_trees(0)
    with pytest.raises(OutOfSupportedRangeError):
        enumerate_connected_graphs(MAX_GRAPH_N + 1)


def test_parse_errors():
    with pytest.raises(ParseError):
        tree_from_code("(1(")
    with pytest.raises(ParseError):
        graph_from_code("g3:zz")
    # the fast parser takes unit-length tree codes only
    for bad in ("", "(1(", "(1())(", "()()", "(2())", "(1/2())", "(11())", "(1()1)"):
        with pytest.raises(ParseError):
            tree_edges(bad)
    with pytest.raises(ParseError):
        graph_edges("g3:0101")


def test_fast_parsers_match_decoders():
    """tree_edges / graph_edges give the edge sets, and the vertex numbering,
    of tree_from_code / graph_from_code on every stored code."""
    classes = [(_tree_codes(n), tree_edges, tree_from_code) for n in range(1, 13)]
    classes += [(_graph_codes(n), graph_edges, graph_from_code) for n in range(1, 8)]
    for codes, parse, decode in classes:
        for code in codes:
            n, edges = parse(code)
            g = decode(code)
            assert n == g.n
            assert sorted(edges) == [(u, v) for u, v, _ in g.edges], code


def test_stored_codes_are_canonical():
    """The sweep engine reports stored codes as canonical codes."""
    for n in range(1, 13):
        for code in _tree_codes(n):
            assert canonical_code(tree_from_code(code)) == code
    for n in range(1, 8):
        for code in _graph_codes(n):
            g = graph_from_code(code)
            if not g.is_tree():
                assert canonical_code(g) == code


def test_unit_tree_code_matches_tree_code(rng):
    for _ in range(300):
        n = int(rng.integers(1, 15))
        g = random_unit_tree(rng, n)
        adj = [list(g.adjacency[v]) for v in range(n)]
        assert unit_tree_code(adj) == tree_code(g)


def test_stream_iterates_afresh():
    # a stream holds no cursor: each iteration decodes every class again
    stream = enumerate_trees(5)
    first = [tree_code(g) for g in stream]
    assert len(first) == 3
    assert [tree_code(g) for g in stream] == first


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    _tree_codes.cache_clear()
    codes = _tree_codes(6)
    fname = tmp_path / f"trees-n6-{GENERATOR_VERSION}.txt"
    assert fname.exists()
    assert fname.read_text().split() == list(codes)
    assert [p.name for p in tmp_path.iterdir()] == [fname.name]  # no temp file left
    # a second call must read back the stored codes
    _tree_codes.cache_clear()
    assert _tree_codes(6) == codes
    # the cache is checked, not authoritative: an entry with the wrong class
    # count is a miss, and the class is generated and stored again
    bogus = tmp_path / f"trees-n3-{GENERATOR_VERSION}.txt"
    bogus.write_text("()\n")
    _tree_codes.cache_clear()
    assert _tree_codes(3) == ("(1()1())",)
    assert bogus.read_text() == "(1()1())\n"
    _tree_codes.cache_clear()


@pytest.mark.parametrize("kind, n, codes", [
    ("trees", 9, lambda: _tree_codes(9)),
    ("connected", 5, lambda: _graph_codes(5)),
])
def test_corrupt_cache_entries_are_regenerated(tmp_path, monkeypatch, caplog, kind, n, codes):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    _tree_codes.cache_clear()
    _graph_codes.cache_clear()
    good = codes()
    path = tmp_path / f"{kind}-n{n}-{GENERATOR_VERSION}.txt"
    # truncated, duplicated and unsorted files each hold a wrong class
    for lines in (good[:1], good[:-1] + good[:1], good[::-1]):
        path.write_text("\n".join(lines) + "\n")
        _tree_codes.cache_clear()
        _graph_codes.cache_clear()
        caplog.clear()
        assert codes() == good
        assert "generating the class again" in caplog.text
        assert path.read_text().split() == list(good)
    _tree_codes.cache_clear()
    _graph_codes.cache_clear()


def test_cache_disabled_by_empty_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "")
    _tree_codes.cache_clear()
    assert len(_tree_codes(5)) == 3
    _tree_codes.cache_clear()
