import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from steklov.enumeration import (
    GENERATOR_VERSION,
    MAX_GRAPH_N,
    MAX_TREE_N,
    _class_codes,
    _load_class,
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_count,
    graph_code,
    graph_edges,
    graph_from_code,
    graph_subset_classes,
    prufer_tree_classes,
    tree_code,
    tree_edges,
    tree_from_code,
    unit_tree_code,
)
from steklov.errors import OutOfSupportedRangeError, ParseError
from steklov.graph import adjacency_sets, combinatorial_graph, make_graph, structurally_equal

from conftest import brute_force_graph_code, is_isomorphic, path_graph, random_unit_tree

TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # n = 1..12
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]  # n = 1..7
# SHA-256 of each class file (sorted codes, one per line) as generator
# version v1 writes it; existing cache files stay valid while these hold.
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
    ("connected", 1): "fc896bc94cfe0b163938fd27d50c48f04057e39a91fe9816c939f8b0ab64eea8",
    ("connected", 2): "6e93bcddb5c94bc1e2861186f87edf2fe7f6d9eaee44fc1ee5dcf4e105bd350a",
    ("connected", 3): "c7e47b183a962489ec1d243ce068ad8599453bd2e282d98d795813cc78244648",
    ("connected", 4): "1fed161e75da3b530f3de0a1a79d6d1d2804e7c264a5ce4c15a011b036432800",
    ("connected", 5): "31373ca9fe62c180c807d4dd579f3003a4597764503582705613cfcbd4c65f40",
    ("connected", 6): "61492a1f81a1916b9efcd310238a8696e07a9473fa9c87bb2ba30a7a51e33cef",
    ("connected", 7): "ca5d2b7f6bdb6147e767493e218f5a03d725ccaafa5c23025206dee6d427ce47",
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


def test_class_codes_match_pinned_digests(tmp_path, monkeypatch):
    # generated afresh, not read from a cache file
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    for (kind, n), digest in CLASS_DIGESTS.items():
        text = "\n".join(_class_codes(kind, n)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (kind, n)


def test_import_leaves_out_networkx():
    code = ("import sys, steklov; steklov.enumeration.enumerate_trees(8); "
            "print('networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "STEKLOV_CACHE_DIR": ""}, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_tree_generator_matches_prufer_oracle():
    for n in range(1, 9):
        assert set(_class_codes("trees", n)) == prufer_tree_classes(n), n


def test_connected_counts_match_known_table():
    for n, expect in enumerate(CONNECTED_COUNTS, start=1):
        assert len(enumerate_connected_graphs(n)) == expect, n


def test_connected_generator_matches_subset_oracle():
    for n in range(1, 6):
        assert set(_class_codes("connected", n)) == graph_subset_classes(n), n


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
    for n in range(1, MAX_GRAPH_N + 1):
        for code in _class_codes("connected", n):
            perm = rng.permutation(n).tolist()
            g, adj = _graph_and_sets(n, [(perm[u], perm[v]) for u, v in graph_edges(code)[1]])
            assert graph_code(g) == brute_force_graph_code(adj) == code


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
        codes = list(_class_codes("trees", n))
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
    classes = [(_class_codes("trees", n), tree_edges, tree_from_code) for n in range(1, 13)]
    classes += [(_class_codes("connected", n), graph_edges, graph_from_code) for n in range(1, 8)]
    for codes, parse, decode in classes:
        for code in codes:
            n, edges = parse(code)
            g = decode(code)
            assert n == g.n
            assert sorted(edges) == [(u, v) for u, v, _ in g.edges], code


def test_stored_codes_are_canonical():
    """The sweep engine reports stored codes as canonical codes."""
    for n in range(1, 13):
        for code in _class_codes("trees", n):
            assert canonical_code(tree_from_code(code)) == code
    for n in range(1, 8):
        for code in _class_codes("connected", n):
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


def test_streamed_trees_equal_decoded_codes():
    # the stream reads unit edges straight from each code; the metric
    # decoder builds the same graph from it
    for n in range(1, 13):
        stream = enumerate_trees(n)
        assert list(stream) == [tree_from_code(code) for code in stream.codes], n


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    codes = _class_codes("trees", 6)
    fname = tmp_path / f"trees-n6-{GENERATOR_VERSION}.txt"
    assert fname.exists()
    assert fname.read_text().split() == list(codes)
    assert [p.name for p in tmp_path.iterdir()] == [fname.name]  # no temp file left
    # a second call must read back the stored codes
    _load_class.cache_clear()
    assert _class_codes("trees", 6) == codes
    # the cache is checked, not authoritative: an entry with the wrong class
    # count is a miss, and the class is generated and stored again
    bogus = tmp_path / f"trees-n3-{GENERATOR_VERSION}.txt"
    bogus.write_text("()\n")
    assert _class_codes("trees", 3) == ("(1()1())",)
    assert bogus.read_text() == "(1()1())\n"


def test_class_memo_follows_cache_dir(tmp_path, monkeypatch):
    # a class read in one cache directory is stored again in the next
    name = f"trees-n6-{GENERATOR_VERSION}.txt"
    for sub in ("a", "b"):
        monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path / sub))
        assert len(enumerate_trees(6)) == 6
        assert (tmp_path / sub / name).exists(), sub
    # a relative directory follows the working directory
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "cache")
    for sub in ("c", "d"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        assert len(enumerate_connected_graphs(5)) == 21
        assert (tmp_path / sub / "cache" / f"connected-n5-{GENERATOR_VERSION}.txt").exists(), sub


@pytest.mark.parametrize("kind, n, codes", [
    ("trees", 9, lambda: _class_codes("trees", 9)),
    ("connected", 5, lambda: _class_codes("connected", 5)),
])
def test_corrupt_cache_entries_are_regenerated(tmp_path, monkeypatch, caplog, kind, n, codes):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    good = codes()
    path = tmp_path / f"{kind}-n{n}-{GENERATOR_VERSION}.txt"
    # truncated, duplicated and unsorted files each hold a wrong class
    for lines in (good[:1], good[:-1] + good[:1], good[::-1]):
        path.write_text("\n".join(lines) + "\n")
        _load_class.cache_clear()
        caplog.clear()
        assert codes() == good
        assert "generating the class again" in caplog.text
        assert path.read_text().split() == list(good)


def test_cache_disabled_by_empty_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STEKLOV_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    assert len(_class_codes("trees", 5)) == 3
    assert not any(tmp_path.iterdir())
