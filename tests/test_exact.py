import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import exact, extremal, graph
from steklov.enumeration import (
    GraphClassStream,
    _load_class,
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_count,
    graph_edges,
    tree_edges,
)
from steklov.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NoBoundaryError,
    OutOfSupportedRangeError,
    SelfLoopError,
)
from steklov.exact import QuadraticSurd, dense_inertia_counts, inertia_counts, surd_sign
from steklov.extremal import THETA, _bound_str, predicted_bound, theta_value, verify_extremal
from steklov.families import lambda_value
from steklov.graph import adjacency_sets, combinatorial_graph
from steklov.spectral import steklov_spectrum

from conftest import (
    counting_calls,
    fraction_ldlt_counts,
    jacobs_trevisan_counts,
    leaf_table,
    stacked,
)

IRRATIONAL_PAIRS = [(8, 4), (10, 5), (12, 4), (12, 6)]
GRID_BOUNDS = {predicted_bound(n, i, "trees").bound_exact
               for n in range(3, 13) for i in range(2, n)}


def mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def edge_pairs(g):
    return [(u, v) for u, v, _ in g.edges]


def shift_away_from(rng, eigenvalues):
    """A seeded rational b at least 1e-6 from every eigenvalue."""
    while True:
        b = Fraction(rng.randrange(1, 4000), rng.randrange(1, 1000))
        if np.all(np.abs(eigenvalues - float(b)) >= 1e-6):
            return b


def test_counts_match_eigvalsh_counts():
    # every tree n <= 10 and every connected graph n <= 6 with a boundary,
    # three seeded shifts each: #{sigma_j < b} from the float spectrum, and
    # no eigenvalue at b
    rng = random.Random(16)
    graphs = [g for n in range(1, 11) for g in enumerate_trees(n)]
    graphs += [g for n in range(2, 7) for g in enumerate_connected_graphs(n) if g.boundary]
    for g in graphs:
        eigenvalues = steklov_spectrum(g).eigenvalues
        for _ in range(3):
            b = shift_away_from(rng, eigenvalues)
            expect = (int(np.sum(eigenvalues < float(b))), 0)
            assert inertia_counts(g.n, edge_pairs(g), b) == expect, (g.edges, b)
    assert len(graphs) == 201 + 66  # trees, then connected graphs with a boundary


def test_counts_at_an_eigenvalue():
    # the path 0-1-2 has the DtN spectrum {0, 1}, the star K_{1,3} {0, 1, 1}
    path = [(0, 1), (1, 2)]
    assert inertia_counts(3, path, Fraction(1)) == (1, 1)
    assert inertia_counts(3, path, Fraction(1, 2)) == (1, 0)
    assert inertia_counts(3, path, 0) == (0, 1)
    assert inertia_counts(4, [(0, 1), (0, 2), (0, 3)], 1) == (1, 2)


def test_tree_walk_matches_dense_factorization():
    # Jacobs-Trevisan against the dense LDL^T on every tree n <= 10, at each
    # grid bound and at b = 1, where every leaf's value starts at 0
    bounds = GRID_BOUNDS | {Fraction(1)}
    zero_counts = 0
    for n in range(1, 11):
        for g in enumerate_trees(n):
            edges = edge_pairs(g)
            adj = adjacency_sets(n, edges)
            for b in bounds:
                counts = inertia_counts(n, edges, b)
                assert counts == dense_inertia_counts(adj, b), (g.edges, b)
                zero_counts += counts[1] > 0
    assert zero_counts > 0


def relabelled(rng, n, edges):
    """``edges`` under a seeded permutation of 0..n-1, each pair in a
    random orientation, in a random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def test_tree_walk_matches_its_oracle():
    # the walk along the graph's walk against the adjacency-set walk, on
    # every tree n <= 10 as stored and renumbered, at each grid bound, at
    # b = 0 and b = 1 and at seeded rationals and surds
    rng = random.Random(1717)
    bounds = GRID_BOUNDS | {Fraction(0), Fraction(1)}
    bounds |= {Fraction(rng.randrange(-50, 400), rng.randrange(1, 60)) for _ in range(4)}
    bounds |= {QuadraticSurd(Fraction(rng.randrange(1, 40), rng.randrange(1, 12)),
                             Fraction(rng.randrange(-9, 10), rng.randrange(1, 12)), d)
               for d in (2, 3, 5)}
    renumbered = zero_counts = surd_zero_counts = 0
    for n in range(1, 11):
        for g in enumerate_trees(n):
            stored = edge_pairs(g)
            other = relabelled(rng, n, stored)
            renumbered += other != stored
            for edges in (stored, other):
                adj = adjacency_sets(n, edges)
                for b in bounds:
                    counts = inertia_counts(n, edges, b)
                    assert counts == jacobs_trevisan_counts(adj, b), (edges, b)
                    zero_counts += counts[1] > 0
                    surd_zero_counts += counts[1] > 0 and isinstance(b, QuadraticSurd)
    assert renumbered > 150 and zero_counts > 0 and surd_zero_counts > 0


def test_tree_walk_takes_parents_as_bytes_or_a_list():
    # every tree n <= 10, at each grid bound (the four surd ones included),
    # b = 0 and b = 1: the walk of a stored row's even bytes, of the same
    # parents as a list, and the Jacobs-Trevisan oracle agree
    bounds = GRID_BOUNDS | {Fraction(0), Fraction(1)}
    assert sum(isinstance(b, QuadraticSurd) for b in bounds) == len(IRRATIONAL_PAIRS)
    trees = 0
    for n in range(1, 11):
        stream = enumerate_trees(n)
        for row, edges in zip(stream.rows(range(len(stream))), stream.edge_lists(), strict=True):
            parents = row[0::2]
            assert type(parents) is bytes and len(parents) == n - 1
            adj = adjacency_sets(n, edges)
            for b in bounds:
                counts = exact.tree_inertia_counts(parents, b)
                assert counts == exact.tree_inertia_counts(list(parents), b), (edges, b)
                assert counts == jacobs_trevisan_counts(adj, b), (edges, b)
            trees += 1
    assert trees == sum(map(free_tree_count, range(1, 11)))


def test_store_counts_match_both_oracles():
    # every tree class 3 <= n <= 12 and every tree member of the connected
    # classes n <= 7, counted from the class store's rows as
    # verify_extremal counts them at b != 1, one member_counts call per
    # class and bound (b = 1 included), in the members' order: the counts
    # of inertia_counts on the code's edges and of the Jacobs-Trevisan
    # oracle, at every grid bound, at b = 0 and b = 1 and at a seeded
    # rational and surd. The edges derived from the store are those of the
    # code's parser, and a tree row's even bytes are its parent array.
    rng = random.Random(2929)
    bounds = GRID_BOUNDS | {predicted_bound(n, i, "connected").bound_exact
                            for n in range(3, 8) for i in range(2, n)}
    bounds |= {Fraction(0), Fraction(1),
               Fraction(rng.randrange(-50, 400), rng.randrange(1, 60)),
               QuadraticSurd(Fraction(rng.randrange(1, 40), rng.randrange(1, 12)),
                             Fraction(rng.randrange(1, 10), rng.randrange(1, 12)),
                             rng.choice((2, 3, 5)))}
    streams = [enumerate_trees(n) for n in range(3, 13)]
    streams += [enumerate_connected_graphs(n) for n in range(3, 8)]
    trees = zero_counts = 0
    for stream in streams:
        n, held = stream.n, []  # each tree member's code, edges, neighbour sets and row
        rows = stream.rows(range(len(stream)))
        for code, derived, row in zip(stream.codes, stream.edge_lists(), rows, strict=True):
            tree = code.startswith("(")
            size, edges = (tree_edges if tree else graph_edges)(code)
            assert size == n and list(derived) == edges, code
            if not tree:
                continue
            trees += 1
            adj = adjacency_sets(n, edges)
            assert len(row) == 2 * (n - 1) and row[1::2] == bytes(range(1, n)), code
            assert row[0::2] == bytes(u for u, _ in edges), code
            assert [row.count(v) for v in range(n)] == [len(a) for a in adj], code
            held.append((code, edges, adj, row))
        for b in bounds:
            counted = exact.member_counts(n, [row for *_, row in held], b)
            for (code, edges, adj, _), counts in zip(held, counted, strict=True):
                assert counts == inertia_counts(n, edges, b), (code, b)
                assert counts == jacobs_trevisan_counts(adj, b), (code, b)
                zero_counts += counts[1] > 0
    assert trees == sum(map(free_tree_count, [*range(3, 13), *range(3, 8)]))
    assert zero_counts > 0


def test_tree_walk_matches_its_oracle_on_the_rows_verify_counts(monkeypatch):
    # every b != 1 pair of the tree classes 3 <= n <= 12 and the connected
    # classes 3 <= n <= 7: each tree row that verify_extremal hands to
    # member_counts walks to the counts member_counts returns for it and
    # to those of the Jacobs-Trevisan oracle on its edges
    handed = []
    inner = extremal.member_counts

    def recording(n, rows, b):
        counts = inner(n, rows, b)
        handed.append((n, rows, b, counts))
        return counts

    monkeypatch.setattr(extremal, "member_counts", recording)
    pairs = [("trees", n, i) for n in range(3, 13) for i in range(2, n)]
    pairs += [("connected", n, i) for n in range(3, 8) for i in range(2, n)]
    for graph_class, n, i in pairs:
        verify_extremal(n, i, graph_class)
    assert len(pairs) == 70 and len(handed) == 31  # one call per pair at b != 1
    walked = surd_walks = 0
    for n, rows, b, counted in handed:
        assert b != 1
        for row, counts in zip(rows, counted, strict=True):
            if len(row) != 2 * n - 2:
                continue
            parents = row[0::2]
            adj = adjacency_sets(n, zip(parents, row[1::2]))
            assert exact.tree_inertia_counts(parents, b) == counts, (n, row, b)
            assert counts == jacobs_trevisan_counts(adj, b), (n, row, b)
            walked += 1
            surd_walks += isinstance(b, QuadraticSurd)
    assert walked > 0 and surd_walks > 0


def zero_cuts_before_a_sibling(parents, b) -> int:
    """How often the walk of :func:`steklov.exact.tree_inertia_counts`
    meets a zero value whose parent still has a child to reach (one with
    a smaller number), redone here in exact field arithmetic from degrees
    counted first: the cut leaves that child as it is."""
    n = len(parents) + 1
    degree = [0] + [1] * (n - 1)
    for u in parents:
        degree[u] += 1
    value = [k - b if k <= 1 else Fraction(k) for k in degree]
    cut = [False] * n
    hits = 0
    for v in range(n - 1, 0, -1):
        u = parents[v - 1]
        if cut[v] or cut[u]:
            continue
        if value[v] == 0:
            hits += u in parents[:v - 1]
            value[v], value[u], cut[u] = 1, -1, True
        else:
            value[u] -= 1 / value[v]
    return hits


def test_zero_cut_leaves_later_siblings_unfolded():
    # over every tree n <= 10 at each grid bound (the surd ones included),
    # some walks meet a zero value whose parent still has a child to reach,
    # at b = 1 and at other bounds; on each of them the walk's counts are
    # those of the dense LDL^T
    at_one = elsewhere = 0
    for n in range(1, 11):
        stream = enumerate_trees(n)
        for row in stream.rows(range(len(stream))):
            parents = list(row[0::2])
            for b in GRID_BOUNDS:
                if not zero_cuts_before_a_sibling(parents, b):
                    continue
                adj = adjacency_sets(n, zip(parents, row[1::2]))
                counts = exact.tree_inertia_counts(parents, b)
                assert counts == dense_inertia_counts(adj, b), (row, b)
                at_one += b == 1
                elsewhere += b != 1
    assert at_one > 0 and elsewhere > 0


def preorder_arrays(adj, root):
    """Parent and degree bytes of the tree with neighbour sets ``adj``,
    renumbered in a depth-first preorder from ``root`` (new vertex 0)."""
    number, parent, stack = {}, [], [(root, None)]
    while stack:
        v, up = stack.pop()
        number[v] = len(number)
        parent.append(0 if up is None else number[up])
        stack += [(c, v) for c in sorted(adj[v], reverse=True) if c != up]
    degree = [0] * len(adj)
    for v, k in number.items():
        degree[k] = len(adj[v])
    return bytes(parent), bytes(degree)


def test_leaf_rule_matches_both_oracles():
    # at b = 1 every member with a boundary of the tree classes 3 <= n <= 12
    # and the connected classes 3 <= n <= 7, in the leaf table of its
    # class's edge lists: (s, L - s) equals the counts of inertia_counts on
    # the member's edges, and of the Jacobs-Trevisan oracle on a tree
    # member; a member with no leaf reads (0, 0). The class object's leaf
    # counts are the table's L column, and the table of the edge lists,
    # each reversed with its pairs swapped, is the same. Every tree n <= 10
    # rooted at a leaf too, where vertex 0 is a leaf whose support is 1
    one = Fraction(1)
    streams = [enumerate_trees(n) for n in range(3, 13)]
    streams += [enumerate_connected_graphs(n) for n in range(3, 8)]
    members = below_one = at_one = leafless = 0
    for stream in streams:
        n, edge_lists = stream.n, stream.edge_lists()
        table = leaf_table(n, *stacked(edge_lists))
        assert table.shape == (len(stream), 2)
        assert np.array_equal(stream.leaf_counts, table[:, 1])
        flipped = [[(v, u) for u, v in reversed(edges)] for edges in edge_lists]
        assert np.array_equal(leaf_table(n, *stacked(flipped)), table)
        for (supports, leaves), edges in zip(table.tolist(), edge_lists, strict=True):
            adj = adjacency_sets(n, edges)
            if all(len(a) > 1 for a in adj):
                assert (supports, leaves) == (0, 0), edges
                leafless += 1
                continue
            counts = (supports, leaves - supports)
            assert counts == inertia_counts(n, edges, one), edges
            if len(edges) == n - 1:
                assert counts == jacobs_trevisan_counts(adj, one), edges
            members += 1
            below_one += counts[0]
            at_one += counts[1]
    assert members == 1396 and below_one > 0 and at_one > 0 and leafless > 0
    rooted_at_leaves = 0
    for n in range(3, 11):
        edge_lists = []
        for g in enumerate_trees(n):
            adj = adjacency_sets(n, edge_pairs(g))
            leaf = next(v for v, a in enumerate(adj) if len(a) == 1)
            parent, degree = preorder_arrays(adj, leaf)
            edges = [(u, v) for v, u in enumerate(parent) if v]
            assert degree[0] == 1 and all(u < v for u, v in edges)
            edge_lists.append(edges)
        table = leaf_table(n, *stacked(edge_lists))
        for (supports, leaves), edges in zip(table.tolist(), edge_lists, strict=True):
            assert (supports, leaves - supports) == inertia_counts(n, edges, one)
            rooted_at_leaves += 1
    assert rooted_at_leaves == sum(map(free_tree_count, range(3, 11)))


@pytest.mark.parametrize("n,member", [(2, [(0, 1)]), (2, [(1, 0)]), (1, [])])
def test_leaf_rule_refuses_n_below_three(n, member):
    # the leaf table of one member's edges: on K_2 both vertices are leaves
    # and the rule would give (2, 0), but sigma = 0, 2 gives (1, 0)
    assert inertia_counts(2, [(0, 1)], Fraction(1)) == (1, 0)
    with pytest.raises(InvalidParamsError, match="n >= 3"):
        leaf_table(n, *stacked([member]))


def test_verify_over_a_tree_class_makes_no_subtree_walk(monkeypatch):
    # the counts read each candidate as its class stores it: no subtree
    # walk, over a tree class or a connected one, where the tree candidates
    # go to the tree walk as parent arrays and each other candidate once to
    # the dense LDL^T
    pairs = (("trees", 12, 4), ("trees", 11, 3), ("connected", 6, 3))
    for graph_class, n, i in pairs:
        verify_extremal(n, i, graph_class)  # the class and the prediction are held
    calls = counting_calls(monkeypatch, graph, "subtree_sizes")
    for graph_class, n, i in pairs[:2]:
        assert verify_extremal(n, i, graph_class).rechecked > 0
    walks = counting_calls(monkeypatch, exact, "tree_inertia_counts")
    dense = counting_calls(monkeypatch, exact, "dense_inertia_counts")
    n, i = 6, 3
    rep = verify_extremal(n, i, "connected")
    assert calls == []
    stream, values = extremal._screened(n, i, "connected")
    edge_lists = stream.edge_lists()
    sizes = [len(edge_lists[j]) for j in np.flatnonzero(values <= rep.target.bound + rep.tol)]
    assert len(sizes) == rep.rechecked and n - 1 in sizes
    assert len(walks) == sizes.count(n - 1)
    assert len(dense) == sum(size != n - 1 for size in sizes) > 0


def test_verify_at_b_one_makes_no_walk_and_no_factorization(monkeypatch):
    # at b = 1 (m = 1) the class's leaf counts decide every candidate: no
    # tree walk, no dense LDL^T and no subtree walk, over trees and over a
    # connected class with candidates that are not trees
    pairs = (("trees", 12, 7), ("trees", 11, 6), ("connected", 7, 4))
    for graph_class, n, i in pairs:
        verify_extremal(n, i, graph_class)  # the class and the prediction are held
    walks = counting_calls(monkeypatch, exact, "tree_inertia_counts")
    dense = counting_calls(monkeypatch, exact, "dense_inertia_counts")
    subtree = counting_calls(monkeypatch, graph, "subtree_sizes")
    for graph_class, n, i in pairs:
        rep = verify_extremal(n, i, graph_class)
        assert rep.target.bound_exact == 1 and rep.match and rep.bound_ok
        stream, values = extremal._screened(n, i, graph_class)
        candidates = np.flatnonzero(values <= rep.target.bound + rep.tol)
        assert len(candidates) == rep.rechecked > 0
    assert any(stream.codes[j][0] != "(" for j in candidates)
    assert walks == dense == subtree == []


def test_verify_at_b_one_builds_no_column_and_no_gap(monkeypatch):
    # on the 65 pairs with b = 1 (i > n/2; trees n <= 16, connected graphs
    # n <= 7) a warm verify_extremal builds no sigma_i column (np.where)
    # and reduces no gap: the gap is +inf, as no class outside the argmin
    # set has a sigma_i
    gaps = counting_calls(monkeypatch, extremal, "_gap")
    columns = counting_calls(monkeypatch, np, "where")
    pairs = 0
    try:
        for graph_class, top in (("trees", 16), ("connected", 7)):
            for n in range(3, top + 1):
                for i in range(n // 2 + 1, n):
                    verify_extremal(n, i, graph_class)  # the class and the prediction are held
                    gaps.clear()
                    columns.clear()
                    rep = verify_extremal(n, i, graph_class)
                    assert rep.target.bound_exact == 1 and rep.match and rep.bound_ok
                    assert rep.gap == math.inf and rep.rechecked == len(rep.argmin_codes)
                    assert gaps == columns == [], (graph_class, n, i)
                    pairs += 1
    finally:
        _load_class.cache_clear()  # the n = 16 class
    assert pairs == 65


@pytest.mark.parametrize("n,i", IRRATIONAL_PAIRS)
def test_surd_bound_is_never_compared_with_one(monkeypatch, n, i):
    # whether b is 1 is decided once per call, from b's q for a surd b: no
    # surd subtraction or comparison, in verify_extremal or while a
    # candidate is counted, and no leaf counts, over a class object that
    # holds none yet
    verify_extremal(n, i, "trees")  # the prediction is held
    _load_class.cache_clear()
    calls = [counting_calls(monkeypatch, QuadraticSurd, "__sub__"),
             counting_calls(monkeypatch, QuadraticSurd, "_cmp"),
             counting_calls(monkeypatch, vars(GraphClassStream)["leaf_counts"], "func")]
    assert verify_extremal(n, i, "trees").rechecked == 1
    assert calls == [[], [], []]
    assert "leaf_counts" not in vars(enumerate_trees(n))


@pytest.mark.parametrize("n,edges,b", [
    (2, [(0, 1)], Fraction(1)),
    (4, [(0, 3), (1, 2), (2, 3)], Fraction(1, 2)),
    (6, [(0, 5), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5)], Fraction(1, 2)),
])
def test_dense_factorization_with_two_by_two_pivots(n, edges, b):
    # in the vertex-order LDL^T every diagonal entry left after the 1x1
    # pivots is 0 on each of these inputs (on the path 0-3-2-1 at b = 1/2:
    # pivots 1/2, 1/2, then [[0, -1], [-1, 0]]); with the interior pivoted
    # first, only K_2 at b = 1 takes the congruence that makes a diagonal
    # entry nonzero. The counts are those of the float spectrum
    adj = adjacency_sets(n, edges)
    eigenvalues = steklov_spectrum(combinatorial_graph(n, edges)).eigenvalues
    expect = (int(np.sum(eigenvalues < float(b) - 1e-9)),
              int(np.sum(np.abs(eigenvalues - float(b)) <= 1e-9)))
    assert dense_inertia_counts(adj, b) == expect


@pytest.mark.parametrize("kind", [Fraction, QuadraticSurd], ids=["rational", "surd"])
def test_integer_dense_counts_match_the_fraction_ldlt(monkeypatch, kind):
    # the fraction-free elimination against the Fraction LDL^T with pivots
    # in vertex order, on every connected member with a boundary n <= 7 and
    # every tree n <= 8, at each grid bound, at b = 0 and b = 1 and at
    # seeded rationals and a seeded surd (the rational and the surd bounds
    # in turn); then on the inputs of
    # test_dense_factorization_with_two_by_two_pivots (the Fraction LDL^T
    # needs a 2x2 pivot on each; with the interior first, only K_2 has an
    # all-zero diagonal left), on two where a step follows the congruence
    # and on the star K_1,4 at b = 3/4, whose block opens with an all-zero
    # diagonal of integer entries, each b as given and as a surd with
    # q = 0, which takes the surd arithmetic. The congruence is reached at
    # a rational b, at an irrational b (the grid's 1/2 + sqrt(3)/6 on a
    # triangle with four pendant leaves) and at a surd with q = 0
    rng = random.Random(4646)
    bounds = GRID_BOUNDS | {Fraction(0), Fraction(1)}
    bounds |= {Fraction(rng.randrange(-50, 400), rng.randrange(1, 60)) for _ in range(2)}
    bounds.add(QuadraticSurd(Fraction(rng.randrange(1, 40), rng.randrange(1, 12)),
                             Fraction(rng.randrange(1, 10), rng.randrange(1, 12)), 7))
    bounds = [b for b in bounds if isinstance(b, kind)]
    members = [(n, edges) for n in range(1, 8)
               for edges in enumerate_connected_graphs(n).edge_lists()]
    members += [(8, edges) for edges in enumerate_trees(8).edge_lists()]
    step = counting_calls(monkeypatch, exact, "_congruence")
    reached = checked = 0
    for n, edges in members:
        adj = adjacency_sets(n, edges)
        if all(len(nbrs) > 1 for nbrs in adj):
            continue
        for b in bounds:
            step.clear()
            assert dense_inertia_counts(adj, b) == fraction_ldlt_counts(adj, b), (edges, b)
            reached += bool(step)
            checked += 1
    assert checked == 436 * len(bounds) and reached > 0
    reached = []
    for n, edges, b in [
        (2, [(0, 1)], Fraction(1)),
        (4, [(0, 3), (1, 2), (2, 3)], Fraction(1, 2)),
        (6, [(0, 5), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5)], Fraction(1, 2)),
        (4, [(0, 1), (0, 2), (0, 3)], Fraction(2, 3)),  # the star: Lambda = I - J/3
        (6, [(0, 5), (1, 4), (2, 3), (3, 4), (3, 5), (4, 5)], Fraction(1, 2)),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], Fraction(3, 4)),  # Lambda = I - J/4
    ]:
        adj = adjacency_sets(n, edges)
        b = b if kind is Fraction else QuadraticSurd(b, 0, 2)
        step.clear()
        assert dense_inertia_counts(adj, b) == fraction_ldlt_counts(adj, b), (edges, b)
        reached.append(bool(step))
    assert reached == [True, False, False, True, True, True]


def test_rational_dense_counts_build_no_fraction(monkeypatch):
    # a rational b, a Fraction or an int, is counted in Python integers
    graphs = [adjacency_sets(7, edges) for edges in enumerate_connected_graphs(7).edge_lists()]
    graphs = [adj for adj in graphs if any(len(nbrs) <= 1 for nbrs in adj)][::8]
    bounds = [Fraction(3, 4), Fraction(1), Fraction(-5, 3), 2]
    expect = [fraction_ldlt_counts(adj, b) for adj in graphs for b in bounds]
    made = counting_calls(monkeypatch, Fraction, "__new__")
    counts = [dense_inertia_counts(adj, b) for adj in graphs for b in bounds]
    assert made == [] and counts == expect


@st.composite
def leafy_graphs(draw):
    """A connected graph on 8 to 10 vertices with at least two leaves: a
    random core (a random tree with extra edges) and pendant leaves."""
    n = draw(st.integers(8, 10))
    core = draw(st.integers(3, n - 2))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, core)}
    edges |= draw(st.sets(st.tuples(st.integers(0, core - 1), st.integers(0, core - 1))
                          .filter(lambda e: e[0] < e[1]), max_size=6))
    edges |= {(draw(st.integers(0, core - 1)), v) for v in range(core, n)}
    return n, sorted(edges)


rational_bounds = st.fractions(min_value=-1, max_value=6, max_denominator=24)
surd_bounds = st.builds(QuadraticSurd, st.fractions(min_value=0, max_value=4, max_denominator=12),
                        st.fractions(min_value=-2, max_value=2, max_denominator=12),
                        st.sampled_from([2, 3, 5, 7]))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(leafy_graphs(), st.one_of(rational_bounds, surd_bounds, st.sampled_from(sorted(
    GRID_BOUNDS | {Fraction(0), Fraction(1)}, key=float))))
def test_integer_dense_counts_on_leafy_graphs(graph, b):
    # the range of the leafy connected classes n = 8..10: the counts equal
    # the Fraction LDL^T's
    n, edges = graph
    adj = adjacency_sets(n, edges)
    assert sum(len(nbrs) == 1 for nbrs in adj) >= 2
    assert dense_inertia_counts(adj, b) == fraction_ldlt_counts(adj, b), (edges, b)


def cored(rng, core, h, leaves):
    """The core's edges on 0..h-1 with ``leaves`` pendant leaves h, h + 1,
    ..., each on a seeded core vertex."""
    return h + leaves, core + [(rng.randrange(h), v) for v in range(h, h + leaves)]


def test_integer_dense_counts_on_dense_cores():
    # complete cores K_h, h = 3..8, and complete bipartite cores, with
    # pendant leaves up to n = 12: their interior steps meet the largest
    # minors, which the leafy graphs' cores never reach
    rng = random.Random(4848)
    cores = [([(u, v) for v in range(h) for u in range(v)], h) for h in range(3, 9)]
    cores += [([(u, v) for u in range(s) for v in range(s, s + t)], s + t)
              for s, t in [(2, 3), (3, 3), (3, 4), (4, 4)]]
    bounds = GRID_BOUNDS | {Fraction(rng.randrange(1, 400), rng.randrange(1, 60)),
                            QuadraticSurd(Fraction(rng.randrange(1, 40), rng.randrange(1, 12)),
                                          Fraction(rng.randrange(1, 10), rng.randrange(1, 12)), 7)}
    for core, h in cores:
        for leaves in sorted({1, 12 - h}):
            n, edges = cored(rng, core, h, leaves)
            adj = adjacency_sets(n, edges)
            for b in bounds:
                assert dense_inertia_counts(adj, b) == fraction_ldlt_counts(adj, b), (edges, b)


def test_graphs_without_counts_are_refused():
    with pytest.raises(NoBoundaryError):
        inertia_counts(3, [(0, 1), (1, 2), (0, 2)], Fraction(1))
    # a triangle, whose vertices are all interior, beside an edge (n - 1
    # edges, walked as a tree) or beside a triangle with a pendant
    # (factored densely)
    with pytest.raises(DisconnectedError):
        inertia_counts(5, [(0, 1), (1, 2), (0, 2), (3, 4)], Fraction(1))
    with pytest.raises(DisconnectedError):
        inertia_counts(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (5, 6)], Fraction(1))


@pytest.mark.parametrize("b", [0.5, float("nan"), float("inf"), np.float64(1.0), 1j, True, False, "1/2"])
def test_inexact_bounds_are_refused(b):
    with pytest.raises(InvalidParamsError):
        inertia_counts(4, [(0, 1), (1, 2), (1, 3)], b)


@pytest.mark.parametrize("n,edges,error", [
    (4, [(0, 1), (1, 2), (1, 4)], IndexOutOfRangeError),
    (4, [(0, 1), (1, 2), (-1, 3)], IndexOutOfRangeError),
    (4, [(0, 1), (1, 2), (2, 3), (3, 4)], IndexOutOfRangeError),
    (3, [(0, 1), (1, 1)], SelfLoopError),
    (4, [(0, 1), (1, 2), (2, 3), (3, 3)], SelfLoopError),
    (3, [(0, 1), (0, 1)], DuplicateEdgeError),
    (3, [(0, 1), (1, 0)], DuplicateEdgeError),
    (4, [(0, 1), (1, 2), (2, 3), (2, 3)], DuplicateEdgeError),
    # a label that is not an integer: in a parent array, in other tree
    # edges, in a graph with a cycle
    (3, [(0, 1.0), (1, 2)], IndexOutOfRangeError),
    (3, [(0, 1), (1, 2.0)], IndexOutOfRangeError),
    (3, [(0, 1), (2, 1.0)], IndexOutOfRangeError),
    (3, [(0, 1), (1, 2), (2, 0.5)], IndexOutOfRangeError),
    (3, [(0, 1), ("1", 2)], IndexOutOfRangeError),
    # a bool label keys a list like the int it equals
    (3, [(0, True), (1, 2)], IndexOutOfRangeError),
    (3, [(False, 1), (1, 2)], IndexOutOfRangeError),
    (3, [(0, 1), (True, 2), (2, 0)], IndexOutOfRangeError),
    # a vertex count that is not a nonnegative integer
    (3.0, [(0, 1), (1, 2)], IndexOutOfRangeError),
    (True, [], IndexOutOfRangeError),
    (-1, [], IndexOutOfRangeError),
])
def test_malformed_edge_lists_are_refused(n, edges, error):
    with pytest.raises(error):
        inertia_counts(n, edges, Fraction(1, 2))


def test_integer_labels_of_any_integral_type_are_counted():
    path = [(0, 1), (1, 2)]
    for edges in ([(np.int64(u), np.int64(v)) for u, v in path], [(0, 1), (2, 1)]):
        assert inertia_counts(3, edges, Fraction(1, 2)) == (1, 0)


def test_numpy_integer_bounds_are_counted_in_python_ints():
    # a numpy integer b is a Rational, read as Python ints: in int64 the
    # walk over a tree at n = 200 and the elimination of a graph at n = 40
    # overflow and miscount
    rng = random.Random(1)
    graphs = [(200, [(rng.randrange(v), v) for v in range(1, 200)]) for _ in range(3)]
    graphs.append((40, [(rng.randrange(v), v) for v in range(1, 40)] + [(0, 39), (5, 30)]))
    for n, edges in graphs:
        for b in (2, 3):
            counts = inertia_counts(n, edges, np.int64(b))
            assert counts == inertia_counts(n, edges, b) and list(map(type, counts)) == [int, int]


def test_numpy_integer_surd_parts_are_python_ints():
    # Fraction keeps a numpy integer's parts, so p and q held np.int64s:
    # the tree walk at n = 200 overflowed, both counts then raised
    # TypeError in surd_sign, and float() raised OverflowError
    rng = random.Random(1)
    graphs = [(200, [(rng.randrange(v), v) for v in range(1, 200)]),
              (5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])]
    for b, ref in ((QuadraticSurd(np.int64(1), Fraction(1, 3), 2), QuadraticSurd(1, Fraction(1, 3), 2)),
                   (QuadraticSurd(Fraction(1, 2), np.int64(1), 3), QuadraticSurd(Fraction(1, 2), 1, 3))):
        assert b == ref and float(b) == float(ref)
        assert all(type(x) is int for part in (b.p, b.q) for x in part.as_integer_ratio())
        for n, edges in graphs:
            counts = inertia_counts(n, edges, b)
            assert counts == inertia_counts(n, edges, ref) and list(map(type, counts)) == [int, int]


@pytest.mark.parametrize("n,i", IRRATIONAL_PAIRS)
def test_surd_bound_rounds_to_the_target(n, i):
    t = predicted_bound(n, i, "trees")
    assert isinstance(t.bound_exact, QuadraticSurd)
    assert float(t.bound_exact) == t.bound
    b = t.bound_exact
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(t.bound_str) - mp(b.p) - mp(b.q) * mpmath.sqrt(b.d)) < 1e-39


def surd_mp(x):
    """x, a Fraction or a QuadraticSurd, as an mpf in the current precision."""
    if isinstance(x, Fraction):
        return mp(x)
    return mp(x.p) + mp(x.q) * mpmath.sqrt(x.d)


def test_quadratic_theta_is_theta():
    # the exact table against 1/(4 cos^2(pi/2i)) evaluated in mpmath
    assert sorted(THETA) == [2, 3, 4, 5, 6]
    for i, th in THETA.items():
        assert theta_value(i) is th
        assert isinstance(th, Fraction if i <= 3 else QuadraticSurd)
        with mpmath.workdps(50):
            ref = 1 / (4 * mpmath.cos(mpmath.pi / (2 * i)) ** 2)
            assert abs(surd_mp(th) - ref) < mpmath.mpf(10) ** -48, i
        assert float(th) == float(ref), i
    with pytest.raises(OutOfSupportedRangeError, match="no exact bound for i = 7"):
        theta_value(7)


def test_bound_str_is_correctly_rounded():
    # every irrational bound with n <= 400, built from lambda_value alone
    # (no minimizer graph), against mpmath at 80 digits rounded to 40
    # significant digits; the grid's pairs through predicted_bound too
    checked = 0
    for i in (4, 5, 6):
        with mpmath.workdps(80):
            theta = 1 / (4 * mpmath.cos(mpmath.pi / (2 * i)) ** 2)
        for n in range(2 * i, 401, i):
            b = lambda_value(n // i - 1 + theta_value(i))
            with mpmath.workdps(80):
                ref = mpmath.nstr(lambda_value(n // i - 1 + theta), 40)
            assert _bound_str(b) == ref, (n, i)
            if n <= 16:
                assert predicted_bound(n, i, "trees").bound_str == ref, (n, i)
            checked += 1
    assert checked == 99 + 79 + 65
    # just above and below each power of ten, where the float of b can
    # put its leading digit one place off, and a seeded sample in (0, 0.9)
    rng = random.Random(4040)
    near = [QuadraticSurd(Fraction(1, 10**j), Fraction(sign, 10**(j + e)), 2)
            for j in range(1, 12) for sign in (1, -1) for e in (20, 39, 41, 60)]
    near += [QuadraticSurd(Fraction(rng.randrange(5 * 10**4, 85 * 10**4), 10**6),
                           Fraction(rng.randrange(-10**6, 10**6), 10**8), rng.choice([2, 3, 5]))
             for _ in range(500)]
    for b in near:
        with mpmath.workdps(80):
            assert _bound_str(b) == mpmath.nstr(surd_mp(b), 40), b


def test_surd_sign_agrees_with_mpmath():
    # a seeded sample, then convergents of sqrt 2 and sqrt 3, where p and
    # q sqrt(d) cancel to within 1e-6 or less; the integer helper on the
    # integer cases and on a seeded sample of large integers
    rng = random.Random(1616)
    cases = [(Fraction(rng.randrange(-60, 61), rng.randrange(1, 30)),
              Fraction(rng.randrange(-60, 61), rng.randrange(1, 30)),
              rng.choice([2, 3, 5, 7])) for _ in range(2000)]
    cases += [(Fraction(s * a), Fraction(-s * b), d) for s in (1, -1)
              for a, b, d in ((577, 408, 2), (665857, 470832, 2), (1351, 780, 3), (18817, 10864, 3))]
    for p, q, d in cases:
        x = QuadraticSurd(p, q, d)
        with mpmath.workdps(40):
            v = mp(p) + mp(q) * mpmath.sqrt(d)
        assert x.sign() == (v > 0) - (v < 0), x
        assert float(x) == float(v), x
    integers = [(int(p), int(q), d) for p, q, d in cases if p.denominator == q.denominator == 1]
    integers += [(rng.randrange(-10**30, 10**30), rng.randrange(-10**30, 10**30),
                  rng.choice([2, 3, 5, 7])) for _ in range(500)]
    integers += [(0, 0, 2), (0, -3, 5), (7, 0, 3)]
    for x, y, d in integers:
        with mpmath.workdps(80):
            v = x + y * mpmath.sqrt(d)
        assert surd_sign(x, y, d) == (v > 0) - (v < 0), (x, y, d)


def test_surd_floor_and_ceil_are_exact():
    # far beyond a float's 53 bits, against isqrt; then a seeded sample
    # against mpmath at 80 digits, with p and q of both signs
    big = 10**30
    assert math.floor(QuadraticSurd(0, big, 2)) == math.isqrt(2 * big * big)
    assert math.ceil(QuadraticSurd(0, big, 2)) == math.isqrt(2 * big * big) + 1
    assert math.floor(QuadraticSurd(0, -big, 2)) == -math.isqrt(2 * big * big) - 1
    # 1/3 + (10^31 / 7) sqrt 5 = (7 + 3 10^31 sqrt 5) / 21
    x = QuadraticSurd(Fraction(1, 3), Fraction(10 * big, 7), 5)
    assert math.floor(x) == (7 + math.isqrt(5 * (3 * 10 * big) ** 2)) // 21
    assert math.floor(x - math.floor(x)) == 0 and math.ceil(x - math.floor(x)) == 1
    rng = random.Random(2323)
    for _ in range(2000):
        p = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**6))
        q = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**6))
        x = QuadraticSurd(p, q, rng.choice([2, 3, 5, 7]))
        with mpmath.workdps(80):
            v = surd_mp(x)
            assert (math.floor(x), math.ceil(x)) == (int(mpmath.floor(v)), int(mpmath.ceil(v))), x


def test_surd_arithmetic():
    r2 = QuadraticSurd(0, 1, 2)
    assert r2 * r2 == 2 and 2 == r2 * r2
    assert (1 + r2) * (1 - r2) == -1
    assert 1 / (1 + r2) == r2 - 1
    assert (r2 + Fraction(1, 2)) / r2 == 1 + r2 / 4
    assert math.floor(r2) == 1 and math.ceil(r2) == 2 and math.floor(-r2) == -2
    assert math.floor(QuadraticSurd(3, 0, 2)) == math.ceil(QuadraticSurd(3, 0, 2)) == 3
    assert r2 < Fraction(3, 2) and r2 > Fraction(7, 5) and r2 >= r2 and r2 <= r2
    assert hash(QuadraticSurd(Fraction(1, 2), 0, 2)) == hash(Fraction(1, 2))
    assert (r2 == 1.4142135623730951) is False  # floats are not exact numbers here
    with pytest.raises(InvalidParamsError):
        r2 + QuadraticSurd(0, 1, 3)
    with pytest.raises(ZeroDivisionError):
        1 / (r2 - r2)
    # the radicand is held squarefree, so equality answers for any two surds
    r8 = QuadraticSurd(0, 1, 8)
    assert (r8.p, r8.q, r8.d) == (0, 2, 2) and repr(r8) == "QuadraticSurd(0, 2, 2)"
    assert r8 == QuadraticSurd(0, 2, 2) and hash(r8) == hash(QuadraticSurd(0, 2, 2))
    assert QuadraticSurd(1, 3, 12) == 1 + 6 * QuadraticSurd(0, 1, 3)
    assert r8 + r2 == QuadraticSurd(0, 3, 2) and r8 / r2 == 2 and r8 > r2
    assert QuadraticSurd(1, 0, 2) == QuadraticSurd(1, 0, 3) == 1
    assert hash(QuadraticSurd(1, 0, 2)) == hash(QuadraticSurd(1, 0, 3))
    assert QuadraticSurd(0, 1, 2) not in [QuadraticSurd(0, 1, 3)]
    assert r2 != QuadraticSurd(0, 1, 3) and QuadraticSurd(1, 0, 2) != QuadraticSurd(0, 1, 3)
    # a surd with q = 0 is rational: it mixes with any radicand, and the
    # result lies in the field of the operand with q != 0
    assert QuadraticSurd(1, 0, 2) < QuadraticSurd(2, 0, 3)
    assert QuadraticSurd(1, 0, 2) + QuadraticSurd(1, 0, 3) == 2
    assert repr(QuadraticSurd(1, 0, 3) + r2) == "QuadraticSurd(1, 1, 2)"
    assert repr(QuadraticSurd(2, 0, 3) * (1 + r2)) == "QuadraticSurd(2, 2, 2)"
    assert (1 + r2) / QuadraticSurd(2, 0, 3) == (1 + r2) / 2
    # arithmetic and ordering across two reduced radicands still raise
    for op in (lambda x, y: x * y, lambda x, y: x - y, lambda x, y: x < y):
        with pytest.raises(InvalidParamsError, match="do not mix"):
            op(r8, QuadraticSurd(0, 1, 12))


@pytest.mark.parametrize("d", [4, 1, 0, -3, True, 2.0, Fraction(2), "2"])
def test_surd_refuses_a_rational_or_malformed_root(d):
    # QuadraticSurd(-2, 1, 4) is 0 and sqrt(-3) is not real; signs and
    # equality are only decided for an irrational sqrt(d)
    with pytest.raises(InvalidParamsError, match="must be irrational"):
        QuadraticSurd(-2, 1, d)
