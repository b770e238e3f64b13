import copy
import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import re

from steklov import clumps, geometry, graph
from steklov.clumps import (
    ComponentReport,
    RemovalCertificate,
    StarException,
    SubKCandidate,
    SubKWitness,
    TypeABClassification,
    TypeAWitness,
    TypeBWitness,
    classify_type_AB,
    find_removal_for_clump,
    find_removal_sub_k,
    is_sub_k,
)
from steklov.enumeration import enumerate_trees, tree_code
from steklov.errors import (
    CertificationError,
    HypothesesNotMetError,
    HypothesisViolatedError,
    InvalidParamsError,
    NotATreeError,
    NotUnitWeightError,
)
from steklov.geometry import (
    GeometricPoint,
    clump_lengths_at,
    clump_number,
    clump_number_at,
)
from steklov.extremal import sigma_value, verify_sigma2_tree, verify_steklov_clump
from steklov.families import (
    build_comb,
    build_path,
    build_star_paths,
    lambda_value,
    rooted_path,
)
from steklov.graph import combinatorial_graph, make_graph, subtree_sizes

from conftest import (
    broom_codes,
    centre_by_scan,
    clump_rooted_tree,
    counting_calls,
    path_graph,
)


def test_sub_k_examples():
    # single edge: clump number 1/2 < 1, sub-1
    assert is_sub_k(path_graph(2), 1).value
    # P5 = Br(2): clump number 2 and the lone clump at the argmin vertex is
    # the minimal broom of length 2, but both sides match... check: at the
    # center vertex there are two clumps of length 2, each a path = Br(2)
    w = is_sub_k(path_graph(5), 2)
    assert not w.value
    assert w.clump_number == 2
    # P3 has clump number 1 < 2
    assert is_sub_k(path_graph(3), 2).value


def test_sub_k_star_of_paths():
    # St(3;2): three arms of length 2; clump number 2 at the center, three
    # clumps all equal to the minimal broom Br(2) -> not sub-2
    st = build_star_paths(3, 2).graph
    w = is_sub_k(st, 2)
    assert not w.value and w.clump_number == 2
    # spider with two leaves and one length-2 arm at the center: clump number
    # is exactly 2, and only one clump at the center is a minimal broom Br(2)
    from steklov.graph import combinatorial_graph

    sp = combinatorial_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    w2 = is_sub_k(sp, 2)
    assert w2.clump_number == 2 and w2.value
    assert any(c.ok for c in w2.candidates)


def test_sub_k_requires_tree():
    from steklov.graph import combinatorial_graph

    with pytest.raises(NotATreeError):
        is_sub_k(combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)]), 1)


def test_removal_for_clump_examples():
    # P7 (6 edges), r=1, k=2: remove one edge to split into halves of clump <= 2
    cert = find_removal_for_clump(path_graph(7), 1, 2)
    assert isinstance(cert, RemovalCertificate)
    assert len(cert.removed) <= 1
    assert all(c.clump_number <= 2 for c in cert.components)
    # P4, r=0, half bound: clump(P4) = 3/2 <= 1 + 1/2
    cert2 = find_removal_for_clump(path_graph(4), 0, 1, half=True)
    assert cert2.removed == ()
    # P8 with r=0, k=1: clump 7/2 > 1 and no edges may be removed; |E| = 7 is
    # above the guarantee budget (r+2)k + r = 2, so the search returns None
    assert find_removal_for_clump(path_graph(8), 0, 1) is None


def test_removal_for_clump_guarantee_sweep():
    # within the guaranteed regime a certificate always exists
    count = 0
    for n in range(2, 11):
        for g in enumerate_trees(n):
            m = len(g.edges)
            for r in range(0, 3):
                for k in range(1, 4):
                    if m <= (r + 2) * k + r:
                        cert = find_removal_for_clump(g, r, k)
                        assert cert is not None
                        count += 1
    assert count > 500


def test_removal_sub_k_gate_and_star():
    # Comb(P3; edge) has 5 edges, (r+2)k = 6 for (r,k) = (1,2)
    comb = build_comb(build_path(3).graph, rooted_path(1)).graph
    with pytest.raises(HypothesisViolatedError):
        find_removal_sub_k(comb, 1, 2)
    # P5 = Br(2) with 4 = (0+2)*2 edges: two minimal-broom clumps at the
    # center and no removable edges -> the exceptional star with r=0
    out = find_removal_sub_k(path_graph(5), 0, 2)
    assert isinstance(out, StarException)
    assert out.r == 0 and out.k == 2 and out.center == 2
    # St(3;2) with 6 = (1+2)*2 edges: the r=1 exceptional star
    st = build_star_paths(3, 2).graph
    out2 = find_removal_sub_k(st, 1, 2)
    assert isinstance(out2, StarException)
    assert out2.r == 1 and out2.center == 0


def test_removal_sub_k_sweep():
    # every tree with exactly (r+2)k edges yields a certificate or the star
    stars = 0
    certs = 0
    for n in range(2, 10):
        for g in enumerate_trees(n):
            m = len(g.edges)
            for r in range(0, 3):
                for k in range(1, 4):
                    if m != (r + 2) * k:
                        continue
                    out = find_removal_sub_k(g, r, k)
                    if isinstance(out, StarException):
                        stars += 1
                    else:
                        certs += 1
                        for comp in out.components:
                            assert comp.sub_k.value
    assert certs > 50 and stars >= 5


def test_sub_k_implies_spectral_gap():
    # sub-k trees (with leaf boundary) have sigma_2 strictly above Lambda(k)
    for n in range(2, 10):
        for g in enumerate_trees(n):
            for k in range(1, 4):
                if is_sub_k(g, k).value:
                    s2 = sigma_value(g, 2)
                    assert s2 > float(lambda_value(k)) + 1e-12, (n, k)


def test_type_ab_examples():
    # P4: 3 edges, k=2 -> (m+1) % k == 0 with r=2, split into two single edges
    out = classify_type_AB(path_graph(4), 2)
    assert out.verdict in ("TypeA", "Both")
    assert out.type_a.r == 2
    assert all(len(c) == 2 for c in out.type_a.components)
    # K_{1,3}: 3 edges, k=2, no edge removal splits it into two P2s -> Type B
    from steklov.graph import combinatorial_graph

    k13 = combinatorial_graph(4, [(0, 1), (0, 2), (0, 3)])
    out2 = classify_type_AB(k13, 2)
    assert out2.verdict == "TypeB"
    assert out2.type_b.certificate.bound == 1


def test_type_ab_gate():
    with pytest.raises(HypothesisViolatedError):
        classify_type_AB(path_graph(2), 3)


def test_edge_count_refusals_are_hypotheses_not_met():
    # both edge-count hypotheses raise the family's one class, and the
    # older name HypothesisViolatedError is that class
    comb = build_comb(build_path(3).graph, rooted_path(1)).graph
    with pytest.raises(HypothesesNotMetError, match=re.escape("need |E| = (r+2)k = 6, got 5")):
        find_removal_sub_k(comb, 1, 2)
    with pytest.raises(HypothesesNotMetError, match=re.escape("need |E| >= k-1 = 2, got 1")):
        classify_type_AB(path_graph(2), 3)
    assert HypothesisViolatedError is HypothesesNotMetError


def test_type_ab_total_sweep():
    # every tree with at least k-1 edges classifies without error
    for n in range(2, 10):
        for g in enumerate_trees(n):
            for k in range(1, 5):
                if len(g.edges) < k - 1:
                    continue
                out = classify_type_AB(g, k)
                assert out.verdict in ("TypeA", "TypeB", "Both")
                if out.type_a is not None:
                    assert len(out.type_a.removed) == out.type_a.r - 1
                if out.type_b is not None:
                    cert = out.type_b.certificate
                    assert all(
                        c.clump_number <= k - 1 for c in cert.components
                    )


def test_searches_need_unit_weights():
    from steklov.graph import make_graph

    g = make_graph(3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(NotUnitWeightError):
        classify_type_AB(g, 3)  # a type A split of one part, but not a unit tree
    with pytest.raises(NotUnitWeightError):
        find_removal_for_clump(g, 0, 1)
    with pytest.raises(NotUnitWeightError):
        find_removal_sub_k(g, 0, 1)
    with pytest.raises(NotUnitWeightError):
        is_sub_k(g, 1)


@pytest.mark.parametrize("call", [
    lambda g: classify_type_AB(g, 2.0),
    lambda g: classify_type_AB(g, True),
    lambda g: find_removal_for_clump(g, 1.0, 2),
    lambda g: find_removal_for_clump(g, 1, 2.5),
    lambda g: find_removal_for_clump(g, 1, Fraction(5, 2), half=True),
    lambda g: find_removal_sub_k(g, 0.0, 2.5),
    lambda g: find_removal_sub_k(g, False, 3),
    lambda g: is_sub_k(g, 2.5),
    lambda g: is_sub_k(g, "2"),
], ids=["typeab-float", "typeab-bool", "removal-float-r", "removal-float-k",
        "removal-fraction-k", "sub-k-removal-floats", "sub-k-removal-bool-r",
        "sub-k-float", "sub-k-str"])
def test_searches_refuse_non_integer_k_and_r(call):
    # every search reads k and r as integers; a bool, a float (integral or
    # not), a Fraction or a string is refused, never run or half-run
    with pytest.raises(InvalidParamsError):
        call(path_graph(6))


def test_searches_accept_numpy_integers():
    g = path_graph(6)
    i64 = np.int64
    assert classify_type_AB(g, i64(2)) == classify_type_AB(g, 2)
    assert find_removal_for_clump(g, i64(1), i64(2), half=True) == find_removal_for_clump(
        g, 1, 2, half=True)
    assert find_removal_sub_k(path_graph(7), i64(1), np.int32(2)) == find_removal_sub_k(
        path_graph(7), 1, 2)
    assert is_sub_k(path_graph(5), i64(2)) == is_sub_k(path_graph(5), 2)


def test_type_a_edge_count_consistency():
    # a Type A witness partitions the tree into r components of k vertices,
    # i.e. k-1 edges each
    g = path_graph(6)
    out = classify_type_AB(g, 3)
    assert out.type_a is not None
    assert sorted(len(c) for c in out.type_a.components) == [3, 3]


# -- brute-force oracles for the fast searches ---------------------------------
#
# The oracles below walk every edge subset on graph copies (delete_edges,
# components, induced_subgraph) and value each component with clump_number.
# The library must return the same witnesses, errors included.


def _components_after(g, removed):
    h = g.delete_edges(removed)
    for c in h.components():
        yield tuple(c), h.induced_subgraph(c)


def _edge_subsets(g, max_size):
    pairs = [(u, v) for u, v, _ in g.edges]
    for size in range(max_size + 1):
        yield from itertools.combinations(pairs, size)


def _first_removal(g, subsets, judge):
    for removed in subsets:
        reports = []
        for verts, comp in _components_after(g, removed):
            report = judge(verts, comp)
            if report is None:
                break
            reports.append(report)
        else:
            return tuple(removed), tuple(reports)
    return None


@lru_cache(maxsize=None)  # components recur across removals
def _clump_of(comp):
    return clump_number(comp).clump_number


def _clump_at_most(bound):
    def judge(verts, comp):
        cn = _clump_of(comp)
        return ComponentReport(verts, cn, None) if cn <= bound else None

    return judge


@lru_cache(maxsize=None)  # a pure function of the (hashable) graph
def oracle_is_sub_k(g, k):
    if not g.is_tree():
        raise NotATreeError("sub-k is defined for trees")
    if k < 1:
        raise InvalidParamsError("need k >= 1")
    cn = clump_number(g).clump_number
    if cn != k:
        return SubKWitness(cn < k, k, cn, ())
    codes = broom_codes(k)
    candidates = []
    for o in range(g.n):
        pt = GeometricPoint.at_vertex(o)
        if clump_number_at(g, pt) != k:
            continue
        matches = [
            clump.attach
            for clump in clump_lengths_at(g, pt)
            if clump.length == k
            and tree_code(*clump_rooted_tree(g, pt, clump)) in codes
        ]
        candidates.append(SubKCandidate(o, tuple(matches), len(matches) <= 1))
    return SubKWitness(any(c.ok for c in candidates), k, cn, tuple(candidates))


def oracle_removal_for_clump(g, r, k, half=False):
    if not g.is_tree():
        raise NotATreeError("removal search is defined for trees")
    if r < 0 or k < 1:
        raise InvalidParamsError("need r >= 0 and k >= 1")
    bound = Fraction(k) + (Fraction(1, 2) if half else 0)
    found = _first_removal(g, _edge_subsets(g, r), _clump_at_most(bound))
    if found is not None:
        return RemovalCertificate(*found, bound)
    edge_budget = (r + 2) * k + r + (1 if half else 0)
    if len(g.edges) <= edge_budget:
        raise CertificationError(
            f"removal guaranteed for |E| <= {edge_budget} but none found"
        )
    return None


def oracle_removal_sub_k(g, r, k):
    def judge(verts, comp):
        w = oracle_is_sub_k(comp, k)
        return ComponentReport(verts, w.clump_number, w) if w.value else None

    found = _first_removal(g, _edge_subsets(g, r), judge)
    if found is not None:
        return RemovalCertificate(*found, None)
    codes = broom_codes(k)
    for c in range(g.n):
        if g.degree(c) != r + 2:
            continue
        pt = GeometricPoint.at_vertex(c)
        if all(
            cl.length == k and tree_code(*clump_rooted_tree(g, pt, cl)) in codes
            for cl in clump_lengths_at(g, pt)
        ):
            return StarException(center=c, k=k, r=r)
    raise CertificationError(
        "no sub-k removal found and the input is not the exceptional star"
    )


def oracle_classify_type_AB(g, k):
    m = len(g.edges)
    if m < k - 1:
        raise HypothesisViolatedError(f"need |E| >= k-1 = {k - 1}, got {m}")
    pairs = [(u, v) for u, v, _ in g.edges]
    type_a = None
    if (m + 1) % k == 0:
        r = (m + 1) // k
        for removed in itertools.combinations(pairs, r - 1):
            parts = list(_components_after(g, removed))
            if all(len(verts) == k for verts, _ in parts):
                type_a = TypeAWitness(r, removed, tuple(v for v, _ in parts))
                break
    type_b = None
    r_lo = max(2, -((m + 1) // -k))  # ceil((m+1)/k)
    for r in range(r_lo, m // k + 2):
        bound = Fraction(k - 1)
        subsets = itertools.combinations(pairs, r - 2)
        found = _first_removal(g, subsets, _clump_at_most(bound))
        if found is not None:
            type_b = TypeBWitness(r, RemovalCertificate(*found, bound))
            break
    if type_a and type_b:
        verdict = "Both"
    elif type_a or type_b:
        verdict = "TypeA" if type_a else "TypeB"
    else:
        raise CertificationError(
            f"tree with {m} edges is neither type A nor type B for k={k}"
        )
    return TypeABClassification(k, verdict, type_a, type_b)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # errors are compared too
        return type(exc).__name__, str(exc)


def _trees(n_max):
    """Every tree up to n_max vertices, relabelled at random: stored trees
    are numbered in preorder, so each edge would point away from vertex 0."""
    rng = np.random.default_rng(4)
    for n in range(1, n_max + 1):
        for g in enumerate_trees(n):
            label = rng.permutation(n).tolist()
            yield combinatorial_graph(n, [(label[u], label[v]) for u, v, _ in g.edges])


def test_type_ab_matches_brute_force():
    for g in _trees(10):
        for k in range(1, 6):
            got = _outcome(classify_type_AB, g, k)
            assert got == _outcome(oracle_classify_type_AB, g, k), (g.edges, k)


def test_removal_for_clump_matches_brute_force():
    for g in _trees(10):
        for r, k, half in itertools.product(range(3), range(1, 5), (False, True)):
            got = _outcome(find_removal_for_clump, g, r, k, half)
            want = _outcome(oracle_removal_for_clump, g, r, k, half)
            assert got == want, (g.edges, r, k, half)


def _sample_trees(n, count, seed):
    """A seeded sample of ``count`` trees on n vertices, relabelled at random."""
    rng = np.random.default_rng(seed)
    stored = list(enumerate_trees(n))
    for j in rng.choice(len(stored), count, replace=False):
        label = rng.permutation(n).tolist()
        edges = [(label[u], label[v]) for u, v, _ in stored[j].edges]
        yield combinatorial_graph(n, edges)


def test_searches_match_brute_force_at_the_benchmark_size():
    # the certificate workload classifies trees n = 12 with k = 4; the
    # exhaustive comparisons above stop at n = 10
    for n, seed in ((11, 1111), (12, 1212)):
        for g in _sample_trees(n, 40, seed):
            got = _outcome(classify_type_AB, g, 4)
            assert got == _outcome(oracle_classify_type_AB, g, 4), g.edges
            got = _outcome(find_removal_for_clump, g, 1, 3)
            assert got == _outcome(oracle_removal_for_clump, g, 1, 3), g.edges


def test_fold_matches_clump_numbers_of_the_pieces():
    # each piece left by a seeded random set of cut edges has twice the
    # clump number of the subgraph its vertices induce
    rng = np.random.default_rng(30)
    pieces = 0
    for g in _trees(10):
        far = clumps._far_ends(g)
        for _ in range(5):
            cuts = {c for c in far if rng.random() < 0.3}
            top, doubled = clumps._fold(g.walk, cuts)
            parts = clumps._pieces(top)
            assert sorted(v for verts in parts for v in verts) == list(range(g.n))
            assert [verts[0] for verts in parts] == sorted(verts[0] for verts in parts)
            assert len(parts) == len(cuts) + 1 == len(doubled)
            for verts in parts:
                want = 2 * clump_number(g.induced_subgraph(verts)).clump_number
                assert doubled[top[verts[0]]] == want, (g.edges, cuts, verts)
                pieces += 1
    assert pieces > 3000


def test_branch_table_descents_match_the_fold_and_the_scan():
    # both sides of every edge, and the whole tree, read off the branch
    # table equal the fold's numbers; the centre equals a scan of every point
    edges = 0
    for g in _trees(12):
        walk = g.walk
        table = graph.branch_table(*walk)
        _, whole = clumps._fold(walk, set())
        assert geometry._doubled(walk, table, 0) == whole[0], g.edges
        for c in clumps._far_ends(g):
            _, doubled = clumps._fold(walk, {c})
            got = geometry._doubled(walk, table, c), geometry._doubled(walk, table, 0, c)
            assert got == (doubled[c], doubled[0]), (g.edges, c)
            edges += 1
        assert geometry._centre(g) == centre_by_scan(g), g.edges
    assert edges > 10000


@pytest.mark.parametrize("search,witnesses", [
    (lambda g: classify_type_AB(g, 4), lambda t: [t.type_a, t.type_b]),
    (lambda g: find_removal_for_clump(g, 1, 3), lambda cert: [cert]),
], ids=["type-ab", "clump"])
def test_removals_of_one_edge_are_folded_only_when_accepted(monkeypatch, search, witnesses):
    # a removal of at most one edge is decided off the branch table, so a
    # search folds only the removal it returns, and the type A split once
    calls = counting_calls(monkeypatch, clumps, "_fold")
    missed = 0
    for g in enumerate_trees(12):
        calls.clear()
        found = [w is not None for w in witnesses(search(g))]
        assert len(calls) == sum(found) <= 2, g.edges
        missed += not found[-1]
    assert missed == 40  # trees whose search tried every removal in vain


def test_searches_make_no_component_walk(monkeypatch):
    # a tree's removals are folded from its one walk: no search walks a
    # component again, through any module that holds the walk helpers
    trees = list(_trees(10))
    for g in trees:
        g.walk
    spies = [
        counting_calls(monkeypatch, module, name)
        for name in ("subtree_sizes", "component_passes")
        for module in (graph, clumps)
        if hasattr(module, name)
    ]
    for g in trees:
        for k in range(1, 5):
            _outcome(classify_type_AB, g, k)
        for r, k in ((0, 1), (1, 2), (2, 2), (1, 3)):
            _outcome(find_removal_for_clump, g, r, k)
    assert spies == [[]] * len(spies)


def test_removal_sub_k_matches_brute_force():
    checked = 0
    for g in _trees(10):
        m = len(g.edges)
        for k in range(1, m + 1):
            r = m // k - 2
            if r < 0 or m != (r + 2) * k:
                continue
            got = _outcome(find_removal_sub_k, g, r, k)
            assert got == _outcome(oracle_removal_sub_k, g, r, k), (g.edges, r, k)
            checked += 1
    assert checked > 300


def test_is_sub_k_matches_vertex_scan():
    for g in _trees(10):
        for k in range(1, 5):
            assert is_sub_k(g, k) == oracle_is_sub_k(g, k), (g.edges, k)


def test_shared_walk_is_never_mutated():
    # every reader of a tree's walk from vertex 0 shares one pass; none may
    # change it for the next
    for g in _trees(10):
        walk = g.walk
        assert walk == subtree_sizes(g.adjacency)
        before = copy.deepcopy(walk)
        _outcome(clump_number, g)
        _outcome(tree_code, g)
        for k in range(1, 5):
            _outcome(classify_type_AB, g, k)
            _outcome(is_sub_k, g, k)
            _outcome(find_removal_for_clump, g, 1, k)
        assert g.walk is walk and walk == before, g.edges


def _float_twin(g):
    """The same tree with every weight stored as the float 1.0."""
    return make_graph(g.n, [(u, v, 1.0) for u, v, _ in g.edges], roles=g.roles)


def test_float_unit_weights_give_integer_verdicts():
    # 1.0 == 1 passes the unit-weight checks, so the verdicts must agree too
    for g in _trees(10):
        h, m = _float_twin(g), len(g.edges)
        for k in range(1, 5):
            assert _outcome(is_sub_k, h, k) == _outcome(is_sub_k, g, k), (g.edges, k)
        for k in range(1, m + 1):
            r = m // k - 2
            if r >= 0 and m == (r + 2) * k:
                got = _outcome(find_removal_sub_k, h, r, k)
                assert got == _outcome(find_removal_sub_k, g, r, k), (g.edges, r, k)


TRIANGLE = graph.combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("build,error,fragment", [
    (lambda: is_sub_k(TRIANGLE, 1), NotATreeError, "sub-k is defined for trees"),
    (lambda: is_sub_k(path_graph(3), 0), InvalidParamsError, "need k >= 1"),
    (lambda: find_removal_for_clump(TRIANGLE, 1, 1), NotATreeError,
     "removal search is defined for trees"),
    (lambda: find_removal_for_clump(path_graph(3), -1, 1), InvalidParamsError,
     "need r >= 0 and k >= 1"),
    (lambda: find_removal_for_clump(path_graph(3), 1, 0), InvalidParamsError,
     "need r >= 0 and k >= 1"),
    (lambda: find_removal_sub_k(TRIANGLE, 1, 1), NotATreeError,
     "sub-k removal is defined for trees"),
    (lambda: find_removal_sub_k(path_graph(3), -1, 1), InvalidParamsError,
     "need r >= 0 and k >= 1"),
    (lambda: find_removal_sub_k(path_graph(3), 1, 0), InvalidParamsError,
     "need r >= 0 and k >= 1"),
    (lambda: classify_type_AB(TRIANGLE, 1), NotATreeError,
     "type A/B classification is defined for trees"),
    (lambda: classify_type_AB(path_graph(3), 0), InvalidParamsError, "need k >= 1"),
], ids=["sub-k-cycle", "sub-k-k0", "clump-removal-cycle", "clump-removal-r-1",
        "clump-removal-k0", "sub-k-removal-cycle", "sub-k-removal-r-1", "sub-k-removal-k0",
        "type-ab-cycle", "type-ab-k0"])
def test_search_refusals(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()


# B is the leaves: the path 0-1-2 with a weight-2 edge (a tree, but not a
# unit tree), the path with weights 1/100 (it raised NotUnitWeightError in
# verify_steklov_clump and a plain HypothesesNotMetError in
# verify_sigma2_tree), and two disjoint edges
LEAVES_P3 = ["boundary", "interior", "boundary"]
WEIGHTED_P3 = make_graph(3, [(0, 1, 1), (1, 2, 2)], roles=LEAVES_P3)
LIGHT_P3 = make_graph(3, [(0, 1, Fraction(1, 100)), (1, 2, Fraction(1, 100))], roles=LEAVES_P3)
TWO_EDGES = make_graph(4, [(0, 1, 1), (2, 3, 1)], roles=["boundary"] * 4)
UNIT_TREE_STATEMENTS = {
    "clump_lengths_at": (lambda g: clump_lengths_at(g, GeometricPoint.at_vertex(0)),
                         "clump numbers are"),
    "clump_number_at": (lambda g: clump_number_at(g, GeometricPoint.at_vertex(0)),
                        "clump numbers are"),
    "clump_number": (clump_number, "clump numbers are"),
    "is_sub_k": (lambda g: is_sub_k(g, 1), "sub-k is"),
    "find_removal_for_clump": (lambda g: find_removal_for_clump(g, 0, 1), "removal search is"),
    "find_removal_sub_k": (lambda g: find_removal_sub_k(g, 0, 1), "sub-k removal is"),
    "classify_type_AB": (lambda g: classify_type_AB(g, 1), "type A/B classification is"),
    "verify_steklov_clump": (verify_steklov_clump, "the sigma_2 clump bound is"),
    "verify_sigma2_tree": (verify_sigma2_tree, "the sigma_2 tree bound is"),
}


@pytest.mark.parametrize("name", UNIT_TREE_STATEMENTS)
@pytest.mark.parametrize("g,error,hypothesis", [
    (TRIANGLE, NotATreeError, "trees"),
    (TWO_EDGES, NotATreeError, "trees"),
    (WEIGHTED_P3, NotUnitWeightError, "unit edge weights"),
    (LIGHT_P3, NotUnitWeightError, "unit edge weights"),
], ids=["triangle", "two-edges", "weighted-path", "light-path"])
def test_unit_tree_statements_refuse_alike(name, g, error, hypothesis):
    # every statement of the unit-tree hypothesis, the two sigma_2 bounds
    # included, refuses a graph with the same class through one gate, each
    # a HypothesesNotMetError, with the statement's own phrase
    call, phrase = UNIT_TREE_STATEMENTS[name]
    with pytest.raises(error, match=re.escape(f"{phrase} defined for {hypothesis}")) as info:
        call(g)
    assert isinstance(info.value, HypothesesNotMetError)


# K_{1,4}: clump number 1, and no star exception at k = 2
STAR_4 = combinatorial_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.mark.parametrize("search,fragment", [
    (lambda: find_removal_for_clump(path_graph(4), 0, 2),
     "removal guaranteed for |E| <= 4 but none found"),
    (lambda: find_removal_sub_k(STAR_4, 0, 2),
     "no sub-k removal found and the input is not the exceptional star"),
    (lambda: classify_type_AB(path_graph(4), 3),
     "tree with 3 edges is neither type A nor type B for k=3"),
], ids=["clump", "sub-k", "type-ab"])
def test_a_failed_guarantee_raises(monkeypatch, search, fragment):
    # each search is guaranteed a witness on these inputs, so an empty
    # removal search must fail loudly
    monkeypatch.setattr(clumps, "_removal_search", lambda *args: None)
    with pytest.raises(CertificationError, match=re.escape(fragment)):
        search()


def test_star_exception_needs_every_branch_a_minimal_broom():
    assert clumps._star_exception(STAR_4, 0, 2) is None  # clump number 1, not 2
    # centre 0 with two branches of 4 vertices: the first is Br(4), of shape
    # (i, d) = (1, 2); the second is a path of 4 vertices, or Br(4) again
    broom_arm = [(0, 1), (1, 2), (2, 3), (2, 4)]
    path_arm = combinatorial_graph(9, broom_arm + [(0, 5), (5, 6), (6, 7), (7, 8)])
    two_brooms = combinatorial_graph(9, broom_arm + [(0, 5), (5, 6), (6, 7), (6, 8)])
    assert clumps._star_exception(path_arm, 0, 4) is None
    assert clumps._star_exception(two_brooms, 0, 4) == StarException(center=0, k=4, r=0)
