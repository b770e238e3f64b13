import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from steklov import geometry, spectral
from steklov.enumeration import enumerate_connected_graphs, enumerate_trees
from steklov.errors import AllZeroError, InvalidParamsError, NotATreeError, NotUnitWeightError
from steklov.geometry import (
    Clump,
    ClumpReport,
    GeometricPoint,
    clump_lengths_at,
    clump_number,
    clump_number_at,
    nodal_domains,
    verify_nodal_theorem,
    zero_set,
)
from steklov.graph import combinatorial_graph, component_passes, make_graph
from steklov.spectral import steklov_spectrum

from conftest import counting_calls, path_graph


def test_zero_set_simple():
    g = path_graph(3)
    zs = zero_set(g, np.array([1.0, 0.0, -1.0]))
    assert set(zs.vertex_zeros) == {1}
    assert not zs.degenerate
    zs2 = zero_set(g, np.array([1.0, -1.0, 1.0]))
    assert len(zs2.edge_zeros) == 2
    zs3 = zero_set(g, np.array([0.0, 0.0, 1.0]))
    assert zs3.degenerate


def test_zero_set_of_the_zero_function_raises():
    with pytest.raises(AllZeroError):
        zero_set(path_graph(3), np.zeros(3))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_functions_are_rejected(bad):
    # an infinite value made every vertex a zero and the check pass
    # without a verdict; a NaN raised NoBoundaryError
    g = path_graph(3)
    f = [1.0, bad, -1.0]
    for check in (lambda: zero_set(g, f), lambda: nodal_domains(g, f),
                  lambda: verify_nodal_theorem(g, 1.0, f)):
        with pytest.raises(InvalidParamsError, match="finite"):
            check()


@pytest.mark.parametrize("f", [[1.0, -1.0], [1.0, -1.0, 1.0, 7.0], [[1.0, -1.0, 1.0]]])
def test_functions_of_the_wrong_length_are_rejected(f):
    # a short one raised IndexError; a long one was read, its extra
    # entries setting the zero tolerance
    g = path_graph(3)
    for check in (lambda: zero_set(g, f), lambda: nodal_domains(g, f),
                  lambda: verify_nodal_theorem(g, 1.0, f)):
        with pytest.raises(InvalidParamsError, match="3 vertices"):
            check()


def test_clump_requires_unit_tree():
    with pytest.raises(NotATreeError):
        clump_number(combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(NotUnitWeightError):
        clump_number(make_graph(2, [(0, 1, 2)]))


def test_clump_values_small():
    # open components: Clump(P2) = 1/2 at the midpoint, Clump(P3) = 1 at the
    # center, Clump(P4) = 3/2 at the middle-edge midpoint
    assert clump_number(path_graph(2)).clump_number == Fraction(1, 2)
    rep3 = clump_number(path_graph(3))
    assert rep3.clump_number == 1 and rep3.point == GeometricPoint.at_vertex(1)
    rep4 = clump_number(path_graph(4))
    assert rep4.clump_number == Fraction(3, 2)
    assert rep4.point.edge == (1, 2)


def test_clump_upper_bound_half_edges():
    for n in range(2, 11):
        for g in enumerate_trees(n):
            assert clump_number(g).clump_number <= Fraction(len(g.edges), 2)


def test_clump_fine_grid_oracle():
    for n in range(2, 11):
        for g in enumerate_trees(n):
            pts = [GeometricPoint.at_vertex(v) for v in range(g.n)]
            pts += [
                GeometricPoint.on_edge(u, v, Fraction(j, 10))
                for u, v, _ in g.edges
                for j in range(1, 10)
            ]
            grid = min(clump_number_at(g, p) for p in pts)
            assert grid == clump_number(g).clump_number, (n, g.edges)


def brute_force_clumps(g, pt):
    """Clumps at a vertex or edge midpoint from the components of G - p or of
    G minus the edge, found by ``components``, ordered by attach vertex."""
    if pt.is_vertex:
        p = pt.vertex
        comps = g.components(set(range(g.n)) - {p})
        attach = [next(x for x in comp if g.has_edge(x, p)) for comp in comps]
        lengths = [Fraction(len(comp)) for comp in comps]
    else:
        comps = g.delete_edges([pt.edge]).components()
        attach = [next(x for x in pt.edge if x in comp) for comp in comps]
        lengths = [len(comp) - Fraction(1, 2) for comp in comps]
    clumps = [Clump(l, tuple(c), a) for l, c, a in zip(lengths, comps, attach)]
    return tuple(sorted(clumps, key=lambda c: c.attach))


def test_clump_number_matches_candidate_scan():
    # every vertex, then every edge midpoint, each valued by clumps found by
    # brute force; stored trees and the same trees with their vertex numbers
    # reversed
    for n in range(1, 12):
        for stored in enumerate_trees(n):
            flipped = [(n - 1 - u, n - 1 - v) for u, v, _ in stored.edges]
            for g in (stored, combinatorial_graph(n, flipped)):
                pts = [GeometricPoint.at_vertex(v) for v in range(g.n)]
                pts += [
                    GeometricPoint.on_edge(u, v, Fraction(1, 2)) for u, v, _ in g.edges
                ]
                clumps = [brute_force_clumps(g, p) for p in pts]
                values = [max((c.length for c in cs), default=0) for cs in clumps]
                best = min(values)
                assert values.count(best) == 1, (n, g.edges)
                j = values.index(best)
                assert clump_number(g) == ClumpReport(pts[j], clumps[j], best)
                assert all(clump_lengths_at(g, p) == cs for p, cs in zip(pts, clumps))


def test_clumps_match_component_split(rng):
    # clumps read from the shared walk are the pieces of the tree with the
    # point removed, wherever vertex 0 (the walk's root) lies
    t = Fraction(1, 3)
    for n in range(1, 11):
        for stored in enumerate_trees(n):
            perm = rng.permutation(n).tolist()
            g = combinatorial_graph(n, [(perm[u], perm[v]) for u, v, _ in stored.edges])
            adj = {x: list(g.adjacency[x]) for x in range(n)}
            for p in range(n):
                pieces = [c for c, _ in component_passes(adj, set(range(n)) - {p})]
                expect = [Clump(Fraction(len(c)), c, next(x for x in c if x in adj[p]))
                          for c in pieces]
                expect.sort(key=lambda c: c.attach)
                assert clump_lengths_at(g, GeometricPoint.at_vertex(p)) == tuple(expect)
            for u, v, _ in g.edges:
                cut = {x: [y for y in adj[x] if {x, y} != {u, v}] for x in adj}
                side = {a: c for c, _ in component_passes(cut, None) for a in (u, v) if a in c}
                expect = (Clump(len(side[u]) - 1 + t, side[u], u),
                          Clump(len(side[v]) - t, side[v], v))
                assert clump_lengths_at(g, GeometricPoint.on_edge(u, v, t)) == expect


def test_clumps_at_a_point_off_the_tree_raise():
    g = path_graph(4)  # 0-1-2-3
    bad = [
        GeometricPoint.on_edge(0, 3, Fraction(1, 2)),  # not an edge of g
        GeometricPoint.on_edge(0, 1, -1),
        GeometricPoint.on_edge(0, 1, Fraction(3, 2)),
        GeometricPoint.on_edge(0, 1, float("nan")),
        GeometricPoint.on_edge(0, 1, None),
        GeometricPoint.at_vertex(7),
        GeometricPoint.at_vertex(-1),
        # labels and offsets are read as make_graph reads labels: a bool or
        # a float is no vertex (these gave vertex 1, a bare TypeError, and 1)
        GeometricPoint.at_vertex(True),
        GeometricPoint.at_vertex(1.0),
        GeometricPoint(edge=(1.0, 2), offset=Fraction(1, 2)),
        GeometricPoint.on_edge(0, 1, True),
    ]
    for point in bad:
        for fn in (clump_lengths_at, clump_number_at):
            with pytest.raises(InvalidParamsError):
                fn(g, point)
    # the ends of an edge's offset range are points of it
    for t in (0, 1, 1.0):
        assert len(clump_lengths_at(g, GeometricPoint.on_edge(0, 1, t))) == 2


def test_clump_lower_semicontinuity(rng):
    # values at nearby edge points never undercut the vertex value by much:
    # approaching a vertex along an edge, Clump(G, x) >= Clump(G, p) - eps
    from conftest import random_unit_tree

    for _ in range(50):
        g = random_unit_tree(rng, int(rng.integers(3, 9)))
        for v in range(g.n):
            at_v = clump_number_at(g, GeometricPoint.at_vertex(v))
            for u in g.adjacency[v]:
                a, b = min(u, v), max(u, v)
                eps = Fraction(1, 100)
                off = eps if a == v else 1 - eps
                near = clump_number_at(g, GeometricPoint.on_edge(a, b, off))
                assert near >= at_v - eps


def test_midpoint_equilibrium_halves():
    rep = clump_number(path_graph(4))
    assert all(c.length == Fraction(3, 2) for c in rep.clumps)


def test_nodal_domains_on_path():
    g = path_graph(4)
    res = steklov_spectrum(g)
    sigma, f = res.eigenpair(2)
    domains = nodal_domains(g, f)
    assert len(domains) == 2
    assert {d.sign for d in domains} == {-1, 1}
    for d in domains:
        assert len(d.induced.dirichlet) >= 1


def test_every_edge_cut_point_is_the_zero_sets_point():
    # a domain cut a sign change at an offset of its own, from the far end
    # when its vertex was the upper one: 349 of these 1,258 points differed
    # from zero_set's in the last bits
    classes = [enumerate_trees(n) for n in range(3, 11)]
    classes += [enumerate_connected_graphs(n) for n in range(3, 8)]
    points = 0
    for g in itertools.chain.from_iterable(classes):
        if not g.boundary:
            continue
        res = steklov_spectrum(g)
        for i in range(1, len(res.eigenvalues) + 1):
            f = res.eigenpair(i)[1]
            cuts = Counter(pt for d in nodal_domains(g, f) for pt in d.cut_points if not pt.is_vertex)
            assert cuts == {pt: 2 for pt in zero_set(g, f).edge_zeros}  # one point, both sides
            points += sum(cuts.values())
    assert points == 1258


def test_nodal_domains_do_not_depend_on_the_scale_of_f():
    # a product f[u] f[v] underflows to 0 below about 1e-162 and overflows
    # above about 1e154, so no sign relation may be read off it; powers of
    # two scale f exactly, so the domains must not change at all
    def domains(g, f):
        zs = zero_set(g, f)
        return zs, [(d.vertices, d.sign, d.cut_points, d.induced.n, d.induced.edges,
                     d.induced.measures, d.induced.roles) for d in nodal_domains(g, f)]

    classes = [enumerate_trees(n) for n in range(3, 9)]
    classes += [enumerate_connected_graphs(n) for n in range(3, 7)]
    checked = 0
    for g in itertools.chain.from_iterable(classes):
        if not g.boundary:
            continue
        res = steklov_spectrum(g)
        for i in range(1, len(res.eigenvalues) + 1):
            f = res.eigenpair(i)[1]
            expect = domains(g, f)
            for scale in 2.0 ** -560, 2.0 ** 560:
                assert domains(g, f * scale) == expect, (g.edges, i, scale)
                checked += 1
    assert checked == 584
    f = np.array([1.0, 0.5, -1.0]) * 2.0 ** 560  # raised in the overflow filter
    assert len(nodal_domains(path_graph(3), f)) == 2


def test_nodal_theorem_all_trees_small():
    checked = 0
    for n in range(2, 10):
        for g in enumerate_trees(n):
            res = steklov_spectrum(g)
            for i in range(1, len(res.eigenvalues) + 1):
                sigma, f = res.eigenpair(i)
                if sigma <= 1e-10:
                    continue
                report = verify_nodal_theorem(g, sigma, f)
                if report.degenerate:
                    continue
                checked += 1
                assert report.ok, (n, i)
    assert checked > 100


def test_nodal_verdicts_are_python_bools():
    # the residual term of a domain's verdict is a numpy comparison: with
    # the eigenfunction nudged off, the first domain's ok was numpy.False_
    g = combinatorial_graph(7, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
    sigma, f = steklov_spectrum(g).eigenpair(2)
    f = np.array(f)
    f[0] += 1e-5
    report = verify_nodal_theorem(g, sigma, f)
    assert report.verdicts[0].ok is False
    assert all(type(v.ok) is bool and type(v.one_signed) is bool for v in report.verdicts)


def test_nodal_rejects_nonpositive_sigma():
    g = path_graph(3)
    with pytest.raises(InvalidParamsError):
        verify_nodal_theorem(g, 0.0, np.ones(3))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_nodal_rejects_non_finite_sigma(sigma):
    # NaN and inf gave two failed domain verdicts with a NaN or infinite
    # residual instead of an error
    with pytest.raises(InvalidParamsError, match="finite"):
        verify_nodal_theorem(path_graph(3), sigma, [1.0, 0.0, -1.0])


def test_nodal_check_builds_each_object_once(monkeypatch):
    # One zero set per eigenpair, and one DtN assembly per nodal domain:
    # the residual reads the operator the domain's spectrum was solved from.
    checked = 0
    for n in (5, 6, 7):
        for g in enumerate_trees(n):
            res = steklov_spectrum(g)
            for i in range(2, len(res.eigenvalues) + 1):
                sigma, f = res.eigenpair(i)
                with monkeypatch.context() as m:
                    zero_sets = counting_calls(m, geometry, "zero_set")
                    assemblies = counting_calls(m, spectral, "dtn_matrix")
                    report = verify_nodal_theorem(g, sigma, f)
                assert len(zero_sets) == 1
                assert len(assemblies) == len(report.verdicts)
                checked += not report.degenerate
    assert checked > 20


def test_edge_point_refusal():
    with pytest.raises(InvalidParamsError, match="keyed by the sorted edge"):
        GeometricPoint.on_edge(2, 1, Fraction(1, 2))
