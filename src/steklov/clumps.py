"""Certificate searches for clump-reduction lemmas on unit trees.

Everything here is a bounded exhaustive search that either returns an
explicit witness (removed edge set, per-component clump data) or proves by
exhaustion that no witness exists. The removal searches share one walk over
edge subsets, ordered by size and then lexicographically by edge index, and
list components by least vertex, so results are deterministic. Each
component's clump number comes from one subtree-size pass over plain
adjacency lists, and a clump is told to be a minimal broom by its shape
(:func:`~steklov.families.broom_shape`). The type A split needs no search:
it is unique when it exists, and it reads the tree's own walk from vertex 0
(``WeightedBoundaryGraph.walk``), as the tree test and the sub-k test do.
When a guarantee applies (the hypotheses of the underlying removal lemmas
hold) and no witness is found, the run fails loudly with CertificationError
instead of returning a quiet negative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CertificationError,
    HypothesisViolatedError,
    InvalidParamsError,
    NotATreeError,
)
from .families import broom_shape, minimal_broom_total
from .geometry import clump_number, doubled_clump_number, require_unit_weights
from .graph import WeightedBoundaryGraph, component_passes, heaviest_branches


@dataclass(frozen=True)
class SubKCandidate:
    """One vertex o with Clump(T,o) = k: which clumps at o are minimal brooms."""

    vertex: int
    broom_clumps: tuple[int, ...]  # attach vertices of clumps isomorphic to Br(k)
    ok: bool  # at most one matching clump


@dataclass(frozen=True)
class SubKWitness:
    value: bool
    k: int
    clump_number: Fraction
    candidates: tuple[SubKCandidate, ...]  # all o with Clump(T,o) = k


def is_sub_k(g: WeightedBoundaryGraph, k: int) -> SubKWitness:
    """Sub-k test for a unit tree.

    True when the clump number is below k, or equals k and some vertex o
    with vertex clump number k has at most one clump isomorphic, as a
    rooted metric tree with root o, to a minimal broom of total length k.
    All qualifying vertices are recorded, not just the first success.
    """
    if not g.is_tree():
        raise NotATreeError("sub-k is defined for trees")
    if k < 1:
        raise InvalidParamsError("need k >= 1")
    cn = clump_number(g).clump_number
    if cn != k:
        return SubKWitness(cn < k, k, cn, ())
    arms = minimal_broom_total(k).shapes
    adj = g.adjacency
    heaviest = heaviest_branches(*g.walk)
    candidates = []
    for o in range(g.n):
        if heaviest[o] != k:  # the clump number at vertex o
            continue
        matches = tuple(b for b in sorted(adj[o]) if broom_shape(adj, o, b, 1) in arms)
        candidates.append(SubKCandidate(o, matches, len(matches) <= 1))
    ok = any(c.ok for c in candidates)
    return SubKWitness(ok, k, cn, tuple(candidates))


@dataclass(frozen=True)
class ComponentReport:
    vertices: tuple[int, ...]  # original vertex labels
    clump_number: Fraction
    sub_k: SubKWitness | None


@dataclass(frozen=True)
class RemovalCertificate:
    removed: tuple[tuple[int, int], ...]
    components: tuple[ComponentReport, ...]
    bound: Fraction | None  # per-component clump bound, None for sub-k searches


@dataclass(frozen=True)
class StarException:
    """The input is the exceptional star: degree r+2, every arm a minimal
    broom of total length k rooted at the center."""

    center: int
    k: int
    r: int


def _pieces(adj, removed):
    """Components of the tree ``adj`` minus the ``removed`` edges, in the
    order of :func:`~steklov.graph.component_passes`."""
    cut = set(removed) | {(v, u) for u, v in removed}
    forest = [[u for u in adj[v] if (v, u) not in cut] for v in range(len(adj))]
    return component_passes(forest, None)


def _removal_search(g: WeightedBoundaryGraph, sizes, judge):
    """First removal of edges, taken by size in the order of ``sizes`` and
    within a size lexicographically by edge index, that leaves every
    component accepted by ``judge``.

    ``judge(vertices, tree)`` gets a component's sorted vertices and its
    :func:`~steklov.graph.subtree_sizes` pass, and returns the component's
    report or None to reject the removal; components are judged by least
    vertex and the first rejection ends the removal. A component is the subgraph its
    vertices induce, so each vertex set is judged once per search. Returns
    (removed, reports) or None.
    """
    edges = [(u, v) for u, v, _ in g.edges]
    judged: dict[tuple[int, ...], object] = {}
    for size in sizes:
        for removed in itertools.combinations(edges, size):
            reports = []
            for verts, tree in _pieces(g.adjacency, removed):
                if verts not in judged:
                    judged[verts] = judge(verts, tree)
                report = judged[verts]
                if report is None:
                    break
                reports.append(report)
            else:
                return removed, tuple(reports)
    return None


def _clumps_within(bound: Fraction):
    """Judge accepting components with clump number at most ``bound``."""
    limit = int(2 * bound)  # bounds are whole or half numbers

    def judge(verts, tree):
        doubled = doubled_clump_number(*tree)
        if doubled > limit:
            return None
        return ComponentReport(verts, Fraction(doubled, 2), None)

    return judge


def find_removal_for_clump(
    g: WeightedBoundaryGraph, r: int, k: int, half: bool = False
) -> RemovalCertificate | None:
    """Smallest edge removal (at most r edges) leaving every component with
    clump number at most k (or k + 1/2 when ``half``).

    When the input satisfies |E| <= (r+2)k + r (respectively + (r+1) for the
    half bound) a certificate is guaranteed to exist; failing to find one in
    that regime raises CertificationError. Outside the guarantee, None means
    the exhaustive search came up empty.
    """
    if not g.is_tree():
        raise NotATreeError("removal search is defined for trees")
    if r < 0 or k < 1:
        raise InvalidParamsError("need r >= 0 and k >= 1")
    require_unit_weights(g)
    bound = Fraction(k) + (Fraction(1, 2) if half else 0)
    found = _removal_search(g, range(r + 1), _clumps_within(bound))
    if found is not None:
        return RemovalCertificate(*found, bound)
    edge_budget = (r + 2) * k + r + (1 if half else 0)
    if len(g.edges) <= edge_budget:
        raise CertificationError(
            f"removal guaranteed for |E| <= {edge_budget} but none found"
        )
    return None


def _star_exception(g: WeightedBoundaryGraph, r: int, k: int) -> StarException | None:
    arms = minimal_broom_total(k).shapes
    adj = g.adjacency
    for c in range(g.n):
        if len(adj[c]) == r + 2 and all(broom_shape(adj, c, b, 1) in arms for b in adj[c]):
            return StarException(center=c, k=k, r=r)
    return None


def find_removal_sub_k(
    g: WeightedBoundaryGraph, r: int, k: int
) -> RemovalCertificate | StarException:
    """Remove at most r edges from a tree with exactly (r+2)k edges so every
    component is sub-k, or certify the star exception.

    The underlying proposition guarantees one of the two outcomes, so an
    empty search without the star structure raises CertificationError.
    """
    if not g.is_tree():
        raise NotATreeError("sub-k removal is defined for trees")
    if r < 0 or k < 1:
        raise InvalidParamsError("need r >= 0 and k >= 1")
    if len(g.edges) != (r + 2) * k:
        raise HypothesisViolatedError(
            f"need |E| = (r+2)k = {(r + 2) * k}, got {len(g.edges)}"
        )
    require_unit_weights(g)

    def judge(verts, tree):
        cn = Fraction(doubled_clump_number(*tree), 2)
        if cn == k:  # only then does the sub-k test look at the component
            w = is_sub_k(g.induced_subgraph(verts), k)
        else:
            w = SubKWitness(cn < k, k, cn, ())
        return ComponentReport(verts, cn, w) if w.value else None

    found = _removal_search(g, range(r + 1), judge)
    if found is not None:
        return RemovalCertificate(*found, None)
    star = _star_exception(g, r, k)
    if star is not None:
        return star
    raise CertificationError(
        "no sub-k removal found and the input is not the exceptional star"
    )


@dataclass(frozen=True)
class TypeAWitness:
    r: int
    removed: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]  # r trees of k-1 edges each


@dataclass(frozen=True)
class TypeBWitness:
    r: int
    certificate: RemovalCertificate  # r-2 edges removed, clumps <= k-1


@dataclass(frozen=True)
class TypeABClassification:
    k: int
    verdict: str  # "TypeA" | "TypeB" | "Both"
    type_a: TypeAWitness | None
    type_b: TypeBWitness | None


def classify_type_AB(g: WeightedBoundaryGraph, k: int) -> TypeABClassification:
    """Type A: |E| = rk - 1 and removing r-1 edges leaves r trees of k-1
    edges each. Type B: (r-1)k <= |E| <= rk - 1 for some r >= 2 and removing
    r-2 edges bounds every component's clump number by k-1. Every tree with
    at least k-1 edges is one of the two; anything else fails loudly.
    """
    if not g.is_tree():
        raise NotATreeError("type A/B classification is defined for trees")
    if k < 1:
        raise InvalidParamsError("need k >= 1")
    m = len(g.edges)
    if m < k - 1:
        raise HypothesisViolatedError(f"need |E| >= k-1 = {k - 1}, got {m}")
    require_unit_weights(g)

    type_a = None
    if (m + 1) % k == 0:
        r = (m + 1) // k
        # A split into parts of k vertices is unique when it exists: it cuts
        # exactly the edges whose far side (from vertex 0) has a multiple of
        # k vertices, and there must be r - 1 of them.
        _, parent, size = g.walk
        removed = tuple(
            (u, v) for u, v, _ in g.edges if size[v if parent[v] == u else u] % k == 0
        )
        if len(removed) == r - 1:
            parts = tuple(verts for verts, _ in _pieces(g.adjacency, removed))
            type_a = TypeAWitness(r, removed, parts)

    type_b = None
    r = m // k + 1  # the one r with (r-1)k <= m <= rk - 1
    if r >= 2:
        bound = Fraction(k - 1)
        found = _removal_search(g, [r - 2], _clumps_within(bound))
        if found is not None:
            type_b = TypeBWitness(r, RemovalCertificate(*found, bound))

    if type_a and type_b:
        verdict = "Both"
    elif type_a:
        verdict = "TypeA"
    elif type_b:
        verdict = "TypeB"
    else:
        raise CertificationError(
            f"tree with {m} edges is neither type A nor type B for k={k}"
        )
    return TypeABClassification(k, verdict, type_a, type_b)
