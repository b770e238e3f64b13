"""Certificate searches for clump-reduction lemmas on unit trees.

Everything here is a bounded exhaustive search that either returns an
explicit witness (removed edge set, per-component clump data) or proves by
exhaustion that no witness exists. The removal searches share one walk over
edge subsets, ordered by size and then lexicographically by edge index, and
list components by least vertex, each sorted, so results are deterministic.
Every removal is judged by one integer fold (:func:`_fold`) over the tree's
own walk from vertex 0 (``WeightedBoundaryGraph.walk``): a removal is the
set of far ends of its edges, and two passes give each piece's vertices and
twice its clump number, min(2 h, N - 1) for a piece of N vertices whose
centroid's heaviest branch has h. The type A split needs no search: it is
unique when it exists, and it reads the same walk and the same fold, as the
tree test and the sub-k test read the walk. Clump numbers and limits are
integer halves, and a clump is told to be Br(k) by its (i, d) shape in the
solution's ``arms`` (``geometry._broom_branches``); Fractions appear only
in reports.
When a guarantee applies (the hypotheses of the underlying removal lemmas
hold) and no witness is found, the run fails loudly with CertificationError
instead of returning a quiet negative. Every search takes k and r as
integers: a bool, a float (6.0 included) or any other non-integral value is
refused with InvalidParamsError, and a numpy integer is accepted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import _index
from .errors import (
    CertificationError,
    HypothesisViolatedError,
    InvalidParamsError,
    NotATreeError,
)
from . import geometry
from .geometry import _broom_branches, _centre, require_unit_weights
from .graph import WeightedBoundaryGraph

# An attribute only: bench/layers.py wraps ``clump_number`` here by name
# (tests/test_bench_hooks.py), but the searches read ``_centre``, so the
# wrapper records nothing until the hook moves there (ROADMAP item 8).
clump_number = geometry.clump_number


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
    The one vertex of clump number k is then the one centroid, and only its
    branches of k vertices can be Br(k).
    """
    if not g.is_tree():
        raise NotATreeError("sub-k is defined for trees")
    k = _index(k, "k")
    if k < 1:
        raise InvalidParamsError("need k >= 1")
    require_unit_weights(g)
    tops, twice, heavy = _centre(g)
    if twice != 2 * k:
        return SubKWitness(twice < 2 * k, k, Fraction(twice, 2), ())
    (o,) = tops
    matches = _broom_branches(g, twice, heavy)
    ok = len(matches) <= 1
    return SubKWitness(ok, k, Fraction(k), (SubKCandidate(o, matches, ok),))


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


def _fold(walk, cuts):
    """Fold the tree that ``walk`` (a graph's
    :attr:`~steklov.graph.WeightedBoundaryGraph.walk`) spans, less the edges
    above the vertices in ``cuts``. Returns each vertex's piece, named by
    the piece's top vertex, and twice the clump number of each piece, by
    top.

    One reverse pass gives every vertex's subtree size within its piece
    and its heaviest child there; one forward pass gives its piece's top
    and its heaviest branch. Twice the clump number of a piece of N
    vertices is min(2 h, N - 1), for the least heaviest branch h in the
    piece (at its centroid): an edge midpoint with sides s > N - s is
    beaten by the vertex on the larger side, whose branches have fewer than
    s vertices, so a midpoint wins only at an even split, with N - 1.
    """
    order, parent, _ = walk
    n = len(order)
    size = [1] * n
    heavy = [0] * n
    for v in order[:0:-1]:
        if v not in cuts:
            p, s = parent[v], size[v]
            size[p] += s
            if s > heavy[p]:
                heavy[p] = s
    root = order[0]
    top = [root] * n
    least = {root: heavy[root]}  # least heaviest branch in each piece
    for v in order[1:]:
        if v in cuts:
            top[v] = v
            least[v] = heavy[v]
        else:
            t = top[v] = top[parent[v]]
            h = size[t] - size[v]  # the branch through the parent
            if heavy[v] > h:
                h = heavy[v]
            if h < least[t]:
                least[t] = h
    return top, {t: 2 * h if 2 * h < size[t] else size[t] - 1 for t, h in least.items()}


def _pieces(top) -> list[tuple[int, ...]]:
    """The vertices of each piece of a fold, sorted, by least vertex."""
    pieces: dict[int, list[int]] = {}
    for v, t in enumerate(top):
        pieces.setdefault(t, []).append(v)
    return [tuple(verts) for verts in pieces.values()]


def _far_ends(g: WeightedBoundaryGraph) -> list[int]:
    """The end of each edge of the tree ``g`` away from vertex 0, the vertex
    whose piece its removal cuts off."""
    parent = g.walk[1]
    return [v if parent[v] == u else u for u, v, _ in g.edges]


def _removal_search(g: WeightedBoundaryGraph, far, sizes, limit: int, judge):
    """First removal of edges, taken by size in the order of ``sizes`` and
    within a size lexicographically by edge index, that leaves every
    component with clump number at most ``limit / 2`` and accepted by
    ``judge``; ``far`` is :func:`_far_ends` of ``g``.

    ``judge(vertices, doubled)`` gets a component's sorted vertices and
    twice its clump number, and returns the component's report or None to
    reject the removal; components are judged by least vertex and the first
    rejection ends the removal. Returns (removed, reports) or None.
    """
    walk = g.walk
    edges = [(u, v) for u, v, _ in g.edges]
    for size in sizes:
        for picked in itertools.combinations(range(len(edges)), size):
            top, doubled = _fold(walk, {far[i] for i in picked})
            if max(doubled.values()) > limit:
                continue
            reports = []
            for verts in _pieces(top):
                report = judge(verts, doubled[top[verts[0]]])
                if report is None:
                    break
                reports.append(report)
            else:
                return tuple(edges[i] for i in picked), tuple(reports)
    return None


def _clump_report(verts, doubled) -> ComponentReport:
    return ComponentReport(verts, Fraction(doubled, 2), None)


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
    r, k = _index(r, "r"), _index(k, "k")
    if r < 0 or k < 1:
        raise InvalidParamsError("need r >= 0 and k >= 1")
    require_unit_weights(g)
    extra = 1 if half else 0
    limit = 2 * k + extra
    found = _removal_search(g, _far_ends(g), range(r + 1), limit, _clump_report)
    if found is not None:
        return RemovalCertificate(*found, Fraction(limit, 2))
    edge_budget = (r + 2) * k + r + extra
    if len(g.edges) <= edge_budget:
        raise CertificationError(
            f"removal guaranteed for |E| <= {edge_budget} but none found"
        )
    return None


def _star_exception(g: WeightedBoundaryGraph, r: int, k: int) -> StarException | None:
    """A centre of degree r + 2 whose every branch is Br(k), of k vertices:
    in a tree of (r + 2) k edges, the one centroid, at clump number k."""
    tops, twice, heavy = _centre(g)
    if twice != 2 * k or len(heavy) != r + 2:
        return None
    (c,) = tops
    if len(_broom_branches(g, twice, heavy)) == len(heavy):
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
    r, k = _index(r, "r"), _index(k, "k")
    if r < 0 or k < 1:
        raise InvalidParamsError("need r >= 0 and k >= 1")
    if len(g.edges) != (r + 2) * k:
        raise HypothesisViolatedError(
            f"need |E| = (r+2)k = {(r + 2) * k}, got {len(g.edges)}"
        )
    require_unit_weights(g)

    tested: dict[tuple[int, ...], SubKWitness] = {}  # components recur across removals

    def judge(verts, doubled):
        cn = Fraction(doubled, 2)
        if doubled < 2 * k:
            w = SubKWitness(True, k, cn, ())
        else:  # only at clump number k does the sub-k test look at the component
            if verts not in tested:
                tested[verts] = is_sub_k(g.induced_subgraph(verts), k)
            w = tested[verts]
        return ComponentReport(verts, cn, w) if w.value else None

    found = _removal_search(g, _far_ends(g), range(r + 1), 2 * k, judge)
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
    k = _index(k, "k")
    if k < 1:
        raise InvalidParamsError("need k >= 1")
    m = len(g.edges)
    if m < k - 1:
        raise HypothesisViolatedError(f"need |E| >= k-1 = {k - 1}, got {m}")
    require_unit_weights(g)
    far = _far_ends(g)

    type_a = None
    if (m + 1) % k == 0:
        r = (m + 1) // k
        # A split into parts of k vertices is unique when it exists: it cuts
        # exactly the edges whose far side (from vertex 0) has a multiple of
        # k vertices, and there must be r - 1 of them.
        size = g.walk[2]
        picked = [i for i, c in enumerate(far) if size[c] % k == 0]
        if len(picked) == r - 1:
            top, _ = _fold(g.walk, {far[i] for i in picked})
            removed = tuple(g.edges[i][:2] for i in picked)
            type_a = TypeAWitness(r, removed, tuple(_pieces(top)))

    type_b = None
    r = m // k + 1  # the one r with (r-1)k <= m <= rk - 1
    if r >= 2:
        found = _removal_search(g, far, [r - 2], 2 * (k - 1), _clump_report)
        if found is not None:
            type_b = TypeBWitness(r, RemovalCertificate(*found, Fraction(k - 1)))

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
