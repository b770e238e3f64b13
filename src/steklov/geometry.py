"""Geometric representation of weighted graphs and nodal-domain machinery.

A weighted graph is read as a metric graph with edge lengths 1/w.
Eigenfunctions extend piecewise linearly along edges; their zero sets cut
the metric graph into nodal domains, and each domain induces a weighted
graph with Dirichlet boundary at the cut points. One pass over the edges
builds every domain, and a sign change is cut at the zero set's one point
on its edge, which both of its domains share. Whether two values have the
same sign is decided by their signs, never by their product, which can
underflow or overflow, so zero sets and domains do not depend on the scale
of f. Clump numbers are the
unit-tree branch statistics used by the removal lemmas, decided in integer
halves off the tree's walk; only reports hold Fractions. Every statement
about unit trees, here and in ``clumps`` and ``extremal``, checks that
hypothesis with one gate, :func:`require_unit_tree`, whose tree half,
:func:`require_tree`, is also the tree check of the lambda_1 bound. A
centroid descent
over the walk's table of each vertex's two heaviest children
(``graph.branch_table``) gives the equilibrium point (``_centre``, and
``_broom_branches`` for its minimal-broom branches) and the clump numbers
of both sides of any one edge (``_doubled``), in O(depth) steps each. The
clumps at a point and the pieces of the removal searches are read off one
fold of the walk (``_fold``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AllZeroError,
    InvalidParamsError,
    NotATreeError,
    NotUnitWeightError,
)
from .families import _arm, minimal_broom_halves
from .graph import (
    Role,
    WeightedBoundaryGraph,
    _is_label,
    centroids,
    component_passes,
    descend,
    make_graph,
)
from .spectral import steklov_spectrum

DEFAULT_ZERO_TOL = 1e-9
# verify_nodal_theorem's bound on |lambda_1 - sigma| of each nodal domain and
# on the restricted eigenvector's residual relative to the operator's scale.
NODAL_TOL = 1e-8


@dataclass(frozen=True)
class GeometricPoint:
    """A vertex, or an interior point of an edge at ``offset`` from the lower endpoint."""

    vertex: int | None = None
    edge: tuple[int, int] | None = None
    offset: object = None

    @staticmethod
    def at_vertex(v: int) -> "GeometricPoint":
        return GeometricPoint(vertex=v)

    @staticmethod
    def on_edge(u: int, v: int, offset) -> "GeometricPoint":
        if u > v:
            raise InvalidParamsError("edge points are keyed by the sorted edge")
        return GeometricPoint(edge=(u, v), offset=offset)

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None


def _length(w) -> float:
    """Metric length 1/w of an edge; for a rational weight, the exact
    reciprocal rounded once."""
    return 1.0 / w if isinstance(w, float) else float(Fraction(1) / w)


# -- zero sets ---------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroSet:
    vertex_zeros: frozenset[int]
    edge_zeros: tuple[GeometricPoint, ...]
    zero_edges: tuple[tuple[int, int], ...]  # both endpoints vanish

    @property
    def degenerate(self) -> bool:
        return bool(self.zero_edges)


def zero_set(g: WeightedBoundaryGraph, f) -> ZeroSet:
    """Vertices with |f| at most ``DEFAULT_ZERO_TOL`` times max |f|, plus
    interior zeros on sign-change edges, those whose two nonzero ends
    differ in sign, which is decided by comparing signs, so not by f's
    scale. ``f`` holds one finite value per vertex."""
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise InvalidParamsError(
            f"function has shape {f.shape}; the graph has {g.n} vertices")
    if not np.isfinite(f).all():
        raise InvalidParamsError("function values must be finite")
    scale = float(np.max(np.abs(f)))
    if scale == 0.0:
        raise AllZeroError("function is identically zero")
    tau = DEFAULT_ZERO_TOL * scale
    vz = frozenset(int(v) for v in range(g.n) if abs(f[v]) <= tau)
    edge_zeros = []
    zero_edges = []
    for u, v, w in g.edges:
        if u in vz and v in vz:
            zero_edges.append((u, v))
        elif u not in vz and v not in vz and (f[u] > 0) != (f[v] > 0):
            t = abs(f[u]) / (abs(f[u]) + abs(f[v])) * _length(w)
            edge_zeros.append(GeometricPoint.on_edge(u, v, t))
    return ZeroSet(vz, tuple(edge_zeros), tuple(zero_edges))


# -- clump numbers (unit trees) -------------------------------------------------------


@dataclass(frozen=True)
class Clump:
    length: Fraction
    vertices: tuple[int, ...]  # original vertices inside the clump
    attach: int  # the vertex of the clump adjacent to the evaluation point


@dataclass(frozen=True)
class ClumpReport:
    point: GeometricPoint
    clumps: tuple[Clump, ...]
    clump_number: Fraction


def require_tree(g: WeightedBoundaryGraph, what: str) -> None:
    """The one check that a statement's graph is a tree: ``g`` is connected
    with n - 1 edges, else NotATreeError (f"{what} defined for trees"). It
    is the tree half of :func:`require_unit_tree`, and the whole tree check
    of the statements whose weight hypothesis is their own
    (``extremal.verify_lambda1_bound``)."""
    if not g.is_tree():
        raise NotATreeError(f"{what} defined for trees")


def require_unit_tree(g: WeightedBoundaryGraph, what: str) -> None:
    """The one check of the hypothesis of the unit-tree statements: ``g``
    is a tree (:func:`require_tree`, NotATreeError), and every edge weight
    is 1 (a weight 1.0 reads as 1), else NotUnitWeightError."""
    require_tree(g, what)
    if any(w != 1 for _, _, w in g.edges):
        raise NotUnitWeightError(f"{what} defined for unit edge weights")


def clump_lengths_at(g: WeightedBoundaryGraph, point: GeometricPoint) -> tuple[Clump, ...]:
    """Clumps of a unit tree with respect to an arbitrary point.

    At a vertex, each clump has length = number of vertices in the branch;
    at an edge point with offset t, the two sides have lengths s_u - 1 + t
    and s_v - 1 + (length - t). A vertex outside ``range(g.n)``, a pair
    that is not an edge of ``g``, a label that is a bool or a float, or an
    offset that is a bool or lies outside [0, 1] raises InvalidParamsError."""
    require_unit_tree(g, "clump numbers are")
    _require_point_of(g, point)
    return _clumps_at(g, point)


def _require_point_of(g: WeightedBoundaryGraph, point: GeometricPoint) -> None:
    """Labels are read as ``make_graph`` reads them (``graph._is_label``)."""
    if point.is_vertex:
        if not (_is_label(point.vertex) and point.vertex in range(g.n)):
            raise InvalidParamsError(f"vertex {point.vertex!r} is not a vertex of the graph")
        return
    edge = point.edge
    if not (type(edge) is tuple and all(map(_is_label, edge)) and edge in g.edge_weights):
        raise InvalidParamsError(f"{edge!r} is not an edge of the graph")
    t = point.offset
    try:
        inside = not isinstance(t, bool) and 0 <= t <= 1
    except TypeError:
        inside = False
    if not inside:
        raise InvalidParamsError(f"edge offset {t!r} is not a number in [0, 1]")


def _clumps_at(g: WeightedBoundaryGraph, point: GeometricPoint) -> tuple[Clump, ...]:
    """Clumps at a point, ordered by attach vertex: the pieces that
    :func:`_fold` leaves when the shared walk is cut at the point's edges,
    each attached at the point's neighbour inside it."""
    parent = g.walk[1]
    if point.is_vertex:
        c = point.vertex
        heads = sorted(g.adjacency[c])
        cuts = {h if parent[h] == c else c for h in heads}
    else:
        u, v = heads = point.edge
        cuts = {u if parent[u] == v else v}
    top, _ = _fold(g.walk, cuts)
    piece = {top[verts[0]]: verts for verts in _pieces(top)}
    members = [piece[top[h]] for h in heads]
    if point.is_vertex:
        return tuple(Clump(Fraction(len(m)), m, h) for h, m in zip(heads, members))
    (mu, mv), t = members, point.offset
    return (
        Clump(length=len(mu) - 1 + t, vertices=mu, attach=u),
        Clump(length=len(mv) - 1 + (1 - t), vertices=mv, attach=v),
    )


def clump_number_at(g: WeightedBoundaryGraph, point: GeometricPoint):
    clumps = clump_lengths_at(g, point)
    return max((c.length for c in clumps), default=Fraction(0))


def _centre(g: WeightedBoundaryGraph) -> tuple[list[int], int, list[tuple[int, int]]]:
    """The equilibrium point of a tree: its centroid or two centroids
    (sorted), found by :func:`~steklov.graph.centroids`' descent from the
    root of its walk, twice its clump number, and the branches of h vertices
    there as (root, attach) pairs by attach vertex, for h the heaviest
    branch of a centroid. The caller vouches that ``g`` is a tree.

    A vertex's clumps are its branches, so the least value at a vertex is h.
    An edge midpoint with sides of s >= N - s vertices has clumps s - 1/2 and
    N - s - 1/2; at s > N - s the vertex on the larger side beats it. So a
    midpoint wins only at an even split, between two centroids: h = N/2,
    clump number h - 1/2, and both sides are branches of h vertices. Either
    way the point is unique.
    """
    order, parent, size = walk = g.walk
    tops, n = centroids(*walk), len(order)
    if len(tops) == 2:
        u, v = tops = sorted(tops)
        return tops, n - 1, [(v, u), (u, v)]
    (c,) = tops
    branch = {b: size[b] if parent[b] == c else n - size[c] for b in sorted(g.adjacency[c])}
    h = max(branch.values(), default=0)
    return tops, 2 * h, [(c, b) for b, s in branch.items() if s == h]


def _doubled(walk, table, top: int, cut: int | None = None) -> int:
    """Twice the clump number of the subtree of ``top`` in the tree that
    ``walk`` spans, less the subtree of ``cut``, a vertex below ``top`` (or
    nothing when None), read off ``table``, the walk's
    :func:`~steklov.graph.branch_table`, by a centroid descent from ``top``
    in O(depth) steps, with no pass over the tree. It equals the number
    :func:`_fold` gives that piece.

    On the way down from ``top`` towards ``cut``, a vertex's child on that
    way holds size[cut] fewer vertices in the piece, so the piece's
    heaviest child there is that child or the vertex's other heaviest one.
    Off that way :func:`~steklov.graph.descend` goes on. At the centroid,
    whose heaviest branch in the piece has h of its N vertices, twice the
    clump number is min(2 h, N - 1), as in :func:`_fold`.
    """
    parent, size = walk[1], walk[2]
    first, big, second, small = table
    total, x = size[top], top
    if cut is not None:
        gone = size[cut]
        total -= gone
        way = []  # from cut up to top's child, popped from the top down
        v = cut
        while v != top:
            way.append(v)
            v = parent[v]
        while True:
            on = way.pop()  # x's child towards cut
            y, s = first[x], big[x]
            if y == on:
                s -= gone
                if small[x] > s:
                    y, s = second[x], small[x]
            if 2 * s <= total:  # x is the centroid, its subtree less ``gone``
                return min(2 * max(s, total - size[x] + gone), total - 1)
            x = y
            if y != on:
                break
    x = descend(table, x, total)
    return min(2 * max(big[x], total - size[x]), total - 1)


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


def _broom_branches(g: WeightedBoundaryGraph, twice: int, heavy) -> tuple[int, ...]:
    """The attach vertices of the branches of :func:`_centre`'s ``heavy``
    whose (i, d) shape (``families._arm``) is a minimal broom Br(twice / 2)."""
    adj, arms = g.adjacency, minimal_broom_halves(twice).arms
    return tuple(attach for root, attach in heavy if _arm(adj, root, attach) in arms)


def clump_number(g: WeightedBoundaryGraph) -> ClumpReport:
    """Clump number of a unit tree with its unique equilibrium point (see
    ``_centre``), and the clumps at that point."""
    require_unit_tree(g, "clump numbers are")
    tops, twice, _ = _centre(g)
    pt = (GeometricPoint.at_vertex(*tops) if len(tops) == 1
          else GeometricPoint.on_edge(*tops, Fraction(1, 2)))
    return ClumpReport(pt, _clumps_at(g, pt), Fraction(twice, 2))


# -- nodal domains -------------------------------------------------------------------


@dataclass(frozen=True)
class NodalDomain:
    """A connected component of |K(G)| minus the zero set, with its induced
    graph: induced vertex k < len(vertices) is ``vertices[k]``, and the cut
    points follow in order."""

    vertices: tuple[int, ...]  # original vertices where f != 0 inside the domain
    cut_points: tuple[GeometricPoint, ...]
    sign: int
    induced: WeightedBoundaryGraph


def nodal_domains(g: WeightedBoundaryGraph, f) -> list[NodalDomain]:
    """Nodal domains of a function on (G, B), with induced graphs.

    Cut points (vertex zeros on the frontier and edge-interior zeros) become
    Dirichlet vertices of measure 1; partial edges get weight 1/segment-length.
    Fully-zero edges belong to no domain. Domains are the components of
    the same-sign edges between nonzero vertices, listed by least vertex;
    signs are compared, not multiplied, so the domains do not depend on
    the scale of f.
    They are built in one pass over the edges, and every edge-interior cut
    point is :func:`zero_set`'s point on that edge, so the two domains of a
    sign change cut it at the same point.
    """
    f = np.asarray(f, dtype=float)
    return _nodal_domains(g, f, zero_set(g, f))


def _nodal_domains(g: WeightedBoundaryGraph, f: np.ndarray, zs: ZeroSet) -> list[NodalDomain]:
    """:func:`nodal_domains` of a float array ``f`` with its zero set, in
    one pass over ``g.edges``: each edge goes to the domain or domains of
    its nonzero ends, and a sign change is cut at the point that ``zs``
    holds for that edge, shared by both sides and the zero set. Each side's
    weight is 1/segment, the segment measured from that side's own end."""
    nonzero = [v for v in range(g.n) if v not in zs.vertex_zeros]
    same_sign = [[u for u in g.adjacency[v] if (f[u] > 0) == (f[v] > 0)] for v in range(g.n)]
    # per domain: its members, its induced edges, and its cut points by induced id
    found = [(members, [], {}) for members, _ in component_passes(same_sign, nonzero)]
    home = {x: (domain, i) for domain in found for i, x in enumerate(domain[0])}
    crossing = {pt.edge: pt for pt in zs.edge_zeros}
    for u, v, w in g.edges:
        if u in home and v in home and home[u][0] is home[v][0]:
            (_, edges, _), i = home[u]
            edges.append((i, home[v][1], w))
            continue
        for x, y in (u, v), (v, u):
            if x not in home:
                continue
            if y in zs.vertex_zeros:  # frontier at the far vertex; full metric length
                pt, weight = GeometricPoint.at_vertex(y), w
            elif (u, v) in crossing:
                pt = crossing[u, v]
                weight = 1.0 / (abs(f[x]) / (abs(f[u]) + abs(f[v])) * _length(w))
            else:  # no zero end and no sign change: nothing to cut
                continue
            (members, edges, cuts), i = home[x]
            edges.append((i, cuts.setdefault(pt, len(members) + len(cuts)), weight))
    domains = []
    for members, edges, cuts in found:
        measures = [g.measures[x] for x in members] + [1] * len(cuts)
        roles = [Role.BOUNDARY if g.roles[x] is Role.BOUNDARY else Role.INTERIOR
                 for x in members] + [Role.DIRICHLET] * len(cuts)
        domains.append(
            NodalDomain(
                vertices=members,
                cut_points=tuple(cuts),
                sign=1 if f[members[0]] > 0 else -1,
                induced=make_graph(len(members) + len(cuts), edges, measures, roles),
            )
        )
    return domains


@dataclass(frozen=True)
class DomainVerdict:
    lambda1: float
    sigma: float
    residual: float
    one_signed: bool
    ok: bool


@dataclass(frozen=True)
class NodalTheoremReport:
    degenerate: bool
    verdicts: tuple[DomainVerdict, ...]

    @property
    def ok(self) -> bool:
        return self.degenerate or all(v.ok for v in self.verdicts)


def verify_nodal_theorem(g: WeightedBoundaryGraph, sigma: float, f) -> NodalTheoremReport:
    """Check lambda_1(G_U) = sigma on every nodal domain of the eigenpair.

    Degenerate zero sets (an entire edge vanishing) are reported and skipped
    rather than interpreted.
    """
    if not 0 < sigma < math.inf:  # False for NaN
        raise InvalidParamsError("the nodal theorem concerns finite sigma > 0")
    f = np.asarray(f, dtype=float)
    zs = zero_set(g, f)
    if zs.degenerate:
        return NodalTheoremReport(True, ())
    verdicts = []
    for dom in _nodal_domains(g, f, zs):
        spec = steklov_spectrum(dom.induced)
        lam1 = spec.eigenvalue(1)
        # Residual of the restricted function as a Lambda_0 eigenfunction;
        # the boundary of the domain lies among its first len(vertices) ids.
        op = spec.operator
        u = f[[dom.vertices[b] for b in op.boundary]]
        res = np.linalg.norm(op.matrix @ u - sigma * op.boundary_measures * u)
        scale = np.linalg.norm(op.matrix) + abs(sigma)
        one_signed = all(f[x] * dom.sign > 0 for x in dom.vertices)
        ok = bool(abs(lam1 - sigma) <= NODAL_TOL and res <= NODAL_TOL * scale and one_signed)
        verdicts.append(DomainVerdict(lam1, sigma, res, one_signed, ok))
    return NodalTheoremReport(False, tuple(verdicts))
