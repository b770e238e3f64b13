"""Geometric representation of weighted graphs and nodal-domain machinery.

A weighted graph is read as a metric graph with edge lengths 1/w.
Eigenfunctions extend piecewise linearly along edges; their zero sets cut
the metric graph into nodal domains, and each domain induces a weighted
graph with Dirichlet boundary at the cut points. Clump numbers are the
unit-tree branch statistics used by the removal lemmas, decided in integer
halves off the tree's walk (``_centre``, and ``_broom_branches`` for its
minimal-broom branches); only reports hold Fractions.
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
    centroids,
    component_passes,
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
    interior zeros on sign-change edges. ``f`` holds one finite value per
    vertex."""
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
        elif u not in vz and v not in vz and f[u] * f[v] < 0:
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


def _require_unit_tree(g: WeightedBoundaryGraph) -> None:
    if not g.is_tree():
        raise NotATreeError("clump numbers are defined for trees")
    require_unit_weights(g)


def require_unit_weights(g: WeightedBoundaryGraph) -> None:
    if any(w != 1 for _, _, w in g.edges):
        raise NotUnitWeightError("clump numbers need unit edge weights")


def clump_lengths_at(g: WeightedBoundaryGraph, point: GeometricPoint) -> tuple[Clump, ...]:
    """Clumps of a unit tree with respect to an arbitrary point.

    At a vertex, each clump has length = number of vertices in the branch;
    at an edge point with offset t, the two sides have lengths s_u - 1 + t
    and s_v - 1 + (length - t). A vertex outside ``range(g.n)``, a pair
    that is not an edge of ``g`` or an offset outside [0, 1] raises
    InvalidParamsError."""
    _require_unit_tree(g)
    _require_point_of(g, point)
    return _clumps_at(g, point)


def _require_point_of(g: WeightedBoundaryGraph, point: GeometricPoint) -> None:
    if point.is_vertex:
        if point.vertex not in range(g.n):
            raise InvalidParamsError(f"vertex {point.vertex!r} is not a vertex of the graph")
        return
    if point.edge not in g.edge_weights:
        raise InvalidParamsError(f"{point.edge!r} is not an edge of the graph")
    try:
        inside = 0 <= point.offset <= 1
    except TypeError:
        inside = False
    if not inside:
        raise InvalidParamsError(f"edge offset {point.offset!r} lies outside [0, 1]")


def _clumps_at(g: WeightedBoundaryGraph, point: GeometricPoint) -> tuple[Clump, ...]:
    """Clumps at a point, ordered by attach vertex, read from the shared
    walk: a branch at the point is the subtree of one of its children in
    the walk, or the rest of the tree, which holds the walk's root."""
    order, parent, _ = g.walk
    if point.is_vertex:
        cut = point.vertex
        heads = sorted(g.adjacency[cut])
        below = {h for h in heads if parent[h] == cut}
        above = parent[cut]
    else:
        u, v = heads = list(point.edge)
        child, above = (u, v) if parent[u] == v else (v, u)
        below, cut = {child}, None
    head = {}  # each vertex's clump, by attach vertex
    for x in order:
        if x in below:
            head[x] = x
        elif x != cut:
            head[x] = above if parent[x] < 0 else head[parent[x]]
    members = {h: [] for h in heads}
    for x in range(g.n):
        if x in head:
            members[head[x]].append(x)
    if point.is_vertex:
        return tuple(Clump(Fraction(len(members[b])), tuple(members[b]), b) for b in heads)
    (u, v), t = point.edge, point.offset
    return (
        Clump(length=len(members[u]) - 1 + t, vertices=tuple(members[u]), attach=u),
        Clump(length=len(members[v]) - 1 + (1 - t), vertices=tuple(members[v]), attach=v),
    )


def clump_number_at(g: WeightedBoundaryGraph, point: GeometricPoint):
    clumps = clump_lengths_at(g, point)
    return max((c.length for c in clumps), default=Fraction(0))


def _centre(g: WeightedBoundaryGraph) -> tuple[list[int], int, list[tuple[int, int]]]:
    """The equilibrium point of a tree, from its walk: its centroid or two
    centroids (sorted), twice its clump number, and the branches of h vertices there
    as (root, attach) pairs by attach vertex, for h the heaviest branch of a
    centroid. The caller vouches that ``g`` is a tree.

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


def _broom_branches(g: WeightedBoundaryGraph, twice: int, heavy) -> tuple[int, ...]:
    """The attach vertices of the branches of :func:`_centre`'s ``heavy``
    whose (i, d) shape (``families._arm``) is a minimal broom Br(twice / 2)."""
    adj, arms = g.adjacency, minimal_broom_halves(twice).arms
    return tuple(attach for root, attach in heavy if _arm(adj, root, attach) in arms)


def clump_number(g: WeightedBoundaryGraph) -> ClumpReport:
    """Clump number of a unit tree with its unique equilibrium point (see
    ``_centre``), and the clumps at that point."""
    _require_unit_tree(g)
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
    the same-sign edges between nonzero vertices, listed by least vertex.
    """
    f = np.asarray(f, dtype=float)
    return _nodal_domains(g, f, zero_set(g, f))


def _nodal_domains(g: WeightedBoundaryGraph, f: np.ndarray, zs: ZeroSet) -> list[NodalDomain]:
    """:func:`nodal_domains` of a float array ``f`` with its zero set."""
    nonzero = [v for v in range(g.n) if v not in zs.vertex_zeros]
    same_sign = [[u for u in g.adjacency[v] if f[u] * f[v] > 0] for v in range(g.n)]

    domains = []
    for members, _ in component_passes(same_sign, nonzero):
        mset = set(members)
        cut_points: list[GeometricPoint] = []
        cut_index: dict[GeometricPoint, int] = {}
        index = {x: k for k, x in enumerate(members)}
        edges = []
        measures = [g.measures[x] for x in members]
        roles = [
            Role.BOUNDARY if g.roles[x] is Role.BOUNDARY else Role.INTERIOR
            for x in members
        ]

        def cut_id(pt: GeometricPoint) -> int:
            if pt not in cut_index:
                cut_index[pt] = len(members) + len(cut_points)
                cut_points.append(pt)
                measures.append(1)
                roles.append(Role.DIRICHLET)
            return cut_index[pt]

        for u, v, w in g.edges:
            u_in, v_in = u in mset, v in mset
            if u_in and v_in:
                edges.append((index[u], index[v], w))
            elif u_in or v_in:
                x, y = (u, v) if u_in else (v, u)
                if y in zs.vertex_zeros:
                    # frontier at the far vertex; full metric length
                    edges.append((index[x], cut_id(GeometricPoint.at_vertex(y)), w))
                elif f[u] * f[v] < 0:
                    ell = _length(w)
                    seg = abs(f[x]) / (abs(f[u]) + abs(f[v])) * ell
                    t = seg if x == u else ell - seg
                    pt = GeometricPoint.on_edge(u, v, t)
                    edges.append((index[x], cut_id(pt), 1.0 / seg))
                # else: same-sign edge to another domain is impossible
        induced = make_graph(len(members) + len(cut_points), edges, measures, roles)
        domains.append(
            NodalDomain(
                vertices=tuple(members),
                cut_points=tuple(cut_points),
                sign=1 if f[members[0]] > 0 else -1,
                induced=induced,
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
