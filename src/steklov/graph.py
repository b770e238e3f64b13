"""Weighted finite graphs with boundary and Dirichlet boundary.

A graph is a triple (G, m, w) together with a role for every vertex:
interior, boundary, or Dirichlet boundary. Vertices are dense integer
indices 0..n-1. Graphs are immutable; mutating operations return new
values. Edge weights and vertex measures may be floats or exact
``fractions.Fraction`` values (closed-form family constructions use the
latter); numeric code converts to float on demand.

Every question about connected pieces goes through one walk,
:func:`subtree_sizes`: components of a graph or of an induced subgraph
(:func:`component_passes`), nodal domains, and the interior components that
must touch the boundary. The pieces a tree leaves after edge removals are
folded from the tree's own walk instead (``geometry._fold``). A tree's
centroids, and the clump numbers of both sides of any one edge
(``geometry._doubled``), are found by a descent (:func:`descend`) over one
table of each vertex's two heaviest children (:func:`branch_table`), built
from the walk in one pass.

A graph keeps its walk from vertex 0 (:attr:`WeightedBoundaryGraph.walk`),
as it keeps its adjacency and its role lists: ``is_connected``, ``is_tree``
and every caller that walks a tree from vertex 0 (clump numbers, the removal
searches and the type A split, the sub-k test, the bipartite colouring) read
that one pass, so a
certificate walks its tree once. Callers must not mutate it. The boundary,
Dirichlet and interior lists come from one pass over the roles. In the same
way a graph keeps the one Steklov spectrum solved from it (``spectral``
fills that memo), so every statement checked on one graph object shares
one solve.

A graph with the combinatorial boundary (degree <= 1 means boundary) is
built in one :func:`make_graph` call, with the roles that
:func:`degree_roles` reads off its edge list: :func:`combinatorial_graph`,
``enumeration.tree_from_code`` and ``families.build_star`` build no
all-interior graph first. Every graph, those that ``with_roles``,
``delete_edges``, ``induced_subgraph`` and ``graph_from_dict`` return
included, is built by ``make_graph``, the one reader of role names and
numbers; it checks only the measures and roles a caller passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from numbers import Integral, Rational
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    GraphError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NonPositiveMeasureError,
    NonPositiveWeightError,
    ParseError,
    SelfLoopError,
)

Weight = float | Fraction | int


class Role(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    DIRICHLET = "dirichlet"

    @classmethod
    def _missing_(cls, value):  # Role(name) for a name that names no role
        raise InvalidParamsError(f"unknown role {value!r}")


_BOUNDARY, _INTERIOR = Role.BOUNDARY, Role.INTERIOR


def _norm_edge(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def adjacency_sets(n: int, edges) -> list[set[int]]:
    """Neighbour sets of the simple graph on vertices 0..n-1 with ``edges``."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def subtree_sizes(adj, root: int = 0) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """One breadth-first pass over the tree holding ``root``; every
    component walk in the package is one of these passes.

    ``adj[v]`` iterates the neighbours of ``v``; only the component of
    ``root`` is visited, along a breadth-first spanning tree when the graph
    has cycles. Returns the visit order, each vertex's parent (-1 at the
    root) and the vertex count of its subtree.
    """
    parent = {root: -1}
    order = [root]
    for v in order:  # ``order`` grows while it is read
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return order, parent, size


def component_passes(adj, verts: Iterable[int] | None):
    """Each component of the subgraph of ``adj`` induced on ``verts`` (on
    vertices 0..len(adj)-1 when None), by least vertex: its sorted vertices
    and the :func:`subtree_sizes` pass rooted at that vertex."""
    if verts is None:
        roots = range(len(adj))
    else:
        keep = set(verts)
        adj = {v: [u for u in adj[v] if u in keep] for v in keep}
        roots = sorted(keep)
    seen: set[int] = set()
    for root in roots:
        if root not in seen:
            tree = subtree_sizes(adj, root)
            seen.update(tree[0])
            yield tuple(sorted(tree[0])), tree


def branch_table(order, parent, size) -> tuple[list[int], list[int], list[int], list[int]]:
    """Each vertex's heaviest and second-heaviest child in a
    :func:`subtree_sizes` pass over a tree on vertices 0..n-1, from one pass
    over it: the lists (heaviest, its size, second, its size) by vertex,
    with -1 and size 0 where a vertex has no such child."""
    n = len(order)
    first, big, second, small = [-1] * n, [0] * n, [-1] * n, [0] * n
    for v in order[1:]:
        p, s = parent[v], size[v]
        if s > big[p]:
            second[p], small[p], first[p], big[p] = first[p], big[p], v, s
        elif s > small[p]:
            second[p], small[p] = v, s
    return first, big, second, small


def descend(table, x: int, total: int) -> int:
    """The centroid of a piece of ``total`` vertices that holds the whole
    subtree of ``x`` and fewer than total / 2 vertices outside it: the last
    vertex reached from ``x`` along heaviest children (``table`` is
    :func:`branch_table`) while the next one holds more than half the
    piece. There every branch has at most total / 2 vertices."""
    first, big = table[0], table[1]
    while 2 * big[x] > total:
        x = first[x]
    return x


def centroids(order, parent, size) -> list[int]:
    """The centroid of a tree, or its two adjacent centroids, parent first:
    the vertices whose largest branch (component of the tree minus the
    vertex) is least. :func:`descend` from the root of a
    :func:`subtree_sizes` pass reaches the first; the second is its
    heaviest child when that child holds exactly half the tree."""
    n = len(order)
    table = branch_table(order, parent, size)
    c = descend(table, order[0], n)
    return [c, table[0][c]] if 2 * table[1][c] == n else [c]


@dataclass(frozen=True)
class WeightedBoundaryGraph:
    """Simple undirected graph with vertex measures, edge weights and roles.

    Invariants (enforced by :func:`make_graph`, which builds every graph):
    no loops, no duplicate edges, edges sorted with u < v, weights and
    measures positive with a positive finite float, one :class:`Role` each.
    """

    n: int
    edges: tuple[tuple[int, int, Weight], ...]  # stored with u < v
    measures: tuple[Weight, ...]
    roles: tuple[Role, ...]
    # The Steklov spectrum solved from this object, set and read by
    # ``spectral`` alone (not a field); an equal graph has a memo of its own.
    _spectrum = None

    # -- basic queries ----------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[int, dict[int, Weight]]:
        adj: dict[int, dict[int, Weight]] = {v: {} for v in range(self.n)}
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj

    @cached_property
    def edge_weights(self) -> dict[tuple[int, int], Weight]:
        return {(u, v): w for u, v, w in self.edges}

    def neighbors(self, x: int) -> list[int]:
        return sorted(self.adjacency[x])

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])

    def weight(self, x: int, y: int) -> Weight:
        key = _norm_edge(x, y)
        if key not in self.edge_weights:
            raise EdgeNotFoundError(f"no edge {{{x},{y}}}")
        return self.edge_weights[key]

    def has_edge(self, x: int, y: int) -> bool:
        return _norm_edge(x, y) in self.edge_weights

    @cached_property
    def _role_lists(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The boundary, Dirichlet and interior vertices, each ascending,
        from one pass over ``roles``."""
        boundary: list[int] = []
        dirichlet: list[int] = []
        interior: list[int] = []
        for v, role in enumerate(self.roles):
            if role is _BOUNDARY:
                boundary.append(v)
            elif role is _INTERIOR:
                interior.append(v)
            else:
                dirichlet.append(v)
        return tuple(boundary), tuple(dirichlet), tuple(interior)

    @property
    def boundary(self) -> tuple[int, ...]:
        return self._role_lists[0]

    @property
    def dirichlet(self) -> tuple[int, ...]:
        return self._role_lists[1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self._role_lists[2]

    @cached_property
    def dirichlet_interior(self) -> tuple[int, ...]:
        """Omega_D: every vertex that is not a Dirichlet boundary vertex."""
        return tuple(sorted(self.boundary + self.interior))

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.degree(v) <= 1)

    # -- connectivity ------------------------------------------------------

    def components(self, restrict: Iterable[int] | None = None) -> list[list[int]]:
        """Connected components, optionally of the induced subgraph on
        ``restrict``, by least vertex, each as its sorted vertices."""
        return [list(verts) for verts, _ in component_passes(self.adjacency, restrict)]

    @cached_property
    def walk(self) -> tuple[list[int], dict[int, int], dict[int, int]]:
        """The :func:`subtree_sizes` pass from vertex 0, shared by every
        reader; needs n >= 1."""
        return subtree_sizes(self.adjacency)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.walk[0]) == self.n

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    # -- mutation (returns new graphs, each built by make_graph) ------------

    def delete_edges(self, remove: Iterable[tuple[int, int]]) -> "WeightedBoundaryGraph":
        """Remove the listed edges; vertices, measures and roles are kept."""
        keys = {_norm_edge(_vertex(x, self.n), _vertex(y, self.n)) for x, y in remove}
        for key in keys:
            if key not in self.edge_weights:
                raise EdgeNotFoundError(f"no edge {{{key[0]},{key[1]}}}")
        kept = [e for e in self.edges if (e[0], e[1]) not in keys]
        return make_graph(self.n, kept, self.measures, self.roles)

    def with_roles(self, roles: Sequence[Role | str]) -> "WeightedBoundaryGraph":
        """The same graph with ``roles``, given as :class:`Role` values or
        their names, as :func:`make_graph` reads them."""
        return make_graph(self.n, self.edges, self.measures, roles)

    def induced_subgraph(self, verts: Iterable[int]) -> "WeightedBoundaryGraph":
        """Induced subgraph on distinct vertices, the k-th of ``verts`` made
        vertex k; its edges are stored as make_graph stores them (u < v)."""
        index: dict[int, int] = {}
        for v in verts:
            if _vertex(v, self.n) in index:
                raise IndexOutOfRangeError(f"vertex {v!r} repeated")
            index[v] = len(index)
        edges = [(index[u], index[v], w) for u, v, w in self.edges
                 if u in index and v in index]
        return make_graph(len(index), edges, [self.measures[v] for v in index],
                          [self.roles[v] for v in index])

    def is_subgraph_of(self, other: "WeightedBoundaryGraph") -> bool:
        """Same vertex set, edge subset, matching weights and measures."""
        if self.n != other.n:
            return False
        if any(self.measures[v] != other.measures[v] for v in range(self.n)):
            return False
        return all(
            (u, v) in other.edge_weights and other.edge_weights[(u, v)] == w
            for u, v, w in self.edges
        )


# -- construction -------------------------------------------------------------


def _check_positive(value, exc, what):
    try:
        ok = not isinstance(value, bool) and 0 < value < math.inf  # False for NaN
    except TypeError:
        ok = False
    if not ok:
        raise exc(f"{what} must be a positive finite number, got {value!r}")
    try:
        as_float = float(value)
    except OverflowError:  # an integer or fraction beyond the float range
        as_float = math.inf
    if not 0 < as_float < math.inf:  # numeric code reads it as a float
        raise exc(f"{what} is {as_float!r} as a float; a graph needs a positive finite one")


def _is_label(x) -> bool:
    """An integer that is not a bool: a float 1.0 or True keys a dict
    like the int, but is no vertex label."""
    return type(x) is int or isinstance(x, Integral) and not isinstance(x, bool)


def _vertex(x, n: int):
    if not (_is_label(x) and 0 <= x < n):
        raise IndexOutOfRangeError(f"vertex {x!r} out of range for n={n}")
    return x


def make_graph(
    n: int,
    edges: Iterable[tuple[int, int, Weight]] = (),
    measures: Sequence[Weight] | None = None,
    roles: Sequence[Role | str] | None = None,
) -> WeightedBoundaryGraph:
    """Build a validated graph.

    ``measures`` defaults to all ones and ``roles`` to all-interior; only
    the ones a caller passes are checked. Roles may be given as
    :class:`Role` values or their string names; any other role raises
    InvalidParamsError.
    """
    if not (_is_label(n) and n >= 0):
        raise IndexOutOfRangeError(f"vertex count must be a nonnegative integer, got {n!r}")
    if measures is not None and len(measures) != n:
        raise IndexOutOfRangeError("measure list has wrong length")
    if roles is not None and len(roles) != n:
        raise IndexOutOfRangeError("role list has wrong length")
    if measures is None:
        measures = (1,) * n
    else:
        for m in measures:
            _check_positive(m, NonPositiveMeasureError, "vertex measure")
    if roles is None:
        role_values = (_INTERIOR,) * n
    else:
        role_values = tuple([r if isinstance(r, Role) else Role(r) for r in roles])

    seen: set[tuple[int, int]] = set()
    normalized = []
    for x, y, w in edges:
        if not (_is_label(x) and _is_label(y) and 0 <= x < n and 0 <= y < n):
            raise IndexOutOfRangeError(f"edge ({x},{y}) out of range for n={n}")
        if x == y:
            raise SelfLoopError(f"self-loop at vertex {x}")
        key = _norm_edge(x, y)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {{{x},{y}}}")
        seen.add(key)
        _check_positive(w, NonPositiveWeightError, "edge weight")
        normalized.append((key[0], key[1], w))
    normalized.sort()  # the (u, v) pairs are distinct, so no weight is compared
    return WeightedBoundaryGraph(
        n=n, edges=tuple(normalized), measures=tuple(measures), roles=role_values
    )


def degree_roles(n: int, edges: Sequence[tuple[int, int, Weight]]) -> tuple[Role, ...]:
    """Roles of the combinatorial boundary (degree <= 1 means boundary) of
    the graph on 0..n-1 with ``edges``.

    Degrees are counted on the edges as given, so that a graph can be built
    with its roles in one :func:`make_graph` call. An n or an edge list on
    which the count is wrong (n not an integer; an endpoint out of range or
    not an integer, a loop or a repeat) is one that make_graph rejects."""
    if not _is_label(n):
        return ()  # a count that make_graph rejects
    degree = [0] * n
    for x, y, _ in edges:
        if _is_label(x) and _is_label(y) and 0 <= x < n and 0 <= y < n:
            degree[x] += 1
            degree[y] += 1
    return tuple([_BOUNDARY if d <= 1 else _INTERIOR for d in degree])


def combinatorial_boundary(g: WeightedBoundaryGraph) -> tuple[Role, ...]:
    """Role assignment of a combinatorial graph: degree <= 1 means boundary.
    The degrees are read off the graph's kept adjacency: its edges are
    already checked, so no endpoint needs the guards of :func:`degree_roles`."""
    adj = g.adjacency
    return tuple([_BOUNDARY if len(adj[v]) <= 1 else _INTERIOR for v in range(g.n)])


def combinatorial_graph(
    n: int, edges: Iterable[tuple[int, int]]
) -> WeightedBoundaryGraph:
    """Unit-weight simple graph with the degree-based boundary, built in one
    :func:`make_graph` call."""
    unit = [(x, y, 1) for x, y in edges]
    return make_graph(n, unit, roles=degree_roles(n, unit))


# -- serialization -------------------------------------------------------------

_VERTEX_FIELDS = {"id", "measure", "role"}
_EDGE_FIELDS = {"u", "v", "w"}


def _num_to_json(x: Weight):
    """An integer stays an integer and anything else becomes a float."""
    return int(x) if isinstance(x, Rational) and x.denominator == 1 else float(x)


def graph_to_dict(g: WeightedBoundaryGraph) -> dict:
    return {
        "vertices": [
            {
                "id": v,
                "measure": _num_to_json(g.measures[v]),
                "role": g.roles[v].value,
            }
            for v in range(g.n)
        ],
        "edges": [
            {"u": u, "v": v, "w": _num_to_json(w)} for u, v, w in g.edges
        ],
    }


def graph_from_dict(data: dict) -> WeightedBoundaryGraph:
    if not isinstance(data, dict) or set(data) != {"vertices", "edges"}:
        raise ParseError("expected an object with exactly 'vertices' and 'edges'")
    verts, edge_entries = data["vertices"], data["edges"]
    if not (isinstance(verts, list) and isinstance(edge_entries, list)
            and all(isinstance(entry, dict) for entry in verts + edge_entries)):
        raise ParseError("'vertices' and 'edges' must be lists of objects")
    n = len(verts)
    measures: list = [1] * n
    roles: list = [_INTERIOR] * n
    seen_ids = set()
    for entry in verts:
        if set(entry) - _VERTEX_FIELDS:
            raise ParseError(f"unknown vertex fields: {sorted(set(entry) - _VERTEX_FIELDS)}")
        if "id" not in entry:
            raise ParseError("vertex entry missing 'id'")
        vid = entry["id"]
        if not _is_label(vid) or not (0 <= vid < n) or vid in seen_ids:
            raise ParseError(f"bad or repeated vertex id {vid!r}")
        seen_ids.add(vid)
        measures[vid] = entry.get("measure", 1)
        roles[vid] = entry.get("role", _INTERIOR)
    edges = []
    for entry in edge_entries:
        if set(entry) - _EDGE_FIELDS:
            raise ParseError(f"unknown edge fields: {sorted(set(entry) - _EDGE_FIELDS)}")
        try:
            u, v = entry["u"], entry["v"]
        except KeyError as exc:
            raise ParseError("edge entry missing 'u' or 'v'") from exc
        edges.append((u, v, entry.get("w", 1)))
    try:
        return make_graph(n, edges, measures, roles)
    except (GraphError, InvalidParamsError) as exc:
        raise ParseError(str(exc)) from exc


def save_graph(g: WeightedBoundaryGraph, path) -> None:
    """Write ``g`` as JSON; a graph that has no file form writes nothing."""
    data = graph_to_dict(g)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_graph(path) -> WeightedBoundaryGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also too many digits, or bytes that are not UTF-8
            raise ParseError(f"invalid JSON: {exc}") from exc
    return graph_from_dict(data)
