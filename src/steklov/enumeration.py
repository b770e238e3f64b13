"""Exhaustive enumeration up to isomorphism and canonical codes.

Two code flavors: a recursive sorted-subtree code for (rooted or free)
trees, annotated with metric edge lengths so brooms with fractional
Dirichlet edges compare correctly; and a minimal-adjacency code for general
simple graphs over the vertex orders that respect the Weisfeiler-Lehman
colour cells, found by a row-by-row search that keeps only the least rows
(individualisation and refinement, McKay-Piperno 2014). Both codes are
decodable strings, which is what the on-disk class cache stores.

Both classes are built from smaller pieces: free trees from the rooted
branches at their centroids (Otter), connected graphs by joining a vertex to
a smaller connected graph, coding only the joins whose new vertex could be
the canonical one to delete (McKay 1998). Prufer sequences, edge subsets and
the Otter recurrence give independent oracles.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .errors import (
    InvalidParamsError,
    NotATreeError,
    OutOfSupportedRangeError,
    ParseError,
)
from .graph import (
    WeightedBoundaryGraph,
    adjacency_sets,
    combinatorial_graph,
    component_passes,
    heaviest_branches,
    make_graph,
    subtree_sizes,
)

MAX_TREE_N = 16
MAX_GRAPH_N = 7
MAX_CODE_N = 10
GENERATOR_VERSION = "v1"
# OEIS A001349: connected simple graphs on n vertices, up to isomorphism.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

log = logging.getLogger("steklov")


# -- tree codes --------------------------------------------------------------------


def _edge_length_str(w) -> str:
    if isinstance(w, float):
        return repr(1.0 / w)
    return str(Fraction(1) / Fraction(w))


def _rooted_code(adj, root: int, label) -> str:
    """Rooted code of the tree ``adj``: each vertex lists its children
    sorted, each after ``label(v, u)``, the length of the edge to it."""

    def rec(v: int, parent: int) -> str:
        parts = [label(v, u) + rec(u, v) for u in adj[v] if u != parent]
        return "(" + "".join(sorted(parts)) + ")"

    return rec(root, -1)


def _unit_length(v: int, u: int) -> str:
    return "1"


def _centroids(order, parent, size) -> list[int]:
    """Centroids of a tree from a subtree-size pass."""
    heaviest = heaviest_branches(order, parent, size)
    best = min(heaviest.values())
    return [v for v, h in heaviest.items() if h == best]


def tree_code(g: WeightedBoundaryGraph, root: int | None = None) -> str:
    """Canonical code of a (metric) tree; rooted when ``root`` is given."""
    if not g.is_tree():
        raise NotATreeError("tree codes need a tree")
    adj = g.adjacency

    def label(v: int, u: int) -> str:
        return _edge_length_str(adj[v][u])

    roots = [root] if root is not None else _centroids(*g.walk)
    return min(_rooted_code(adj, r, label) for r in roots)


def _plant(forest) -> str:
    """Rooted unit code of a root joined by unit edges to the roots of
    ``forest``, as :func:`tree_code` builds it."""
    return "(" + "".join(sorted(["1" + code for code in forest])) + ")"


def unit_tree_code(adj) -> str:
    """``tree_code`` of a unit-weight tree given by neighbour lists or
    sets; builds no graph and no ``Fraction`` (every edge length is "1")."""
    centroids = _centroids(*subtree_sizes(adj))
    return min(_rooted_code(adj, c, _unit_length) for c in centroids)


def tree_edges(code: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a unit-length tree code, numbered as
    :func:`tree_from_code` numbers them (preorder). Codes with any other
    edge length are rejected."""
    edges: list[tuple[int, int]] = []
    stack: list[int] = []
    n = 0
    for pos, ch in enumerate(code):
        if ch == "(":
            if stack:
                if code[pos - 1] != "1":
                    raise ParseError(f"not a unit tree code at {pos}: {code!r}")
                edges.append((stack[-1], n))
            elif pos:
                raise ParseError(f"trailing characters in tree code {code!r}")
            stack.append(n)
            n += 1
        elif ch == ")" and stack:
            stack.pop()
        elif ch != "1" or code[pos + 1 : pos + 2] != "(":
            raise ParseError(f"not a unit tree code at {pos}: {code!r}")
    if stack or not n:
        raise ParseError(f"malformed tree code: {code!r}")
    return n, edges


def tree_from_code(code: str) -> WeightedBoundaryGraph:
    """Rebuild a combinatorial tree from its code (weights = 1/length)."""
    edges = []
    pos = 0

    def parse(parent: int | None, length_str: str, next_id: list[int]) -> None:
        nonlocal pos
        if code[pos] != "(":
            raise ParseError(f"bad tree code at {pos}")
        pos += 1
        me = next_id[0]
        next_id[0] += 1
        if parent is not None:
            length = Fraction(length_str)
            edges.append((parent, me, Fraction(1) / length))
        while code[pos] != ")":
            start = pos
            while code[pos] != "(":
                pos += 1
            parse(me, code[start:pos], next_id)
        pos += 1

    counter = [0]
    try:
        parse(None, "", counter)
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed tree code: {code!r}") from exc
    if pos != len(code):
        raise ParseError("trailing characters in tree code")
    g = make_graph(counter[0], edges)
    from .graph import combinatorial_boundary

    return g.with_roles(combinatorial_boundary(g))


# -- general graph codes -------------------------------------------------------------


def _wl_colors(adj) -> list[int]:
    """Stable Weisfeiler-Lehman colours: each round gives a vertex the rank
    of (its colour, its neighbours' sorted colours) among all such pairs.

    The first round from all-zero colours ranks the degrees, so refinement
    starts there; it stops when a round splits no colour, that is when the
    pairs are as many as the colours. Colours are numbered by the graph's
    isomorphism class alone, and a larger degree gets a larger colour."""
    nbrs = [tuple(a) for a in adj]
    degrees = sorted({len(a) for a in nbrs})
    rank = {d: c for c, d in enumerate(degrees)}
    color = [rank[len(a)] for a in nbrs]
    count = len(degrees)
    while True:
        sig = [(color[v], tuple(sorted([color[u] for u in a]))) for v, a in enumerate(nbrs)]
        distinct = sorted(set(sig))
        if len(distinct) == count:
            return color
        order = {s: c for c, s in enumerate(distinct)}
        color = [order[s] for s in sig]
        count = len(distinct)


def graph_code(g: WeightedBoundaryGraph) -> str:
    """Canonical code of a simple unit-weight graph: the least adjacency
    bits (the upper triangle, row by row) over the vertex orders that list
    the WL colour cells in colour order. Exact; intended for n <= 10."""
    if g.n > MAX_CODE_N:
        raise OutOfSupportedRangeError(f"general codes support n <= {MAX_CODE_N}")
    if any(w != 1 for _, _, w in g.edges):
        raise InvalidParamsError("general graph codes are for unit-weight graphs")
    return _adjacency_code([set(g.adjacency[v]) for v in range(g.n)])


def _adjacency_code(adj: list[set[int]], colors: list[int] | None = None) -> str:
    """:func:`graph_code` of the simple graph with neighbour sets ``adj``
    (and its :func:`_wl_colors`, when already known).

    The code is row-major over the upper triangle, so row k is the
    adjacency of the k-th vertex to the ones after it, and the least code
    has the least row 0, then the least row 1 given it, and so on. The
    search keeps, level by level, every ordered partition of the vertices
    not yet placed that the least rows so far allow; it starts from the
    colour cells. At level k a state places a vertex v of its first block
    and splits every block into the non-neighbours of v, then its
    neighbours: that is v's least row, and every order that gives it. Only
    the children with the least row survive, and equal states merge, since
    the rows to come depend on the partition alone. A vertex w of the same
    block as an already placed sibling v, with N(v) - {w} = N(w) - {v}, is
    skipped: swapping v and w is an automorphism that fixes the state, so
    it maps v's subtree onto w's, rows included. Twins form classes, so one
    check per placed sibling suffices."""
    n = len(adj)
    if n == 1:
        return "g1:0"
    if colors is None:
        colors = _wl_colors(adj)
    masks = [sum(1 << u for u in adj[v]) for v in range(n)]
    cells: dict[int, int] = {}
    for v in range(n):
        cells[colors[v]] = cells.get(colors[v], 0) | 1 << v
    states = {tuple(cells[c] for c in sorted(cells))}  # blocks as vertex bit masks
    bits = 0
    for k in range(n - 1):
        best, survivors = -1, set()
        for first, *rest in states:
            placed: list[int] = []
            todo = first
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                mask = masks[v]
                if any((mask & ~(1 << w)) == (masks[w] & ~low) for w in placed):
                    continue
                placed.append(v)
                row, child = 0, []
                for block in (first ^ low, *rest):
                    near = block & mask
                    far = block ^ near
                    row = (row << block.bit_count()) | ((1 << near.bit_count()) - 1)
                    child += [part for part in (far, near) if part]
                if best < 0 or row < best:
                    best, survivors = row, {tuple(child)}
                elif row == best:
                    survivors.add(tuple(child))
        bits = (bits << (n - 1 - k)) | best
        states = survivors
    return f"g{n}:{bits:0{n * (n - 1) // 2}b}"


def graph_edges(code: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a general graph code."""
    if not code.startswith("g") or ":" not in code:
        raise ParseError(f"bad graph code {code!r}")
    head, bits = code.split(":", 1)
    try:
        n = int(head[1:])
    except ValueError as exc:
        raise ParseError(f"bad graph code {code!r}") from exc
    if n == 1:
        return 1, []
    if n < 1 or len(bits) != n * (n - 1) // 2 or set(bits) - {"0", "1"}:
        raise ParseError(f"bad graph code {code!r}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def graph_from_code(code: str) -> WeightedBoundaryGraph:
    return combinatorial_graph(*graph_edges(code))


def canonical_code(g: WeightedBoundaryGraph, root: int | None = None) -> str:
    """Tree code when the graph is a tree (optionally rooted), else graph code."""
    if g.is_tree():
        return tree_code(g, root)
    if root is not None:
        raise InvalidParamsError("rooted codes are defined for trees only")
    return graph_code(g)


# -- class streams -------------------------------------------------------------------


def _is_class(kind: str, n: int, codes: list[str]) -> bool:
    """Whether stored codes can be the class: as many as the oracle count
    (Otter for trees, OEIS A001349 for connected graphs), distinct, sorted,
    and each on n vertices (a tree code has one "(" per vertex)."""
    if kind == "trees":
        count, sized = free_tree_count(n), all(c.count("(") == n for c in codes)
    else:
        count, sized = CONNECTED_COUNTS[n], all(c.startswith(f"g{n}:") for c in codes)
    return sized and len(codes) == count and codes == sorted(set(codes))


def _cache_load(kind: str, n: int, path: Path) -> list[str] | None:
    """Stored codes of a class, or None on a miss. A file that fails
    :func:`_is_class` is a miss too: it is logged and the class is
    generated again."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    codes = [line for line in text.splitlines() if line]
    if not _is_class(kind, n, codes):
        log.warning("class cache %s does not hold the %d-vertex %s class; "
                    "generating the class again", path, n, kind)
        return None
    return codes


def _cache_store(path: Path, codes: list[str]) -> None:
    """Write a class file through a temporary file in the same directory,
    so a reader never sees a partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("\n".join(codes) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)  # cache is best-effort


class GraphClassStream:
    """Materialized isomorphism-class representatives. Every iteration
    decodes ``codes`` afresh."""

    def __init__(self, kind: str, n: int, codes: list[str]):
        self.kind = kind
        self.n = n
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        if self.kind == "trees":
            return (combinatorial_graph(*tree_edges(code)) for code in self.codes)
        return (graph_from_code(code) for code in self.codes)


def _forests(pool: list[tuple[int, str]], total: int, start: int = 0):
    """Multisets of rooted codes from ``pool[start:]`` (pairs of size and
    code, by ascending size) whose sizes sum to ``total``."""
    if total == 0:
        yield ()
    for j in range(start, len(pool)):
        size, code = pool[j]
        if size > total:
            return
        for rest in _forests(pool, total - size, j):
            yield (code,) + rest


def _tree_class(n: int) -> list[str]:
    """Codes of the free trees on n vertices, each built once from its
    centroid (Otter): a unique centroid has branches of fewer than n/2
    vertices; two centroids split the tree into two halves of n/2."""
    pool: list[tuple[int, str]] = []  # rooted codes on fewer than n/2 vertices
    for size in range(1, (n + 1) // 2):
        pool += [(size, _plant(f)) for f in _forests(pool, size - 1)]
    codes = [_plant(f) for f in _forests(pool, n - 1)]
    halves = [(f, _plant(f)) for f in _forests(pool, n // 2 - 1)] if n % 2 == 0 else []
    for (fa, a), (fb, b) in itertools.combinations_with_replacement(halves, 2):
        codes.append(min(_plant(fa + (b,)), _plant(fb + (a,))))
    return codes


def _connected_class(n: int) -> set[str]:
    """Codes of the connected graphs on n vertices: removing a vertex that
    is no cut vertex leaves a connected graph on n - 1, so join a new
    vertex to each nonempty subset of every smaller class member.

    The new vertex is no cut vertex. A join is coded only when no non-cut
    vertex has a larger WL colour than the new vertex (a larger degree, the
    cheaper test, is checked first): colours are isomorphism invariants and
    refine the degree order, so every class is still reached by deleting
    its highest-colour non-cut vertex. The set drops repeats."""
    if n == 1:
        return {"g1:0"}
    m = n - 1
    codes = set()
    for code in _class_codes("connected", m):
        base = adjacency_sets(*graph_edges(code))
        # the components of base - x as bit masks: x is a cut vertex of the
        # joined graph unless the new vertex meets each of them
        pieces = [
            [sum(1 << u for u in verts) for verts, _ in component_passes(base, set(range(m)) - {x})]
            for x in range(m)
        ]
        for new in range(1, 1 << m):
            degree = new.bit_count()
            if any(len(base[x]) + ((new >> x) & 1) > degree
                   and all(p & new for p in pieces[x]) for x in range(m)):
                continue
            adj = [nbrs | {m} if (new >> v) & 1 else nbrs for v, nbrs in enumerate(base)]
            adj.append({v for v in range(m) if (new >> v) & 1})
            colors = _wl_colors(adj)
            if any(colors[x] > colors[m] and all(p & new for p in pieces[x]) for x in range(m)):
                continue
            codes.add(_adjacency_code(adj, colors))
    return codes


def _class_codes(kind: str, n: int) -> tuple[str, ...]:
    """Sorted codes of a class, memoised per class file under
    STEKLOV_CACHE_DIR (default ``.steklov-cache``; empty turns the cache
    off), so that a change of it or of the working directory is honoured."""
    raw = os.environ.get("STEKLOV_CACHE_DIR", ".steklov-cache")
    path = Path(raw).absolute() / f"{kind}-n{n}-{GENERATOR_VERSION}.txt" if raw else None
    return _load_class(kind, n, path)


@lru_cache(maxsize=None)
def _load_class(kind: str, n: int, path: Path | None) -> tuple[str, ...]:
    codes = _cache_load(kind, n, path) if path else None
    if codes is None:
        codes = sorted((_tree_class if kind == "trees" else _connected_class)(n))
        if path:
            _cache_store(path, codes)
    return tuple(codes)


def enumerate_trees(n: int) -> GraphClassStream:
    """All free trees on n vertices up to isomorphism, unit weight,
    degree-based boundary."""
    if not 1 <= n <= MAX_TREE_N:
        raise OutOfSupportedRangeError(f"tree enumeration supports 1 <= n <= {MAX_TREE_N}")
    return GraphClassStream("trees", n, list(_class_codes("trees", n)))


def enumerate_connected_graphs(n: int) -> GraphClassStream:
    """All connected simple graphs on n vertices up to isomorphism."""
    if not 1 <= n <= MAX_GRAPH_N:
        raise OutOfSupportedRangeError(
            f"connected-graph enumeration supports 1 <= n <= {MAX_GRAPH_N}"
        )
    return GraphClassStream("connected", n, list(_class_codes("connected", n)))


# -- independent oracles ----------------------------------------------------------


def prufer_tree_classes(n: int) -> set[str]:
    """Brute-force oracle: canonical codes of all labeled trees via Prufer
    sequences. Exponential; intended for n <= 8."""
    if n < 1:
        raise OutOfSupportedRangeError("n >= 1")
    if n == 1:
        return {"()"}
    codes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        heap = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(heap)
        adj: list[list[int]] = [[] for _ in range(n)]
        for x in seq:
            leaf = heapq.heappop(heap)
            adj[leaf].append(x)
            adj[x].append(leaf)
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(heap, x)
        u, v = heapq.heappop(heap), heapq.heappop(heap)
        adj[u].append(v)
        adj[v].append(u)
        codes.add(unit_tree_code(adj))
    return codes


def free_tree_count(n: int) -> int:
    """Otter-recurrence count of free trees; independent of any generator."""
    if n < 1:
        raise OutOfSupportedRangeError("n >= 1")
    r = [0, 1]  # rooted tree counts, 1-indexed
    for m in range(2, n + 1):
        total = 0
        for j in range(1, m):
            c = sum(d * r[d] for d in range(1, j + 1) if j % d == 0)
            total += c * r[m - j]
        r.append(total // (m - 1))
    pair = sum(r[i] * r[n - i] for i in range(1, n))
    middle = r[n // 2] if n % 2 == 0 else 0
    two_t = 2 * r[n] - pair + middle
    assert two_t % 2 == 0
    return two_t // 2


def graph_subset_classes(n: int) -> set[str]:
    """Brute-force oracle: all connected graphs via every edge subset.
    Exponential; intended for n <= 6."""
    if n < 1:
        raise OutOfSupportedRangeError("n >= 1")
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    codes = set()
    for mask in range(1 << len(all_pairs)):
        edges = [all_pairs[k] for k in range(len(all_pairs)) if (mask >> k) & 1]
        g = combinatorial_graph(n, edges)
        if g.is_connected():
            codes.add(graph_code(g))
    return codes
