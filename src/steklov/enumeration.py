"""Exhaustive enumeration up to isomorphism and canonical codes.

Two code flavors: a recursive sorted-subtree code for (rooted or free)
trees, each edge annotated with its metric length 1/w (every edge of a
class member reads "1"); and a minimal-adjacency code for general simple
graphs over the vertex orders that respect the Weisfeiler-Lehman colour
cells, found by a row-by-row search that keeps only the least rows
(individualisation and refinement, McKay-Piperno 2014). Both codes are
decodable strings, and each class member is stored (on disk too) under its
:func:`canonical_code`: the tree code of a tree, else its graph code. A
class object parses its codes once into one store: a tree-coded member as
its parent and degree arrays (``bytes``, by vertex in preorder), which the
exact counts read directly, any other member as its edge tuple; edge lists
are derived from that store. The class object also holds its screen, the
float spectra of every member, built from those edge lists on first read.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Integral
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
    centroids,
    combinatorial_graph,
    component_passes,
    degree_roles,
    make_graph,
    subtree_sizes,
)

MAX_TREE_N = 16
MAX_GRAPH_N = 7
MAX_CODE_N = 10
GENERATOR_VERSION = "v2"
# OEIS A001349: connected simple graphs on n vertices, up to isomorphism.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

log = logging.getLogger("steklov")


# -- tree codes --------------------------------------------------------------------


def _edge_length_str(w) -> str:
    if isinstance(w, float):
        return repr(1.0 / w)
    if w == 1:  # an exact unit weight, as on every combinatorial edge
        return "1"
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


def tree_code(g: WeightedBoundaryGraph, root: int | None = None) -> str:
    """Canonical code of a (metric) tree; rooted when ``root`` is given."""
    if not g.is_tree():
        raise NotATreeError("tree codes need a tree")
    adj = g.adjacency

    def label(v: int, u: int) -> str:
        return _edge_length_str(adj[v][u])

    roots = [root] if root is not None else centroids(*g.walk)
    return min(_rooted_code(adj, r, label) for r in roots)


def _plant(forest) -> str:
    """Rooted unit code of a root joined by unit edges to the roots of
    ``forest``, as :func:`tree_code` builds it."""
    return "(" + "".join(sorted(["1" + code for code in forest])) + ")"


def unit_tree_code(adj) -> str:
    """``tree_code`` of a unit-weight tree given by neighbour lists or
    sets; builds no graph and no ``Fraction`` (every edge length is "1")."""
    return min(_rooted_code(adj, c, _unit_length) for c in centroids(*subtree_sizes(adj)))


def _tree_grammar(code: str) -> tuple[list[int], list[int], list[str]]:
    """Parents, degrees and edge-length strings of a tree code: "(", then
    each child as the length of the edge to it and its own code, then ")".
    Vertices are numbered in preorder: each one's parent is the top of the
    stack when it opens, and the root, vertex 0, is its own parent. The
    lengths are listed by child, from vertex 1 on."""
    parent: list[int] = []
    degree: list[int] = []
    lengths: list[str] = []
    stack: list[int] = []
    start = 0  # where the text since the last bracket begins
    for pos, ch in enumerate(code):
        if ch == "(":
            if stack:
                up = stack[-1]
                degree[up] += 1
                lengths.append(code[start:pos])
            elif pos:
                raise ParseError(f"trailing characters in tree code {code!r}")
            else:
                up = 0  # the root
            stack.append(len(parent))
            parent.append(up)
            degree.append(1 if pos else 0)  # the edge to its parent
            start = pos + 1
        elif ch == ")":
            if not stack or start != pos:
                raise ParseError(f"malformed tree code at {pos}: {code!r}")
            stack.pop()
            start = pos + 1
    if stack or not parent or start != len(code):
        raise ParseError(f"malformed tree code: {code!r}")
    return parent, degree, lengths


def _parent_edges(parent) -> list[tuple[int, int]]:
    """The edges (parent, child) of a preorder parent array, by child."""
    return [(parent[v], v) for v in range(1, len(parent))]


def _unit_tree(code: str) -> tuple[list[int], list[int]]:
    """Parents and degrees of a unit-length tree code; codes with any other
    edge length are rejected."""
    parent, degree, lengths = _tree_grammar(code)
    if lengths.count("1") != len(lengths):
        raise ParseError(f"not a unit tree code: {code!r}")
    return parent, degree


def tree_edges(code: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a unit-length tree code, numbered as
    :func:`tree_from_code` numbers them (preorder), each edge from parent
    to child. Codes with any other edge length are rejected."""
    parent, _ = _unit_tree(code)
    return len(parent), _parent_edges(parent)


def tree_from_code(code: str) -> WeightedBoundaryGraph:
    """Rebuild a combinatorial tree from its code (weights = 1/length)."""
    parent, _, lengths = _tree_grammar(code)
    n, edges = len(parent), []
    for (u, v), text in zip(_parent_edges(parent), lengths):
        try:
            length = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad edge length {text!r} in tree code {code!r}") from exc
        if length <= 0:
            raise ParseError(f"non-positive edge length in tree code {code!r}")
        edges.append((u, v, Fraction(1) / length))
    return make_graph(n, edges, roles=degree_roles(n, edges))


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


def canonical_code(g: WeightedBoundaryGraph) -> str:
    """Tree code when the graph is a tree, else graph code."""
    return tree_code(g) if g.is_tree() else graph_code(g)


# -- class streams -------------------------------------------------------------------


def _is_class(kind: str, n: int, codes: tuple[str, ...]) -> bool:
    """Whether stored codes can be the class: as many as the oracle count
    (Otter for trees, OEIS A001349 for connected graphs), distinct and
    sorted."""
    count = free_tree_count(n) if kind == "trees" else CONNECTED_COUNTS[n]
    return len(codes) == count and list(codes) == sorted(set(codes))


def _cache_load(kind: str, n: int, path: Path) -> GraphClassStream | None:
    """The class stored at ``path``, or None on a miss. The file is the
    class only if it is UTF-8, passes :func:`_is_class` and every code
    parses on n vertices (the class object's own parse, done here); any
    other file is a miss too: it is logged and the class is generated
    again."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    except UnicodeDecodeError:
        text = ""
    stream = GraphClassStream(kind, n, tuple(line for line in text.splitlines() if line))
    try:
        if _is_class(kind, n, stream.codes) and stream.members:
            return stream
    except ParseError:
        pass
    log.warning("class cache %s does not hold the %d-vertex %s class; "
                "generating the class again", path, n, kind)
    return None


def _cache_store(path: Path, codes: tuple[str, ...]) -> None:
    """Write a class file through a temporary file in the same directory,
    so a reader never sees a partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("\n".join(codes) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)  # cache is best-effort


@dataclass(frozen=True, eq=False, repr=False)
class GraphClassStream:
    """One isomorphism class, held once per class file: its members'
    :func:`canonical_code` strings, sorted, as ``codes``, and the one store
    of their parse, ``members``, filled once: when the class is read from
    its file (the parse is part of the file's check), else on first read.
    Edge lists, the fresh graphs of every iteration and the screen
    ``spectra`` are derived from that store."""

    kind: str
    n: int
    codes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def members(self) -> tuple:
        """Each code parsed. A tree-coded member (a code that opens with
        "(", as every code of a tree class must) is held as its parent and
        degree arrays, a pair of ``bytes`` indexed by vertex in preorder,
        the root vertex 0 its own parent; any other member as its edge
        tuple. While a code is bad or not on n vertices, every read raises
        ParseError."""
        held = []
        for code in self.codes:
            tree = self.kind == "trees" or code.startswith("(")
            if tree:
                parent, degree = _unit_tree(code)
                size = len(parent)
            else:
                size, edges = graph_edges(code)
            if size != self.n:
                raise ParseError(f"class code {code!r} is not on {self.n} vertices")
            held.append((bytes(parent), bytes(degree)) if tree else tuple(edges))
        return tuple(held)

    @cached_property
    def spectra(self):
        """The screen: the read-only :func:`~steklov.spectral.unit_steklov_spectra`
        matrix, one row per stored code, built from :meth:`edge_lists` on
        first read (so enumerating alone loads no numpy) and freed with the
        object. While a code is bad, every read raises ParseError."""
        from .spectral import unit_steklov_spectra

        spectra = unit_steklov_spectra(self.n, self.edge_lists())
        spectra.flags.writeable = False
        return spectra

    def edge_lists(self) -> list:
        """Each member's edges, derived afresh from the store and numbered
        as its decoder numbers them: a tree member's (its pair of ``bytes``)
        as (parent, child) pairs by child, as :func:`tree_edges` gives them;
        any other member's edge tuple, which may be empty, as it is held."""
        return [_parent_edges(member[0]) if member and isinstance(member[0], bytes)
                else member for member in self.members]

    def __iter__(self):
        return (combinatorial_graph(self.n, edges) for edges in self.edge_lists())


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
    its highest-colour non-cut vertex. A join is a tree when a tree base
    gains one edge, and is coded as one (:func:`canonical_code`). The set
    drops repeats."""
    if n == 1:
        return {"()"}
    m = n - 1
    codes = set()
    for edges in _class("connected", m).edge_lists():
        base = adjacency_sets(m, edges)
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
            tree = len(edges) == m - 1 and degree == 1
            codes.add(unit_tree_code(adj) if tree else _adjacency_code(adj, colors))
    return codes


def _class(kind: str, n: int) -> GraphClassStream:
    """The one object of a class on a checked n, memoised per class file
    under STEKLOV_CACHE_DIR (default ``.steklov-cache``; empty turns the
    cache off), so a change of it or of the working directory is honoured."""
    n, top = _index(n, "n"), MAX_TREE_N if kind == "trees" else MAX_GRAPH_N
    if not 1 <= n <= top:
        name = "tree" if kind == "trees" else "connected-graph"
        raise OutOfSupportedRangeError(f"{name} enumeration supports 1 <= n <= {top}")
    raw = os.environ.get("STEKLOV_CACHE_DIR", ".steklov-cache")
    file = f"{kind}-n{n}-{GENERATOR_VERSION}.txt"
    return _load_class(kind, n, os.path.join(os.path.abspath(raw), file) if raw else "")


@lru_cache(maxsize=None)
def _load_class(kind: str, n: int, file: str) -> GraphClassStream:
    """The class object of ``file``, an absolute path ("" for no file): a
    string keys the memo, and a Path is made only on a miss."""
    path = Path(file) if file else None
    stream = _cache_load(kind, n, path) if path else None
    if stream is None:
        codes = sorted((_tree_class if kind == "trees" else _connected_class)(n))
        stream = GraphClassStream(kind, n, tuple(codes))
        if path:
            _cache_store(path, stream.codes)
    return stream


def _index(value, name: str) -> int:
    """``value`` as an int, refusing a bool and any non-integral type (a
    float 6.0 included): a memo keys them like the int, a class file name
    does not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidParamsError(f"{name} must be an integer, not {value!r}")
    return int(value)


def enumerate_trees(n: int) -> GraphClassStream:
    """All free trees on n vertices up to isomorphism, unit weight,
    degree-based boundary."""
    return _class("trees", n)


def enumerate_connected_graphs(n: int) -> GraphClassStream:
    """All connected simple graphs on n vertices up to isomorphism."""
    return _class("connected", n)


# -- independent oracles ----------------------------------------------------------


def prufer_tree_classes(n: int) -> set[str]:
    """Brute-force oracle: canonical codes of all labeled trees via Prufer
    sequences. Exponential; intended for n <= 8. The labeled trees are told
    apart first by :func:`_ahu_form`, a complete invariant in integers, and
    one tree per form is coded by :func:`unit_tree_code`."""
    n = _index(n, "n")
    if n < 1:
        raise OutOfSupportedRangeError("n >= 1")
    if n == 1:
        return {"()"}
    trees: dict[tuple[int, ...], list[int]] = {}
    ids: dict[tuple[int, ...], int] = {(): 0}
    for seq in itertools.product(range(n), repeat=n - 2):
        order, parent = _prufer_tree(n, seq)
        trees.setdefault(_ahu_form(order, parent, ids), parent)
    return {unit_tree_code(adjacency_sets(n, [(parent[v], v) for v in range(n - 1)]))
            for parent in trees.values()}


def _prufer_tree(n: int, seq) -> tuple[list[int], list[int]]:
    """The labeled tree on n >= 2 vertices with Prufer sequence ``seq``,
    rooted at n - 1, which is never removed: its vertices in the order the
    decoding removes them (each after its children), then n - 1, and each
    vertex's parent (n - 1 its own)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    order, parent = [], [n - 1] * n
    for x in seq:
        leaf = heapq.heappop(heap)
        order.append(leaf)
        parent[leaf] = x
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    order += [heapq.heappop(heap), n - 1]
    return order, parent


def _ahu_form(order, parent, ids: dict[tuple[int, ...], int]) -> tuple[int, ...]:
    """A rooted tree, its vertices in ``order`` (each after its children,
    the root last) with ``parent``s, as integers: with one centroid, the
    integer of its shape rooted there; with two, the sorted integers of the
    halves either side of the edge between them. A rooted shape is the
    sorted tuple of its children's integers, numbered in ``ids`` on first
    sight (Aho, Hopcroft and Ullman), which must hold the one-vertex shape
    () as 0. Two trees read with one ``ids`` share a form iff they are
    isomorphic.

    The centroid is found from the root by stepping into the child with
    more than n/2 vertices while there is one, carrying down the shape of
    the part left above; a second centroid is a child with n/2."""
    n = len(order)
    size, shape, heavy, half = [1] * n, [0] * n, [-1] * n, [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]  # the children's shapes
    for v in order[:-1]:
        if kids[v]:
            shape[v] = ids.setdefault(tuple(sorted(kids[v])), len(ids))
        u = parent[v]
        kids[u].append(shape[v])
        size[u] += size[v]
        if 2 * size[v] >= n:
            (heavy if 2 * size[v] > n else half)[u] = v
    c, above = order[-1], []

    def away(v: int, skip: int) -> int:
        """The shape of v's side away from its child ``skip`` (-1: none)."""
        rest = kids[v] + above
        if skip >= 0:
            rest.remove(shape[skip])
        return ids.setdefault(tuple(sorted(rest)), len(ids))

    while heavy[c] >= 0:
        c, above = heavy[c], [away(c, heavy[c])]
    if half[c] < 0:
        return (away(c, -1),)
    return tuple(sorted((away(c, half[c]), shape[half[c]])))


def free_tree_count(n: int) -> int:
    """Otter-recurrence count of free trees; independent of any generator."""
    n = _index(n, "n")
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
    """Brute-force oracle: canonical codes of all connected graphs via every
    edge subset. Exponential; intended for n <= 6."""
    n = _index(n, "n")
    if n < 1:
        raise OutOfSupportedRangeError("n >= 1")
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    codes = set()
    for mask in range(1 << len(all_pairs)):
        edges = [all_pairs[k] for k in range(len(all_pairs)) if (mask >> k) & 1]
        g = combinatorial_graph(n, edges)
        if g.is_connected():
            codes.add(canonical_code(g))
    return codes
