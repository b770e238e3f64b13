"""Exhaustive enumeration up to isomorphism and canonical codes.

Two code flavors: a recursive sorted-subtree code for (rooted or free)
trees, each edge annotated with its metric length 1/w (every edge of a
class member reads "1"); and a minimal-adjacency code for general simple
graphs over the vertex orders that respect the Weisfeiler-Lehman colour
cells, found by a row-by-row search that keeps only the least rows
(individualisation and refinement, McKay-Piperno 2014). Both codes are
decodable strings, and each class member is stored (on disk too) under its
:func:`canonical_code`: the tree code of a tree, else its graph code. A
class object parses its codes once into one store, every member's edge
ends in one flat ``bytes`` row by row, which edge lists, iteration and the
exact counts read. It also holds its screen, the float spectra of every
member, and its leaf table, the exact counts of every member at b = 1,
each built on first read from one numpy view of the store, not kept.

Both classes are built from smaller pieces: free trees from the rooted
branches at their centroids (Otter), connected graphs by joining a vertex to
a smaller connected graph, coding only the joins whose new vertex could be
the canonical one to delete (McKay 1998). A class file is checked against a
count that no generator gives: the Otter recurrence for trees, OEIS A001349
for connected graphs.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
from array import array
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
    order, parent, _ = subtree_sizes(adj, root)
    parts: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order):  # children first: no recursion, no depth limit
        code = "(" + "".join(sorted(parts[v])) + ")"
        if v != root:
            parts[parent[v]].append(label(parent[v], v) + code)
    return code


def _unit_length(v: int, u: int) -> str:
    return "1"


def tree_code(g: WeightedBoundaryGraph, root: int | None = None) -> str:
    """Canonical code of a (metric) tree; rooted when ``root`` is given,
    which must be an integer in range(g.n), else InvalidParamsError."""
    if not g.is_tree():
        raise NotATreeError("tree codes need a tree")
    adj = g.adjacency

    def label(v: int, u: int) -> str:
        return _edge_length_str(adj[v][u])

    roots = centroids(*g.walk) if root is None else [_index(root, "root")]
    if roots[0] not in range(g.n):
        raise InvalidParamsError(f"root {root!r} is not a vertex of the graph")
    return min(_rooted_code(adj, r, label) for r in roots)


def _plant(forest) -> str:
    """Rooted unit code of a root joined by unit edges to the roots of
    ``forest``, as :func:`tree_code` builds it."""
    return "(" + "".join(sorted(["1" + code for code in forest])) + ")"


def unit_tree_code(adj) -> str:
    """``tree_code`` of a unit-weight tree given by neighbour lists or
    sets; builds no graph and no ``Fraction`` (every edge length is "1")."""
    return min(_rooted_code(adj, c, _unit_length) for c in centroids(*subtree_sizes(adj)))


def _tree_grammar(code: str) -> tuple[list[int], list[str]]:
    """Parents and edge-length strings of a tree code: "(", then each child
    as the length of the edge to it and its own code, then ")". Vertices
    are numbered in preorder: each one's parent is the top of the stack
    when it opens, and the root, vertex 0, is its own parent. The lengths
    are listed by child, from vertex 1 on."""
    parent: list[int] = []
    lengths: list[str] = []
    stack: list[int] = []
    start = 0  # where the text since the last bracket begins
    for pos, ch in enumerate(code):
        if ch == "(":
            if stack:
                up = stack[-1]
                lengths.append(code[start:pos])
            elif pos:
                where = "trailing" if parent else "leading"
                raise ParseError(f"{where} characters in tree code {code!r}")
            else:
                up = 0  # the root
            stack.append(len(parent))
            parent.append(up)
            start = pos + 1
        elif ch == ")":
            if not stack or start != pos:
                raise ParseError(f"malformed tree code at {pos}: {code!r}")
            stack.pop()
            start = pos + 1
    if stack or not parent or start != len(code):
        raise ParseError(f"malformed tree code: {code!r}")
    return parent, lengths


def _parent_edges(parent) -> list[tuple[int, int]]:
    """The edges (parent, child) of a preorder parent array, by child."""
    return [(parent[v], v) for v in range(1, len(parent))]


def _unit_tree(code: str) -> list[int]:
    """Parents of a unit-length tree code; codes with any other edge length
    are rejected."""
    parent, lengths = _tree_grammar(code)
    if lengths.count("1") != len(lengths):
        raise ParseError(f"not a unit tree code: {code!r}")
    return parent


def tree_edges(code: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a unit-length tree code, numbered as
    :func:`tree_from_code` numbers them (preorder), each edge from parent
    to child. Codes with any other edge length are rejected."""
    parent = _unit_tree(code)
    return len(parent), _parent_edges(parent)


def tree_from_code(code: str) -> WeightedBoundaryGraph:
    """Rebuild a combinatorial tree from its code (weights = 1/length)."""
    parent, lengths = _tree_grammar(code)
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
    """Vertex count and edges of a general graph code, spelled exactly as
    :func:`_adjacency_code` writes it ("g1:0" for n = 1)."""
    if code == "g1:0":
        return 1, []
    head, _, bits = code.partition(":")
    try:
        n = int(head[1:])
    except ValueError:
        n = 0
    if head != f"g{n}" or n < 2 or len(bits) != n * (n - 1) // 2 or set(bits) - {"0", "1"}:
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
        if _is_class(kind, n, stream.codes):
            stream.store  # the parse, which raises on a bad code
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
    except OSError:  # cache is best-effort, and so is its clean-up
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


@dataclass(frozen=True, eq=False, repr=False)
class GraphClassStream:
    """One isomorphism class, held once per class file: its members'
    :func:`canonical_code` strings, sorted, as ``codes``, and the one store
    of their parse, ``store``, filled once: when the class is read from its
    file (the parse is part of the file's check), else on first read. Its
    rows, the edge lists, the fresh graphs of every iteration, the screen
    ``spectra`` and the exact ``leaf_table`` at b = 1 are read from that
    store; the last two are held with the object, read-only."""

    kind: str
    n: int
    codes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def store(self) -> tuple[bytes, array]:
        """Every member's edge ends (u, v, u, v, ...) in one flat ``bytes``,
        and the offsets where each member's row starts, then where the last
        ends (:meth:`rows`), as an ``array("I")``. A tree-coded member (a
        code that opens with "(", as every code of a tree class must) has
        the pairs of :func:`tree_edges`, so its row's even bytes are the
        parents of vertices 1..n-1, any other member those of
        :func:`graph_edges`. A row has n - 1 edges iff its code is a tree
        code: while a code is bad, not on n vertices or a graph code of
        fewer than n edges, every read raises ParseError."""
        ends, starts = bytearray(), array("I", [0])
        for code in self.codes:
            tree = self.kind == "trees" or code.startswith("(")
            size, edges = (tree_edges if tree else graph_edges)(code)
            if size != self.n:
                raise ParseError(f"class code {code!r} is not on {self.n} vertices")
            if not tree and len(edges) < size:
                raise ParseError(f"graph code {code!r} has fewer than {size} edges")
            ends.extend(itertools.chain.from_iterable(edges))
            starts.append(len(ends))
        return bytes(ends), starts

    def rows(self, indices) -> list[bytes]:
        """The edge ends (u, v, u, v, ...) of the members at ``indices``,
        each its row of :attr:`store`."""
        ends, starts = self.store
        return [ends[starts[j]:starts[j + 1]] for j in indices]

    def _edge_arrays(self):
        """The stacked edge arrays (``owner``, ``ends``) of
        :func:`~steklov.spectral.stacked_steklov_spectra`, built afresh from
        the store for :attr:`spectra` and :attr:`leaf_table`, so neither
        keeps them: one ``np.frombuffer`` view of its bytes and one
        ``np.repeat`` of each member's index over its edges."""
        import numpy as np

        ends, starts = self.store
        owner = np.repeat(np.arange(len(self)), np.diff(starts) // 2)
        return owner, np.frombuffer(ends, np.uint8).reshape(-1, 2)

    @cached_property
    def spectra(self):
        """The screen: the read-only
        :func:`~steklov.spectral.stacked_steklov_spectra` matrix of the
        arrays of :meth:`_edge_arrays`, one row per stored code, built from
        the store on first read (so enumerating alone loads no numpy) and
        freed with the object. While a code is bad, every read raises
        ParseError."""
        from .spectral import stacked_steklov_spectra

        spectra = stacked_steklov_spectra(self.n, len(self), *self._edge_arrays())
        spectra.flags.writeable = False
        return spectra

    @cached_property
    def leaf_table(self):
        """The exact counts at b = 1: the read-only
        :func:`~steklov.exact.leaf_table` of the class, one row (s, L) per
        stored code, for s support vertices and L leaves, built from the
        arrays of :meth:`_edge_arrays` on first read and freed with the
        object, as :attr:`spectra` is. Refused (InvalidParamsError) for
        n < 3, where the leaf rule is false."""
        from .exact import leaf_table

        table = leaf_table(self.n, *self._edge_arrays())
        table.flags.writeable = False
        return table

    def edge_lists(self) -> list[list[tuple[int, int]]]:
        """Each member's :meth:`rows` entry as (u, v) pairs, derived afresh:
        those of :func:`tree_edges` or :func:`graph_edges` on its code."""
        return [list(zip(row[0::2], row[1::2])) for row in self.rows(range(len(self)))]

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


def _automorphisms(adj, colors) -> list[list[int]]:
    """Every automorphism of the graph with neighbour sets ``adj``, each as
    the list of vertex images, found by backtracking: vertex v is mapped,
    in order, to an unused vertex of its own WL colour (``colors``) whose
    adjacency to the images of 0..v-1 is v's own."""
    n = len(adj)
    found: list[list[int]] = []
    image: list[int] = []

    def extend(v: int) -> None:
        if v == n:
            found.append(image.copy())
            return
        for w in range(n):
            if (colors[w] == colors[v] and w not in image
                    and all((u in adj[v]) == (image[u] in adj[w]) for u in range(v))):
                image.append(w)
                extend(v + 1)
                image.pop()

    extend(0)
    return found


def _connected_class(n: int) -> set[str]:
    """Codes of the connected graphs on n vertices: removing a vertex that
    is no cut vertex leaves a connected graph on n - 1, so join a new
    vertex to each nonempty subset of every smaller class member.

    The new vertex is no cut vertex. Joins to subsets in one orbit of the
    base's automorphisms are isomorphic, so only the least subset of each
    orbit is joined. A join is coded only when no non-cut vertex has a
    larger WL colour than the new vertex (a larger degree, the cheaper
    test, is checked first): colours are isomorphism invariants and refine
    the degree order, so every class is still reached by deleting its
    highest-colour non-cut vertex, and these tests give every subset of an
    orbit one answer. A join is a tree when a tree base gains one edge, and
    is coded as one (:func:`canonical_code`). The set drops the repeats
    left: joins to two bases that are each a highest-colour deletion."""
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
        autos = _automorphisms(base, _wl_colors(base))[1:]  # the identity is first
        seen: set[int] = set()
        for new in range(1, 1 << m):
            if new in seen:
                continue
            if autos:  # mark the rest of new's orbit, whose subsets are all larger
                bits = [v for v in range(m) if (new >> v) & 1]
                seen.update(sum(1 << a[v] for v in bits) for a in autos)
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


_class_files: dict[tuple[str, int, str], str] = {}  # (kind, n, raw) -> file, raw absolute or ""


def _class(kind: str, n: int) -> GraphClassStream:
    """The one object of a class on a checked n, memoised per class file
    under STEKLOV_CACHE_DIR (default ``.steklov-cache``; empty turns the
    cache off), so a change of it or of the working directory is honoured.
    An absolute or empty directory is resolved by one lookup keyed on the
    variable's string, after the first call has checked an int n; only a
    relative one asks for the working directory, on every call."""
    raw = os.environ.get("STEKLOV_CACHE_DIR", ".steklov-cache")
    file = _class_files.get((kind, n, raw)) if type(n) is int else None
    if file is None:
        n, top = _index(n, "n"), MAX_TREE_N if kind == "trees" else MAX_GRAPH_N
        if not 1 <= n <= top:
            name = "tree" if kind == "trees" else "connected-graph"
            raise OutOfSupportedRangeError(f"{name} enumeration supports 1 <= n <= {top}")
        cwd = os.getcwd() if raw and not os.path.isabs(raw) else ""
        file = _class_file(kind, n, raw, cwd)
        if not cwd:
            _class_files[kind, n, raw] = file
    return _load_class(kind, n, file)


@lru_cache(maxsize=None)
def _class_file(kind: str, n: int, raw: str, cwd: str) -> str:
    """The absolute path of a class file under the cache directory ``raw``
    as given, resolved against ``cwd`` when it is relative ("" for no
    cache), memoised on both."""
    if not raw:
        return ""
    return os.path.join(os.path.normpath(os.path.join(cwd, raw)),
                        f"{kind}-n{n}-{GENERATOR_VERSION}.txt")


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
    does not. An exact ``int`` is returned at once; any other value (a
    numpy integer, say) takes the ``numbers.Integral`` check."""
    if type(value) is int:
        return value
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


def free_tree_count(n: int) -> int:
    """Otter-recurrence count of free trees; independent of any generator.
    Counted once per process per n: n is checked first (a bool or a
    non-integral type raises InvalidParamsError), and a call that raises
    stores nothing."""
    n = _index(n, "n")
    if n < 1:
        raise OutOfSupportedRangeError("n >= 1")
    return _free_tree_count(n)


@lru_cache(maxsize=None)
def _free_tree_count(n: int) -> int:
    """:func:`free_tree_count` of a checked n. The rooted counts follow
    r(m) = sum_{j<m} c(j) r(m - j) / (m - 1), with each divisor sum
    c(j) = sum_{d | j} d r(d) taken once."""
    r, c = [0, 1], [0]  # rooted tree counts and divisor sums, 1-indexed
    for m in range(2, n + 1):
        c.append(sum(d * r[d] for d in range(1, m) if (m - 1) % d == 0))
        r.append(sum(c[j] * r[m - j] for j in range(1, m)) // (m - 1))
    pair = sum(r[i] * r[n - i] for i in range(1, n))
    middle = r[n // 2] if n % 2 == 0 else 0
    two_t = 2 * r[n] - pair + middle
    assert two_t % 2 == 0
    return two_t // 2
