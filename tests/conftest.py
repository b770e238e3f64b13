import heapq
import itertools
import math
import os
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from pathlib import Path

import numpy as np
import pytest

from steklov.enumeration import (
    _index,
    canonical_code,
    graph_edges,
    graph_from_code,
    tree_code,
    tree_edges,
    tree_from_code,
    unit_tree_code,
)
from steklov.errors import OutOfSupportedRangeError
from steklov.families import BroomParams, _arm, build_broom, minimal_broom_total
from steklov.graph import (
    Role,
    adjacency_sets,
    combinatorial_boundary,
    combinatorial_graph,
    make_graph,
    subtree_sizes,
)

# child processes import this checkout's package, as the suite does
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p)


def structurally_equal(a, b):
    """Equality up to numeric type of weights/measures (Fraction 1 == float 1.0)."""
    return (
        a.n == b.n
        and a.roles == b.roles
        and len(a.edges) == len(b.edges)
        and all(
            ea[:2] == eb[:2] and float(ea[2]) == float(eb[2])
            for ea, eb in zip(a.edges, b.edges)
        )
        and all(float(x) == float(y) for x, y in zip(a.measures, b.measures))
    )


def two_step_graph(n, edges):
    """Oracle for the builders that give a graph its degree-based roles in
    one construction: the graph with all-interior roles, then the roles
    read from its adjacency and set by ``with_roles``."""
    g = make_graph(n, edges)
    return g.with_roles(
        [Role.BOUNDARY if len(g.adjacency[v]) <= 1 else Role.INTERIOR for v in range(n)])


def counting_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the first argument
    of each call; returns the list it records into."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def stacked(edge_lists):
    """The (owner, ends) arrays of ``edge_lists``, graph j owning its edges."""
    owner = np.repeat(np.arange(len(edge_lists)), [len(e) for e in edge_lists])
    ends = np.array([pair for edges in edge_lists for pair in edges], np.intp).reshape(-1, 2)
    return owner, ends


def code_decoders(code):
    """The fast parser and the decoder of a stored code: the tree ones for
    a tree code, the graph ones for a graph code."""
    if code.startswith("("):
        return tree_edges, tree_from_code
    return graph_edges, graph_from_code


def path_graph(n):
    return combinatorial_graph(n, [(i, i + 1) for i in range(n - 1)])


def mu_max_path(n):
    """Largest Laplacian eigenvalue of the unit path P_n, 4 cos^2(pi/2n)."""
    return 4.0 * math.cos(math.pi / (2 * n)) ** 2


def clump_rooted_tree(g, point, clump):
    """Oracle for broom matching: a clump as a rooted metric tree whose
    root is the evaluation point. The edge from the root to the attach
    vertex keeps its metric length (1 from a vertex point, 1/2 from a
    midpoint), encoded as weight 1/length. Returns (tree, root)."""
    verts = list(clump.vertices)
    index = {x: k + 1 for k, x in enumerate(verts)}
    first_len = Fraction(1) if point.is_vertex else Fraction(1, 2)
    edges = [(0, index[clump.attach], Fraction(1) / first_len)]
    vset = set(verts)
    edges += [(index[u], index[v], w) for u, v, w in g.edges if u in vset and v in vset]
    return make_graph(len(verts) + 1, edges), 0


def centre_by_scan(g):
    """Oracle for ``geometry._centre``: the equilibrium point of a unit tree
    found by scanning every vertex and every edge midpoint for its largest
    clump, each branch counted by its own walk of the tree less the point.
    Returns the point's vertex or edge ends, twice its clump number, and
    its branches of the most vertices as (root, attach) pairs by attach."""
    adj = g.adjacency

    def side(v, b):  # the vertices reachable from b without passing v
        seen, stack = {v, b}, [b]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) - 1

    points = []  # (twice the largest clump, ends, branches as (root, attach, vertices))
    for v in range(g.n):
        branches = [(v, b, side(v, b)) for b in sorted(adj[v])]
        points.append((2 * max((s for *_, s in branches), default=0), [v], branches))
    for u, v, _ in g.edges:
        branches = [(v, u, side(v, u)), (u, v, side(u, v))]
        points.append((max(2 * s - 1 for *_, s in branches), [u, v], branches))
    twice, ends, branches = min(points, key=lambda p: p[0])
    assert [p[0] for p in points].count(twice) == 1, g.edges  # the point is unique
    most = max((s for *_, s in branches), default=0)
    return ends, twice, [(r, a) for r, a, s in branches if s == most]


def broom_shape(adj, root, attach, first):
    """The broom that the branch through the edge from ``root`` to ``attach``
    is, read by ``families._arm``, with root edge ``first``; None when it is
    no broom."""
    arm = _arm(adj, root, attach)
    return None if arm is None else BroomParams(first, *arm)


@lru_cache(maxsize=None)
def broom_codes(l):
    """Oracle for broom matching: rooted codes, at the Dirichlet end, of
    the minimal brooms of total length l (a rational; a float would code
    its lengths as "1.0")."""
    fams = [build_broom(p.l, p.i, p.d) for p in minimal_broom_total(l).brooms]
    return frozenset(tree_code(f.graph, root=f.landmarks["o"]) for f in fams)


def is_isomorphic(g1, g2):
    """Whether two graphs have the same canonical code."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    return canonical_code(g1) == canonical_code(g2)


def _brute_force_wl_colors(adj):
    """Colour refinement from all-zero colours until a round changes none."""
    n = len(adj)
    color = [0] * n
    while True:
        sig = [(color[v], tuple(sorted(color[u] for u in adj[v]))) for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        fresh = [order[s] for s in sig]
        if fresh == color:
            return color
        color = fresh


def brute_force_graph_code(adj):
    """Oracle for graph_code on neighbour sets ``adj``: the least adjacency
    bits over every permutation of every WL cell, cells in colour order."""
    n = len(adj)
    colors = _brute_force_wl_colors(adj)
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    ordered_cells = [cells[c] for c in sorted(cells)]
    masks = [sum(1 << u for u in adj[v]) for v in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(cell) for cell in ordered_cells)
    ):
        p = [v for part in perm_parts for v in part]
        bits = 0
        for i, j in pairs:
            bits = (bits << 1) | ((masks[p[i]] >> p[j]) & 1)
        if best is None or bits < best:
            best = bits
    return f"g{n}:{best:0{max(1, n * (n - 1) // 2)}b}" if n > 1 else "g1:0"


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


def _surd_sign(x, y, d):
    """Sign of the real number x + y sqrt(d), for integers x and y and an
    integer d >= 0 that is no square unless y is 0."""
    if x >= 0 and y >= 0 or x <= 0 and y <= 0:
        return (x > 0 or y > 0) - (x < 0 or y < 0)
    return (1 if x > 0 else -1) if x * x > d * y * y else (1 if y > 0 else -1)


def jacobs_trevisan_counts(adj, b):
    """Oracle for the tree walk of ``steklov.exact.inertia_counts``: the
    counts (#{sigma_j < b}, #{sigma_j = b}) on the tree with neighbour sets
    ``adj``, by Jacobs-Trevisan on L - b E_B, walked from the leaves of a
    breadth-first order from vertex 0. ``b`` is a rational or a surd with
    rational parts ``b.p + b.q sqrt(b.d)``; every value is an integer triple
    (x, y, z) for (x + y sqrt(d)) / z with z > 0, kept in lowest terms.
    Each vertex's value is its diagonal entry less 1 / value over its
    children; when a child's value is 0, that child is set positive, the
    vertex negative, and the vertex's edge to its parent is cut."""
    if isinstance(b, Rational):
        bx, by, bz, d = b.numerator, 0, b.denominator, 0
    else:
        bz = math.lcm(b.p.denominator, b.q.denominator)
        bx, by, d = int(b.p * bz), int(b.q * bz), b.d
    order, parent, _ = subtree_sizes(adj)
    assert len(order) == len(adj), "not connected"
    value = [None] * len(adj)
    cut = [False] * len(adj)
    for v in reversed(order):
        leaf = len(adj[v]) <= 1
        x, y, z = len(adj[v]) * bz - (bx if leaf else 0), -by if leaf else 0, bz
        for c in adj[v]:
            if c == parent[v] or cut[c]:
                continue
            cx, cy, cz = value[c]
            if cx == 0 and cy == 0:
                value[c], cut[v] = (1, 0, 1), True
                x, y, z = -1, 0, 1
                break
            norm = cx * cx - d * cy * cy  # 1/c = cz (cx - cy sqrt(d)) / norm
            ix, iy, iz = (cz * cx, -cz * cy, norm) if norm > 0 else (-cz * cx, cz * cy, -norm)
            x, y, z = x * iz - ix * z, y * iz - iy * z, z * iz
            common = math.gcd(x, y, z)
            x, y, z = x // common, y // common, z // common
        value[v] = (x, y, z)
    signs = [_surd_sign(x, y, d) for x, y, _ in value]
    return signs.count(-1), signs.count(0)


def fraction_ldlt_counts(adj, b):
    """Oracle for ``steklov.exact.dense_inertia_counts``: the counts
    (#{sigma_j < b}, #{sigma_j = b}) on the connected graph with neighbour
    sets ``adj``, by a ``Fraction`` LDL^T of L - b E_B with 1x1 pivots in
    vertex order, and a 2x2 pivot [[0, x], [x, 0]] (one negative and one
    positive eigenvalue) when every remaining diagonal entry is 0. ``b`` is
    a rational or a ``QuadraticSurd``, whose arithmetic is exact."""
    n = len(adj)
    edge, zero = Fraction(-1), Fraction(0)
    a = [[edge if c in adj[r] else zero for c in range(n)] for r in range(n)]
    for v in range(n):
        a[v][v] = Fraction(len(adj[v])) - (b if len(adj[v]) <= 1 else 0)
    rest, pivots = list(range(n)), []
    while rest:
        k = next((k for k in rest if a[k][k] != 0), None)
        if k is not None:
            rest.remove(k)
            pivot = a[k][k]
            pivots.append(pivot)
            row = [(c, a[k][c]) for c in rest if a[k][c] != 0]
            for r, f in row:
                f /= pivot
                for c, x in row:
                    a[r][c] -= f * x
            continue
        pair = next(((j, k) for j in rest for k in rest if j < k and a[j][k] != 0), None)
        if pair is None:  # the rest is zero
            pivots += [0] * len(rest)
            break
        j, k = pair
        x = a[j][k]
        rest.remove(j)
        rest.remove(k)
        pivots += [-1, 1]
        for r in rest:
            for c in rest:
                a[r][c] -= (a[r][j] * a[k][c] + a[r][k] * a[j][c]) / x
    return sum(1 for x in pivots if x < 0), pivots.count(0)


def union_find_components(edges, verts):
    """Oracle: components of the subgraph induced on ``verts`` by union-find,
    each sorted, listed by least vertex."""
    root = {v: v for v in verts}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        if u in root and v in root:
            root[find(u)] = find(v)
    groups = {}
    for v in sorted(verts):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def random_tree_edges(rng, n):
    """Random labeled tree: attach vertex k to a uniform earlier vertex."""
    return [(int(rng.integers(0, k)), k) for k in range(1, n)]


def random_weighted_graph(rng, n_max=9, ensure_interior=False):
    """Connected weighted graph with random measures and a random boundary."""
    n = int(rng.integers(2, n_max + 1))
    edges = random_tree_edges(rng, n)
    extra = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in set(edges)
    ]
    rng.shuffle(extra)
    edges = edges + extra[: int(rng.integers(0, len(extra) + 1))]
    measures = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
    hi = n if ensure_interior else n + 1
    bsize = int(rng.integers(1, max(2, hi)))
    bset = set(rng.choice(n, size=bsize, replace=False).tolist())
    roles = [Role.BOUNDARY if v in bset else Role.INTERIOR for v in range(n)]
    return make_graph(
        n,
        [(u, v, float(rng.uniform(0.2, 3.0))) for u, v in edges],
        measures=measures,
        roles=roles,
    )


def random_unit_tree(rng, n):
    g = combinatorial_graph(n, random_tree_edges(rng, n))
    return g.with_roles(combinatorial_boundary(g))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session", autouse=True)
def _isolated_enumeration_cache(tmp_path_factory):
    """Keep generated class caches out of the working directory."""
    import os

    os.environ["STEKLOV_CACHE_DIR"] = str(tmp_path_factory.mktemp("class-cache"))
    yield
