import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from steklov.enumeration import canonical_code, tree_code
from steklov.families import build_broom, minimal_broom_total
from steklov.graph import Role, combinatorial_boundary, combinatorial_graph, make_graph


def path_graph(n):
    return combinatorial_graph(n, [(i, i + 1) for i in range(n - 1)])


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
