"""Extremal graph families and their closed-form spectral data.

Brooms Br(l,i,d), minimal brooms Br(l,n) / Br(l) with the values
Lambda(l,n) / Lambda(l), dumbbells, stars, regular combs, paths and
cycles. Br(l,n) is the one minimal-broom table: Br(l), of total length l,
is Br(l - n, n) with n = ceil(l) - 1, so its Dirichlet edge keeps a length
in (0, 1]. ``_arm`` reads which broom shape (i, d), if any, a branch of a
tree is, and a minimal broom is the one whose pair is in its solution's
``arms``; :func:`minimal_broom_halves` looks Br(l) up by the int 2 l, as
the clump layers hold lengths in halves. Closed-form values are exact
Fractions whenever the inputs are rational; numeric conformance against the
spectral module is exercised in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Rational, Real

import numpy as np

from .enumeration import _index
from .errors import InvalidParamsError
from .exact import QuadraticSurd, _fraction
from .graph import (
    Role,
    WeightedBoundaryGraph,
    combinatorial_graph,
    degree_roles,
    make_graph,
)
from .spectral import laplacian_spectrum, steklov_spectrum

Number = float | Fraction


def as_number(x) -> Number:
    """Exact Fraction in Python ints for rational-like inputs (int, a
    numpy integer, Fraction, 'p/q'); a
    :class:`QuadraticSurd` or any other ``numbers.Real`` (a float, or an
    ``mpmath.mpf``, which is never imported here) passes through, so the
    closed forms also evaluate in the caller's number type."""
    if isinstance(x, bool):
        raise InvalidParamsError("not a number")
    if isinstance(x, Rational):
        return _fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParamsError(f"cannot interpret {x!r} as a length") from exc
    if isinstance(x, (Real, QuadraticSurd)):
        return x
    raise InvalidParamsError(f"cannot interpret {x!r} as a length")


@dataclass(frozen=True)
class RootedTree:
    """A graph with a root, an integer in ``range(graph.n)`` (read as
    ``tree_code`` reads its root), else InvalidParamsError."""

    graph: WeightedBoundaryGraph
    root: int

    def __post_init__(self):
        root = _index(self.root, "root")
        if root not in range(self.graph.n):
            raise InvalidParamsError(f"root {root!r} is not a vertex of the graph")
        object.__setattr__(self, "root", root)


@dataclass(frozen=True)
class FamilyGraph:
    graph: WeightedBoundaryGraph
    landmarks: dict[str, int]
    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BroomParams:
    """Br(l,i,d): Dirichlet edge of length l, path of length i, d pendants."""

    l: Number
    i: int
    d: int

    def __post_init__(self):
        if not (self.l > 0) or self.i < 0 or self.d < 0:
            raise InvalidParamsError(f"bad broom parameters {self}")

    def normalized(self) -> "BroomParams":
        # Br(l,i,1) = Br(l,i+1,0) by definition.
        if self.d == 1:
            return BroomParams(self.l, self.i + 1, 0)
        return self


@dataclass(frozen=True)
class MinimalBroomSolution:
    value: Number
    brooms: tuple[BroomParams, ...]

    @cached_property
    def shapes(self) -> frozenset[BroomParams]:
        """The brooms normalized (d is never 1), as :func:`_arm` reads a
        branch's (i, d)."""
        return frozenset(p.normalized() for p in self.brooms)

    @cached_property
    def arms(self) -> frozenset[tuple[int, int]]:
        """The (i, d) pair of each of ``shapes``, as :func:`_arm` reads a
        branch: exact, since a solution's brooms share one root edge, which
        every caller's branch has (1 or 1/2 for Br(l) at a whole or half l,
        the Dirichlet l for Br(l, n))."""
        return frozenset((p.i, p.d) for p in self.shapes)


# -- brooms --------------------------------------------------------------------


def build_broom(l, i: int, d: int) -> FamilyGraph:
    """Path o - v0 - ... - v_i with edge {o,v0} of weight 1/l and d pendants on v_i.

    Vertex o is the Dirichlet root. d=1 is normalized to (i+1, 0) first.
    """
    p = BroomParams(as_number(l), _index(i, "i"), _index(d, "d")).normalized()
    l, i, d = p.l, p.i, p.d
    n = 1 + (i + 1) + d
    edges = [(0, 1, 1 / l)]
    edges += [(j, j + 1, 1) for j in range(1, i + 1)]
    edges += [(i + 1, i + 2 + j, 1) for j in range(d)]
    roles = [Role.DIRICHLET] + [Role.INTERIOR] * (i + 1) + [Role.BOUNDARY] * d
    if d == 0:
        roles[i + 1] = Role.BOUNDARY
    landmarks = {"o": 0}
    landmarks.update({f"v{j}": j + 1 for j in range(i + 1)})
    landmarks.update({f"u{j + 1}": i + 2 + j for j in range(d)})
    g = make_graph(n, edges, roles=roles)
    return FamilyGraph(g, landmarks, "broom", {"l": l, "i": i, "d": d})


def _arm(adj, root: int, attach: int) -> tuple[int, int] | None:
    """The shape (i, d) of the branch of the tree ``adj`` through the edge
    from ``root`` to ``attach``: a path of i edges from ``attach`` that ends
    in one leaf (d = 0) or in d >= 2 leaves, so d is never 1 and the shape
    is normalized; None when it is no broom. The caller vouches for the unit
    lengths."""
    parent, v, i = root, attach, 0
    while True:
        children = [u for u in adj[v] if u != parent]
        if len(children) != 1:
            break
        parent, v, i = v, children[0], i + 1
    if any(len(adj[u]) != 1 for u in children):
        return None
    return i, len(children)


def broom_lambda1(l, i: int, d: int) -> Number:
    p = BroomParams(as_number(l), i, d).normalized()
    if p.d == 0:
        return 1 / (p.l + p.i)
    return 1 / (1 + (p.l + p.i) * p.d)


def _halves(x: Number) -> int:
    """-1 / 0 / +1 as {x} is below / at / above one half."""
    twice = 2 * (x - math.floor(x))  # an mpf compares with ints, not Fractions
    return int(twice > 1) - int(twice < 1)


def minimal_broom(l, n: int) -> MinimalBroomSolution:
    """Minimizers of lambda_1 over brooms Br(l,i,d) with i+d = n. n is read
    as :func:`~steklov.enumeration._index` reads it: a bool or a
    non-integral type raises InvalidParamsError."""
    l, n = as_number(l), _index(n, "n")
    if not l > 0 or n < 0:
        raise InvalidParamsError("need l > 0 and n >= 0")
    if n <= 1:
        # every split yields the same path of total length l + n
        value = 1 / (l + n)
        return MinimalBroomSolution(value, (BroomParams(l, n, 0),))
    if l >= n:
        value = 1 / (1 + n * l)
        return MinimalBroomSolution(value, (BroomParams(l, 0, n),))
    x = (n - l) / 2
    side = _halves(x)
    if side < 0:
        splits = [math.floor(x)]
    elif side > 0:
        splits = [math.ceil(x)]
    else:
        splits = [math.floor(x), math.ceil(x)]
    brooms = tuple(BroomParams(l, i, n - i) for i in splits)
    i0 = splits[0]
    value = 1 / (1 + (l + i0) * (n - i0))
    return MinimalBroomSolution(value, brooms)


def minimal_broom_total(l) -> MinimalBroomSolution:
    """Br(l) and Lambda(l): minimal brooms of total length l, evaluated in
    the length's own number type. Br(l) = Br(l - n, n) with
    n = ceil(l) - 1, so the Dirichlet edge keeps a length in (0, 1]."""
    l = as_number(l)
    if not l > 0:
        raise InvalidParamsError("need l > 0")
    n = math.ceil(l) - 1
    return minimal_broom(l - n, n)


@lru_cache(maxsize=256)
def minimal_broom_halves(twice: int) -> MinimalBroomSolution:
    """:func:`minimal_broom_total` of the length ``twice`` / 2, memoised by int."""
    return minimal_broom_total(Fraction(twice, 2))


def lambda_value(l) -> Number:
    """Lambda(l) = lambda_1 of the minimal broom of total length l."""
    return minimal_broom_total(l).value


# -- dumbbells, stars, combs -----------------------------------------------------


def build_dumbbell(d0: int, i: int, d1: int) -> FamilyGraph:
    """Path of length i with d0 and d1 pendant edges on its two ends."""
    d0, i, d1 = _index(d0, "d0"), _index(i, "i"), _index(d1, "d1")
    if d0 < 0 or d1 < 0 or i < 1:
        raise InvalidParamsError("dumbbell needs d0, d1 >= 0 and i >= 1")
    n = i + 1 + d0 + d1
    edges = [(j, j + 1) for j in range(i)]
    edges += [(0, i + 1 + j) for j in range(d0)]
    edges += [(i, i + 1 + d0 + j) for j in range(d1)]
    g = combinatorial_graph(n, edges)
    landmarks = {f"p{j}": j for j in range(i + 1)}
    return FamilyGraph(g, landmarks, "dumbbell", {"d0": d0, "i": i, "d1": d1})


def build_star(arms: list[RootedTree]) -> FamilyGraph:
    """Wedge-sum of rooted trees on their roots; the identified root is the center."""
    if len(arms) < 2:
        raise InvalidParamsError("a star needs at least 2 arms")
    for arm in arms:
        if arm.graph.n < 2:
            raise InvalidParamsError("star arms must be nontrivial rooted trees")
        if not arm.graph.is_tree():
            raise InvalidParamsError("star arms must be trees")
    edges: list[tuple[int, int, object]] = []
    next_id = 1  # 0 is the center
    for arm in arms:
        index = {arm.root: 0}
        for v in range(arm.graph.n):
            if v != arm.root:
                index[v] = next_id
                next_id += 1
        edges += [(index[u], index[v], w) for u, v, w in arm.graph.edges]
    g = make_graph(next_id, edges, roles=degree_roles(next_id, edges))
    return FamilyGraph(g, {"center": 0}, "star", {"arms": len(arms)})


def rooted_path(length: int) -> RootedTree:
    """Path with ``length`` edges rooted at one end; the standard star arm / tooth."""
    length = _index(length, "length")
    if length < 1:
        raise InvalidParamsError("rooted path needs length >= 1")
    g = combinatorial_graph(length + 1, [(j, j + 1) for j in range(length)])
    return RootedTree(g, 0)


def build_star_paths(r: int, l: int) -> FamilyGraph:
    """St(r; l): r path arms of length l."""
    r, l = _index(r, "r"), _index(l, "l")
    fam = build_star([rooted_path(l) for _ in range(r)])
    return FamilyGraph(fam.graph, fam.landmarks, "star", {"r": r, "l": l})


def build_comb(base: WeightedBoundaryGraph, tooth: RootedTree) -> FamilyGraph:
    """Regular comb: one copy of the tooth glued at each base vertex by its root."""
    if not base.is_connected() or base.n < 1:
        raise InvalidParamsError("comb base must be a connected graph")
    if tooth.graph.n < 2 or not tooth.graph.is_tree():
        raise InvalidParamsError("comb tooth must be a nontrivial rooted tree")
    nb, nt = base.n, tooth.graph.n
    edges = [(u, v) for u, v, _ in base.edges]
    vertex_map: dict[tuple[int, int], int] = {}
    next_id = nb
    for x in range(nb):
        index = {tooth.root: x}
        for t in range(nt):
            if t != tooth.root:
                index[t] = next_id
                next_id += 1
        vertex_map.update({(x, t): index[t] for t in range(nt)})
        edges += [(index[u], index[v]) for u, v, _ in tooth.graph.edges]
    g = combinatorial_graph(nb * nt, edges)
    return FamilyGraph(
        g,
        {f"base{x}": x for x in range(nb)},
        "comb",
        {"base_n": nb, "tooth_n": nt, "vertex_map": vertex_map},
    )


def comb_tooth_with_dirichlet_edge(tooth: RootedTree, weight: float) -> WeightedBoundaryGraph:
    """T_i of the comb lemma: tooth plus a Dirichlet edge of the given weight at the root."""
    nt = tooth.graph.n
    edges = [(u + 1, v + 1, w) for u, v, w in tooth.graph.edges] + [
        (0, tooth.root + 1, weight)
    ]
    roles = (Role.DIRICHLET,) + degree_roles(nt + 1, edges)[1:]
    return make_graph(nt + 1, edges, roles=roles)


def comb_spectrum(base: WeightedBoundaryGraph, tooth: RootedTree):
    """First |V(base)| Steklov eigenvalues of Comb(base; tooth) with tensor eigenfunctions.

    sigma_1 = 0 and sigma_i = lambda_1(T_i) for 2 <= i <= |V(base)|, where
    T_i carries a Dirichlet edge of weight mu_i(base) at the tooth root.
    Returns (values, functions) with functions[:, i] on the comb vertices.
    """
    fam = build_comb(base, tooth)
    comb = fam.graph
    vmap = fam.params["vertex_map"]
    mus = laplacian_spectrum(base)
    nb = base.n
    values = np.zeros(nb)
    functions = np.zeros((comb.n, nb))
    functions[:, 0] = 1.0
    for i in range(2, nb + 1):
        mu = mus.eigenvalue(i)
        t_i = comb_tooth_with_dirichlet_edge(tooth, mu)
        spec = steklov_spectrum(t_i)
        lam, f = spec.eigenpair(1)
        values[i - 1] = lam
        g_vec = mus.extensions[:, i - 1]
        for x in range(nb):
            for t in range(tooth.graph.n):
                functions[vmap[(x, t)], i - 1] = g_vec[x] * f[t + 1]
    return values, functions


# -- paths and cycles --------------------------------------------------------------


def build_path(n: int) -> FamilyGraph:
    n = _index(n, "n")
    if n < 2:
        raise InvalidParamsError("path needs n >= 2")
    g = combinatorial_graph(n, [(j, j + 1) for j in range(n - 1)])
    return FamilyGraph(g, {"end0": 0, "end1": n - 1}, "path", {"n": n})


def build_cycle(n: int) -> FamilyGraph:
    n = _index(n, "n")
    if n < 3:
        raise InvalidParamsError("cycle needs n >= 3")
    g = combinatorial_graph(n, [(j, (j + 1) % n) for j in range(n)])
    return FamilyGraph(g, {}, "cycle", {"n": n})
