"""Theorem-level verification: predicted extremal bounds, exhaustive
minimization sweeps with rigidity matching, monotonicity and equality
conditions, and the remaining statement-level checks (positivity, nodal,
first-eigenvalue bounds, clump bounds, bipartite identities).

Predicted bounds follow the three-case main result for the i-th Steklov
eigenvalue over n-vertex graphs: i = 2 (dumbbells), i not dividing n
(broom-armed stars), i dividing n (regular combs with correction
theta_i = 1/(4 cos^2(pi/2i))). Every bound b is exact: a Fraction, or a
:class:`QuadraticSurd` p + q sqrt(d) for i = 4, 5, 6 dividing n; a pair
with i >= 7 dividing n has no exact theta_i and is refused. A target's
float and string are rendered from b: str(b), or b correctly rounded to 40
significant digits for a surd. Each (n, i, class) target, minimizer graphs
and codes included, is built once per process and shared by every caller.

Exhaustive sweeps screen a whole class with batched float spectra. The
screen does not depend on i: it is the class object's own
:attr:`~steklov.enumeration.GraphClassStream.spectra`, built from one
numpy view of its one store, the members' flat edge ends, and held with it
for every i. Rows are the stored codes, which are canonical and sorted.
Whether the bound b is 1 (every pair with i > n/2) is decided once per
:func:`verify_extremal` call. At b = 1 no screen is read: every member's
sigma_i is exactly 1 when it has at least i leaves and missing otherwise,
read off the class object's own
:attr:`~steklov.enumeration.GraphClassStream.leaf_table` (s support
vertices and L leaves per member, counts (s, L - s) at b = 1), held with
it as the screen is, by one numpy comparison over its rows. At any other
b the classes that screen within SCREEN_MARGIN of b are decided exactly,
by the counts #{sigma_j < b} and #{sigma_j = b} of their stored members,
counted afresh on every call, all in one
:func:`~steklov.exact.member_counts` call on the candidates' rows of the
store: a row of n - 1 edges, a tree's, by the walk of its parents, any
other row by a fraction-free elimination of its edges, interior
vertices first. No class is solved again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .enumeration import (
    _edge_length_str,
    _index,
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    unit_tree_code,
)
from .errors import (
    DisconnectedError,
    HypothesesNotMetError,
    InvalidParamsError,
    NoBoundaryError,
    NotASubgraphError,
    NotBipartiteError,
    OutOfSupportedRangeError,
)
from .exact import QuadraticSurd, member_counts
from .families import (
    RootedTree,
    _arm,
    build_broom,
    build_comb,
    build_cycle,
    build_dumbbell,
    build_path,
    build_star,
    minimal_broom,
    minimal_broom_halves,
    minimal_broom_total,
    rooted_path,
)
from . import geometry
from .geometry import (
    DEFAULT_ZERO_TOL,
    _broom_branches,
    _centre,
    require_tree,
    require_unit_tree,
)
from .graph import (
    Role,
    WeightedBoundaryGraph,
    combinatorial_boundary,
    make_graph,
    subtree_sizes,
)
from .spectral import (
    SpectralResult,
    laplacian_matrix,
    laplacian_spectrum,
    steklov_spectrum,
)

# The float verdicts of the per-graph checks: two values agree, and a value
# is nonzero, within VERDICT_TOL (relative wherever a scale is at hand).
VERDICT_TOL = 1e-9
# How far above float(b), or a sweep's minimum, a class is still a candidate:
# over the 118 pairs that certify the screen errs by at most 2.7e-15 at a class
# attaining b, and the nearest other class lies 1.3e-3 above b (6.2e-4 at
# trees n = 18), so no minimizer is missed and no other class merged.
SCREEN_MARGIN = 1e-9
GRAPH_CLASSES = ("trees", "connected")
MAX_SWEEP_TREE_N = 16
# An attribute only: bench/layers.py wraps ``clump_number`` here by name
# (tests/test_bench_hooks.py), but the clump bound reads ``_centre``, so the
# wrapper records nothing until the hook moves there (ROADMAP item 8).
clump_number = geometry.clump_number
# theta_i = 1/(2 + 2 cos(pi/i)), exact where cos(pi/i) is rational or quadratic
THETA = {
    2: Fraction(1, 2),
    3: Fraction(1, 3),
    4: QuadraticSurd(1, Fraction(-1, 2), 2),  # (2 - sqrt 2) / 2
    5: QuadraticSurd(Fraction(1, 2), Fraction(-1, 10), 5),  # (5 - sqrt 5) / 10
    6: QuadraticSurd(2, -1, 3),  # 2 - sqrt 3
}


# -- predicted bounds -------------------------------------------------------------


def theta_value(i: int) -> Fraction | QuadraticSurd:
    """theta_i = 1/(4 cos^2(pi/2i)), exactly: a Fraction for i <= 3 and a
    :class:`QuadraticSurd` for i = 4, 5, 6. cos(pi/i) is cubic or worse for
    i >= 7, which raises OutOfSupportedRangeError."""
    if i < 2:
        raise InvalidParamsError("need i >= 2")
    if i not in THETA:
        raise OutOfSupportedRangeError(f"no exact bound for i = {i} dividing n")
    return THETA[i]


def _bound_str(b: Fraction | QuadraticSurd) -> str:
    """str(b) for a Fraction; a surd bound, 0 < b < 0.9, correctly rounded to
    40 significant digits without trailing zeros (as mpmath's ``nstr``)."""
    if isinstance(b, Fraction):
        return str(b)
    k = 41 - math.floor(math.log10(b))  # x gets 41 to 43 digits
    x = math.floor(b * 10**k)
    s = len(str(x)) - 40  # x rounds off its last s digits as b * 10**k does
    rounded = (x + 5 * 10 ** (s - 1)) // 10**s * 10**s
    return "0." + str(rounded).rjust(k, "0").rstrip("0")


@dataclass(frozen=True)
class MinimizerDescriptor:
    family: str
    params: MappingProxyType  # read-only
    graph: WeightedBoundaryGraph
    code: str | None  # None for a non-tree too large for a general code


@dataclass(frozen=True)
class ExtremalTarget:
    n: int
    i: int
    case: str  # "sigma2" | "i_not_dividing" | "i_dividing"
    bound: float
    bound_exact: Fraction | QuadraticSurd
    bound_str: str  # exact rational, or correctly rounded 40-digit decimal
    theta: Fraction | QuadraticSurd | None  # None unless i divides n
    characterized: bool  # predicted minimizers are the complete equality set
    minimizers: tuple[MinimizerDescriptor, ...]  # by code, those with none last
    predicted_codes: tuple[str, ...]  # the minimizers' codes, sorted; None left out


def _class_members(candidates, graph_class: str) -> tuple[MinimizerDescriptor, ...]:
    """Descriptors of the (family, params, graph) candidates that belong to
    the class: one per canonical code, by code, then each non-tree too
    large for a general code (``code`` None), in candidate order."""
    member = (
        WeightedBoundaryGraph.is_tree if graph_class == "trees"
        else WeightedBoundaryGraph.is_connected
    )
    seen, uncoded = {}, []
    for family, params, g in candidates:
        if member(g):
            try:
                code = canonical_code(g)
            except OutOfSupportedRangeError:
                code = None
            d = MinimizerDescriptor(family, MappingProxyType(params), g, code)
            if code is None:
                uncoded.append(d)
            else:
                seen.setdefault(code, d)
    return tuple(seen[c] for c in sorted(seen)) + tuple(uncoded)


def _sigma2_minimizers(n: int) -> list:
    m, s = divmod(n - 1, 4)
    table = {
        0: [(m, 2 * m, m)],  # n = 4m+1
        1: [(m, 2 * m + 1, m)],  # n = 4m+2
        2: [(m + 1, 2 * m, m + 1), (m, 2 * m + 2, m), (m, 2 * m + 1, m + 1)],
        3: [(m + 1, 2 * m + 1, m + 1)],  # n = 4m+4
    }
    params = table[s]
    out = []
    for d0, i, d1 in params:
        try:
            out.append(("dumbbell", {"d0": d0, "i": i, "d1": d1},
                        build_dumbbell(d0, i, d1).graph))
        except InvalidParamsError:
            continue  # degenerate tiny-n parameter, covered by another entry
    return out


def _broom_arm(params) -> RootedTree:
    fam = build_broom(params.l, params.i, params.d)
    return RootedTree(fam.graph, fam.landmarks["o"])


def _star_minimizers(i: int, m: int, forms) -> list:
    out = []
    for a in range(i + 1):
        if len(forms) == 1 and a > 0:
            break
        arms = [_broom_arm(forms[0])] * (i - a)
        if a:
            arms += [_broom_arm(forms[-1])] * a
        star = build_star(arms)
        out.append(("star", {"i": i, "m": m, "mix": a}, star.graph))
    return out


def _comb_tooth(p) -> RootedTree:
    """The minimal broom p of Br(m-1+theta) with unit edges and its Dirichlet
    vertex removed, rooted at v0. It has an edge: i | n with i < n gives
    m >= 2, so the length l = m - 1 + theta exceeds 1 and the broom has
    i + d = ceil(l) - 1 >= 1 unit edges."""
    fam = build_broom(1, p.i, p.d)
    tooth = fam.graph.induced_subgraph(range(1, fam.graph.n))
    return RootedTree(tooth, fam.landmarks["v0"] - 1)


def _comb_minimizers(i: int, m: int, tooth: RootedTree) -> list:
    bases = [("path", build_path(i))]
    if i % 2 == 1:
        bases.append(("cycle", build_cycle(i)))
    out = []
    for name, fam in bases:
        out.append(("comb", {"base": name, "i": i, "m": m}, build_comb(fam.graph, tooth).graph))
    return out


def predicted_bound(n: int, i: int, graph_class: str = "connected") -> ExtremalTarget:
    """Predicted lower bound for sigma_i over connected graphs on n vertices,
    with the known minimizer families that belong to ``graph_class``
    ("connected", or "trees", which drops the cycle-based comb).

    The target is built once per process per (n, i, class) and shared: every
    call with equal arguments returns the identical, immutable target.
    Arguments are checked before the memo is consulted, and a call that
    raises stores nothing."""
    n, i = _index(n, "n"), _index(i, "i")
    if n < 2 or i < 2 or i >= n:
        raise InvalidParamsError("need n >= 2 and 2 <= i < n")
    if graph_class not in GRAPH_CLASSES:
        raise InvalidParamsError(f"unknown graph class {graph_class!r}")
    return _predicted(n, i, graph_class)


@lru_cache(maxsize=None)
def _predicted(n: int, i: int, graph_class: str) -> ExtremalTarget:
    """The target of checked arguments (see :func:`predicted_bound`)."""
    m, theta, characterized = n // i, None, True
    if i == 2:
        case, bound_exact = "sigma2", minimal_broom_halves(n - 1).value
        candidates = _sigma2_minimizers(n)
    elif n % i != 0:
        case, sol = "i_not_dividing", minimal_broom_total(m)
        bound_exact = sol.value
        characterized = n == i * m + 1
        if characterized:
            candidates = _star_minimizers(i, m, sol.brooms)
        else:
            # example family: degree i+s-1 star, i broom arms and s-1 edges
            s = n - i * m
            arms = [_broom_arm(sol.brooms[0])] * i + [rooted_path(1)] * (s - 1)
            candidates = [("star", {"i": i, "m": m, "extra_edges": s - 1},
                           build_star(arms).graph)]
    else:
        case, theta = "i_dividing", theta_value(i)
        sol = minimal_broom_total(m - 1 + theta)
        bound_exact = sol.value
        candidates = _comb_minimizers(i, m, _comb_tooth(sol.brooms[0]))
    minimizers = _class_members(candidates, graph_class)
    return ExtremalTarget(
        n, i, case, float(bound_exact), bound_exact, _bound_str(bound_exact), theta,
        characterized, minimizers, tuple(d.code for d in minimizers if d.code is not None),
    )


# -- sweeps ----------------------------------------------------------------------


def sigma_value(g: WeightedBoundaryGraph, i: int) -> float:
    """sigma_i (lambda_i given B_D) with the +inf sentinel past |B| or no B."""
    try:
        return steklov_spectrum(g).eigenvalue(i)
    except NoBoundaryError:
        return math.inf


@dataclass(frozen=True)
class SweepResult:
    """The float screen of a class: the batched sigma_i of every class, its
    minimum, the classes within SCREEN_MARGIN of that minimum and the gap to
    the rest. No class is solved again and nothing here is exact."""

    rows: tuple[tuple[str, float], ...]  # (canonical code, screened sigma_i), by code
    minimum: float  # the screen's minimum
    argmin_codes: tuple[str, ...]  # screened values within SCREEN_MARGIN of the minimum
    gap: float  # best value outside the argmin minus the minimum; inf if none


def _screened(n: int, i: int, graph_class: str):
    """The class object and its column of screened sigma_i values (+inf
    where i exceeds n), after the parameters are checked."""
    n, i = _index(n, "n"), _index(i, "i")
    if i < 1:
        raise InvalidParamsError("eigenvalue index is 1-based")
    if graph_class not in GRAPH_CLASSES:
        raise InvalidParamsError(f"unknown graph class {graph_class!r}")
    stream = _sweep_class(n, graph_class)
    return stream, stream.spectra[:, i - 1] if i <= n else np.full(len(stream), math.inf)


def _sweep_class(n: int, graph_class: str):
    """The class object of an int n and a known class, with no check of
    them: only the tree sweep's range is checked here."""
    if graph_class == "trees" and n > MAX_SWEEP_TREE_N:
        raise OutOfSupportedRangeError(f"tree sweeps support n <= {MAX_SWEEP_TREE_N}")
    return (enumerate_trees if graph_class == "trees" else enumerate_connected_graphs)(n)


def _screen_minimum(values: np.ndarray):
    """The screen's minimum and the rows within SCREEN_MARGIN of it."""
    minimum = float(values.min())
    return minimum, (values <= minimum + SCREEN_MARGIN).nonzero()[0]


def _gap(values: np.ndarray, argmin, minimum: float) -> float:
    """The best value outside the ``argmin`` rows less ``minimum``."""
    outside = values.copy()
    outside[argmin] = math.inf
    best = float(outside.min())
    return best - minimum if best < math.inf else math.inf


def sweep(n: int, i: int, graph_class: str = "trees") -> SweepResult:
    """The float screen of sigma_i over every class of ``graph_class`` on n
    vertices.

    The screen is the class object's
    :attr:`~steklov.enumeration.GraphClassStream.spectra`, the batched
    float spectra of every class built from its one store (each sweep
    reads column i) and held with the object for every i. The minimum,
    the argmin set (screened values within SCREEN_MARGIN of it) and the
    gap are read off the screen; no class is solved again, so they are
    floats, not certificates (:func:`verify_extremal` decides those
    exactly). Classes are listed under their stored codes, which are
    canonical codes and sorted, so a tree reads the same in either class.
    """
    stream, values = _screened(n, i, graph_class)
    minimum, argmin = _screen_minimum(values)
    return SweepResult(
        rows=tuple(zip(stream.codes, values.tolist())),
        minimum=minimum,
        argmin_codes=tuple(stream.codes[j] for j in argmin),
        gap=_gap(values, argmin, minimum),
    )


@dataclass(frozen=True)
class ExtremalReport:
    """A sweep decided against the predicted bound b. When the exact counts
    certify the minimum, ``minimum`` is ``target.bound`` (the correctly
    rounded b) and ``argmin_codes`` are the classes with sigma_i = b;
    otherwise both are the float screen's and ``match`` is False."""

    target: ExtremalTarget
    graph_class: str
    class_size: int
    minimum: float
    argmin_codes: tuple[str, ...]
    predicted_codes: tuple[str, ...]
    match: bool
    bound_ok: bool
    tol: float  # the screen's fixed SCREEN_MARGIN
    gap: float  # best screened value outside the argmin set minus the minimum
    rechecked: int  # candidates decided exactly by their eigenvalue counts


def verify_extremal(n: int, i: int, graph_class: str = "trees") -> ExtremalReport:
    """Sweep a graph class, minimize sigma_i, and match the argmin set
    against the predicted minimizers that belong to the class.

    The class object and the prediction are built once per process (see
    :func:`sweep` and :func:`predicted_bound`), and the arguments checked
    once, first, by :func:`predicted_bound`. Whether the bound b is 1
    (every pair with i > n/2, and only those) is decided once, so a surd b
    sees no arithmetic. At b = 1 no screen is read: a member with s
    support vertices and L leaves has every sigma_j <= 1 and
    #{sigma_j < 1} = s (:func:`~steklov.exact.leaf_table`), and
    s <= floor(n/2) < i, as each support vertex has a leaf of its own. So
    sigma_i is exactly 1 when L >= i and missing (+inf) otherwise, read off
    the class object's :attr:`~steklov.enumeration.GraphClassStream.leaf_table`:
    the rows with L >= i are the candidates, all attain b, and the bound
    holds. Nothing else is computed at b = 1, and no sigma_i column is
    built. The gap is +inf: a row outside the argmin set has L < i, so
    i > |B| and its sigma_i is the +inf sentinel. The argmin set is never
    empty: the star K_{1,n-1} belongs to both classes and has n - 1 >= i
    leaves, so the fallback below never runs at b = 1. At any other b the
    candidates are the classes whose screened sigma_i is at most
    float(b) + SCREEN_MARGIN, each decided exactly by its counts
    #{sigma_j < b} and #{sigma_j = b}, from its row of the class object's
    store, in one :func:`~steklov.exact.member_counts` call. The bound
    holds iff no candidate has i or more eigenvalues below b (every other
    class screens above b + SCREEN_MARGIN), and a candidate attains it iff
    it also has at least i at or below b.
    When the bound holds and some candidate attains it, those candidates
    are the argmin set and the minimum is b; otherwise the report falls
    back to the minimum and argmin set of the sigma_i column, with
    ``match`` False."""
    target = predicted_bound(n, i, graph_class)
    n, i, b = target.n, target.i, target.bound_exact
    stream = _sweep_class(n, graph_class)
    unit = b == 1
    if unit:
        candidates = attained = (stream.leaf_table[:, 1] >= i).nonzero()[0]  # L >= i
        bound_ok = True  # s <= n/2 < i
    else:
        values = stream.spectra[:, i - 1]  # i < n
        candidates = (values <= target.bound + SCREEN_MARGIN).nonzero()[0]
        counts = member_counts(n, stream.rows(candidates.tolist()), b)
        bound_ok = all(neg < i for neg, _ in counts)
        attained = candidates[[neg < i <= neg + zero for neg, zero in counts]]
    codes, rows = stream.codes, attained.tolist()
    predicted = target.predicted_codes
    if bound_ok and rows:
        minimum, argmin = target.bound, tuple([codes[j] for j in rows])
        if target.characterized:
            match = argmin == predicted
        else:
            match = set(predicted) <= set(argmin)
    else:  # never at b = 1, where the star attains b
        minimum, attained = _screen_minimum(values)
        argmin, match = tuple([codes[j] for j in attained]), False
    return ExtremalReport(
        target=target,
        graph_class=graph_class,
        class_size=len(stream),
        minimum=minimum,
        argmin_codes=argmin,
        predicted_codes=predicted,
        match=match,
        bound_ok=bound_ok,
        tol=SCREEN_MARGIN,
        gap=math.inf if unit else _gap(values, attained, minimum),
        rechecked=len(candidates),
    )


# -- monotonicity and rigidity ------------------------------------------------------


def _check_embedding(gt: WeightedBoundaryGraph, g: WeightedBoundaryGraph) -> None:
    """g embeds into gt by the identity on vertex labels 0..g.n-1."""
    if g.n > gt.n:
        raise NotASubgraphError("subgraph has more vertices than its host")
    for u, v, w in g.edges:
        if gt.edge_weights.get((u, v)) != w:
            raise NotASubgraphError(f"edge {{{u},{v}}} missing or reweighted in host")
    for v in range(g.n):
        if g.measures[v] != gt.measures[v]:
            raise NotASubgraphError(f"vertex {v} has a different measure in host")
    if not set(gt.boundary) <= set(g.boundary):
        raise NotASubgraphError("host boundary must be contained in subgraph boundary")


def _require_plain(*graphs: WeightedBoundaryGraph) -> None:
    """Refuse a graph with B_D, whose operator is not the plain map Lambda."""
    if any(g.dirichlet for g in graphs):
        raise InvalidParamsError("graph has Dirichlet vertices; the statement needs B_D empty")


@dataclass(frozen=True)
class MonotonicityVerdict:
    ok: bool
    slacks: tuple[float, ...]  # sigma_i(host) - sigma_i(subgraph), i = 1..|B~|


def check_monotonicity(gt: WeightedBoundaryGraph, g: WeightedBoundaryGraph) -> MonotonicityVerdict:
    """sigma_i(G~, B~) >= sigma_i(G, B) for i = 1..|B~| when G is a subgraph
    of G~ carrying a larger boundary; neither may have B_D."""
    _check_embedding(gt, g)
    _require_plain(gt, g)
    big = steklov_spectrum(gt)
    small = steklov_spectrum(g)
    slacks = tuple(
        big.eigenvalue(i) - small.eigenvalue(i)
        for i in range(1, len(gt.boundary) + 1)
    )
    return MonotonicityVerdict(all(s >= -VERDICT_TOL for s in slacks), slacks)


@dataclass(frozen=True)
class RigidityData:
    basis: np.ndarray  # columns: harmonic, mean-zero-on-B~ functions on V(G~)
    zero_set: tuple[int, ...]  # Z(G~) within Omega(G~)
    cond1: bool  # B \ B~ inside Z
    cond2: bool  # basis constant on each attached component
    cond3: bool  # quadratic form bounded below by sigma_{|B~|}(G~) on admissible v
    min_form_eig: float  # smallest eigenvalue deciding cond3
    separates: bool  # H separates V(G)
    borderline_pairs: tuple[tuple[int, int], ...]  # numerically ambiguous separation
    comb: bool  # G~ is a comb over G


def _h_basis(big: SpectralResult) -> np.ndarray:
    """Basis of H(G~) = {harmonic on Omega, mean-zero on B~}: harmonic
    extensions of a basis of mean-zero boundary data, all solved from the
    interior factor of G~'s Steklov operator."""
    op = big.operator
    k = len(op.boundary)
    if k < 2:
        raise InvalidParamsError("rigidity needs |B~| >= 2")
    m = op.boundary_measures
    data = np.zeros((k, k - 1))
    data[1:, :] = np.eye(k - 1)
    data[0, :] = -m[1:] / m[0]
    return op._extend(data)


def is_comb_over(gt: WeightedBoundaryGraph, g: WeightedBoundaryGraph) -> bool:
    """True when the attached components G~_x are pairwise disjoint, i.e.
    the components of G~ minus E(G) are in bijection with V(G)."""
    _check_embedding(gt, g)
    stripped = gt.delete_edges([(u, v) for u, v, _ in g.edges])
    return len(stripped.components()) == g.n


def rigidity_data(gt: WeightedBoundaryGraph, g: WeightedBoundaryGraph) -> RigidityData:
    """Conditions (1)-(3), separation and the comb test for G inside G~,
    read from the Steklov spectrum of G~, which must have no B_D."""
    _check_embedding(gt, g)
    _require_plain(gt)
    big = steklov_spectrum(gt)
    basis = _h_basis(big)
    scale = max(1.0, float(np.max(np.abs(basis))))
    bt = set(gt.boundary)
    omega = [x for x in range(gt.n) if x not in bt]
    zero = tuple(
        x for x in omega if np.all(np.abs(basis[x, :]) <= DEFAULT_ZERO_TOL * scale)
    )
    extra_boundary = [x for x in g.boundary if x not in bt]
    cond1 = all(x in zero for x in extra_boundary)

    # The attached components G~_x: the basis must be constant on each.
    attached = gt.delete_edges([(u, v) for u, v, _ in g.edges]).components()
    cond2 = not any(
        np.any(np.ptp(basis[comp, :], axis=0) > VERDICT_TOL * scale) for comp in attached
    )

    # Condition (3): min eig of P^T (L - sigma M_B) P over v with
    # <v,1>_B = 0 and v constant on B~.
    sigma = big.eigenvalue(len(gt.boundary))
    L = laplacian_matrix(g).matrix
    MB = np.zeros((g.n, g.n))
    for x in g.boundary:
        MB[x, x] = float(g.measures[x])
    bt_in_g = sorted(bt)
    free = [x for x in range(g.n) if x not in bt]
    # variables: c (shared B~ value) then the free vertices
    A = np.zeros((g.n, 1 + len(free)))
    for x in bt_in_g:
        A[x, 0] = 1.0
    for k, x in enumerate(free):
        A[x, 1 + k] = 1.0
    constraint = np.zeros((1, 1 + len(free)))
    constraint[0, 0] = sum(float(g.measures[x]) for x in g.boundary if x in bt)
    for k, x in enumerate(free):
        if x in set(g.boundary):
            constraint[0, 1 + k] = float(g.measures[x])
    # Null space of the one-row constraint: the right singular vectors past
    # its rank (0 for a zero row, else 1).
    _, s, vh = np.linalg.svd(constraint)
    P = A @ vh[int(s[0] > 0):].T
    Q = P.T @ (L - sigma * MB) @ P
    Q = (Q + Q.T) / 2.0
    eigs = np.linalg.eigvalsh(Q)
    min_eig = float(eigs[0]) if len(eigs) else 0.0
    form_scale = max(1.0, float(np.max(np.abs(L))))
    cond3 = min_eig >= -VERDICT_TOL * form_scale

    separates = True
    borderline = []
    for x in range(g.n):
        for y in range(x + 1, g.n):
            gap = float(np.max(np.abs(basis[x, :] - basis[y, :])))
            if gap <= DEFAULT_ZERO_TOL * scale:
                separates = False
            elif gap <= 10 * DEFAULT_ZERO_TOL * scale:
                borderline.append((x, y))
    return RigidityData(
        basis=basis,
        zero_set=zero,
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        min_form_eig=min_eig,
        separates=separates,
        borderline_pairs=tuple(borderline),
        comb=len(attached) == g.n,  # as is_comb_over decides it
    )


@dataclass(frozen=True)
class RigidityVerdict:
    conditions_hold: bool
    spectra_equal: bool
    agree: bool  # biconditional: conditions <=> equal spectra
    comb_consistent: bool | None  # comb <=> equality, when the hypothesis applies
    data: RigidityData


def check_rigidity_equivalence(
    gt: WeightedBoundaryGraph, g: WeightedBoundaryGraph
) -> RigidityVerdict:
    """Conditions (1)-(3) hold iff sigma_i(G~,B~) = sigma_i(G,B) for all
    i up to |B~|; additionally, with B = B~ and H separating V(G), equality
    holds iff G~ is a comb over G. Neither graph may have B_D."""
    data = rigidity_data(gt, g)
    _require_plain(g)
    big, small = steklov_spectrum(gt), steklov_spectrum(g)
    k = len(gt.boundary)
    equal = all(
        abs(big.eigenvalue(i) - small.eigenvalue(i))
        <= VERDICT_TOL * max(1.0, abs(big.eigenvalue(i)))
        for i in range(1, k + 1)
    )
    conditions = data.cond1 and data.cond2 and data.cond3
    comb_consistent = None
    if set(g.boundary) == set(gt.boundary) and data.separates:
        comb_consistent = data.comb == equal
    return RigidityVerdict(
        conditions_hold=conditions,
        spectra_equal=equal,
        agree=conditions == equal,
        comb_consistent=comb_consistent,
        data=data,
    )


# -- remaining statement-level checks -------------------------------------------------


@dataclass(frozen=True)
class PositivityVerdict:
    skipped: bool  # Omega_D disconnected: decomposition identity checked instead
    lambda1: float
    simple: bool
    one_signed: bool
    higher_change_sign: bool
    decomposition_ok: bool | None

    @property
    def ok(self) -> bool:
        if self.skipped:
            return bool(self.decomposition_ok)
        return self.simple and self.one_signed and self.higher_change_sign


def verify_positivity(g: WeightedBoundaryGraph) -> PositivityVerdict:
    """First Dirichlet-Steklov eigenfunction is one-signed on Omega_D and
    lambda_1 is simple, when G[Omega_D] is connected; otherwise the spectrum
    decomposes over the components of G[Omega_D]."""
    if not g.dirichlet:
        raise InvalidParamsError("positivity check needs B_D nonempty")
    if not g.is_connected():
        raise DisconnectedError("positivity check needs a connected graph")
    omega_d = g.dirichlet_interior
    comps = g.components(omega_d)
    res = steklov_spectrum(g)
    if len(comps) > 1:
        pieces = []
        dset = set(g.dirichlet)
        for comp in comps:
            attached = sorted(
                {y for x in comp for y in g.adjacency[x] if y in dset}
            )
            verts = list(comp) + attached
            piece = g.induced_subgraph(verts)
            if piece.boundary:  # boundary-free pieces contribute no eigenvalues
                pieces.append(piece)
        union = np.sort(
            np.concatenate([steklov_spectrum(p).eigenvalues for p in pieces])
        )[: len(res.eigenvalues)]
        scale = np.maximum(1.0, np.abs(res.eigenvalues))
        ok = bool(np.all(np.abs(union - res.eigenvalues) <= VERDICT_TOL * scale))
        return PositivityVerdict(True, res.eigenvalue(1), False, False, False, ok)
    lam1, f1 = res.eigenpair(1)
    vals = f1[list(omega_d)]
    eps = VERDICT_TOL * np.max(np.abs(vals))
    one_signed = bool(np.all(vals > eps) or np.all(vals < -eps))
    simple = (
        len(res.eigenvalues) < 2
        or res.eigenvalue(2) - lam1 > VERDICT_TOL * max(1.0, abs(lam1))
    )
    higher = True
    for i in range(2, len(res.eigenvalues) + 1):
        _, fi = res.eigenpair(i)
        b = fi[list(g.boundary)]
        eps = VERDICT_TOL * np.max(np.abs(b))
        if not (b.min() < -eps and b.max() > eps):
            higher = False
            break
    return PositivityVerdict(False, lam1, simple, one_signed, higher, None)


@dataclass(frozen=True)
class Lambda1BoundVerdict:
    lambda1: float
    bound: float
    l: Fraction
    n: int
    holds: bool
    equality: bool
    structure_matches: bool | None


def verify_lambda1_bound(g: WeightedBoundaryGraph) -> Lambda1BoundVerdict:
    """lambda_1 >= Lambda(l, n) for trees whose leaves are exactly B u B_D,
    unit weights off the Dirichlet edges, l = 1/(sum of Dirichlet edge
    weights, a float weight w read as the length repr(1.0 / w)),
    n = |Omega_D| - 1. At equality the structure is matched:
    for |B_D| = 1 the tree must be a minimal broom Br(l, n). A graph that
    is not a tree raises NotATreeError (:func:`~steklov.geometry.require_tree`);
    any other unmet hypothesis a plain HypothesesNotMetError."""
    require_tree(g, "the lambda_1 bound is")
    if not g.dirichlet or not g.boundary:
        raise HypothesesNotMetError("bound needs B and B_D nonempty")
    leaf_set = set(g.leaves())
    if set(g.boundary) | set(g.dirichlet) != leaf_set:
        raise HypothesesNotMetError("leaves must be exactly B u B_D")
    dset = set(g.dirichlet)
    for u, v, w in g.edges:
        if u not in dset and v not in dset and w != 1:
            raise HypothesesNotMetError("interior edges must have unit weight")
    total_dw = sum(
        1 / Fraction(_edge_length_str(w)) for u, v, w in g.edges if u in dset or v in dset
    )
    l = Fraction(1) / total_dw
    n = len(g.dirichlet_interior) - 1
    sol = minimal_broom(l, n)
    bound = float(sol.value)
    lam1 = steklov_spectrum(g).eigenvalue(1)
    holds = lam1 >= bound - VERDICT_TOL
    equality = abs(lam1 - bound) <= VERDICT_TOL
    structure = None
    if equality and len(g.dirichlet) == 1:
        o = g.dirichlet[0]
        (attach,) = g.adjacency[o]  # o is a leaf
        structure = _arm(g.adjacency, o, attach) in sol.arms  # root edge l
    return Lambda1BoundVerdict(lam1, bound, l, n, holds, equality, structure)


def _require_leaf_boundary_tree(g: WeightedBoundaryGraph, what: str) -> None:
    """The hypotheses of the sigma_2 bounds of trees: a unit tree
    (:func:`~steklov.geometry.require_unit_tree`) with at least one edge,
    unit measures, no B_D and B exactly its leaves."""
    require_unit_tree(g, what)
    if not g.edges:
        raise HypothesesNotMetError("bound needs a tree with at least one edge")
    if any(m != 1 for m in g.measures):
        raise HypothesesNotMetError("bound needs unit vertex measures")
    if g.roles != combinatorial_boundary(g):
        raise HypothesesNotMetError("bound needs B to be exactly the leaves, and no B_D")


@dataclass(frozen=True)
class ClumpBoundVerdict:
    sigma2: float
    clump: Fraction
    bound: float
    holds: bool
    equality: bool
    broom_clumps: int  # equilibrium clumps isomorphic to Br(Clump)
    rigidity_consistent: bool  # equality <=> at least two broom clumps


def verify_steklov_clump(g: WeightedBoundaryGraph) -> ClumpBoundVerdict:
    """sigma_2(T) >= Lambda(Clump(T)); equality iff at least two clumps at
    the equilibrium point are minimal brooms Br(Clump(T)). T is a tree with
    at least one edge, unit weights and measures, no B_D and B exactly its
    leaves, else HypothesesNotMetError: NotATreeError for a graph that is
    not a tree and NotUnitWeightError for a weight other than 1, as in
    :func:`verify_sigma2_tree`.
    A branch of s vertices at the point is a clump of length first + s - 1
    (first = 1 at a vertex, 1/2 at a midpoint), so only the branches of h
    vertices can be Br(Clump(T)); each is looked up by its (i, d) shape."""
    _require_leaf_boundary_tree(g, "the sigma_2 clump bound is")
    _, twice, heavy = _centre(g)
    bound = float(minimal_broom_halves(twice).value)
    sigma2 = sigma_value(g, 2)
    holds = sigma2 >= bound - VERDICT_TOL
    equality = abs(sigma2 - bound) <= VERDICT_TOL
    matches = len(_broom_branches(g, twice, heavy))
    return ClumpBoundVerdict(
        sigma2, Fraction(twice, 2), bound, holds, equality, matches,
        rigidity_consistent=(matches >= 2) == equality,
    )


@dataclass(frozen=True)
class Sigma2TreeVerdict:
    sigma2: float
    bound: float
    holds: bool
    equality: bool
    dumbbell_match: bool | None  # at equality: tree is in the predicted list


def verify_sigma2_tree(g: WeightedBoundaryGraph) -> Sigma2TreeVerdict:
    """sigma_2(T) >= Lambda(|E|/2) with the dumbbell equality list. T is a
    tree with at least one edge, unit weights and measures, no B_D and B
    exactly its leaves, else HypothesesNotMetError: NotATreeError for a
    graph that is not a tree and NotUnitWeightError for a weight other
    than 1, as in :func:`verify_steklov_clump`."""
    _require_leaf_boundary_tree(g, "the sigma_2 tree bound is")
    bound = float(minimal_broom_halves(len(g.edges)).value)
    sigma2 = sigma_value(g, 2)
    holds = sigma2 >= bound - VERDICT_TOL
    equality = abs(sigma2 - bound) <= VERDICT_TOL
    match = None
    if equality:
        if g.n <= 2:
            match = True  # single edge: the degenerate dumbbell is the path
        else:
            # every sigma_2 minimizer is a dumbbell tree, so each has a code;
            # a weight 1.0 reads as 1
            match = unit_tree_code(g.adjacency) in predicted_bound(g.n, 2).predicted_codes
    return Sigma2TreeVerdict(sigma2, bound, holds, equality, match)


@dataclass(frozen=True)
class BipartiteTopVerdict:
    mu_max: float
    simple: bool
    alternating: bool
    identity_max_residual: float
    ok: bool


def verify_bipartite_top(g: WeightedBoundaryGraph) -> BipartiteTopVerdict:
    """Top Laplacian eigenvalue of a connected bipartite graph: simple,
    eigenvector alternating across every edge, and the per-vertex
    zero-distance identity (1/m_x) sum_y w(|f(x)|+|f(y)|)/|f(x)| = mu_max."""
    if not g.is_connected():
        raise DisconnectedError("bipartite top check needs a connected graph")
    if g.edges:
        # colour by breadth-first depth parity; a connected bipartite graph
        # has no other 2-colouring, so an edge within a colour closes an odd cycle
        order, parent, _ = g.walk
        side = {0: 0}
        for v in order[1:]:
            side[v] = 1 - side[parent[v]]
        if any(side[u] == side[v] for u, v, _ in g.edges):
            raise NotBipartiteError("graph contains an odd cycle")
    res = laplacian_spectrum(g)
    mu = res.eigenvalue(g.n)
    f = res.vectors[:, -1]
    simple = g.n < 2 or mu - res.eigenvalue(g.n - 1) > VERDICT_TOL * max(1.0, mu)
    scale = float(np.max(np.abs(f)))
    alternating = all(
        abs(f[u]) > VERDICT_TOL * scale and abs(f[v]) > VERDICT_TOL * scale and f[u] * f[v] < 0
        for u, v, _ in g.edges
    )
    max_res = 0.0
    if alternating:
        for x in range(g.n):
            total = sum(
                float(w) * (abs(f[x]) + abs(f[y])) / abs(f[x])
                for y, w in g.adjacency[x].items()
            )
            max_res = max(max_res, abs(total / float(g.measures[x]) - mu))
    ok = simple and alternating and max_res <= VERDICT_TOL * max(1.0, mu)
    return BipartiteTopVerdict(mu, simple, alternating, max_res, ok)


@dataclass(frozen=True)
class RegStarVerdict:
    r: int
    l: int
    sigmas: tuple[float, ...]  # sigma_2..sigma_r
    upper_ok: bool  # all <= 1/l
    branch_budget: int  # floor(sqrt(4(l-1)+1))
    branches_small: bool | None
    equality: bool | None  # sigma_2 == 1/l when branches are small


def verify_reg_star(r: int, l: int, extension: RootedTree | None = None) -> RegStarVerdict:
    """sigma_i <= 1/l for i = 2..r on a star of r length-l path arms with an
    optional rooted tree grown at the center; when every branch of the
    extension has at most floor(sqrt(4(l-1)+1)) edges, sigma_2 = 1/l."""
    r, l = _index(r, "r"), _index(l, "l")
    if r < 2 or l < 1:
        raise InvalidParamsError("need r >= 2 and l >= 1")
    arms = [rooted_path(l) for _ in range(r)]
    if extension is not None:
        arms.append(extension)
    g = build_star(arms).graph
    res = steklov_spectrum(g)
    sigmas = tuple(res.eigenvalue(i) for i in range(2, r + 1))
    top = 1.0 / l
    upper_ok = all(s <= top + VERDICT_TOL for s in sigmas)
    budget = math.isqrt(4 * (l - 1) + 1)
    if extension is None:
        small = True
    else:
        # a branch at the root has as many edges as its subtree has vertices
        root = extension.root
        _, _, size = subtree_sizes(extension.graph.adjacency, root)
        small = all(size[b] <= budget for b in extension.graph.adjacency[root])
    equality = abs(res.eigenvalue(2) - top) <= VERDICT_TOL if small else None
    return RegStarVerdict(r, l, sigmas, upper_ok, budget, small, equality)


@dataclass(frozen=True)
class SigmaLambdaVerdict:
    lambda1: float
    sigma2: float
    strict: bool


def verify_sigma_lambda(g: WeightedBoundaryGraph, z: int, w=1) -> SigmaLambdaVerdict:
    """Attaching a Dirichlet edge of weight w at interior-or-boundary vertex
    z gives lambda_1 strictly below sigma_2 of the original graph."""
    z = _index(z, "z")
    if not 0 <= z < g.n:
        raise InvalidParamsError("z must be a vertex of G")
    if g.dirichlet:
        raise InvalidParamsError("G must carry a plain boundary (no B_D)")
    edges = list(g.edges) + [(z, g.n, w)]
    roles = list(g.roles) + [Role.DIRICHLET]
    measures = list(g.measures) + [1]
    gt = make_graph(g.n + 1, edges, measures=measures, roles=roles)
    lam1 = steklov_spectrum(gt).eigenvalue(1)
    sigma2 = steklov_spectrum(g).eigenvalue(2)
    # strictness up to solver accuracy, not VERDICT_TOL
    return SigmaLambdaVerdict(lam1, sigma2, sigma2 - lam1 > 1e-12)
