"""Exact Steklov eigenvalue counts, with no eigensolve.

For a connected graph G with boundary B and a number b, let E_B be the 0/1
diagonal that marks B and put M = L - b E_B. The interior block L_II is
positive definite, and its Schur complement in M is Lambda - b I, where
Lambda is the DtN matrix. By Haynsworth's inertia additivity (Linear
Algebra Appl. 1, 1968), M has exactly #{sigma_j < b} negative and
#{sigma_j = b} zero eigenvalues. Each input form has one entry:
:func:`inertia_counts` takes an edge list, which it checks by building the
graph, and :func:`member_counts` rows of a class object's store, its flat
edge ends, unchecked; an edge list becomes one row, in its graph's walk
order. :func:`member_counts` alone picks the engine by a row's length, and
each reads the counts off a diagonal congruence of M in exact arithmetic:

- on a tree (n - 1 edges), by the Jacobs-Trevisan walk from the leaves up
  ("Locating the eigenvalues of trees", Linear Algebra Appl. 434, 2011;
  :func:`tree_inertia_counts`), from the parents of vertices 1..n-1, a
  row's even entries. The walk folds each vertex, from n - 1 down, into its
  parent in Python integers, in one pass that learns each vertex's degree
  from the children it has folded by the time it reaches the vertex:
  num/den after scaling by the denominator of a rational b,
  (x + y sqrt(d)) / z reduced by the gcd for a surd b;
- on any other graph, by a fraction-free symmetric elimination
  (Bareiss, Math. Comp. 22, 1968; :func:`dense_inertia_counts`) on one
  list of L's rows, every interior vertex pivoted first, in Python
  integers: L_II is positive definite, so no interior pivot is 0, and
  what is left is the square block det(L_II) (Lambda - b I), the split
  above. The interior and the block take one 1x1 step; when every
  diagonal entry left is 0, a congruence that adds one row and column to
  another makes a nonzero one first. Every entry is a minor (Sylvester's
  identity) of M or of a congruent matrix in the same ring, so every
  division is exact: in integers for a rational b, the block scaled by its
  denominator, and in the type's own exact arithmetic for a surd b.

b is a Fraction (or an int) or a :class:`QuadraticSurd` p + q sqrt(d), the
number type of the irrational bounds theta_i for i = 4, 5, 6; any other b
is refused. Signs in Z[sqrt(d)] are decided exactly by :func:`surd_sign`,
which compares x^2 with y^2 d, so every count is exact.

At b = 1 the counts need no congruence at all: on a connected graph with
n >= 3 vertices they are (s, L - s), for L leaves and s distinct support
vertices. :func:`leaf_table` (which carries the proof) reads s and L for a
whole class at once, off the stacked edge arrays its screen is built from;
a class object holds that table. :func:`inertia_counts` and
:func:`member_counts` do not use the rule, so they stay independent oracles
for it. Nothing here is memoised.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import total_ordering
from numbers import Rational

from .errors import DisconnectedError, InvalidParamsError, NoBoundaryError
from .graph import adjacency_sets, combinatorial_graph


def surd_sign(x: int, y: int, d: int) -> int:
    """-1, 0 or 1: the sign of x + y sqrt(d) for integers x and y and a
    non-square d > 1, decided exactly. When x and y differ in sign, the
    larger of x^2 and y^2 d decides."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > y * y * d else sy


def _fraction(x) -> Fraction:
    """``Fraction(x)`` in Python ints. Fraction keeps the parts of a numpy
    integer (or of a Fraction built from one) as they are, and those
    overflow in int64."""
    x = Fraction(x)
    if type(x.numerator) is int and type(x.denominator) is int:
        return x
    return Fraction(int(x.numerator), int(x.denominator))


@total_ordering
class QuadraticSurd:
    """p + q sqrt(d) with rational p, q and an integer d > 1 that is not a
    square; any other d raises InvalidParamsError. d is held squarefree, so
    sqrt(8) is 2 sqrt(2), and two surds are equal iff their (p, q, d) match
    or both q are 0 and their p match. Arithmetic and ordering with ints,
    Fractions and other surds are exact, and a result lies in the field of
    the operand whose q is nonzero; two surds whose q are both nonzero and
    whose d differ do not mix and raise InvalidParamsError.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q, d: int):
        if isinstance(d, bool) or not isinstance(d, int) or d < 2 or math.isqrt(d) ** 2 == d:
            raise InvalidParamsError(f"sqrt({d!r}) must be irrational: d an integer > 1, no square")
        k = next(k for k in range(math.isqrt(d), 0, -1) if d % (k * k) == 0)  # d = k^2 d0
        self.p, self.q, self.d = _fraction(p), _fraction(q) * k, d // (k * k)

    def _parts(self, other):
        """(p, q, d): ``other`` as p + q sqrt(d), d the radicand of a result
        with it, which is other's when only other has q != 0, else self's.
        None for a type that does not mix; two radicands raise when both
        q are nonzero."""
        if isinstance(other, QuadraticSurd):
            if other.d != self.d and other.q and self.q:
                raise InvalidParamsError(f"sqrt({self.d}) and sqrt({other.d}) do not mix")
            return other.p, other.q, other.d if other.q else self.d
        if isinstance(other, Rational):
            return other, 0, self.d
        return None

    def __add__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else QuadraticSurd(self.p + o[0], self.q + o[1], o[2])

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return QuadraticSurd(self.p * p + self.q * q * d, self.p * q + self.q * p, d)

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.p * self.p - self.q * self.q * self.d  # nonzero unless self is 0
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return QuadraticSurd(self.p / norm, -self.q / norm, self.d)

    def __truediv__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self * QuadraticSurd(*o)._inverse()

    def __rtruediv__(self, other):
        return NotImplemented if self._parts(other) is None else self._inverse() * other

    def _integers(self) -> tuple[int, int, int]:
        """(s, t, c) with self = (s + t sqrt(d)) / c and c > 0 the least
        common denominator of p and q."""
        p, q = self.p, self.q
        c = math.lcm(p.denominator, q.denominator)
        return p.numerator * (c // p.denominator), q.numerator * (c // q.denominator), c

    def sign(self) -> int:
        """-1, 0 or 1, decided exactly by :func:`surd_sign`."""
        s, t, _ = self._integers()
        return surd_sign(s, t, self.d)

    def _cmp(self, other) -> int | None:
        return None if self._parts(other) is None else (self - other).sign()

    def __eq__(self, other):
        if isinstance(other, QuadraticSurd):
            return self.p == other.p and self.q == other.q and (self.q == 0 or self.d == other.d)
        if isinstance(other, Rational):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __hash__(self):
        return hash(self.p) if self.q == 0 else hash((self.p, self.q, self.d))

    def __float__(self) -> float:
        """The correctly rounded float, from q sqrt(d) to within 2**-200."""
        a, c = self.q.numerator, self.q.denominator
        root = math.isqrt(a * a * self.d << 400)
        return float(self.p + Fraction(root if a >= 0 else -root, c << 200))

    def __floor__(self) -> int:
        """(s + floor(t sqrt(d))) // c: t sqrt(d) is an integer only at t = 0."""
        s, t, c = self._integers()
        root = math.isqrt(t * t * self.d)
        return (s + (root if t >= 0 else -root - 1)) // c

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.p}, {self.q}, {self.d})"


Exact = Fraction | QuadraticSurd


def inertia_counts(n: int, edges, b: Exact | int) -> tuple[int, int]:
    """(#{sigma_j < b}, #{sigma_j = b}) for the Steklov spectrum of the
    connected unit-weight graph on 0..n-1 with ``edges`` (pairs), unit
    measures and the degree <= 1 boundary, decided exactly.

    The edges are checked by building the graph
    (:func:`~steklov.graph.combinatorial_graph`), renumbered in the order
    of its :attr:`~steklov.graph.WeightedBoundaryGraph.walk` and counted as
    one row by :func:`member_counts`. Raises InvalidParamsError for a b
    that is not exact (a float, a bool), the errors of
    :func:`~steklov.graph.make_graph` for a malformed n or edge list
    (IndexOutOfRangeError for an n that is not a nonnegative integer or a
    vertex label that is not an integer in 0..n-1, a bool included;
    SelfLoopError; DuplicateEdgeError), NoBoundaryError when no vertex has
    degree <= 1 (such a graph has no Steklov spectrum) and
    DisconnectedError for a disconnected graph, whose interior block can be
    singular."""
    if isinstance(b, bool) or not isinstance(b, (Rational, QuadraticSurd)):
        raise InvalidParamsError(f"exact counts need a rational or QuadraticSurd b, not {b!r}")
    g = combinatorial_graph(n, edges)
    if not g.boundary:
        raise NoBoundaryError("graph has no boundary vertices")
    if not g.is_connected():
        raise DisconnectedError("exact counts need a connected graph")
    number = {v: k for k, v in enumerate(g.walk[0])}  # each vertex after its parent
    # by larger end, so a tree's edges are its (parent, child) pairs by child
    pairs = sorted((sorted((number[u], number[v])) for u, v, _ in g.edges), key=max)
    return member_counts(n, [[k for pair in pairs for k in pair]], b)[0]


def member_counts(n: int, rows, b: Exact | int) -> list[tuple[int, int]]:
    """Counts of :func:`inertia_counts` at b for each of ``rows``, in order:
    rows of a class object's store, each a member's edge ends as ``bytes``
    (or a list), taken as given: connected, with a boundary, with no check.
    The one choice of engine: a row of n - 1 edges is a tree's
    (parent, child) pairs by child, walked by :func:`tree_inertia_counts`
    from its parents; any other row goes to :func:`dense_inertia_counts`."""
    counts = []
    for row in rows:
        if len(row) == 2 * n - 2:
            counts.append(tree_inertia_counts(row[0::2], b))
        else:
            counts.append(dense_inertia_counts(adjacency_sets(n, zip(row[0::2], row[1::2])), b))
    return counts


def tree_inertia_counts(parents, b: Exact | int) -> tuple[int, int]:
    """Counts of :func:`inertia_counts` on the tree on 0..n-1 whose vertex
    v >= 1 has the parent ``parents[v - 1]`` < v (a store row's even bytes,
    or a list). By Jacobs-Trevisan on c L - c b E_B, with c > 0 clearing
    the denominators of b and every off-diagonal entry -c, in one reverse
    pass over v = n - 1, ..., 1 with no degree list.

    Every child of v has a larger number than v, so all of them are folded
    by the time v is reached, and v's degree is their count plus 1 (the
    root, reached last, has no parent edge). v's value is then final: its
    base deg c, less p for a leaf (deg <= 1), minus the sum of
    c^2 / value(child) over the children folded into it, held as one
    fraction num/den (den > 0). It is counted and folded into its parent
    u. When value(v) is 0, v is set positive, u negative, and the edge
    from u to its parent is cut; u's later children are left as they are,
    though u's degree still counts every child. :func:`_surd_tree_counts`
    walks a surd b the same way."""
    if isinstance(b, QuadraticSurd):
        return _surd_tree_counts(parents, b)
    p, c = int(b.numerator), int(b.denominator)  # Python ints, for a numpy b too
    cc = c * c
    n = len(parents) + 1
    children = [0] * n  # reached so far
    num, den = [0] * n, [1] * n  # the sum of c^2 / value(child) over the children folded
    cut = [False] * n  # set negative: a child's value was 0
    negative = zero = 0
    for v, u in zip(range(n - 1, 0, -1), reversed(parents)):
        children[u] += 1
        if cut[v]:
            negative += 1
            continue
        k = children[v] + 1  # v's degree
        x = (k * c - p if k == 1 else k * c) * den[v] - num[v]  # value(v) = x / den[v]
        if cut[u]:
            negative += x < 0
            zero += x == 0
        elif x == 0:
            cut[u] = True  # v set positive
        elif x > 0:
            num[u], den[u] = num[u] * x + cc * den[v] * den[u], den[u] * x
        else:
            num[u], den[u] = -num[u] * x - cc * den[v] * den[u], -den[u] * x
            negative += 1
    if cut[0]:
        return negative + 1, zero
    k = children[0]
    x = (k * c - p if k <= 1 else k * c) * den[0] - num[0]
    return negative + (x < 0), zero + (x == 0)


def _surd_tree_counts(parents, b: QuadraticSurd) -> tuple[int, int]:
    """:func:`tree_inertia_counts` for b = (s + t sqrt(d)) / c, in the same
    one pass: the sum over v's folded children is (x + y sqrt(d)) / z with
    z > 0, reduced by the gcd, each division rationalised by the
    conjugate, and each value's sign decided by :func:`surd_sign`."""
    d = b.d
    s, t, c = b._integers()
    cc = c * c
    n = len(parents) + 1
    children = [0] * n
    x, y, z = [0] * n, [0] * n, [1] * n  # the sum of c^2 / value(child) over the children folded
    cut = [False] * n
    negative = zero = 0
    for v, u in zip(range(n - 1, 0, -1), reversed(parents)):
        children[u] += 1
        if cut[v]:
            negative += 1
            continue
        k, zv = children[v] + 1, z[v]
        # value(v) = (xv + yv sqrt(d)) / zv, in lowest terms as its sum is
        xv, yv = (k * c - s if k == 1 else k * c) * zv - x[v], (-t * zv if k == 1 else 0) - y[v]
        if cut[u]:
            sign = surd_sign(xv, yv, d)
            negative += sign < 0
            zero += sign == 0
            continue
        if xv == 0 and yv == 0:
            cut[u] = True  # v set positive
            continue
        # c^2 / value(v) = c^2 zv (xv - yv sqrt(d)) / norm; norm != 0, and
        # the larger of xv^2 and yv^2 d gives value(v) its sign
        norm = xv * xv - d * yv * yv
        negative += (xv if norm > 0 else yv) < 0
        w = cc * zv * z[u]
        xu, yu, zu = x[u] * norm + w * xv, y[u] * norm - w * yv, z[u] * norm
        if norm < 0:
            xu, yu, zu = -xu, -yu, -zu
        g = math.gcd(xu, yu, zu)
        x[u], y[u], z[u] = xu // g, yu // g, zu // g
    if cut[0]:
        return negative + 1, zero
    k, z0 = children[0], z[0]
    leaf = k <= 1
    sign = surd_sign((k * c - s if leaf else k * c) * z0 - x[0], (-t * z0 if leaf else 0) - y[0], d)
    return negative + (sign < 0), zero + (sign == 0)


def leaf_table(n: int, owner, ends):
    """The counts at b = 1 of a stacked class, as one integer array with a
    row (s, L) per graph: graph j's counts of :func:`inertia_counts` at
    b = 1 are (s, L - s). The graphs are given as the integer arrays of
    :func:`~steklov.spectral.stacked_steklov_spectra`: edge k joins
    ``ends[k, 0]`` and ``ends[k, 1]`` in graph ``owner[k]``, and the rows run
    from graph 0 to the largest owner. L is a graph's number of leaves
    (vertices of degree 1) and s its number of distinct support vertices,
    those next to a leaf: the degrees are one ``np.bincount`` over the
    stacked ends, and an edge with one end of degree 1 marks its other end,
    with no Python loop over the graphs or their edges.

    Proof. With unit measures, B the leaves and I the other vertices, no
    two leaves are adjacent in a connected graph on n >= 3 vertices, so
    L_BB = I_B and L_BI = -E, where row l of E marks the support vertex of
    leaf l. Then S = I_B - E L_II^-1 E^T. L_II is positive definite on a
    connected graph with a boundary, so E L_II^-1 E^T is positive
    semidefinite with rank(E L_II^-1 E^T) = rank(E) = s: E's rows are unit
    vectors, one distinct row per support vertex. So S has s eigenvalues
    below 1 and L - s at 1. A graph with no leaf gives (0, 0), the counts
    of its empty spectrum.

    The rule is false on n <= 2: on K_2 both vertices are leaves, so it
    would give (2, 0), but sigma = 0, 2 gives (1, 0). Such an n raises
    InvalidParamsError. Each graph is otherwise taken as given: connected,
    on 0..n-1, with no repeated edge, with no check."""
    if n < 3:
        raise InvalidParamsError(f"the leaf rule needs n >= 3, not n = {n}")
    import numpy as np

    owner = np.asarray(owner, dtype=np.intp)
    rows = int(owner.max()) + 1 if len(owner) else 0
    u = owner * n + ends[:, 0]  # vertex ends[k, 0] of graph owner[k], flattened
    v = owner * n + ends[:, 1]
    leaf = np.bincount(np.concatenate([u, v]), minlength=rows * n) == 1
    support = np.zeros(rows * n, dtype=bool)
    support[v[leaf[u]]] = True
    support[u[leaf[v]]] = True
    return np.stack([support.reshape(rows, n).sum(axis=1), leaf.reshape(rows, n).sum(axis=1)],
                    axis=1)


def dense_inertia_counts(adj, b: Exact | int) -> tuple[int, int]:
    """Counts of :func:`inertia_counts` on the graph with neighbour sets
    ``adj``, by a fraction-free symmetric elimination of L - b E_B
    (Bareiss, Math. Comp. 22, 1968) on one list of L's rows, the interior
    vertices (degree >= 2) first.

    Each step, :func:`_step`, divides by prev, the last pivot (1 at the
    start); by Sylvester's identity every entry is then a minor, so every
    division is exact. b enters only the boundary's diagonal, so the
    interior is pivoted on L alone, with ``//``: L_II is positive
    definite, so every interior pivot is positive, and what is left is the
    square block det(L_II) Lambda (Haynsworth, as above), which b enters
    as prev (Lambda - b I). For b = p/c the block is
    scaled by c, to c a_rc - p prev on the diagonal, prev unchanged: every
    minor of c L - p E_B that holds the k interior rows has the factor
    c^k, and the steps are homogeneous of degree 1, so the scaled block's
    steps give those minors over c^k, integers, and each division stays
    ``//``. A surd b enters unscaled, as a_rc - b prev on the diagonal,
    with prev lifted into :class:`QuadraticSurd`, so each division is the
    type's own exact ``/`` and each sign is decided exactly.

    The block's step takes the first row left whose diagonal entry is
    nonzero; its pivot a_kk / prev is negative iff a_kk and prev differ in
    sign. When every diagonal entry left is 0 and some a_jk = x != 0,
    :func:`_congruence` adds row j to row k and column j to column k, the
    congruence by E = I + e_k e_j^T: the inertia is unchanged, a_kk
    becomes 2x, and the step pivots k. j and k are not pivoted yet, so
    prev and the pivoted rows stay as they are, and every later entry is a
    minor of E M E^T, which lies in the same ring as M, so every division
    stays exact. A block left that is all zero adds its size to the zeros.
    The graph must be connected and have a boundary, as
    :func:`inertia_counts` checks and :func:`member_counts` takes as
    given."""
    n = len(adj)
    order = [v for v in range(n) if len(adj[v]) > 1]
    interior = len(order)
    order += [v for v in range(n) if len(adj[v]) <= 1]
    column = {v: k for k, v in enumerate(order)}
    a = []
    for k, v in enumerate(order):
        row = [0] * n
        for u in adj[v]:
            row[column[u]] = -1
        row[k] = len(adj[v])
        a.append(row)
    left = list(range(n))
    prev = 1
    for k in range(interior):
        prev = _step(a, left, k, prev, operator.floordiv)  # > 0: L_II is positive definite
    if isinstance(b, QuadraticSurd):
        shift, over = b * prev, operator.truediv
        prev = QuadraticSurd(prev, 0, b.d)  # so that no int / int makes a float
    else:
        p, c = int(b.numerator), int(b.denominator)  # Python ints, for a numpy b too
        for r in left:
            row = a[r]
            for j in left:
                row[j] *= c
        shift, over = p * prev, operator.floordiv
    for k in left:
        a[k][k] -= shift
    negative = zero = 0
    while left:
        k = next((k for k in left if a[k][k] != 0), None)
        if k is None:
            pair = next(((j, k) for j in left for k in left if a[j][k] != 0), None)
            if pair is None:  # the rest is zero
                return negative, zero + len(left)
            k = _congruence(a, left, *pair)
        negative += (a[k][k] < 0) != (prev < 0)
        prev = _step(a, left, k, prev, over)
    return negative, zero


def _step(a, left: list, k: int, prev, over):
    """The one step of :func:`dense_inertia_counts`, on the pivot a_kk, in
    place: k leaves ``left``, and every a_rc left becomes
    (a_kk a_rc - a_rk a_kc) / prev, a minor by Sylvester's identity, so
    ``over`` divides exactly. Returns the new prev, a_kk."""
    left.remove(k)
    head = a[k]
    pivot = head[k]
    for r in left:
        row, h = a[r], head[r]
        for c in left:
            row[c] = over(pivot * row[c] - h * head[c], prev)
    return pivot


def _congruence(a, left: list, j: int, k: int) -> int:
    """Adds row j to row k and column j to column k, in place: the
    congruence by I + e_k e_j^T, so a_kk = 0 becomes 2 a_jk when a_jj = 0.
    Returns k."""
    for c in left:
        a[k][c] += a[j][c]
    for r in left:
        a[r][k] += a[r][j]
    return k
