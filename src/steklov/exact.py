"""Exact Steklov eigenvalue counts, with no eigensolve.

For a connected graph G with boundary B and a number b, let E_B be the 0/1
diagonal that marks B and put M = L - b E_B. The interior block L_II is
positive definite, and its Schur complement in M is Lambda - b I, where
Lambda is the DtN matrix. By Haynsworth's inertia additivity (Linear
Algebra Appl. 1, 1968), M has exactly #{sigma_j < b} negative and
#{sigma_j = b} zero eigenvalues. :func:`inertia_counts` reads both counts
off a diagonal congruence of M in exact arithmetic:

- on a tree, by the Jacobs-Trevisan walk from the leaves up ("Locating the
  eigenvalues of trees", Linear Algebra Appl. 434, 2011). A class member
  is walked straight from the parent and degree arrays its class object
  stores (:func:`tree_inertia_counts`). An edge list is read as a parent
  array in one pass when it is one (each edge (u, v) with u < v, every
  v >= 1 the larger end of exactly one), as the edges of every stored tree
  are; any other tree is walked in the order of one
  :func:`~steklov.graph.subtree_sizes` pass. The walk folds each vertex,
  leaves first, into its parent in Python integers: num/den after
  scaling by the denominator of a rational b, (x + y sqrt(d)) / z reduced
  by the gcd for a surd b;
- on any other graph, by a dense LDL^T with 1x1 pivots, and a 2x2 pivot
  [[0, x], [x, 0]] (one negative and one positive eigenvalue) when every
  remaining diagonal entry is 0 (Bunch and Parlett, SIAM J. Numer. Anal. 8,
  1971).

b is a Fraction (or an int) or a :class:`QuadraticSurd` p + q sqrt(d), the
number type of the irrational bounds theta_i for i = 4, 5, 6; any other b
is refused. Signs in Z[sqrt(d)] are decided exactly by :func:`surd_sign`,
which compares x^2 with y^2 d, so every count is exact.

At b = 1 the counts need no congruence at all: on a connected graph with
n >= 3 vertices they are (s, L - s), for L leaves and s distinct support
vertices (:func:`leaf_counts`, which reads a class member as its class
object stores it, and carries the proof). :func:`inertia_counts` does not
take that path, so it stays an independent oracle for the rule.
Nothing here is memoised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from numbers import Rational

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NoBoundaryError,
    SelfLoopError,
)
from .graph import _is_label, adjacency_sets, subtree_sizes


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


@total_ordering
class QuadraticSurd:
    """p + q sqrt(d) with rational p, q and an integer d > 1 that is not a
    square; any other d raises InvalidParamsError.

    Arithmetic with ints, Fractions and surds of the same d is exact.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q, d: int):
        if isinstance(d, bool) or not isinstance(d, int) or d < 2 or math.isqrt(d) ** 2 == d:
            raise InvalidParamsError(f"sqrt({d!r}) must be irrational: d an integer > 1, no square")
        self.p, self.q, self.d = Fraction(p), Fraction(q), d

    def _parts(self, other):
        if isinstance(other, QuadraticSurd):
            if other.d != self.d:
                raise InvalidParamsError(f"sqrt({self.d}) and sqrt({other.d}) do not mix")
            return other.p, other.q
        if isinstance(other, Rational):
            return other, 0
        return None

    def _new(self, p, q) -> QuadraticSurd:
        return QuadraticSurd(p, q, self.d)

    def __add__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self._new(self.p + o[0], self.q + o[1])

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.p, -self.q)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._new(self.p * o[0] + self.q * o[1] * self.d, self.p * o[1] + self.q * o[0])

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.p * self.p - self.q * self.q * self.d  # nonzero unless self is 0
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return self._new(self.p / norm, -self.q / norm)

    def __truediv__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self * self._new(*o)._inverse()

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
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

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

    A tree (n - 1 edges) is walked by Jacobs-Trevisan; any other graph is
    factored densely. Raises InvalidParamsError for a b that is not exact
    (a float, a bool), IndexOutOfRangeError (also for a vertex label that
    is not an integer, a bool included), SelfLoopError and
    DuplicateEdgeError for a malformed edge list, NoBoundaryError when no
    vertex has degree <= 1 (such a graph has no Steklov spectrum) and
    DisconnectedError for a disconnected graph, whose interior block can be
    singular."""
    if isinstance(b, bool) or not isinstance(b, (Rational, QuadraticSurd)):
        raise InvalidParamsError(f"exact counts need a rational or QuadraticSurd b, not {b!r}")
    if not all(_is_label(u) and _is_label(v) for u, v in edges):
        raise IndexOutOfRangeError(f"vertex labels must be integers in 0..{n - 1}")
    return _inertia_counts(n, edges, b)


def _inertia_counts(n: int, edges, b: Exact | int) -> tuple[int, int]:
    """:func:`inertia_counts` with b and the labels unchecked: exact and ints."""
    parent, degree = _parent_array(n, edges)
    if parent is not None:
        return tree_inertia_counts(range(n), parent, degree, b)
    adj = _adjacency(n, edges)
    if all(len(a) > 1 for a in adj):
        raise NoBoundaryError("graph has no boundary vertices")
    if len(edges) != n - 1:
        return dense_inertia_counts(adj, b)
    order, parent = _walk(adj)
    return tree_inertia_counts(order, parent, [len(a) for a in adj], b)


def _parent_array(n: int, edges) -> tuple[list[int], list[int]] | tuple[None, None]:
    """Parents (-1 at vertex 0) and degrees when ``edges`` is a parent
    array: n - 1 pairs (u, v) with 0 <= u < v < n, each v >= 1 the larger
    end of exactly one, as :func:`~steklov.enumeration.tree_edges` numbers
    every stored tree. Such edges form a tree. (None, None) otherwise."""
    if len(edges) != n - 1:
        return None, None
    parent, degree = [-1] * n, [0] + [1] * (n - 1)
    for u, v in edges:
        if not 0 <= u < v < n or parent[v] >= 0:
            return None, None
        parent[v] = u
        degree[u] += 1
    return parent, degree


def _adjacency(n: int, edges) -> list[set[int]]:
    """Neighbour sets of ``edges``, which must be distinct pairs of
    distinct vertices in 0..n-1."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
    adj = adjacency_sets(n, edges)
    if sum(map(len, adj)) != 2 * len(edges):
        raise DuplicateEdgeError("an edge is listed twice")
    return adj


def _walk(adj) -> tuple[list[int], dict[int, int]]:
    """The :func:`subtree_sizes` order and parents from vertex 0, which
    must reach every vertex."""
    order, parent, _ = subtree_sizes(adj)
    if len(order) < len(adj):
        raise DisconnectedError("exact counts need a connected graph")
    return order, parent


def _counts(values) -> tuple[int, int]:
    return sum(1 for x in values if x < 0), values.count(0)


def tree_inertia_counts(order, parent, degree, b: Exact | int) -> tuple[int, int]:
    """Counts of :func:`inertia_counts` on the tree with vertex degrees
    ``degree`` and parents ``parent`` (int sequences indexed by vertex,
    lists or ``bytes``), whose vertices ``order`` lists root first and each
    after its parent: range(n) for a parent array. The root's own entry in
    ``parent`` is never read. By Jacobs-Trevisan on c L - c b E_B, with
    c > 0 clearing the denominators of b and every off-diagonal entry -c.

    Each vertex v but the root, taken in reverse ``order``, has its value
    final when it is reached, and is folded into its parent u:
    value(u) -= c^2 / value(v). When value(v) is 0, v is set positive, u
    negative, and the edge from u to its parent is cut; u's other children
    are left as they are. The values are integers num/den (den > 0) for a
    rational b = p / c, and (x + y sqrt(d)) / z (z > 0, reduced by the
    gcd) for a surd b, whose signs :func:`surd_sign` decides."""
    if isinstance(b, QuadraticSurd):
        return _surd_tree_counts(order, parent, degree, b)
    p, c = b.numerator, b.denominator
    cc = c * c
    num = [k * c - p if k <= 1 else k * c for k in degree]
    den = [1] * len(degree)
    cut = [False] * len(degree)
    for v in order[:0:-1]:
        u = parent[v]
        if cut[v] or cut[u]:
            continue
        x = num[v]
        if x == 0:
            num[v], num[u], den[u], cut[u] = 1, -1, 1, True
        elif x > 0:
            num[u], den[u] = num[u] * x - cc * den[v] * den[u], den[u] * x
        else:
            num[u], den[u] = cc * den[v] * den[u] - num[u] * x, -den[u] * x
    return _counts(num)


def _surd_tree_counts(order, parent, degree, b: QuadraticSurd) -> tuple[int, int]:
    """:func:`tree_inertia_counts` for b = (s + t sqrt(d)) / c, with each
    division rationalised by the conjugate."""
    d = b.d
    s, t, c = b._integers()
    cc = c * c
    x = [k * c - s if k <= 1 else k * c for k in degree]
    y = [-t if k <= 1 else 0 for k in degree]
    z = [1] * len(degree)
    cut = [False] * len(degree)
    for v in order[:0:-1]:
        u = parent[v]
        if cut[v] or cut[u]:
            continue
        xv, yv = x[v], y[v]
        if xv == 0 and yv == 0:
            x[v], x[u], y[u], z[u], cut[u] = 1, -1, 0, 1, True
            continue
        # c^2 / value(v) = c^2 z[v] (xv - yv sqrt(d)) / norm
        norm = xv * xv - d * yv * yv
        k = cc * z[v] * z[u]
        xu, yu, zu = x[u] * norm - k * xv, y[u] * norm + k * yv, z[u] * norm
        if norm < 0:
            xu, yu, zu = -xu, -yu, -zu
        g = math.gcd(xu, yu, zu)
        x[u], y[u], z[u] = xu // g, yu // g, zu // g
    return _counts([surd_sign(xv, yv, d) for xv, yv in zip(x, y)])


def leaf_counts(n: int, member) -> tuple[int, int]:
    """Counts of :func:`inertia_counts` at b = 1, (s, L - s), for a class
    member on n >= 3 vertices as a class object stores it: a tree's parent
    and degree ``bytes`` (vertex 0 the root, every other vertex after its
    parent, so vertex 1 is a child of 0), or any other member's edge
    tuple. L is the number of leaves and s the number of distinct support
    vertices, those next to a leaf. No walk, factorization or Fraction.

    Proof. With unit measures, B the leaves and I the other vertices, no
    two leaves are adjacent in a connected graph on n >= 3 vertices, so
    L_BB = I_B and L_BI = -E, where row l of E marks the support vertex of
    leaf l. Then S = I_B - E L_II^-1 E^T. L_II is positive definite on a
    connected graph with a boundary, so E L_II^-1 E^T is positive
    semidefinite with rank(E L_II^-1 E^T) = rank(E) = s: E's rows are unit
    vectors, one distinct row per support vertex. So S has s eigenvalues
    below 1 and L - s at 1. A member with no leaf gives (0, 0), the counts
    of its empty spectrum.

    The rule is false on n <= 2: on K_2 both vertices are leaves, so it
    would give (2, 0), but sigma = 0, 2 gives (1, 0). Such an n raises
    InvalidParamsError. The member is otherwise taken as stored: connected,
    on 0..n-1, with no check."""
    if n < 3:
        raise InvalidParamsError(f"the leaf rule needs n >= 3, not n = {n}")
    if isinstance(member[0], bytes):
        parent, degree = member
        supports = {parent[v] if v else 1 for v, k in enumerate(degree) if k == 1}
    else:
        degree = [0] * n
        for u, v in member:
            degree[u] += 1
            degree[v] += 1
        supports = {v for u, v in member if degree[u] == 1}
        supports |= {u for u, v in member if degree[v] == 1}
    leaves = degree.count(1)
    return len(supports), leaves - len(supports)


def dense_inertia_counts(adj, b: Exact | int) -> tuple[int, int]:
    """Counts of :func:`inertia_counts` on the graph with neighbour sets
    ``adj``, by a dense LDL^T of L - b E_B with 1x1 pivots, and a 2x2
    pivot [[0, x], [x, 0]] when every remaining diagonal entry is 0. The
    matrix stays exactly symmetric, so a 1x1 pivot updates only the rows
    and columns where its row is nonzero."""
    _walk(adj)
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
    return _counts(pivots)
