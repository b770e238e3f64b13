"""Exact Steklov eigenvalue counts, with no eigensolve.

For a connected graph G with boundary B and a number b, let E_B be the 0/1
diagonal that marks B and put M = L - b E_B. The interior block L_II is
positive definite, and its Schur complement in M is Lambda - b I, where
Lambda is the DtN matrix. By Haynsworth's inertia additivity (Linear
Algebra Appl. 1, 1968), M has exactly #{sigma_j < b} negative and
#{sigma_j = b} zero eigenvalues. :func:`inertia_counts` reads both counts
off a diagonal congruence of M in exact arithmetic:

- on a tree, by the Jacobs-Trevisan walk from the leaves up ("Locating the
  eigenvalues of trees", Linear Algebra Appl. 434, 2011), O(n) steps on
  integers after scaling by the denominator of b;
- on any other graph, by a dense LDL^T with 1x1 pivots, and a 2x2 pivot
  [[0, x], [x, 0]] (one negative and one positive eigenvalue) when every
  remaining diagonal entry is 0 (Bunch and Parlett, SIAM J. Numer. Anal. 8,
  1971).

b is a Fraction (or an int) or a :class:`QuadraticSurd` p + q sqrt(d), the
number type of the irrational bounds theta_i for i = 4, 5, 6. Its sign is
decided exactly, by comparing p^2 with q^2 d, so every count is exact.
Nothing here is memoised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .errors import DisconnectedError, InvalidParamsError, NoBoundaryError
from .graph import adjacency_sets, subtree_sizes


class QuadraticSurd:
    """p + q sqrt(d) with rational p, q and a square-free integer d > 1.

    Arithmetic with ints, Fractions and surds of the same d is exact.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q, d: int):
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

    def sign(self) -> int:
        """-1, 0 or 1, decided exactly: p + q sqrt(d) has the sign of the
        larger of p^2 and q^2 d when p and q differ in sign."""
        sp, sq = (self.p > 0) - (self.p < 0), (self.q > 0) - (self.q < 0)
        if sp == sq or sq == 0:
            return sp
        if sp == 0:
            return sq
        return sp if self.p * self.p > self.q * self.q * self.d else sq

    def _cmp(self, other) -> int | None:
        return None if self._parts(other) is None else (self - other).sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash(self.p) if self.q == 0 else hash((self.p, self.q, self.d))

    def __float__(self) -> float:
        """The correctly rounded float, from q sqrt(d) to within 2**-200."""
        a, c = self.q.numerator, self.q.denominator
        root = math.isqrt(a * a * self.d << 400)
        return float(self.p + Fraction(root if a >= 0 else -root, c << 200))

    def __floor__(self) -> int:
        f = math.floor(float(self))
        while self < f:
            f -= 1
        while self >= f + 1:
            f += 1
        return f

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
    factored densely. Raises NoBoundaryError when no vertex has degree <= 1
    (such a graph has no Steklov spectrum) and DisconnectedError for a
    disconnected graph, whose interior block can be singular."""
    adj = adjacency_sets(n, edges)
    if all(len(a) > 1 for a in adj):
        raise NoBoundaryError("graph has no boundary vertices")
    if len(edges) == n - 1:
        return tree_inertia_counts(adj, b)
    return dense_inertia_counts(adj, b)


def _counts(values) -> tuple[int, int]:
    return sum(1 for x in values if x < 0), sum(1 for x in values if x == 0)


def _walk(adj) -> tuple[list[int], dict[int, int]]:
    """The :func:`subtree_sizes` order and parents from vertex 0, which
    must reach every vertex."""
    order, parent, _ = subtree_sizes(adj)
    if len(order) < len(adj):
        raise DisconnectedError("exact counts need a connected graph")
    return order, parent


def tree_inertia_counts(adj, b: Exact | int) -> tuple[int, int]:
    """Counts of :func:`inertia_counts` on the tree with neighbour sets
    ``adj``, by Jacobs-Trevisan on q L - p E_B for b = p / q with q > 0
    (q = 1 for a surd): each vertex's value num/den (den > 0) is its
    diagonal entry less w^2 / value over its children, w = -q. When a
    child's value is 0, that child is set positive, the vertex negative,
    and the vertex's edge to its parent is cut."""
    if isinstance(b, Rational):
        p, q = b.numerator, b.denominator
    else:
        p, q = b, 1
    qq = q * q
    order, parent = _walk(adj)
    num, den = [0] * len(adj), [1] * len(adj)
    cut = [False] * len(adj)
    for v in reversed(order):
        top = len(adj[v]) * q - (p if len(adj[v]) <= 1 else 0)
        bottom = 1
        for c in adj[v]:
            if c == parent[v] or cut[c]:
                continue
            if num[c] == 0:
                num[c], cut[v] = 1, True
                top, bottom = -1, 1
                break
            t = qq * den[c]  # top/bottom - t/num[c], kept over a positive denominator
            if num[c] < 0:
                top, bottom = top * -num[c] + t * bottom, bottom * -num[c]
            else:
                top, bottom = top * num[c] - t * bottom, bottom * num[c]
        num[v], den[v] = top, bottom
    return _counts(num)


def dense_inertia_counts(adj, b: Exact | int) -> tuple[int, int]:
    """Counts of :func:`inertia_counts` on the graph with neighbour sets
    ``adj``, by a dense LDL^T of L - b E_B with 1x1 pivots, and a 2x2
    pivot [[0, x], [x, 0]] when every remaining diagonal entry is 0."""
    _walk(adj)
    n = len(adj)
    a = [[Fraction(-1) if c in adj[r] else Fraction(0) for c in range(n)] for r in range(n)]
    for v in range(n):
        a[v][v] = Fraction(len(adj[v])) - (b if len(adj[v]) <= 1 else 0)
    rest, pivots = list(range(n)), []
    while rest:
        k = next((k for k in rest if a[k][k] != 0), None)
        if k is not None:
            rest.remove(k)
            pivots.append(a[k][k])
            for r in rest:
                if a[r][k] != 0:
                    f = a[r][k] / a[k][k]
                    for c in rest:
                        a[r][c] -= f * a[k][c]
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
