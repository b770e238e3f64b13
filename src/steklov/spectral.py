"""Laplacian, harmonic extension and DtN (Steklov) operators.

All operators live in measure-weighted inner products: <f,g>_A = sum_A f g m.
The DtN map is realized as the Schur complement of the Laplacian on the
boundary block; generalized symmetric eigenproblems are reduced to ordinary
ones by diagonal M^{-1/2} conjugation. Dense ``numpy.linalg`` solvers only:
every graph here is desk scale.

Every per-graph solve assembles the same way: :func:`_check_interior_solvable`
checks that the interior block is nonsingular, and :func:`_laplacian`
builds the float Laplacian once, with the vertices whose values are given
first and the interior last. A connected graph with a vertex outside the
interior passes that check with no walk of its own. When every measure of
an eigenproblem is 1 the M^{-1/2} conjugation is skipped. :func:`dtn_matrix`
forms one graph's Schur complement S = L_BB - L_IB^T L_II^{-1} L_IB and
symmetrises it once; :func:`stacked_steklov_spectra` forms the stacked
complements of many unit graphs, without eigenvectors, from their edges
as integer arrays.
:func:`dtn_matrix` inverts L_II once and keeps the inverse, so the harmonic extensions of a
spectrum (``SpectralResult.extensions``) are one product, made the first
time they are read. A Steklov spectrum keeps the operator it was solved
from (``SpectralResult.operator``), so a caller that also needs the DtN
matrix, its boundary measures or further harmonic extensions reads them
there instead of assembling the graph again.

A solve refuses infinite or NaN input with ``ValueError`` and a singular
interior block with ``numpy.linalg.LinAlgError``. It warns
(``RuntimeWarning``) when the 1-norm reciprocal condition number of the
block falls below machine epsilon (:func:`_invert`).

A graph has one DtN operator, and its roles decide what it pins:
:func:`dtn_matrix` gives Lambda_0 on (G, B, B_D), whose data vanishes on
B_D, and with B_D empty that is the plain map Lambda on (G, B). Each graph
object is solved once: :func:`steklov_spectrum` keeps the one
``SpectralResult`` on the graph and hands the same one to every later
call, so the statement checks run on one graph share one solve. The memo
goes by object, not by equality: an equal graph built afresh is solved
again. A call that raises stores nothing, so it raises again on every
call, and a call that reads a stored spectrum repeats the
ill-conditioning warning of its solve.
Because a spectrum is shared, every array of a DtN operator and of a
Steklov spectrum (eigenvalues, vectors, extensions, the DtN matrix, the
boundary measures, the kept coupling and inverse) is read-only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParamsError,
    NoBoundaryError,
    SingularInteriorError,
)
from .graph import WeightedBoundaryGraph, subtree_sizes

# A solve warns of an ill-conditioned block when rcond falls below this.
_EPS = float(np.finfo(float).eps)


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _invert(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The inverse of the finite interior block ``a`` = L_II and its 1-norm
    reciprocal condition number 1 / (|a|_1 |a^-1|_1), warning when that
    falls below machine epsilon. Positive weights and a solvable interior
    make ``a`` and its inverse symmetric positive definite, and
    |x|_1 <= m tr(x) for such an m x m matrix x. So the 1-norms are summed
    only when the traces leave rcond below 1000 eps possible; any other
    block reports rcond = inf."""
    inverse = np.linalg.inv(a)
    rcond = math.inf
    if len(a) ** 2 * a.trace() * inverse.trace() * _EPS >= 1e-3:
        rcond = 1.0 / (np.abs(a).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max())
        _warn_ill_conditioned(rcond)
    return inverse, rcond


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _warn_ill_conditioned(rcond: float) -> None:
    if rcond < _EPS:
        warnings.warn(
            f"An ill-conditioned matrix detected: slice 0 has rcond = {rcond}.",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class LaplacianForm:
    """L = D_w - W together with the measure vector; Delta f = -M^{-1} L f."""

    matrix: np.ndarray
    measures: np.ndarray


def _laplacian(g: WeightedBoundaryGraph, order) -> np.ndarray:
    """Float Laplacian of G restricted to the vertices ``order``, in that
    order. Degrees count every edge, including those to dropped vertices,
    and each is summed in edge order as an entry-by-entry build would."""
    m = len(order)
    pos = [-1] * g.n
    for k, v in enumerate(order):
        pos[v] = k
    degree = [0.0] * g.n
    flat = [0.0] * (m * m)
    for u, v, w in g.edges:
        w = float(w)
        degree[u] += w
        degree[v] += w
        p, q = pos[u], pos[v]
        if p >= 0 and q >= 0:
            flat[p * m + q] = flat[q * m + p] = -w
    flat[:: m + 1] = [degree[v] for v in order]
    return np.array(flat, dtype=float).reshape(m, m)


def laplacian_matrix(g: WeightedBoundaryGraph) -> LaplacianForm:
    return LaplacianForm(
        matrix=_laplacian(g, range(g.n)),
        measures=np.array([float(m) for m in g.measures]),
    )


def _check_interior_solvable(g: WeightedBoundaryGraph, interior) -> None:
    """Raise unless every component of the ``interior`` vertices has an edge
    to a vertex outside it, i.e. unless the interior block of L is
    nonsingular. One pass from a virtual root joined to every outside
    vertex misses exactly the vertices of the components that have none."""
    if len(interior) < g.n and g.is_connected():
        # In a connected graph a path runs from any interior vertex to any
        # vertex outside, and its first step out of the interior is an edge
        # out of that vertex's interior component: nothing to check.
        return
    inside = set(interior)
    adj = [*g.adjacency.values(), [v for v in range(g.n) if v not in inside]]
    reached = subtree_sizes(adj, g.n)[0]
    if len(reached) <= g.n:
        comp = g.components(inside.difference(reached))[0]
        raise SingularInteriorError(
            f"component {comp} has no path to a boundary/Dirichlet vertex"
        )


def harmonic_extension(g: WeightedBoundaryGraph, data) -> np.ndarray:
    """Extend boundary data harmonically to all of V.

    ``data`` is a mapping vertex -> value covering B union B_D, or a
    sequence of values in the order ``g.boundary + g.dirichlet``.
    """
    pinned, interior = g.boundary + g.dirichlet, g.interior
    if not pinned:
        raise NoBoundaryError("harmonic extension needs B or B_D nonempty")
    if not isinstance(data, dict):
        if len(data) != len(pinned):
            raise InvalidParamsError("boundary data has wrong length")
        data = dict(zip(pinned, data))
    missing = set(pinned) - set(data)
    if missing:
        raise InvalidParamsError(f"missing boundary data at {sorted(missing)}")

    _check_interior_solvable(g, interior)
    L = _laplacian(g, pinned + interior)
    k = len(pinned)
    f = np.zeros(g.n)
    for v in pinned:
        f[v] = float(data[v])
    if interior:
        A, b = L[k:, k:], -L[k:, :k] @ f[list(pinned)]
        _require_finite(A)
        _require_finite(b)
        f[list(interior)] = _invert(A)[0] @ b
    return f


def normal_derivative(g: WeightedBoundaryGraph, f: np.ndarray) -> np.ndarray:
    """(1/m_x) sum_y (f(x)-f(y)) w_xy for x in B, i.e. (-Delta f)|_B."""
    form = laplacian_matrix(g)
    full = (form.matrix @ np.asarray(f, dtype=float)) / form.measures
    return full[list(g.boundary)]


@dataclass(frozen=True)
class DtnOperator:
    """Schur complement of the Laplacian on the boundary block."""

    boundary: tuple[int, ...]
    matrix: np.ndarray
    boundary_measures: np.ndarray
    eliminated: tuple[int, ...]  # interior vertices folded into the complement
    pinned: tuple[int, ...]  # Dirichlet vertices (empty for the plain map)
    # The interior solve, kept for harmonic extensions: |V|, L_IB and the
    # inverse of L_II with its rcond (both None when nothing is eliminated).
    _order: int = field(repr=False, compare=False)
    _coupling: np.ndarray | None = field(repr=False, compare=False)
    _inverse: tuple[np.ndarray, float] | None = field(repr=False, compare=False)

    def _extend(self, vectors: np.ndarray) -> np.ndarray:
        """Harmonic extensions to V of boundary columns, zero on B_D."""
        ext = np.zeros((self._order, vectors.shape[1]))
        ext[list(self.boundary), :] = vectors
        if self.eliminated:
            inverse, rcond = self._inverse
            _warn_ill_conditioned(rcond)  # as the Schur complement did
            ext[list(self.eliminated), :] = inverse @ (-self._coupling @ vectors)
        return ext


def dtn_matrix(g: WeightedBoundaryGraph) -> DtnOperator:
    """The DtN operator of (G, B, B_D): Lambda_0, whose data vanishes on
    B_D. It drops the B_D rows and columns of L (pinning those values to
    zero) and then eliminates the interior block; with B_D empty it pins
    nothing and is the plain map Lambda on (G, B).
    """
    boundary, dirichlet, interior = g.boundary, g.dirichlet, g.interior
    if not boundary:
        raise NoBoundaryError("graph has no boundary vertices")
    _check_interior_solvable(g, interior)
    L = _laplacian(g, boundary + interior)
    _require_finite(L)  # once for every block below
    k = len(boundary)
    S = L[:k, :k]
    coupling = inverse = None
    if k < len(L):
        coupling = L[k:, :k]
        inverse = _invert(L[k:, k:])
        S = S - coupling.T @ (inverse[0] @ coupling)
        coupling = coupling.copy()  # a view would keep all of L alive
        _read_only(coupling, inverse[0])
    S = (S + S.T) / 2.0
    measures = np.array([float(g.measures[v]) for v in boundary])
    _read_only(S, measures)
    return DtnOperator(
        boundary=boundary,
        matrix=S,
        boundary_measures=measures,
        eliminated=interior,
        pinned=dirichlet,
        _order=g.n,
        _coupling=coupling,
        _inverse=inverse,
    )


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues with measure-orthonormal eigenvectors.

    ``vectors`` columns live on ``support`` (boundary vertices for Steklov
    kinds, all of V for the Laplacian); ``extensions`` columns live on V.
    ``operator`` is the DtN map the spectrum was solved from (None for the
    Laplacian). Indices past the operator rank domain read as +inf.
    """

    kind: str
    eigenvalues: np.ndarray
    vectors: np.ndarray
    support: tuple[int, ...]
    operator: DtnOperator | None = field(repr=False, compare=False)

    @cached_property
    def extensions(self) -> np.ndarray:
        """Harmonic extensions of ``vectors`` to V, solved on first read."""
        if self.operator is None:
            return self.vectors
        ext = self.operator._extend(self.vectors)
        _read_only(ext)
        return ext

    def eigenvalue(self, i: int) -> float:
        """1-based; +inf sentinel beyond |support|."""
        if i < 1:
            raise InvalidParamsError("eigenvalue index is 1-based")
        if i > len(self.eigenvalues):
            return math.inf
        return float(self.eigenvalues[i - 1])

    def eigenpair(self, i: int) -> tuple[float, np.ndarray]:
        """1-based eigenvalue with its eigenvector extended to V."""
        if not 1 <= i <= len(self.eigenvalues):
            raise InvalidParamsError(
                f"eigenpair index {i} outside 1..{len(self.eigenvalues)}")
        return float(self.eigenvalues[i - 1]), self.extensions[:, i - 1]


def _generalized_eigh(S: np.ndarray, m: np.ndarray):
    """Eigenpairs of S u = lambda M u for symmetric S and M = diag(m)."""
    if not (m != 1.0).any():
        # unit measures: the conjugation would multiply by 1
        _require_finite(S)
        return np.linalg.eigh(S)
    d = 1.0 / np.sqrt(m)
    T = (S * d).T * d  # diag(d) S diag(d), symmetric
    T = (T + T.T) / 2.0
    _require_finite(T)
    vals, Y = np.linalg.eigh(T)
    return vals, Y * d[:, None]


def _steklov_result(op: DtnOperator) -> SpectralResult:
    """The solved spectrum of ``op``, of kind "dirichlet" iff it pins a vertex."""
    vals, vecs = _generalized_eigh(op.matrix, op.boundary_measures)
    _read_only(vals, vecs)
    return SpectralResult(kind="dirichlet" if op.pinned else "steklov", eigenvalues=vals,
                          vectors=vecs, support=op.boundary, operator=op)


def steklov_spectrum(g: WeightedBoundaryGraph) -> SpectralResult:
    """Spectrum of the DtN operator of ``g`` (:func:`dtn_matrix`): the
    Steklov sigma_i of Lambda on (G, B), or with B_D nonempty the
    Dirichlet-Steklov lambda_i of Lambda_0 (``kind`` "dirichlet"). Solved
    on the first call and kept on the graph object; a later call repeats
    the solve's ill-conditioning warning from the stored rcond."""
    res = g._spectrum
    if res is None:
        res = _steklov_result(dtn_matrix(g))
        object.__setattr__(g, "_spectrum", res)
    elif res.operator._inverse is not None:
        _warn_ill_conditioned(res.operator._inverse[1])
    return res


def stacked_steklov_spectra(n: int, count: int, owner, ends) -> np.ndarray:
    """Steklov spectra of ``count`` connected unit-weight graphs on n
    vertices, each with the combinatorial boundary (degree <= 1) and unit
    measures, given as integer arrays in any edge order: edge k joins
    ``ends[k, 0]`` and ``ends[k, 1]`` in graph ``owner[k]``.

    Row j holds the ascending eigenvalues of graph j, padded with +inf past
    its |B|; a graph without boundary gets a row of +inf. Graphs with equal
    |B| share one stacked Schur-complement solve and one stacked
    ``eigvalsh``. Per graph this is :func:`steklov_spectrum` up to
    rounding, without eigenvectors or harmonic extensions. Each graph's
    Laplacian, and so its row, depends only on its set of edges."""
    out = np.full((count, n), np.inf)
    L = np.zeros((count, n, n))
    L[owner, ends[:, 0], ends[:, 1]] = 1.0
    L[owner, ends[:, 1], ends[:, 0]] = 1.0
    degree = L.sum(axis=2)
    np.negative(L, out=L)
    diag = np.arange(n)
    L[:, diag, diag] = degree
    boundary = degree <= 1
    order = np.argsort(~boundary, axis=1, kind="stable")  # boundary first
    sizes = boundary.sum(axis=1)
    for k in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == k)
        p = order[rows]
        Lp = L[rows[:, None, None], p[:, :, None], p[:, None, :]]
        S = Lp[:, :k, :k]
        if k < n:
            S = S - Lp[:, :k, k:] @ np.linalg.solve(Lp[:, k:, k:], Lp[:, k:, :k])
        out[rows, :k] = np.linalg.eigvalsh((S + S.transpose(0, 2, 1)) / 2.0)
    return out


def laplacian_spectrum(g: WeightedBoundaryGraph) -> SpectralResult:
    """Generalized Laplacian eigenvalues L u = mu M u on all of V."""
    form = laplacian_matrix(g)
    vals, vecs = _generalized_eigh(form.matrix, form.measures)
    return SpectralResult(
        kind="laplacian",
        eigenvalues=vals,
        vectors=vecs,
        support=tuple(range(g.n)),
        operator=None,
    )
