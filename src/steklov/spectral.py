"""Laplacian, harmonic extension and DtN (Steklov) operators.

All operators live in measure-weighted inner products: <f,g>_A = sum_A f g m.
The DtN map is realized as the Schur complement of the Laplacian on the
boundary block; generalized symmetric eigenproblems are reduced to ordinary
ones by diagonal M^{-1/2} conjugation. Dense solvers only: every graph here
is desk scale.

One assembly serves every per-graph solve: :func:`_pinned_first` checks
that the interior block is nonsingular and builds the float Laplacian once,
with the vertices whose values are given first and the interior last. A
connected graph with a vertex outside the interior passes that check with
no walk of its own. When every measure of an eigenproblem is 1 the
M^{-1/2} conjugation is skipped: with d = 1 it changes no bit of the
eigenvalues or the eigenvectors, and the matrix is not symmetrised again.
:func:`dtn_matrix` is the only place that forms the Schur complement
S = L_BB - L_IB^T L_II^{-1} L_IB, and it symmetrises S once. It checks
that the assembled Laplacian is finite once, since L_II and L_IB are
blocks of it, and solves with :func:`_posv`, the LAPACK core of
:func:`_solve_pos` without its checks. It keeps the Cholesky factor of L_II, so
the harmonic extensions of a spectrum (``SpectralResult.extensions``) are
solved from it the first time they are read, not with every spectrum.
A Steklov spectrum keeps the operator it was solved from
(``SpectralResult.operator``), so a caller that also needs the DtN matrix,
its boundary measures or further harmonic extensions reads them there
instead of assembling the graph again.

Two helpers call LAPACK directly, because scipy's wrappers cost several
times the solve itself at these sizes. Each reproduces the bits of the
scipy call it replaces (scipy 1.17):

- :func:`_solve_pos` is ``scipy.linalg.solve(a, b, assume_a="pos")``:
  ``dposv`` on the upper triangle, scipy's division for a 1x1 block, and
  scipy's checks (non-finite input, a failed factorization, ``dpocon``
  rcond below machine epsilon).
- :func:`_eigh` is ``scipy.linalg.eigh(a)``: ``dsyevr`` on the lower
  triangle with scipy's workspace query and eigenvectors always computed.
  Any other triangle, workspace or ``compute_v`` changes the last bits of
  the eigenvalues, and with them the printed minima.

Both reach ``scipy.linalg.lapack`` through :func:`_lapack`, which imports
it on the first solve rather than with the package: importing
``scipy.linalg`` takes longer than the rest of ``import steklov``, numpy
included, and a process that only enumerates or decodes classes never
solves. The batched :func:`unit_steklov_spectra` needs numpy alone. A
failed solve raises ``numpy.linalg.LinAlgError``, which is scipy's
``LinAlgError``; scipy's ``LinAlgWarning`` is imported only when a solve
is ill-conditioned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (
    InvalidParamsError,
    NoBoundaryError,
    SingularInteriorError,
)
from .graph import WeightedBoundaryGraph, subtree_sizes

# Two eigenvalues count as equal when |a-b| <= EIG_EQ_TOL * max(1, |a|).
EIG_EQ_TOL = 1e-8
# scipy warns of an ill-conditioned solve when rcond falls below this.
_EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def _lapack():
    """scipy's LAPACK bindings, imported by the first solve that needs them."""
    from scipy.linalg import lapack

    return lapack


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _solve_pos(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple]:
    """x with a x = b for symmetric positive definite ``a``, bit for bit as
    ``scipy.linalg.solve(a, b, assume_a="pos")``, and the factor of ``a``
    that :func:`_solve_factored` takes for further right-hand sides."""
    _require_finite(a)
    _require_finite(b)
    return _posv(a, b)


def _posv(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple]:
    """:func:`_solve_pos` without its finiteness checks, for blocks of a
    matrix that the caller has checked whole."""
    if len(a) == 1:  # scipy divides by a 1x1 block instead of factoring it
        if a[0, 0] == 0:
            raise LinAlgError("A singular matrix detected.")
        return b / a, (a, math.inf)
    lapack = _lapack()
    c, x, info = lapack.dposv(a, b)
    if info > 0:
        raise LinAlgError("A singular matrix detected: slice(s) [0] are singular.")
    rcond, _ = lapack.dpocon(c, lapack.dlange("1", a))
    _warn_ill_conditioned(rcond)
    return x, (c, rcond)


def _solve_factored(factor: tuple, b: np.ndarray) -> np.ndarray:
    """``_solve_pos(a, b)[0]`` from the factor that it returned for ``a``,
    with the same checks and warning."""
    _require_finite(b)
    c, rcond = factor
    if len(c) == 1:
        return b / c
    _warn_ill_conditioned(rcond)
    return _lapack().dpotrs(c, b)[0]


def _warn_ill_conditioned(rcond: float) -> None:
    if rcond < _EPS:
        from scipy.linalg import LinAlgWarning

        warnings.warn(
            f"An ill-conditioned matrix detected: slice 0 has rcond = {rcond}.",
            LinAlgWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=None)
def _syevr_workspace(n: int) -> tuple[int, int]:
    """scipy's lwork and liwork for dsyevr; past n = 32 the default
    workspace changes the blocking, and with it the bits."""
    lwork, liwork, _ = _lapack().dsyevr_lwork(n, lower=1)
    return int(lwork), int(liwork)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of symmetric ``a``,
    bit for bit as ``scipy.linalg.eigh(a)``."""
    _require_finite(a)
    lwork, liwork = _syevr_workspace(len(a))
    w, v, _, _, info = _lapack().dsyevr(a, lower=1, lwork=lwork, liwork=liwork)
    if info:
        raise LinAlgError("Internal Error.")
    return w, v


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


def dirichlet_energy(g: WeightedBoundaryGraph, f: np.ndarray) -> float:
    """<df,df>_G = sum over edges of (f(x)-f(y))^2 w_xy."""
    return sum(float(w) * (f[u] - f[v]) ** 2 for u, v, w in g.edges)


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


def _pinned_first(
    g: WeightedBoundaryGraph, head: tuple[int, ...], interior: tuple[int, ...]
) -> np.ndarray:
    """The one Steklov assembly: check that the interior is solvable with
    B and B_D held fixed, then build the float Laplacian on ``head`` (the
    vertices whose values are given) followed by the interior."""
    _check_interior_solvable(g, interior)
    return _laplacian(g, head + interior)


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

    L = _pinned_first(g, pinned, interior)
    k = len(pinned)
    f = np.zeros(g.n)
    for v in pinned:
        f[v] = float(data[v])
    if interior:
        b = -L[k:, :k] @ f[list(pinned)]
        f[list(interior)] = _solve_pos(L[k:, k:], b)[0]
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
    # factor of L_II (both None when nothing is eliminated).
    _order: int = field(repr=False, compare=False)
    _coupling: np.ndarray | None = field(repr=False, compare=False)
    _factor: tuple | None = field(repr=False, compare=False)

    def _extend(self, vectors: np.ndarray) -> np.ndarray:
        """Harmonic extensions to V of boundary columns, zero on B_D."""
        ext = np.zeros((self._order, vectors.shape[1]))
        ext[list(self.boundary), :] = vectors
        if self.eliminated:
            rhs = -self._coupling @ vectors
            ext[list(self.eliminated), :] = _solve_factored(self._factor, rhs)
        return ext


def dtn_matrix(g: WeightedBoundaryGraph, with_dirichlet: bool = False) -> DtnOperator:
    """DtN map Lambda (or Lambda_0 when ``with_dirichlet``).

    Plain variant requires B_D empty. The Dirichlet variant drops the B_D
    rows/columns of L (pinning those values to zero) and then eliminates the
    interior block.
    """
    boundary, dirichlet, interior = g.boundary, g.dirichlet, g.interior
    if not boundary:
        raise NoBoundaryError("graph has no boundary vertices")
    if not with_dirichlet and dirichlet:
        raise InvalidParamsError(
            "graph has Dirichlet vertices; use with_dirichlet=True"
        )
    L = _pinned_first(g, boundary, interior)
    _require_finite(L)  # once for every block below
    k = len(boundary)
    S = L[:k, :k].copy()
    coupling = factor = None
    if k < len(L):
        # contiguous: numpy multiplies a strided one-column block with other bits
        coupling = L[k:, :k].copy()
        x, factor = _posv(L[k:, k:], coupling)
        S -= coupling.T @ x
    S = (S + S.T) / 2.0
    return DtnOperator(
        boundary=boundary,
        matrix=S,
        boundary_measures=np.array([float(g.measures[v]) for v in boundary]),
        eliminated=interior,
        pinned=dirichlet,
        _order=g.n,
        _coupling=coupling,
        _factor=factor,
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
        return self.operator._extend(self.vectors)

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

    def multiplicity_groups(self, tol: float = EIG_EQ_TOL) -> list[list[int]]:
        """Indices (0-based) grouped by eigenvalue equality threshold."""
        groups: list[list[int]] = []
        for idx, val in enumerate(self.eigenvalues):
            if groups and abs(val - self.eigenvalues[groups[-1][0]]) <= tol * max(
                1.0, abs(val)
            ):
                groups[-1].append(idx)
            else:
                groups.append([idx])
        return groups


def _generalized_eigh(S: np.ndarray, m: np.ndarray):
    """Eigenpairs of S u = lambda M u for symmetric S and M = diag(m)."""
    if not (m != 1.0).any():
        # unit measures: with d = 1 the conjugation below changes no bit,
        # and S is already symmetric
        return _eigh(S)
    d = 1.0 / np.sqrt(m)
    T = (S * d).T * d  # diag(d) S diag(d), symmetric
    vals, Y = _eigh((T + T.T) / 2.0)
    vecs = Y * d[:, None]
    return vals, vecs


def _steklov_result(op: DtnOperator, kind: str) -> SpectralResult:
    vals, vecs = _generalized_eigh(op.matrix, op.boundary_measures)
    return SpectralResult(
        kind=kind, eigenvalues=vals, vectors=vecs, support=op.boundary, operator=op
    )


def steklov_spectrum(g: WeightedBoundaryGraph) -> SpectralResult:
    """Spectrum of the plain DtN map Lambda on (G, B)."""
    return _steklov_result(dtn_matrix(g, with_dirichlet=False), "steklov")


def dirichlet_steklov_spectrum(g: WeightedBoundaryGraph) -> SpectralResult:
    """Spectrum of Lambda_0 on (G, B, B_D): data vanishes on B_D."""
    return _steklov_result(dtn_matrix(g, with_dirichlet=True), "dirichlet")


def unit_steklov_spectra(n: int, edge_lists) -> np.ndarray:
    """Steklov spectra of many connected unit-weight graphs on n vertices,
    each with the combinatorial boundary (degree <= 1) and unit measures.

    Row j holds the ascending eigenvalues of graph j, padded with +inf past
    its |B|; a graph without boundary gets a row of +inf. Graphs with equal
    |B| share one stacked Schur-complement solve and one stacked
    ``eigvalsh``. Per graph this is ``steklov_spectrum`` up to rounding,
    without eigenvectors or harmonic extensions.
    """
    count = len(edge_lists)
    out = np.full((count, n), np.inf)
    owner = np.repeat(np.arange(count), [len(e) for e in edge_lists])
    ends = np.array([p for e in edge_lists for p in e], dtype=np.intp).reshape(-1, 2)
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
