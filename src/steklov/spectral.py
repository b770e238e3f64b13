"""Laplacian, harmonic extension and DtN (Steklov) operators.

All operators live in measure-weighted inner products: <f,g>_A = sum_A f g m.
The DtN map is realized as the Schur complement of the Laplacian on the
boundary block; generalized symmetric eigenproblems are reduced to ordinary
ones by diagonal M^{-1/2} conjugation. Dense solvers only: every graph here
is desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    InvalidParamsError,
    NoBoundaryError,
    SingularInteriorError,
)
from .graph import Role, WeightedBoundaryGraph

# Two eigenvalues count as equal when |a-b| <= EIG_EQ_TOL * max(1, |a|).
EIG_EQ_TOL = 1e-8


@dataclass(frozen=True)
class LaplacianForm:
    """L = D_w - W together with the measure vector; Delta f = -M^{-1} L f."""

    matrix: np.ndarray
    measures: np.ndarray


def laplacian_matrix(g: WeightedBoundaryGraph) -> LaplacianForm:
    L = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        w = float(w)
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return LaplacianForm(matrix=L, measures=np.array([float(m) for m in g.measures]))


def dirichlet_energy(g: WeightedBoundaryGraph, f: np.ndarray) -> float:
    """<df,df>_G = sum over edges of (f(x)-f(y))^2 w_xy."""
    return sum(float(w) * (f[u] - f[v]) ** 2 for u, v, w in g.edges)


def _check_interior_solvable(g: WeightedBoundaryGraph, pinned: set[int]) -> None:
    """Every component of G minus ``pinned`` must touch a pinned vertex,
    unless the component consists of pinned-free... i.e. raise when a whole
    component of G has no pinned vertex at all."""
    free = [v for v in range(g.n) if v not in pinned]
    for comp in g.components(free):
        if not any(any(y in pinned for y in g.adjacency[x]) for x in comp):
            raise SingularInteriorError(
                f"component {comp} has no path to a boundary/Dirichlet vertex"
            )


def harmonic_extension(g: WeightedBoundaryGraph, data) -> np.ndarray:
    """Extend boundary data harmonically to all of V.

    ``data`` is a mapping vertex -> value covering B union B_D, or a
    sequence of values in the order ``g.boundary + g.dirichlet``.
    """
    pinned = list(g.boundary) + list(g.dirichlet)
    if not pinned:
        raise NoBoundaryError("harmonic extension needs B or B_D nonempty")
    if not isinstance(data, dict):
        if len(data) != len(pinned):
            raise InvalidParamsError("boundary data has wrong length")
        data = dict(zip(pinned, data))
    missing = set(pinned) - set(data)
    if missing:
        raise InvalidParamsError(f"missing boundary data at {sorted(missing)}")

    interior = [v for v in range(g.n) if v not in set(pinned)]
    _check_interior_solvable(g, set(pinned))
    f = np.zeros(g.n)
    for v in pinned:
        f[v] = float(data[v])
    if interior:
        L = laplacian_matrix(g).matrix
        A = L[np.ix_(interior, interior)]
        b = -L[np.ix_(interior, pinned)] @ f[pinned]
        f[interior] = scipy.linalg.solve(A, b, assume_a="pos")
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


def dtn_matrix(g: WeightedBoundaryGraph, with_dirichlet: bool = False) -> DtnOperator:
    """DtN map Lambda (or Lambda_0 when ``with_dirichlet``).

    Plain variant requires B_D empty. The Dirichlet variant drops the B_D
    rows/columns of L (pinning those values to zero) and then eliminates the
    interior block.
    """
    boundary = g.boundary
    if not boundary:
        raise NoBoundaryError("graph has no boundary vertices")
    if not with_dirichlet and g.dirichlet:
        raise InvalidParamsError(
            "graph has Dirichlet vertices; use with_dirichlet=True"
        )
    pinned = set(g.dirichlet) if with_dirichlet else set()
    interior = [v for v in range(g.n) if g.roles[v] is Role.INTERIOR]
    _check_interior_solvable(g, set(boundary) | pinned)

    L = laplacian_matrix(g).matrix
    bidx = list(boundary)
    S = L[np.ix_(bidx, bidx)].copy()
    if interior:
        A = L[np.ix_(interior, interior)]
        C = L[np.ix_(interior, bidx)]
        S -= C.T @ scipy.linalg.solve(A, C, assume_a="pos")
    S = (S + S.T) / 2.0
    m_b = np.array([float(g.measures[v]) for v in boundary])
    return DtnOperator(
        boundary=boundary,
        matrix=S,
        boundary_measures=m_b,
        eliminated=tuple(interior),
        pinned=tuple(sorted(pinned)),
    )


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues with measure-orthonormal eigenvectors.

    ``vectors`` columns live on ``support`` (boundary vertices for Steklov
    kinds, all of V for the Laplacian); ``extensions`` columns live on V.
    Indices past the operator rank domain read as +inf.
    """

    kind: str
    eigenvalues: np.ndarray
    vectors: np.ndarray
    extensions: np.ndarray
    support: tuple[int, ...]

    def eigenvalue(self, i: int) -> float:
        """1-based; +inf sentinel beyond |support|."""
        if i < 1:
            raise InvalidParamsError("eigenvalue index is 1-based")
        if i > len(self.eigenvalues):
            return math.inf
        return float(self.eigenvalues[i - 1])

    def eigenpair(self, i: int) -> tuple[float, np.ndarray]:
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
    d = 1.0 / np.sqrt(m)
    T = (S * d).T * d  # diag(d) S diag(d), symmetric
    vals, Y = scipy.linalg.eigh((T + T.T) / 2.0)
    vecs = Y * d[:, None]
    return vals, vecs


def _steklov_result(g: WeightedBoundaryGraph, op: DtnOperator, kind: str) -> SpectralResult:
    vals, vecs = _generalized_eigh(op.matrix, op.boundary_measures)
    # Harmonic extensions of all eigenvectors in one batch solve.
    ext = np.zeros((g.n, len(op.boundary)))
    bidx = list(op.boundary)
    ext[bidx, :] = vecs
    interior = list(op.eliminated)
    if interior:
        L = laplacian_matrix(g).matrix
        A = L[np.ix_(interior, interior)]
        rhs = -L[np.ix_(interior, bidx)] @ vecs
        ext[interior, :] = scipy.linalg.solve(A, rhs, assume_a="pos")
    return SpectralResult(
        kind=kind,
        eigenvalues=vals,
        vectors=vecs,
        extensions=ext,
        support=op.boundary,
    )


def steklov_spectrum(g: WeightedBoundaryGraph) -> SpectralResult:
    """Spectrum of the plain DtN map Lambda on (G, B)."""
    return _steklov_result(g, dtn_matrix(g, with_dirichlet=False), "steklov")


def dirichlet_steklov_spectrum(g: WeightedBoundaryGraph) -> SpectralResult:
    """Spectrum of Lambda_0 on (G, B, B_D): data vanishes on B_D."""
    return _steklov_result(g, dtn_matrix(g, with_dirichlet=True), "dirichlet")


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
        extensions=vecs,
        support=tuple(range(g.n)),
    )
