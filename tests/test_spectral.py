import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklov.errors import (
    InvalidParamsError,
    NoBoundaryError,
    SingularInteriorError,
)
from steklov.graph import Role, combinatorial_graph, make_graph
from steklov.spectral import (
    EIG_EQ_TOL,
    dirichlet_energy,
    dirichlet_steklov_spectrum,
    dtn_matrix,
    harmonic_extension,
    laplacian_matrix,
    laplacian_spectrum,
    normal_derivative,
    steklov_spectrum,
    unit_steklov_spectra,
)

from conftest import path_graph, random_weighted_graph


def test_p2_spectrum():
    res = steklov_spectrum(path_graph(2))
    assert np.allclose(res.eigenvalues, [0.0, 2.0])


def test_p3_dtn_matrix():
    op = dtn_matrix(path_graph(3))
    assert np.allclose(op.matrix, 0.5 * np.array([[1, -1], [-1, 1]]))


def test_harmonic_extension_mean_value():
    g = path_graph(3)
    f = harmonic_extension(g, {0: 0.0, 2: 1.0})
    assert abs(f[1] - 0.5) < 1e-14


def test_harmonic_extension_requires_full_data():
    with pytest.raises(InvalidParamsError):
        harmonic_extension(path_graph(3), {0: 1.0})


def test_no_boundary_raises():
    g = path_graph(3).with_roles([Role.INTERIOR] * 3)
    with pytest.raises(NoBoundaryError):
        steklov_spectrum(g)


def test_singular_interior_detected():
    # two components, one of them with no boundary at all
    g = make_graph(
        4,
        [(0, 1, 1), (2, 3, 1)],
        roles=[Role.BOUNDARY, Role.INTERIOR, Role.INTERIOR, Role.INTERIOR],
    )
    with pytest.raises(SingularInteriorError):
        steklov_spectrum(g)


def test_plain_dtn_rejects_dirichlet_vertices():
    g = path_graph(3).with_roles([Role.DIRICHLET, Role.INTERIOR, Role.BOUNDARY])
    with pytest.raises(InvalidParamsError):
        dtn_matrix(g)
    assert dirichlet_steklov_spectrum(g).eigenvalue(1) > 0


def test_constant_kernel_and_sentinel():
    res = steklov_spectrum(path_graph(4))
    assert abs(res.eigenvalue(1)) < 1e-12
    _, f = res.eigenpair(1)
    assert np.ptp(f) < 1e-9  # constant harmonic extension
    assert res.eigenvalue(3) == math.inf


def test_symmetry_and_psd(rng):
    for _ in range(50):
        g = random_weighted_graph(rng)
        op = dtn_matrix(g)
        assert np.allclose(op.matrix, op.matrix.T, atol=1e-12)
        vals = np.linalg.eigvalsh(op.matrix)
        assert vals.min() > -1e-10


def test_green_identity_random(rng):
    # <df,dg>_G = <df/dn, g>_B - <Delta f, g>_Omega for 200 random graphs
    for _ in range(200):
        g = random_weighted_graph(rng)
        n = g.n
        f = rng.standard_normal(n)
        h = rng.standard_normal(n)
        form = laplacian_matrix(g)
        lhs = float(f @ form.matrix @ h)
        lap = (form.matrix @ f) / form.measures  # = -Delta f
        bset = set(g.boundary)
        rhs = sum(lap[x] * h[x] * form.measures[x] for x in range(n))
        boundary_part = sum(lap[x] * h[x] * form.measures[x] for x in bset)
        interior_part = rhs - boundary_part
        assert abs(lhs - (boundary_part + interior_part)) <= 1e-10
        # and the boundary part is exactly the normal-derivative pairing
        nd = normal_derivative(g, f)
        pair = sum(
            nd[k] * h[x] * form.measures[x] for k, x in enumerate(g.boundary)
        )
        assert abs(boundary_part - pair) <= 1e-10


def test_harmonic_extension_minimizes_energy(rng):
    for _ in range(20):
        g = random_weighted_graph(rng, ensure_interior=True)
        data = {x: float(rng.standard_normal()) for x in g.boundary}
        f = harmonic_extension(g, data)
        base = dirichlet_energy(g, f)
        for _ in range(5):
            other = f.copy()
            interior = [v for v in range(g.n) if v not in set(g.boundary)]
            if not interior:
                break
            other[interior] += 0.1 * rng.standard_normal(len(interior))
            assert dirichlet_energy(g, other) >= base - 1e-12


def test_rayleigh_quotient_consistency(rng):
    for _ in range(30):
        g = random_weighted_graph(rng)
        res = steklov_spectrum(g)
        for i in range(1, len(g.boundary) + 1):
            val, ext = res.eigenpair(i)
            num = dirichlet_energy(g, ext)
            den = sum(
                ext[x] ** 2 * float(g.measures[x]) for x in g.boundary
            )
            assert abs(num - val * den) <= 1e-9 * max(1.0, abs(val))


def test_laplacian_spectrum_path():
    res = laplacian_spectrum(path_graph(2))
    assert np.allclose(res.eigenvalues, [0.0, 2.0])
    res3 = laplacian_spectrum(path_graph(3))
    assert np.allclose(res3.eigenvalues, [0.0, 1.0, 3.0])


def test_multiplicity_groups():
    g = combinatorial_graph(4, [(0, 1), (0, 2), (0, 3)])
    res = steklov_spectrum(g)
    groups = res.multiplicity_groups()
    assert [len(x) for x in groups] == [1, 2]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dirichlet_spectrum_positive(seed):
    rng = np.random.default_rng(seed)
    from conftest import random_tree_edges

    n = int(rng.integers(3, 9))
    edges = random_tree_edges(rng, n)
    g = combinatorial_graph(n, edges)
    leaves = g.leaves()
    z = int(rng.choice(leaves))
    roles = [
        Role.DIRICHLET if v == z
        else (Role.BOUNDARY if v in leaves else Role.INTERIOR)
        for v in range(n)
    ]
    res = dirichlet_steklov_spectrum(g.with_roles(roles))
    assert res.eigenvalue(1) > 1e-12


def test_unit_spectra_match_per_graph_oracle():
    """The batched engine against per-graph steklov_spectrum on every class
    it sweeps: trees n <= 12 and connected graphs n <= 7."""
    from steklov.enumeration import (
        _class_codes, graph_edges, graph_from_code, tree_edges, tree_from_code,
    )

    classes = [(n, _class_codes("trees", n), tree_edges, tree_from_code) for n in range(1, 13)]
    classes += [(n, _class_codes("connected", n), graph_edges, graph_from_code) for n in range(1, 8)]
    boundary_free = 0
    for n, codes, parse, decode in classes:
        spectra = unit_steklov_spectra(n, [parse(c)[1] for c in codes])
        assert spectra.shape == (len(codes), n)
        for code, row in zip(codes, spectra):
            g = decode(code)
            k = len(g.boundary)
            assert np.all(np.isinf(row[k:])), code
            if k == 0:
                boundary_free += 1
                continue
            expect = steklov_spectrum(g).eigenvalues
            assert np.all(np.abs(row[:k] - expect)
                          <= EIG_EQ_TOL * np.maximum(1.0, np.abs(expect))), code
    assert boundary_free > 0  # e.g. the cycles of the connected classes
    assert unit_steklov_spectra(4, []).shape == (0, 4)
