import ast
import math
import re
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import steklov
from steklov import spectral
from steklov.errors import (
    InvalidParamsError,
    NoBoundaryError,
    SingularInteriorError,
)
from steklov.graph import Role, WeightedBoundaryGraph, combinatorial_graph, make_graph
from steklov.spectral import (
    dtn_matrix,
    harmonic_extension,
    laplacian_matrix,
    laplacian_spectrum,
    normal_derivative,
    stacked_steklov_spectra,
    steklov_spectrum,
)

from conftest import (
    code_decoders,
    counting_calls,
    dirichlet_energy,
    path_graph,
    random_weighted_graph,
    stacked,
    union_find_components,
)


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


def test_harmonic_extension_takes_data_as_a_sequence(rng):
    # values in g.boundary + g.dirichlet order extend bit for bit as the
    # mapping of the same values does; a sequence of another length raises
    solved = 0
    for _ in range(60):
        g = random_dirichlet_graph(rng)
        pinned = g.boundary + g.dirichlet
        values = rng.standard_normal(len(pinned)).tolist()
        f = harmonic_extension(g, values)
        assert np.array_equal(f, harmonic_extension(g, dict(zip(pinned, values))))
        assert f[list(pinned)].tolist() == values
        solved += bool(g.dirichlet and g.interior)
        for wrong in (values[:-1], values + [0.0]):
            with pytest.raises(InvalidParamsError, match="wrong length"):
                harmonic_extension(g, wrong)
    assert solved > 0


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
    # the operator pins B_D: Lambda_0, S = L_BB - L_IB^T L_II^-1 L_IB = 1 - 1/2
    op = dtn_matrix(g)
    assert op.pinned == (0,) and op.matrix.tolist() == [[0.5]]
    res = steklov_spectrum(g)
    assert res.kind == "dirichlet" and steklov_spectrum(g) is res
    assert steklov_spectrum(g).eigenvalue(1) > 0


def test_constant_kernel_and_sentinel():
    res = steklov_spectrum(path_graph(4))
    assert abs(res.eigenvalue(1)) < 1e-12
    _, f = res.eigenpair(1)
    assert np.ptp(f) < 1e-9  # constant harmonic extension
    assert res.eigenvalue(3) == math.inf


@pytest.mark.parametrize("i", [0, -1, 3])
def test_eigenpair_index_out_of_range(i):
    # P4 has |B| = 2: eigenpairs 1 and 2 only, no wrap-around from index 0
    res = steklov_spectrum(path_graph(4))
    with pytest.raises(InvalidParamsError):
        res.eigenpair(i)
    assert res.eigenpair(2)[0] == res.eigenvalue(2)


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
    res = steklov_spectrum(g.with_roles(roles))
    assert res.eigenvalue(1) > 1e-12


def test_unit_spectra_match_per_graph_oracle():
    """The batched engine against per-graph steklov_spectrum on every class
    it sweeps: trees n <= 12 and connected graphs n <= 7."""
    from steklov.enumeration import _class

    classes = [(n, _class("trees", n).codes) for n in range(1, 13)]
    classes += [(n, _class("connected", n).codes) for n in range(1, 8)]
    boundary_free = 0
    for n, codes in classes:
        edge_lists = [code_decoders(c)[0](c)[1] for c in codes]
        spectra = stacked_steklov_spectra(n, len(codes), *stacked(edge_lists))
        assert spectra.shape == (len(codes), n)
        for code, row in zip(codes, spectra):
            g = code_decoders(code)[1](code)
            k = len(g.boundary)
            assert np.all(np.isinf(row[k:])), code
            if k == 0:
                boundary_free += 1
                continue
            expect = steklov_spectrum(g).eigenvalues
            assert np.all(np.abs(row[:k] - expect)
                          <= 1e-8 * np.maximum(1.0, np.abs(expect))), code
    assert boundary_free > 0  # e.g. the cycles of the connected classes
    assert stacked_steklov_spectra(4, 0, *stacked([])).shape == (0, 4)


def test_class_screen_from_the_store_equals_the_edge_list_build():
    """A class object's screen, built from its store, is bitwise the batched
    engine on the arrays of its edge lists."""
    from steklov.enumeration import _class

    classes = [_class("trees", n) for n in range(3, 13)]
    classes += [_class("connected", n) for n in range(1, 8)]
    for stream in classes:
        edge_lists = stream.edge_lists()
        expect = stacked_steklov_spectra(stream.n, len(edge_lists), *stacked(edge_lists))
        assert np.array_equal(stream.spectra, expect)


# -- a numpy oracle for the per-graph solves ----------------------------------


def oracle_laplacian(g):
    """The float Laplacian built entry by entry, in edge order."""
    L = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        w = float(w)
        L[u, u] += w
        L[v, v] += w
        L[u, v] -= w
        L[v, u] -= w
    return L


def oracle_eigenvalues(S, m):
    """Eigenvalues of S u = lambda diag(m) u by ``numpy.linalg.eigvalsh``."""
    d = 1.0 / np.sqrt(m)
    T = (S * d).T * d
    return np.linalg.eigvalsh((T + T.T) / 2.0)


def oracle_dtn(g):
    """The Schur complement by ``numpy.linalg.solve`` on blocks of the
    entry-by-entry Laplacian."""
    bidx, interior = list(g.boundary), list(g.interior)
    L = oracle_laplacian(g)
    S = L[np.ix_(bidx, bidx)]
    if interior:
        C = L[np.ix_(interior, bidx)]
        S = S - C.T @ np.linalg.solve(L[np.ix_(interior, interior)], C)
    return (S + S.T) / 2.0


def assert_close(got, expect, scale):
    assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(1.0, scale))


def assert_eigenpairs(S, m, res, expect):
    """Eigenvalues within 1e-12 max(1, |sigma|) of ``expect``; eigenvectors,
    whose basis of an eigenspace is the solver's choice, by their residual
    and their M-orthonormality."""
    vals, V = res.eigenvalues, res.vectors
    assert_close(vals, expect, np.abs(expect))
    assert_close(S @ V, (m[:, None] * V) * vals, np.abs(vals).max(initial=1.0))
    assert_close(V.T @ (m[:, None] * V), np.eye(len(m)), 1.0)


def star_graph(leaves):
    return combinatorial_graph(leaves + 1, [(0, k) for k in range(1, leaves + 1)])


def random_dirichlet_graph(rng):
    """A random connected graph with Fraction or float weights, non-unit
    measures and some interior vertices turned into Dirichlet vertices."""
    g = random_weighted_graph(rng, n_max=10)
    roles = list(g.roles)
    for v in g.interior:
        if rng.random() < 0.4:
            roles[v] = Role.DIRICHLET
    edges = [(u, v, Fraction(w).limit_denominator(97) if rng.random() < 0.5 else w)
             for u, v, w in g.edges]
    return make_graph(g.n, edges, measures=g.measures, roles=roles)


def assert_matches_oracle(g):
    L = oracle_laplacian(g)
    assert np.array_equal(laplacian_matrix(g).matrix, L)
    m = np.array([float(x) for x in g.measures])
    res = laplacian_spectrum(g)
    assert_eigenpairs(L, m, res, oracle_eigenvalues(L, m))
    assert res.extensions is res.vectors
    if not g.boundary:
        return
    S, mb = oracle_dtn(g), m[list(g.boundary)]
    res = steklov_spectrum(g)
    assert_close(dtn_matrix(g).matrix, S, np.abs(S).max())
    assert_eigenpairs(res.operator.matrix, mb, res, oracle_eigenvalues(S, mb))
    # extensions: the eigenvectors on B, zero on B_D, harmonic on the interior
    ext, interior = res.extensions, list(g.interior)
    assert np.array_equal(ext[list(g.boundary)], res.vectors)
    assert not ext[list(g.dirichlet)].any()
    assert_close((L @ ext)[interior], 0.0, np.abs(L).max() * np.abs(ext).max())
    data = {v: float(k + 1) / 3 for k, v in enumerate(g.boundary + g.dirichlet)}
    f = harmonic_extension(g, data)
    assert all(f[v] == x for v, x in data.items())
    assert_close((L @ f)[interior], 0.0, np.abs(L).max() * np.abs(f).max())


def test_spectra_match_numpy_oracle(rng):
    """The Laplacian has the bits of an entry-by-entry build; every DtN
    matrix and spectrum agrees with a ``numpy.linalg.solve`` and
    ``eigvalsh`` oracle to 1e-12 relative; eigenvectors are M-orthonormal
    eigenpairs and extensions are harmonic on the interior. All trees
    n <= 12, all connected graphs n <= 7, stars up to 40 leaves (a 1x1
    interior block) and random Dirichlet graphs."""
    from steklov.enumeration import enumerate_connected_graphs, enumerate_trees

    graphs = [g for n in range(1, 13) for g in enumerate_trees(n)]
    graphs += [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    graphs += [star_graph(k) for k in range(1, 41)]
    graphs += [random_dirichlet_graph(rng) for _ in range(300)]
    for g in graphs:
        assert_matches_oracle(g)


def test_memoised_spectra_equal_a_fresh_solve(rng):
    """The spectrum kept on a graph has the bits of a solve made afresh,
    eigenvalues, vectors and extensions, on the first call and on a repeat.
    Trees n <= 10, connected graphs n <= 6 and random Dirichlet graphs, each
    with a boundary."""
    from steklov.enumeration import enumerate_connected_graphs, enumerate_trees

    graphs = [g for n in range(2, 11) for g in enumerate_trees(n)]
    graphs += [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    graphs += [random_dirichlet_graph(rng) for _ in range(100)]
    for g in filter(lambda g: g.boundary, graphs):
        solve = steklov_spectrum
        fresh = spectral._steklov_result(dtn_matrix(g))
        for res in (solve(g), solve(g)):
            for got, expect in ((res.eigenvalues, fresh.eigenvalues),
                                (res.vectors, fresh.vectors),
                                (res.extensions, fresh.extensions)):
                assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_spectrum_memo_contract(monkeypatch):
    g = path_graph(5)
    assemblies = counting_calls(monkeypatch, spectral, "dtn_matrix")
    res = steklov_spectrum(g)
    assert steklov_spectrum(g) is res and len(assemblies) == 1
    # the memo goes by object: an equal graph built afresh is solved again
    assert steklov_spectrum(path_graph(5)) is not res and len(assemblies) == 2
    op = res.operator
    shared = (res.eigenvalues, res.vectors, res.extensions, op.matrix,
              op.boundary_measures, op._coupling, op._inverse[0])
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # a call that raises stores nothing, so it raises on every call
    closed = path_graph(3).with_roles([Role.INTERIOR] * 3)
    for _ in range(2):
        with pytest.raises(NoBoundaryError):
            steklov_spectrum(closed)
    pinned = make_graph(3, [(0, 1, 1), (1, 2, 1)], roles=["boundary", "interior", "dirichlet"])
    dirichlet = steklov_spectrum(pinned)
    assert dirichlet.kind == "dirichlet" and dirichlet.operator.pinned == (2,)
    assert dirichlet.eigenvalues.tolist() == [0.5]  # Lambda_0 = 1 - 1/2
    for _ in range(2):
        assert steklov_spectrum(pinned) is dirichlet


# -- errors and warnings of the solves -------------------------------------------


def eps_path(eps):
    """P4 with weights (eps, 1, eps): L_II = [[1 + eps, -1], [-1, 1 + eps]]."""
    return make_graph(4, [(0, 1, eps), (1, 2, 1), (2, 3, eps)],
                      roles=["boundary", "interior", "interior", "boundary"])


def test_ill_conditioned_interior_warns():
    g = eps_path(2.3e-16)
    with pytest.warns(RuntimeWarning, match="ill-conditioned matrix"):
        steklov_spectrum(g).eigenpair(2)
    for _ in range(3):  # a spectrum read from the memo warns as its solve did
        with pytest.warns(RuntimeWarning, match="ill-conditioned matrix"):
            steklov_spectrum(g)
    with pytest.warns(RuntimeWarning, match="ill-conditioned matrix"):
        dtn_matrix(g)
    with pytest.warns(RuntimeWarning, match="ill-conditioned matrix"):
        harmonic_extension(g, {0: 1.0, 3: 0.0})


def test_ill_conditioned_warning_matches_exact_rcond():
    # the solve warns exactly when the 1-norm rcond of L_II, from
    # numpy.linalg.cond, is below machine epsilon: the trace bound that
    # spares the 1-norms elsewhere misses none of these blocks near it
    warned = checked = 0
    for n in (4, 5, 8):
        for eps in (1.2e-16, 2.3e-16, 3.4e-16, 4.5e-16, 9e-16, 1e-15, 1e-13, 1e-12, 0.5):
            edges = [(0, 1, eps), *((v, v + 1, 1) for v in range(1, n - 2)), (n - 2, n - 1, eps)]
            g = make_graph(n, edges, roles=["boundary"] + ["interior"] * (n - 2) + ["boundary"])
            L = laplacian_matrix(g).matrix[np.ix_(g.interior, g.interior)]
            expect = 1.0 / np.linalg.cond(L, 1) < np.finfo(float).eps
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                dtn_matrix(g)
            assert len(caught) == expect, (n, eps)
            warned += expect
            checked += 1
    assert 0 < warned < checked


def test_extensions_solved_on_first_read():
    # the spectrum warns for its Schur solve; the extensions solve, and
    # warn, once they are read
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = steklov_spectrum(eps_path(2.3e-16))
        assert len(caught) == 1
        assert res.extensions is res.extensions
        assert len(caught) == 2
    assert all(issubclass(w.category, RuntimeWarning) for w in caught)


def test_singular_interior_block_raises():
    g = eps_path(1e-17)  # 1 + eps rounds to 1: L_II is singular in floats
    for solve in (steklov_spectrum, dtn_matrix,
                  lambda g: harmonic_extension(g, {0: 1.0, 3: 0.0})):
        with pytest.raises(np.linalg.LinAlgError):
            solve(g)


def test_infinite_weight_raises_value_error():
    # make_graph rejects an infinite weight, so these graphs are built
    # around it: the solver's own finiteness check still holds. inf on an
    # interior edge reaches the solve; between two boundary vertices it
    # reaches the eigensolve.
    b, i = Role.BOUNDARY, Role.INTERIOR
    inner = WeightedBoundaryGraph(3, ((0, 1, math.inf), (1, 2, 1)), (1, 1, 1), (b, i, b))
    outer = WeightedBoundaryGraph(2, ((0, 1, math.inf),), (1, 1), (b, b))
    for g in (inner, outer):
        with pytest.raises(ValueError):
            steklov_spectrum(g)
    with pytest.raises(ValueError):
        harmonic_extension(inner, {0: 1.0, 2: 0.0})


def test_assembly_errors_unchanged():
    closed = path_graph(3).with_roles([Role.INTERIOR] * 3)
    with pytest.raises(NoBoundaryError, match="graph has no boundary vertices"):
        dtn_matrix(closed)
    with pytest.raises(NoBoundaryError, match="needs B or B_D nonempty"):
        harmonic_extension(closed, {})
    pinned = make_graph(3, [(0, 1, 1), (1, 2, 1)], roles=["boundary", "interior", "dirichlet"])
    loose = make_graph(4, [(0, 1, 1), (2, 3, 1)],
                       roles=["boundary", "interior", "interior", "interior"])
    with pytest.raises(SingularInteriorError, match=r"component \[2, 3\] has no path"):
        steklov_spectrum(loose)
    with pytest.raises(SingularInteriorError, match=r"component \[2, 3\] has no path"):
        harmonic_extension(loose, {0: 1.0})
    res = steklov_spectrum(pinned)
    assert res.kind == "dirichlet" and steklov_spectrum(pinned) is res
    assert res.operator.matrix.tolist() == [[0.5]]  # Lambda_0
    assert steklov_spectrum(pinned).eigenvalue(1) == 0.5


def test_singular_interior_matches_component_oracle():
    """The interior block is singular exactly when some component of the
    interior has no edge leaving it; the error names the first such one.
    Every solve agrees: the extension, the plain DtN map and the Dirichlet
    spectrum, on connected graphs (which skip the check) and on the rest."""
    rng = np.random.default_rng(20261019)
    kinds = (Role.INTERIOR, Role.INTERIOR, Role.BOUNDARY, Role.DIRICHLET)
    raised, connected = 0, [0, 0]
    for _ in range(400):
        n = int(rng.integers(2, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.5)
        edges = [(u, v) for (u, v), k in zip(pairs, keep) if k]
        roles = [kinds[k] for k in rng.integers(0, len(kinds), n)]
        g = make_graph(n, [(u, v, 1) for u, v in edges], roles=roles)
        pinned = g.boundary + g.dirichlet
        if not pinned:
            continue
        inside = set(g.interior)
        closed = [c for c in union_find_components(edges, g.interior)
                  if all(y in inside for x in c for y in g.adjacency[x])]
        data = dict.fromkeys(pinned, 0.0)
        solves = [lambda: harmonic_extension(g, data)]
        if g.boundary:
            solves.append(lambda: steklov_spectrum(g))
            if not g.dirichlet:
                solves.append(lambda: dtn_matrix(g))
        connected[g.is_connected()] += 1
        if closed:
            raised += 1
            for solve in solves:
                with pytest.raises(SingularInteriorError, match=re.escape(f"component {closed[0]} ")):
                    solve()
        else:
            for solve in solves:
                solve()
    assert raised > 50
    assert min(connected) > 50  # both the full check and the shortcut ran


def _absolute_imports(tree):
    """The top-level package of each absolute import in ``tree``, at any
    depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield (node.module or "").split(".")[0]


def _third_party_imports(paths, local=("steklov",)):
    """The packages outside the standard library and ``local`` that the
    files ``paths`` import."""
    return {
        name
        for path in paths
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names and name not in local
    }


def test_third_party_imports_are_numpy_mpmath_and_test_tools():
    """The package imports no third-party package besides numpy, and the
    tests none besides numpy, the test tools and mpmath, their independent
    oracle for the exact bounds. The benchmark's own modules are local."""
    package, tests = Path(steklov.__file__).parent, Path(__file__).parent
    local = {"steklov", *(path.stem for path in tests.glob("*.py")),
             *(path.stem for path in (tests.parent / "bench").glob("*.py"))}
    assert _third_party_imports(package.glob("*.py")) == {"numpy"}
    assert _third_party_imports(tests.glob("*.py"), local) == {
        "numpy", "mpmath", "pytest", "hypothesis"}


def test_dependencies_match_package_imports():
    """The runtime dependencies in pyproject.toml, read without tomllib
    (which Python 3.10 lacks), are the third-party packages the package
    imports: a stale or a missing one fails here."""
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    body = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    declared = {re.match(r"[A-Za-z0-9_.-]+", item).group(0)
                for item in re.findall(r'"([^"]*)"', body)}
    imports = _third_party_imports(Path(steklov.__file__).parent.glob("*.py"))
    assert declared == imports == {"numpy"}


def _unread_module_imports(tree):
    """Names bound by a module-level import that nothing in the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return {(name, line) for name, line in bound.items() if name not in read}


def test_no_unread_module_imports():
    """Every module-level import is read somewhere in its module, in the
    package (whose ``__init__`` only re-exports) and in the tests."""
    package = Path(steklov.__file__).parent
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += Path(__file__).parent.glob("*.py")
    unread = {
        (path.name, name, line)
        for path in files
        for name, line in _unread_module_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert unread == set()


def _constructor_calls(tree):
    """The enclosing function (None at module level) of each call to
    ``WeightedBoundaryGraph`` in ``tree``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "WeightedBoundaryGraph":
                    found.append(where)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(tree, None)
    return found


def test_every_graph_is_made_by_make_graph():
    """Only ``graph.make_graph`` calls the WeightedBoundaryGraph constructor,
    so every graph the package builds is checked there, and no module
    imports ``dataclasses.replace``, which copies a graph past the checks."""
    calls, replaces = [], []
    for path in Path(steklov.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [(path.name, where) for where in _constructor_calls(tree)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                    and any(alias.name == "replace" for alias in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "replace"
                    and getattr(node.value, "id", None) == "dataclasses"):
                replaces.append((path.name, node.lineno))
    assert calls == [("graph.py", "make_graph")]
    assert replaces == []


def _raisers(tree, names):
    """The enclosing function (None at module level) of each ``raise`` in
    ``tree`` of an exception named in ``names``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = getattr(child.exc, "func", child.exc)
                if getattr(exc, "id", getattr(exc, "attr", None)) in names:
                    found.append(where)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(tree, None)
    return found


def test_unit_tree_hypothesis_has_one_gate():
    """In the modules of the unit-tree statements only
    ``geometry.require_tree`` raises NotATreeError and only
    ``geometry.require_unit_tree`` NotUnitWeightError, so every statement
    refuses a graph alike."""
    package = Path(steklov.__file__).parent
    raised = []
    for name in ("geometry.py", "clumps.py", "extremal.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        raised += [(name, where)
                   for where in _raisers(tree, {"NotATreeError", "NotUnitWeightError"})]
    assert raised == [("geometry.py", "require_tree"), ("geometry.py", "require_unit_tree")]


def _definitions(tree, module):
    """Each function, class and method defined in ``tree``, at any depth, as
    (``module.Owner.name``, the def node, whether it is a class member)."""
    found = []

    def visit(node, prefix, member):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((f"{prefix}.{child.name}", child, member))
                visit(child, f"{prefix}.{child.name}", isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, member)

    visit(tree, module, False)
    return found


def _named(node):
    """How often each attribute, and each bare name, is named in ``node``."""
    attrs, names = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            attrs[child.attr] += 1
        elif isinstance(child, ast.Name):
            names[child.id] += 1
    return attrs, names


def _bench_patched():
    """The attributes that the benchmark's traced run patches: the second
    argument of every ``wrap`` and ``replace`` call in ``bench/layers.py``."""
    tree = ast.parse((Path(__file__).parent.parent / "bench" / "layers.py").read_text(encoding="utf-8"))
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("wrap", "replace")
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)}


def test_every_definition_is_reached():
    """Every function, class and method of the package is named in the
    package outside its own body, is public in ``steklov.__all__``, is
    patched by the benchmark's traced run, is a protocol hook that Python
    or argparse calls by name, or is ``with_roles``, the role transformer
    the README documents: so the package holds only what its commands,
    statements and class loader reach, and a helper that only tests call
    lives in the tests."""
    kept = {"cli._Parser.error", "graph.Role._missing_",
            "graph.WeightedBoundaryGraph.with_roles"}
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(steklov.__file__).parent.glob("*.py")}
    attrs, names = Counter(), Counter()
    for tree in trees.values():
        tree_attrs, tree_names = _named(tree)
        attrs += tree_attrs
        names += tree_names
    reached = set(steklov.__all__) | _bench_patched()
    unreached = []
    for module, tree in trees.items():
        for qualified, node, member in _definitions(tree, module):
            name = node.name
            if (name in reached or qualified in kept
                    or name.startswith("__") and name.endswith("__")):
                continue
            own_attrs, own_names = _named(node)  # a method is reached as an attribute
            if attrs[name] == own_attrs[name] and (member or names[name] == own_names[name]):
                unreached.append(qualified)
    assert not unreached, ", ".join(sorted(unreached))


@pytest.mark.parametrize("i", [0, -1])
def test_eigenvalue_index_refusal(i):
    with pytest.raises(InvalidParamsError, match="eigenvalue index is 1-based"):
        steklov_spectrum(path_graph(3)).eigenvalue(i)
