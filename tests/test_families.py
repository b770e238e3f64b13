import functools
import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from steklov.enumeration import enumerate_trees, tree_code
from steklov.errors import InvalidParamsError
from steklov.exact import QuadraticSurd
from steklov.extremal import THETA, verify_reg_star
from steklov.families import (
    BroomParams,
    RootedTree,
    broom_lambda1,
    build_broom,
    build_comb,
    build_cycle,
    build_dumbbell,
    build_path,
    build_star,
    build_star_paths,
    comb_spectrum,
    comb_tooth_with_dirichlet_edge,
    lambda_value,
    minimal_broom,
    minimal_broom_halves,
    minimal_broom_total,
    rooted_path,
)
from steklov.geometry import GeometricPoint, clump_lengths_at
from steklov.graph import Role, combinatorial_graph
from steklov.spectral import (
    laplacian_spectrum,
    steklov_spectrum,
)

from conftest import (
    broom_codes,
    broom_eigenfunction,
    broom_shape,
    clump_rooted_tree,
    mu_max_path,
    structurally_equal,
    two_step_graph,
)

GRID_L = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, 3, Fraction(10, 3)]


def test_broom_lambda1_matches_numeric_grid():
    for l, i, d in itertools.product(GRID_L, range(5), range(5)):
        closed = float(broom_lambda1(l, i, d))
        g = build_broom(l, i, d).graph
        numeric = steklov_spectrum(g).eigenvalue(1)
        assert abs(closed - numeric) <= 1e-10, (l, i, d)


def test_broom_eigenfunction_is_exact():
    for l, i, d in itertools.product(GRID_L, range(4), range(4)):
        fam = build_broom(l, i, d)
        g = fam.graph
        f = broom_eigenfunction(l, i, d)
        lam = broom_lambda1(l, i, d)
        # check the eigenvalue equation at every non-Dirichlet vertex
        from steklov.spectral import laplacian_matrix

        form = laplacian_matrix(g)
        vec = np.array([float(f[v]) for v in range(g.n)])
        lap = (form.matrix @ vec) / form.measures
        for x in range(g.n):
            if x in set(g.dirichlet):
                continue
            if x in set(g.boundary):
                assert abs(lap[x] - float(lam) * vec[x]) < 1e-12
            else:
                assert abs(lap[x]) < 1e-12


def test_broom_normalization():
    a = build_broom(1, 1, 1).graph
    b = build_broom(1, 2, 0).graph
    assert structurally_equal(a, b)


def test_lambda_spot_values_exact():
    assert lambda_value(2) == Fraction(1, 2)
    assert lambda_value(3) == Fraction(1, 3)
    assert lambda_value(4) == Fraction(1, 5)
    assert lambda_value(Fraction(10, 3)) == Fraction(3, 11)
    assert lambda_value(1) == 1
    assert lambda_value(5) == Fraction(1, 7)
    assert lambda_value(6) == Fraction(1, 10)


def test_minimal_broom_brute_force_oracle():
    # compare the reported minimizers with a scan over all splits; splits are
    # compared after normalization since (i, d=1) and (i+1, d=0) describe the
    # same underlying graph
    for l in GRID_L:
        for n in range(0, 8):
            sol = minimal_broom(l, n)
            values = {i: broom_lambda1(l, i, n - i) for i in range(n + 1)}
            best = min(values.values())
            oracle = {
                BroomParams(l, i, n - i).normalized()
                for i, v in values.items()
                if v == best
            }
            assert sol.value == best
            assert {p.normalized() for p in sol.brooms} == oracle, (l, n)


def test_minimal_broom_total_oracle():
    # Lambda(l) = min of lambda_1(Br(l0, i, d)) over all l0 > 0 with total
    # length l0 + i + d = l. The minimizers are read with l0 in (0, 1]: a
    # longer Dirichlet edge re-describes the same path, as Br(l0 - 1, i + 1, 0)
    lengths = [Fraction(k, 6) for k in range(1, 73)]
    lengths += [m - 1 + THETA[i] for i in (4, 5, 6) for m in range(1, 9)]
    for l in lengths:
        sol = minimal_broom_total(l)
        scan = {}
        for i in range(0, math.floor(l) + 1):
            for d in range(0, math.floor(l) + 1):
                l0 = l - i - d
                if l0 > 0:
                    scan[BroomParams(l0, i, d)] = broom_lambda1(l0, i, d)
        best = min(scan.values())
        assert sol.value == best, l
        assert sol.shapes == {p.normalized() for p, v in scan.items() if v == best and p.l <= 1}, l
        for p in sol.brooms:
            assert p.l + p.i + p.d == l
            assert broom_lambda1(p.l, p.i, p.d) == best


def test_integer_surd_length_keeps_its_type():
    # an integer-valued surd length once gave brooms with the float l = 1.0
    l = QuadraticSurd(3, 0, 2)
    sol = minimal_broom_total(l)
    assert sol.value == Fraction(1, 3)
    assert [(type(p.l), p.l, p.i, p.d) for p in sol.brooms] == [
        (QuadraticSurd, 1, 0, 2), (QuadraticSurd, 1, 1, 1)]


def test_minimal_broom_of_an_mpf_length():
    # an mpmath length once raised TypeError against Fraction(1, 2)
    l = mpmath.mpf(1) / 2
    sol = minimal_broom(l, 4)
    assert sol.value == mpmath.mpf(1) / 6 == min(broom_lambda1(l, i, 4 - i) for i in range(5))
    assert sol.brooms == (BroomParams(l, 2, 2),) and type(sol.brooms[0].l) is mpmath.mpf


def test_minimal_broom_shapes_small():
    # total length 1 and 2: the path itself is the unique minimal broom
    assert minimal_broom_total(1).shapes == {BroomParams(1, 0, 0)}
    assert minimal_broom_total(2).shapes == {BroomParams(1, 1, 0)}
    # odd length >= 3 has two minimal brooms; Br(1,1,1) reads as Br(1,2,0)
    assert minimal_broom_total(3).shapes == {BroomParams(1, 0, 2), BroomParams(1, 2, 0)}
    assert len(minimal_broom_total(4).shapes) == 1
    # every broom reads back as itself from its Dirichlet end
    for l, i, d in itertools.product(GRID_L, range(4), range(4)):
        fam = build_broom(l, i, d)
        got = broom_shape(fam.graph.adjacency, fam.landmarks["o"], fam.landmarks["v0"], l)
        assert got == BroomParams(l, i, d).normalized()


def test_broom_shape_matches_rooted_codes():
    # every vertex and midpoint clump of every tree on 2..11 vertices: the
    # shape is a minimal broom exactly when the clump's rooted metric code
    # is one of the minimal broom codes of the clump's length, and any
    # shape found is the clump's own
    @functools.lru_cache(maxsize=None)
    def shape_code(p):
        fam = build_broom(p.l, p.i, p.d)
        return tree_code(fam.graph, root=fam.landmarks["o"])

    clumps = brooms = 0
    for n in range(2, 12):
        for g in enumerate_trees(n):
            adj = g.adjacency
            points = [GeometricPoint.at_vertex(v) for v in range(n)]
            points += [GeometricPoint.on_edge(u, v, Fraction(1, 2)) for u, v, _ in g.edges]
            for pt in points:
                for clump in clump_lengths_at(g, pt):
                    root = pt.vertex if pt.is_vertex else sum(pt.edge) - clump.attach
                    first = Fraction(1) if pt.is_vertex else Fraction(1, 2)
                    shape = broom_shape(adj, root, clump.attach, first)
                    got = shape in minimal_broom_total(clump.length).shapes
                    code = tree_code(*clump_rooted_tree(g, pt, clump))
                    assert got == (code in broom_codes(clump.length)), (g.edges, pt, clump)
                    assert shape is None or shape_code(shape) == code, (g.edges, pt, clump)
                    clumps += 1
                    brooms += got
    assert clumps == 15832 and brooms > 1000


def test_arms_are_the_shapes_of_one_root_edge():
    # every broom of one solution has the same root edge, so its (i, d)
    # pairs tell its shapes apart: Br(l) at a whole or a half l has root edge
    # 1 or 1/2, Br(l, n) the Dirichlet l itself
    for j in range(1, 41):
        sol = minimal_broom_total(Fraction(j, 2))
        assert {p.l for p in sol.shapes} == {Fraction(2 - j % 2, 2)}, j
        assert sol.arms == {(p.i, p.d) for p in sol.shapes}, j
        assert len(sol.arms) == len(sol.shapes), j
        assert minimal_broom_halves(j) == sol, j
    for l in (Fraction(1, 3), Fraction(1, 2), 1, Fraction(10, 3), 0.1, 2.5, 3.0):
        for n in range(9):
            sol = minimal_broom(l, n)
            assert {p.l for p in sol.shapes} == {l}, (l, n)
            assert sol.arms == {(p.i, p.d) for p in sol.shapes}, (l, n)
            assert len(sol.arms) == len(sol.shapes), (l, n)


@pytest.mark.parametrize("order", [(3.0, Fraction(3)), (Fraction(3), 3.0)],
                         ids=["float-first", "fraction-first"])
def test_minimal_broom_total_memo_keeps_types(order):
    # 3.0 == Fraction(3), but a float length must give float values and a
    # Fraction exact ones, in any order and however often it comes back
    for l in order * 2:
        sol = minimal_broom_total(l)
        assert type(sol.value) is type(l), l
        assert all(type(p.l) is type(l) for p in sol.brooms), l


def test_minimal_broom_total_mpf_in_callers_precision():
    # an mpmath length is never memoised: each call evaluates at the
    # precision in force, however often the same value comes back
    x = mpmath.mpf(5) / 2
    with mpmath.workdps(40):
        v40 = lambda_value(x)
    with mpmath.workdps(15):
        v15 = lambda_value(x)
    assert v15 != v40
    assert v15 == mpmath.mpf(1) / (1 + 1 * (1 + mpmath.mpf(1) / 2))


@pytest.mark.parametrize("n", [2.5, 2.0, True, False, Fraction(2), "2"], ids=repr)
def test_minimal_broom_refuses_a_non_integer_n(n):
    # n is an index, read as the clump searches read k and r: a bool or a
    # non-integral type is refused, and a numpy integer is an int
    with pytest.raises(InvalidParamsError):
        minimal_broom(1, n)


def test_minimal_broom_takes_a_numpy_integer_n():
    assert minimal_broom(Fraction(1, 2), np.int64(3)) == minimal_broom(Fraction(1, 2), 3)


def test_numpy_integer_lengths_are_read_in_python_ints():
    # Fraction keeps a numpy integer's parts: in int64 these values
    # overflowed, to -1/8722430985553051647 and a negative broom value
    assert lambda_value(np.int64(10**12)) == lambda_value(10**12) == Fraction(1, 25 * 10**22 + 1)
    big = minimal_broom(np.int64(4 * 10**9), 3 * 10**9)
    assert big == minimal_broom(4 * 10**9, 3 * 10**9) and big.value > 0
    assert all(type(part) is int for part in big.brooms[0].l.as_integer_ratio())


@pytest.mark.parametrize("bad", [[3], True, "x", 0, -1], ids=repr)
def test_minimal_broom_total_rejects_bad_lengths(bad):
    with pytest.raises(InvalidParamsError):
        minimal_broom_total(bad)


def test_lambda_integer_closed_form():
    for l in range(1, 12):
        assert lambda_value(l) == Fraction(1, 1 + l * l // 4)


def test_lambda_ln_monotone_in_n():
    for l in GRID_L:
        vals = [minimal_broom(l, n).value for n in range(8)]
        assert all(vals[k + 1] <= vals[k] for k in range(len(vals) - 1))


def test_broom_params_validation():
    with pytest.raises(InvalidParamsError):
        BroomParams(0, 1, 1)
    with pytest.raises(InvalidParamsError):
        BroomParams(1, -1, 0)
    with pytest.raises(InvalidParamsError):
        broom_lambda1("nonsense", 0, 0)


def test_dumbbell_and_star_shapes():
    db = build_dumbbell(2, 2, 2).graph
    assert db.n == 7 and db.is_tree()
    assert sorted(db.degree(v) for v in range(db.n)) == [1, 1, 1, 1, 2, 3, 3]
    st = build_star_paths(3, 2).graph
    assert st.n == 7 and st.degree(0) == 3
    with pytest.raises(InvalidParamsError):
        build_star([rooted_path(1)])


def test_stars_equal_the_two_step_build():
    # a star gets its degree roles in one construction
    arms = [rooted_path(1), rooted_path(3)]
    arms += [RootedTree(build_broom(l, i, d).graph, build_broom(l, i, d).landmarks["o"])
             for l, i, d in ((1, 1, 2), (Fraction(1, 2), 0, 3), (Fraction(5, 3), 2, 1))]
    for count in range(2, len(arms) + 1):
        for chosen in itertools.combinations(arms, count):
            g = build_star(list(chosen)).graph
            assert repr(g) == repr(two_step_graph(g.n, g.edges))
    tooth = RootedTree(build_broom(1, 1, 2).graph, 1)
    t_i = comb_tooth_with_dirichlet_edge(tooth, 0.75)
    oracle = two_step_graph(t_i.n, t_i.edges)
    oracle = oracle.with_roles((Role.DIRICHLET,) + oracle.roles[1:])
    assert repr(t_i) == repr(oracle)


def test_comb_structure():
    fam = build_comb(build_path(3).graph, rooted_path(1))
    g = fam.graph
    assert g.n == 6
    assert len(g.edges) == 5
    vm = fam.params["vertex_map"]
    assert all(vm[(x, 0)] == x for x in range(3))


def test_comb_spectrum_closed_form_small():
    base = build_path(3).graph
    tooth = rooted_path(1)
    vals, funcs = comb_spectrum(base, tooth)
    assert abs(vals[0]) < 1e-12
    assert abs(vals[2] - 0.75) <= 1e-12
    comb = build_comb(base, tooth).graph
    numeric = steklov_spectrum(comb).eigenvalues[: len(vals)]
    assert np.max(np.abs(np.sort(vals) - numeric)) <= 1e-9


def test_comb_tooth_dirichlet_edge():
    t = comb_tooth_with_dirichlet_edge(rooted_path(1), 2.0)
    assert t.n == 3
    assert len(t.dirichlet) == 1
    lam = steklov_spectrum(t).eigenvalue(1)
    # single edge tooth with mu = 2: T_i = path o'-o-leaf, weights (2, 1)
    assert lam > 0


def test_mu_max_path_matches_laplacian():
    for n in range(2, 8):
        g = build_path(n).graph
        mu = laplacian_spectrum(g).eigenvalue(n)
        assert abs(mu - mu_max_path(n)) <= 1e-10


def test_cycle_top_multiplicity_even_is_four():
    g = build_cycle(4).graph
    mu = laplacian_spectrum(g).eigenvalue(4)
    assert abs(mu - 4.0) <= 1e-10


@pytest.mark.parametrize("build,fragment", [
    (lambda: minimal_broom(0, 2), "need l > 0 and n >= 0"),
    (lambda: build_star([rooted_path(1), RootedTree(combinatorial_graph(1, []), 0)]),
     "nontrivial rooted trees"),
    (lambda: build_star([rooted_path(1), RootedTree(build_cycle(3).graph, 0)]),
     "star arms must be trees"),
    (lambda: rooted_path(0), "length >= 1"),
    (lambda: build_comb(combinatorial_graph(2, []), rooted_path(1)),
     "comb base must be a connected graph"),
    (lambda: build_comb(build_path(2).graph, RootedTree(combinatorial_graph(1, []), 0)),
     "comb tooth must be a nontrivial rooted tree"),
    (lambda: build_path(1), "path needs n >= 2"),
    (lambda: build_cycle(2), "cycle needs n >= 3"),
    (lambda: build_dumbbell(1, 0, 1), "dumbbell needs d0, d1 >= 0 and i >= 1"),
    # a root outside the graph cut an arm off the centre, or crashed
    (lambda: build_star([RootedTree(rooted_path(2).graph, 7), rooted_path(1)]),
     "root 7 is not a vertex of the graph"),
    (lambda: build_comb(build_path(3).graph, RootedTree(rooted_path(2).graph, 9)),
     "root 9 is not a vertex of the graph"),
    (lambda: RootedTree(rooted_path(2).graph, True), "root must be an integer"),
], ids=["broom-length-0", "star-one-vertex-arm", "star-cycle-arm", "rooted-path-0",
        "comb-disconnected-base", "comb-one-vertex-tooth", "path-1", "cycle-2", "dumbbell-i-0",
        "star-root-off-arm", "comb-root-off-tooth", "rooted-tree-bool-root"])
def test_builder_refusals(build, fragment):
    with pytest.raises(InvalidParamsError, match=re.escape(fragment)):
        build()


@pytest.mark.parametrize("build, args", [
    (build_path, (4,)),
    (build_cycle, (4,)),
    (rooted_path, (3,)),
    (build_dumbbell, (1, 2, 1)),
    (build_star_paths, (3, 2)),
    (build_broom, (1, 2, 2)),
    (verify_reg_star, (3, 2)),
], ids=["path", "cycle", "rooted-path", "dumbbell", "star-paths", "broom", "reg-star"])
def test_integer_parameters_are_read_as_indices(build, args):
    # every integer parameter (all but a broom's length l) refuses a bool, a
    # float and a half, which raised a bare TypeError or ran with True as 1,
    # and reads a numpy integer as the int
    def shape(x):
        g = getattr(x, "graph", None)
        if g is None:
            return x
        params = getattr(x, "params", {})
        return g.n, g.edges, g.roles, params, [type(v) for v in params.values()]

    expect = shape(build(*args))
    for k in range(build is build_broom, len(args)):
        head, tail = args[:k], args[k + 1:]
        for bad in (True, float(args[k]), args[k] + 0.5):
            with pytest.raises(InvalidParamsError, match="must be an integer"):
                build(*head, bad, *tail)
        assert shape(build(*head, np.int64(args[k]), *tail)) == expect
