import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import re

from steklov import enumeration, exact, extremal, families, geometry, spectral
from steklov import graph as graph_mod
from steklov.enumeration import (
    GraphClassStream,
    _load_class,
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    tree_code,
)
from steklov.errors import (
    DisconnectedError,
    HypothesesNotMetError,
    InvalidParamsError,
    NoBoundaryError,
    NotASubgraphError,
    NotATreeError,
    NotBipartiteError,
    NotUnitWeightError,
    OutOfSupportedRangeError,
    ParseError,
)
from steklov.extremal import (
    THETA,
    check_monotonicity,
    check_rigidity_equivalence,
    predicted_bound,
    rigidity_data,
    sigma_value,
    sweep,
    theta_value,
    verify_bipartite_top,
    verify_extremal,
    verify_lambda1_bound,
    verify_positivity,
    verify_reg_star,
    verify_sigma2_tree,
    verify_sigma_lambda,
    verify_steklov_clump,
)
from steklov.exact import QuadraticSurd, inertia_counts
from steklov.families import (
    RootedTree,
    build_broom,
    lambda_value,
    minimal_broom,
    rooted_path,
)
from steklov.geometry import GeometricPoint, clump_lengths_at, clump_number_at
from steklov.graph import Role, combinatorial_graph, make_graph
from steklov.spectral import SpectralResult, steklov_spectrum

from conftest import (
    broom_codes,
    broom_shape,
    clump_rooted_tree,
    counting_calls,
    dumbbell_minimizers,
    path_graph,
    random_weighted_graph,
)

# every supported (n, i, class): trees n <= 12, connected graphs n <= 7
GRID_PAIRS = [(n, i) for n in range(3, 13) for i in range(2, n)]
GRID = [("trees", n, i) for n, i in GRID_PAIRS] + [
    ("connected", n, i) for n in range(3, 8) for i in range(2, n)
]


# -- predicted bounds ---------------------------------------------------------------


def test_theta_values():
    assert theta_value(2) == Fraction(1, 2)
    assert theta_value(3) == Fraction(1, 3)
    t4 = float(theta_value(4))
    assert abs(t4 - 1.0 / (2.0 + math.sqrt(2.0))) < 1e-15
    for i in (7, 8, 9):  # cos(pi/i) is cubic or quartic
        with pytest.raises(OutOfSupportedRangeError, match="no exact bound"):
            theta_value(i)


def test_predicted_bound_sigma2():
    t = predicted_bound(9, 2)
    assert t.case == "sigma2"
    assert t.bound_exact == Fraction(1, 5)
    assert t.characterized
    assert len(t.minimizers) == 1  # n = 9 = 4*2 + 1
    t2 = predicted_bound(7, 2)
    assert t2.bound_exact == Fraction(1, 3)
    assert len(t2.minimizers) == 3  # three tied dumbbells


@pytest.mark.parametrize("graph_class, top", [("trees", 40), ("connected", 10)])
def test_sigma2_prediction_is_the_dumbbell_list(graph_class, top):
    # i = 2 takes the i-not-dividing or i-dividing formula; the paper's
    # dumbbell list by n mod 4 is the oracle of its minimizers
    for n in range(3, top + 1):
        t = predicted_bound(n, 2, graph_class)
        codes = sorted({canonical_code(g) for g in dumbbell_minimizers(n)})
        assert t.predicted_codes == tuple(codes), n
        assert t.bound_exact == families.minimal_broom_halves(n - 1).value, n
        assert t.case == "sigma2" and t.characterized, n


def test_predicted_bound_not_dividing():
    t = predicted_bound(7, 3)
    assert t.case == "i_not_dividing"
    assert t.bound_exact == Fraction(1, 2)
    assert t.characterized
    t2 = predicted_bound(10, 3)  # 10 = 3*3 + 1, m = 3 odd
    assert t2.bound_exact == Fraction(1, 3)
    assert t2.characterized
    assert len(t2.minimizers) == 4  # i + 1 mixes of the two odd-length brooms
    t3 = predicted_bound(11, 3)  # 11 = 3*3 + 2: example only
    assert not t3.characterized
    assert len(t3.minimizers) == 1


def test_predicted_bound_dividing():
    t = predicted_bound(6, 3)
    assert t.case == "i_dividing"
    assert t.bound_exact == Fraction(3, 4)
    assert t.theta == Fraction(1, 3)
    # odd i admits both the path-based and the cycle-based comb
    assert len(t.minimizers) == 2
    t2 = predicted_bound(8, 4)
    assert t2.bound_exact == QuadraticSurd(Fraction(4, 7), Fraction(1, 7), 2)
    with pytest.raises(OutOfSupportedRangeError, match="no exact bound"):
        predicted_bound(14, 7, "trees")  # cos(pi/7) is cubic
    assert abs(t2.bound - 0.7734590803390136) < 1e-15
    assert t2.bound_str.startswith("0.773459080339013")


def test_predicted_bound_gates():
    with pytest.raises(InvalidParamsError):
        predicted_bound(3, 3)
    with pytest.raises(InvalidParamsError):
        predicted_bound(5, 1)
    with pytest.raises(InvalidParamsError):
        predicted_bound(6, 3, "planar")


def test_predicted_minimizers_belong_to_the_class():
    # the odd-cycle comb is predicted over connected graphs, never over trees
    assert len(predicted_bound(6, 3, "connected").minimizers) == 2
    for n, i in [(6, 3), (9, 3), (10, 5), (12, 3), (15, 3)]:
        mins = predicted_bound(n, i, "trees").minimizers
        assert [d.params["base"] for d in mins] == ["path"], (n, i)
        assert all(d.graph.is_tree() for d in mins)


def test_connected_bounds_past_the_code_range():
    # non-trees have codes up to n = 10: past it the odd-cycle comb is kept
    # with code None, left out of predicted_codes, and the bound is returned
    pairs = [(n, i) for n in range(11, 25) for i in (3, 5) if n % i == 0]
    assert pairs == [(12, 3), (15, 3), (15, 5), (18, 3), (20, 5), (21, 3), (24, 3)]
    for n, i in pairs:
        t, tree = predicted_bound(n, i), predicted_bound(n, i, "trees")
        assert t.bound_exact == tree.bound_exact and t.bound_str == tree.bound_str
        path, cycle = t.minimizers
        assert (path.params["base"], cycle.params["base"]) == ("path", "cycle")
        assert path.code == tree.minimizers[0].code and cycle.code is None
        assert t.predicted_codes == tree.predicted_codes == (path.code,)
        assert not cycle.graph.is_tree() and cycle.graph.n == n
        assert abs(sigma_value(cycle.graph, i) - t.bound) <= 1e-9, (n, i)


def test_predicted_minimizers_attain_the_bound():
    # past the sweep gates too (codes of non-trees stop at n = 10): a comb
    # tooth rooted at its far end, not at v0, gives combs above the bound
    # at (20, 4) and (24, 4)
    checked = 0
    for n in range(3, 25):
        for i in range(2, n):
            if n % i == 0 and i not in THETA:
                continue  # no exact bound
            t = predicted_bound(n, i, "connected" if n <= 10 else "trees")
            for d in t.minimizers:
                assert abs(sigma_value(d.graph, i) - t.bound) <= 1e-9, (n, i, dict(d.params))
                checked += 1
    assert checked == 293


# 40-digit strings of the irrational bounds, correctly rounded; the
# rendering uses no mpmath, so no global mpmath precision can move them.
IRRATIONAL_BOUND_STR = {
    (8, 4): "0.7734590803390135784002412463156711540814",
    (10, 5): "0.7834576353408995316549624394877852834291",
    (12, 4): "0.4361302095513585322824522778946881222688",
    (12, 6): "0.7886751345948128822545743902509787278238",
    (16, 4): "0.2788788505379606542957255967047694816769",
}


def test_bound_str_independent_of_global_precision():
    pairs = set(GRID_PAIRS) | {(n, i) for n, i in IRRATIONAL_BOUND_STR}
    for dps in (mpmath.mp.dps, 15, 60):
        with mpmath.workdps(dps):
            for n, i in sorted(pairs):
                t = predicted_bound(n, i, "trees")
                if not isinstance(t.bound_exact, Fraction):
                    assert t.bound_str == IRRATIONAL_BOUND_STR[(n, i)], (n, i, dps)
                else:
                    assert t.bound_str == str(t.bound_exact)
                    assert t.bound == float(t.bound_exact)
            assert mpmath.mp.dps == dps


def test_import_leaves_mpmath_precision():
    code = ("import mpmath; mpmath.mp.dps = 23; import steklov; "
            "steklov.predicted_bound(8, 4); print(mpmath.mp.dps)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ), timeout=120, check=True)
    assert out.stdout.strip() == "23"


def test_prediction_is_built_once_and_shared():
    t = predicted_bound(9, 4, "trees")
    assert predicted_bound(9, 4, "trees") is t
    assert predicted_bound(n=9, i=4, graph_class="trees") is t
    assert predicted_bound(np.int64(9), np.int64(4), "trees") is t
    assert type(t.n) is int and type(t.i) is int
    connected = predicted_bound(9, 3, "connected")
    assert predicted_bound(9, 3) is connected and predicted_bound(n=9, i=3) is connected
    assert connected != predicted_bound(9, 3, "trees")
    assert t.predicted_codes == tuple(sorted(d.code for d in t.minimizers))


def test_shared_prediction_is_read_only():
    t = predicted_bound(7, 3, "trees")
    d = t.minimizers[0]
    assert dict(d.params) == {"i": 3, "m": 2, "mix": 0}
    with pytest.raises(TypeError):
        d.params["m"] = 3
    with pytest.raises(AttributeError):
        t.bound = 0.0
    with pytest.raises(AttributeError):
        d.code = ""
    assert predicted_bound(7, 3, "trees").minimizers[0].params["m"] == 2


def test_failed_prediction_caches_nothing(monkeypatch):
    expected = predicted_bound(9, 2, "trees")
    extremal._predicted.cache_clear()

    def broken(i, m, forms):
        raise InvalidParamsError("no dumbbell")

    with monkeypatch.context() as m:
        m.setattr(extremal, "_star_minimizers", broken)  # (9, 2) builds a star
        for _ in range(2):
            with pytest.raises(InvalidParamsError, match="no dumbbell"):
                predicted_bound(9, 2, "trees")
    assert extremal._predicted.cache_info().currsize == 0
    assert predicted_bound(9, 2, "trees") == expected


@pytest.mark.parametrize("args", [
    (7, 3.0), (6.0, 3), (np.float64(6.0), 3), (6, 3, ["trees"]), (True, 2), (6, True),
    (6, 3, "planar"),
])
def test_bad_arguments_fail_before_the_memo(monkeypatch, args):
    # a float would share the int's memo key, a list cannot be a key, and
    # neither may reach the class enumeration
    def no_sweep(n):
        raise AssertionError("class enumerated before the parameters were checked")

    monkeypatch.setattr(extremal, "enumerate_trees", no_sweep)
    monkeypatch.setattr(extremal, "enumerate_connected_graphs", no_sweep)
    before = extremal._predicted.cache_info()
    for fn in (predicted_bound, verify_extremal):
        for _ in range(2):
            with pytest.raises(InvalidParamsError):
                fn(*args)
    assert extremal._predicted.cache_info() == before


def test_memoised_predictions_equal_fresh_builds():
    pairs = GRID + [("trees", n, i) for n, i in IRRATIONAL_BOUND_STR]
    for graph_class, n, i in pairs:
        memo = predicted_bound(n, i, graph_class)
        fresh = extremal._predicted.__wrapped__(n, i, graph_class)
        assert fresh is not memo
        assert (repr(memo.bound), memo.bound_str, memo.case, memo.bound_exact,
                memo.characterized) == (
            repr(fresh.bound), fresh.bound_str, fresh.case, fresh.bound_exact,
            fresh.characterized), (graph_class, n, i)
        assert memo.predicted_codes == fresh.predicted_codes == tuple(
            d.code for d in fresh.minimizers), (graph_class, n, i)
        for d, e in zip(memo.minimizers, fresh.minimizers, strict=True):
            assert (d.family, dict(d.params), d.graph) == (e.family, dict(e.params), e.graph)


# -- sweeps -------------------------------------------------------------------------


def test_verify_extremal_trees_sigma2():
    rep = verify_extremal(7, 2, "trees")
    assert rep.class_size == 11
    assert abs(rep.minimum - 1.0 / 3.0) <= 1e-9
    assert rep.match and rep.bound_ok
    assert rep.argmin_codes == rep.predicted_codes


def test_verify_extremal_trees_star_case():
    rep = verify_extremal(7, 3, "trees")
    assert abs(rep.minimum - 0.5) <= 1e-9
    assert rep.match


def test_verify_extremal_connected_comb_case():
    rep = verify_extremal(6, 3, "connected")
    assert rep.class_size == 112
    assert abs(rep.minimum - 0.75) <= 1e-9
    assert rep.match


def test_verify_extremal_whole_grid():
    """Every supported (n, i, class) certifies: the minimum meets the bound
    and the argmin set matches the class's predicted minimizers."""
    assert len(GRID) == 70
    for graph_class, n, i in GRID:
        rep = verify_extremal(n, i, graph_class)
        assert rep.match and rep.bound_ok, (graph_class, n, i)
        assert len(rep.argmin_codes) <= rep.rechecked <= rep.class_size
        assert rep.gap > rep.tol


@pytest.mark.parametrize("tol", [0.0, -1e-9, 2e-6, 0.5, 1e6, math.nan, math.inf, -math.inf])
def test_sweep_rejects_tol_outside_range(tol):
    # the screen's margin is fixed: a tol of any value, one the old range
    # refused included, is no argument of either call (a large one merged
    # classes into the argmin, 0.5 put 22 of the 23 trees at n = 8 in it)
    with pytest.raises(TypeError):
        sweep(8, 3, "trees", tol)
    with pytest.raises(TypeError):
        verify_extremal(8, 3, "trees", tol=tol)
    assert not hasattr(extremal, "MAX_TOL")


@pytest.mark.parametrize("args", [(6, True), (6.0, 3), (7, 3.0), (True, 2), (np.float64(6.0), 3)],
                         ids=["i-True", "n-float", "i-float", "n-True", "n-float64"])
def test_sweep_refuses_non_integer_arguments(monkeypatch, tmp_path, args):
    # (6, True) used to return the sigma_1 screen, (6.0, 3) and (7, 3.0)
    # raised a bare TypeError and IndexError, and (True, 2) stored the
    # class file trees-nTrue before it failed
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        sweep(*args, "trees")
    assert list(tmp_path.iterdir()) == []
    assert sweep(np.int64(7), np.int64(3)) == sweep(7, 3)


@pytest.mark.parametrize("args", [(6, True), (6.0, 3), ("6", 3), (True, 2)],
                         ids=["i-True", "n-float", "n-str", "n-True"])
def test_verify_checks_its_arguments_once(args):
    # an exact int is taken at once, a numpy integer through the Integral
    # check; anything else is refused before the class is read
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        verify_extremal(*args, "trees")
    assert verify_extremal(np.int64(9), np.int64(4), "trees") == verify_extremal(9, 4, "trees")


def test_exact_oracle_pins_the_screen_margin():
    """Every class with a boundary vertex is counted exactly at b, on all
    70 pairs, with no tolerance: none has i eigenvalues below b, the
    classes attaining b are the certified argmin set, and each screens
    within 1e-12 of float(b), far inside SCREEN_MARGIN."""
    for graph_class, n, i in GRID:
        rep = verify_extremal(n, i, graph_class)
        b = rep.target.bound_exact
        stream = enumerate_trees(n) if graph_class == "trees" else enumerate_connected_graphs(n)
        spectra = stream.spectra
        attained = set()
        for label, edges, spectrum in zip(stream.codes, stream.edge_lists(), spectra, strict=True):
            degree = np.bincount(np.ravel(edges), minlength=n)
            if degree.min() > 1:
                continue
            below, equal = inertia_counts(n, edges, b)
            assert below < i, (graph_class, n, i, label)
            if i <= below + equal:
                attained.add(label)
                assert abs(spectrum[i - 1] - rep.target.bound) <= 1e-12, (graph_class, n, i)
        assert tuple(sorted(attained)) == rep.argmin_codes, (graph_class, n, i)
        assert 1e-12 < extremal.SCREEN_MARGIN < rep.gap


def test_a_tree_sweeps_alike_in_both_classes():
    """Each tree row of a connected sweep is, repr for repr, the row of the
    tree sweep with the same code: both classes store a tree under its tree
    code and screen it from that code's one numbering."""
    for n in range(3, 8):
        for i in range(1, n + 1):
            trees = sweep(n, i, "trees").rows
            rows = tuple(row for row in sweep(n, i, "connected").rows if row[0].startswith("("))
            assert repr(rows) == repr(trees), (n, i)


@lru_cache(maxsize=None)
def per_graph_spectra(graph_class, n):
    """Each class's code and its whole Steklov spectrum from the per-graph
    solver (empty when the class has no boundary)."""
    stream = enumerate_trees(n) if graph_class == "trees" else enumerate_connected_graphs(n)
    out = {}
    for g in stream:
        try:
            out[canonical_code(g)] = steklov_spectrum(g).eigenvalues
        except NoBoundaryError:
            out[canonical_code(g)] = ()
    return out


@pytest.mark.parametrize("graph_class,n,i", GRID)
def test_sweep_matches_per_graph_oracle(graph_class, n, i):
    """On every supported pair the exact certificate gives the argmin set
    that the per-graph solver gives within SCREEN_MARGIN on the whole class,
    and the minimum float(b); the screen's rows, argmin set and gap agree
    with it."""
    values = {c: ev[i - 1] if i <= len(ev) else math.inf
              for c, ev in per_graph_spectra(graph_class, n).items()}
    minimum = min(values.values())
    argmin = tuple(sorted(c for c, v in values.items() if v <= minimum + extremal.SCREEN_MARGIN))
    rep = verify_extremal(n, i, graph_class)
    assert rep.argmin_codes == argmin
    assert rep.minimum == rep.target.bound and abs(rep.minimum - minimum) <= 1e-12
    res = sweep(n, i, graph_class)
    assert res.argmin_codes == argmin
    assert [c for c, _ in res.rows] == sorted(values)
    for code, v in res.rows:
        assert v == values[code] or abs(v - values[code]) <= 1e-12 * max(1.0, v)
    outside = [v for c, v in values.items() if c not in argmin and v < math.inf]
    if outside:
        assert abs(res.gap - (min(outside) - minimum)) <= 1e-12
        assert abs(rep.gap - res.gap) <= 1e-12
    else:
        assert res.gap == rep.gap == math.inf
    assert len(argmin) <= rep.rechecked <= len(values)


def test_verify_extremal_gates(monkeypatch):
    with pytest.raises(OutOfSupportedRangeError,
                       match=re.escape("tree enumeration supports 1 <= n <= 16")):
        verify_extremal(17, 2, "trees")
    with pytest.raises(InvalidParamsError):
        verify_extremal(6, 2, "planar")
    with pytest.raises(InvalidParamsError):
        sweep(6, 0, "trees")

    def no_sweep(n):
        raise AssertionError("class enumerated before the parameters were checked")

    monkeypatch.setattr(extremal, "enumerate_trees", no_sweep)
    for n, i in ((12, 1), (12, 12), (13, 13)):
        with pytest.raises(InvalidParamsError):
            verify_extremal(n, i, "trees")


def test_sweep_past_the_class_range_is_refused_by_the_loader():
    # the class loader is the one range gate of sweep, as of verify_extremal
    with pytest.raises(OutOfSupportedRangeError,
                       match=re.escape("tree enumeration supports 1 <= n <= 16")):
        sweep(17, 2, "trees")


def test_verify_needs_an_exact_bound(monkeypatch):
    # theta_7 is cubic, so (14, 7) has no exact bound: refused before the
    # class is enumerated, although n = 14 is inside the tree gate
    def no_sweep(n):
        raise AssertionError("class enumerated for a pair with no exact bound")

    assert enumeration.MAX_TREE_N >= 14
    monkeypatch.setattr(extremal, "enumerate_trees", no_sweep)
    with pytest.raises(OutOfSupportedRangeError, match="no exact bound"):
        verify_extremal(14, 7, "trees")


def test_tree_sweeps_reach_16():
    # every tree pair with 13 <= n <= 16 certifies, except the two pairs
    # whose i >= 7 divides n and so has no exact bound; pinned with the
    # size of each argmin set
    argmin_sizes = {
        13: [1, 1, 5, 21, 1, 641, 316, 114, 31, 6, 1],
        14: [1, 7, 27, 98, 5, None, 1097, 471, 153, 37, 7, 1],
        15: [3, 1, 131, 1, 26, 1, 3558, 1771, 676, 194, 43, 7, 1],
        16: [1, 4, 1, 6, 138, 5, None, 6276, 2781, 947, 249, 50, 8, 1],
    }
    try:
        for n, sizes in argmin_sizes.items():
            for i, size in enumerate(sizes, start=2):
                if size is None:
                    with pytest.raises(OutOfSupportedRangeError, match="no exact bound"):
                        verify_extremal(n, i, "trees")
                    continue
                rep = verify_extremal(n, i, "trees")
                assert rep.match and rep.bound_ok, (n, i)
                assert rep.class_size == len(enumerate_trees(n)), (n, i)
                assert len(rep.argmin_codes) == size, (n, i)
    finally:
        _load_class.cache_clear()  # the n = 16 class holds 19,320 spectra


def test_leaf_rule_candidates_equal_the_screens():
    """The oracle of the b = 1 rule. b is 1 exactly on the 65 pairs with
    i > n/2 (trees 3 <= n <= 16, connected graphs 3 <= n <= 7), and on each
    the classes with at least i leaves, which verify_extremal certifies
    from the leaf counts alone, are the classes whose screened sigma_i is
    at most 1 + SCREEN_MARGIN; each of them screens within 1e-12 of 1."""
    pairs = 0
    try:
        for graph_class, top in (("trees", 16), ("connected", 7)):
            for n in range(3, top + 1):
                for i in range(2, n // 2 + 1):
                    try:
                        assert predicted_bound(n, i, graph_class).bound_exact != 1, (n, i)
                    except OutOfSupportedRangeError:
                        assert i >= 7 and n % i == 0
                stream = enumerate_trees(n) if graph_class == "trees" else enumerate_connected_graphs(n)
                leaves = stream.leaf_counts
                for i in range(n // 2 + 1, n):
                    assert predicted_bound(n, i, graph_class).bound_exact == 1, (n, i)
                    values = stream.spectra[:, i - 1]
                    screened = np.flatnonzero(values <= 1 + extremal.SCREEN_MARGIN)
                    assert np.array_equal(np.flatnonzero(leaves >= i), screened), (graph_class, n, i)
                    assert np.abs(values[screened] - 1).max() <= 1e-12, (graph_class, n, i)
                    rep = verify_extremal(n, i, graph_class)
                    assert rep.match and rep.bound_ok, (graph_class, n, i)
                    assert rep.argmin_codes == tuple(stream.codes[j] for j in screened)
                    pairs += 1
    finally:
        _load_class.cache_clear()  # the n = 16 class holds 19,320 spectra
    assert pairs == 65


def counting(monkeypatch, name):
    """Replace ``extremal.<name>`` by a wrapper that counts its calls."""
    calls = []
    fn = getattr(extremal, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(extremal, name, counted)
    return calls


def test_class_screened_once_for_every_i(monkeypatch):
    _load_class.cache_clear()
    calls = counting_calls(monkeypatch, spectral, "stacked_steklov_spectra")
    for graph_class, n in (("trees", 10), ("connected", 6)):
        before = len(calls)
        for i in range(2, n):
            assert verify_extremal(n, i, graph_class).match
        assert len(calls) - before == 1, graph_class


def test_class_parsed_once_for_iteration_and_every_i(monkeypatch):
    # iteration, the screen and the exact counts of every i read one store,
    # filled when the class is read from its file; the tree members of the
    # connected class are parsed as tree codes. A class object made from
    # its codes alone fills the store on first read: reading its leaf
    # counts at a b = 1 pair parses each code once too, and builds no screen
    for graph_class, n in (("trees", 12), ("connected", 7)):
        enumerate_class = enumerate_trees if graph_class == "trees" else enumerate_connected_graphs
        enumerate_class(n)  # writes the class file
        _load_class.cache_clear()
        with monkeypatch.context() as m:
            trees, graphs = (counting_calls(m, enumeration, name)
                             for name in ("_unit_tree", "graph_edges"))
            stream = enumerate_class(n)
            assert len(list(stream)) == len(stream)
            for i in range(2, n):
                sweep(n, i, graph_class)
                assert verify_extremal(n, i, graph_class).match
        assert trees == [c for c in stream.codes if c.startswith("(")]
        assert graphs == [c for c in stream.codes if c.startswith("g")]
        assert len(trees) == len(enumerate_trees(n))
        made = GraphClassStream(graph_class, n, stream.codes)
        with monkeypatch.context() as m:
            m.setattr(extremal, enumerate_class.__name__, lambda n: made)
            fresh = [counting_calls(m, enumeration, name) for name in ("_unit_tree", "graph_edges")]
            rep = verify_extremal(n, n - 1, graph_class)  # the leaf counts alone
            assert rep.target.bound_exact == 1 and rep.match
        assert fresh == [trees, graphs]
        assert "leaf_counts" in vars(made) and "spectra" not in vars(made)
        assert np.array_equal(made.leaf_counts, stream.leaf_counts)


def test_one_clear_frees_the_class_and_its_screen():
    # the class object holds its codes, its parse and its screen, the
    # read-only spectra array: the memo's reference to the object keeps
    # the screen alive, and clearing the memo frees both
    stream = enumerate_trees(9)
    screen = stream.spectra
    assert not screen.flags.writeable
    assert sweep(9, 2, "trees").rows and stream.spectra is screen
    held = [weakref.ref(x) for x in (stream, screen)]
    del stream, screen
    assert all(ref() is not None for ref in held)
    assert enumerate_trees(9).spectra is held[1]()
    _load_class.cache_clear()
    assert [ref() for ref in held] == [None] * 2


def test_leaf_table_is_built_once_per_class_and_freed_with_it(monkeypatch):
    # the class object holds its leaf counts, read-only, as it holds its
    # screen: built on the first b = 1 verify, shared by every later one,
    # and freed by one clear; the object keeps no edge arrays, and no b = 1
    # verify builds the screen
    _load_class.cache_clear()
    prop = vars(GraphClassStream)["leaf_counts"]
    builds, build = [], prop.func  # records n, not the object, which must be freed
    monkeypatch.setattr(prop, "func", lambda stream: builds.append(stream.n) or build(stream))
    for i in (7, 8, 7, 9):
        assert verify_extremal(12, i, "trees").match
    stream = enumerate_trees(12)
    table = stream.leaf_counts
    assert builds == [12] and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    assert {k for k, v in vars(stream).items() if isinstance(v, np.ndarray)} == {
        "leaf_counts"}
    held = weakref.ref(table)
    del stream, table
    assert held() is not None
    _load_class.cache_clear()
    assert held() is None
    assert verify_extremal(12, 7, "trees").match and builds == [12, 12]


def test_warm_sweeps_equal_fresh_ones(tmp_path, monkeypatch):
    """A sweep read from the memo is bit for bit the sweep of a process
    that screens the class afresh from freshly generated codes."""
    warm = {}
    for graph_class, n, i in GRID:
        sweep(n, i, graph_class)
        warm[graph_class, n, i] = sweep(n, i, graph_class)
    monkeypatch.setenv("STEKLOV_CACHE_DIR", str(tmp_path))
    for graph_class, n, i in GRID:
        _load_class.cache_clear()
        fresh = sweep(n, i, graph_class)
        old = warm[graph_class, n, i]
        # rows, minimum, argmin_codes and gap; repr tells -0.0
        assert old == fresh and repr(old) == repr(fresh), (graph_class, n, i)


@pytest.mark.parametrize("graph_class,n,i", [
    ("trees", 9, 4), ("connected", 6, 3), ("connected", 7, 4),
])
def test_oracle_runs_on_every_sweep(monkeypatch, graph_class, n, i):
    """The exact counts decide the candidates afresh on every call, as many
    on a warm call as on a cold one and no per-graph solve. At b != 1 that
    is one count call, one store row per candidate; at b == 1 (connected
    (7, 4)) the class's leaf counts decide them, with no count call, tree
    walk or dense LDL^T."""
    _load_class.cache_clear()
    counts = counting(monkeypatch, "member_counts")
    walks = counting_calls(monkeypatch, exact, "tree_inertia_counts")
    dense = counting_calls(monkeypatch, exact, "dense_inertia_counts")
    solves = counting(monkeypatch, "sigma_value")
    cold = verify_extremal(n, i, graph_class)
    stream, values = extremal._screened(n, i, graph_class)
    candidates = np.flatnonzero(values <= cold.target.bound + cold.tol).tolist()
    assert cold.rechecked == len(candidates) > 0
    warm = verify_extremal(n, i, graph_class)
    assert warm == cold
    if cold.target.bound_exact == 1:
        assert counts == walks == dense == []
    else:
        rows = stream.rows(candidates)
        assert [args[1] for args in counts] == 2 * [rows]
    assert solves == []


@pytest.mark.parametrize("graph_class,n,i", [
    ("trees", 9, 4), ("trees", 8, 4), ("trees", 11, 3), ("connected", 6, 3), ("connected", 7, 2),
])
def test_second_verify_builds_no_prediction(monkeypatch, graph_class, n, i):
    """The first verify builds and codes the predicted minimizers; a second
    builds and codes nothing, and still decides every candidate exactly."""
    extremal._predicted.cache_clear()
    codes = counting(monkeypatch, "canonical_code")
    builds = [counting_calls(monkeypatch, module, "make_graph")
              for module in (graph_mod, families, extremal)]
    counts = counting(monkeypatch, "member_counts")
    first = verify_extremal(n, i, graph_class)
    assert codes and any(builds)
    ((_, members, _),) = counts
    assert len(set(members)) == len(members) == first.rechecked > 0
    codes.clear()
    for calls in builds:
        calls.clear()
    second = verify_extremal(n, i, graph_class)
    assert codes == [] and not any(builds)
    assert [args[1] for args in counts] == 2 * [members]
    assert second == first and second.target is first.target


@pytest.mark.parametrize("graph_class,n,i", [
    ("trees", 12, 8), ("trees", 7, 1), ("trees", 6, 9), ("connected", 7, 4), ("connected", 6, 2),
])
def test_sweep_equals_its_loop_reference(graph_class, n, i):
    """Rows in stored-code order, the argmin set from one comparison and
    the gap from one numpy reduction equal, bit for bit, the sorted pairs
    and the Python scans they replace."""
    res = sweep(n, i, graph_class)
    stream = enumerate_trees(n) if graph_class == "trees" else enumerate_connected_graphs(n)
    labels, spectra = stream.codes, stream.spectra
    values = spectra[:, i - 1].tolist() if i <= n else [math.inf] * len(labels)
    minimum = min(values)
    argmin = {j for j, v in enumerate(values) if v <= minimum + extremal.SCREEN_MARGIN}
    finite = [v for j, v in enumerate(values) if j not in argmin and v < math.inf]
    assert res.rows == tuple(sorted(zip(labels, values)))
    assert repr(res.minimum) == repr(minimum)
    assert res.argmin_codes == tuple(sorted(labels[j] for j in argmin))
    assert repr(res.gap) == repr(min(finite) - minimum if finite else math.inf)


@pytest.mark.parametrize("graph_class,n,i", [("trees", 12, 8), ("connected", 7, 4)])
def test_each_resolved_class_is_built_and_assembled_once(monkeypatch, graph_class, n, i):
    """No class is solved again: over a held class, a sweep builds no
    graph, and neither a sweep nor a verify assembles a Laplacian or makes
    a Steklov solve (a verify builds only the predicted minimizers)."""
    verify_extremal(n, i, graph_class)  # the memo holds the class
    builds = counting_calls(monkeypatch, graph_mod, "make_graph")
    assemblies = counting_calls(monkeypatch, spectral, "_laplacian")
    solves = counting(monkeypatch, "steklov_spectrum")
    sweep(n, i, graph_class)
    assert builds == []
    assert verify_extremal(n, i, graph_class).rechecked > 1
    assert assemblies == [] and solves == []


def test_verify_decides_by_counts_and_falls_back_to_the_screen(monkeypatch):
    # counts that put one candidate below b break the bound; counts that
    # certify no candidate leave the screen's minimum and argmin set
    exact = verify_extremal(7, 2, "trees")
    screen = sweep(7, 2, "trees")
    for fake, bound_ok in (((3, 0), False), ((0, 0), True)):
        monkeypatch.setattr(extremal, "member_counts",
                            lambda n, members, b, c=fake: [c] * len(members))
        rep = verify_extremal(7, 2, "trees")
        assert rep.bound_ok is bound_ok and not rep.match
        assert (rep.minimum, rep.argmin_codes, rep.gap) == (
            screen.minimum, screen.argmin_codes, screen.gap)
        assert rep.rechecked == exact.rechecked
    assert exact.match and exact.minimum == exact.target.bound != screen.minimum


def test_verify_loads_numpy_only():
    # the exact counts need no linear algebra package and the exact bounds
    # no mpmath: a fresh process verifies a rational and an irrational
    # pair, then every supported pair, loading no third-party package but
    # numpy
    code = ("import sys; before = set(sys.modules); import steklov; "
            "r = [steklov.verify_extremal(9, 4, 'trees'), steklov.verify_extremal(8, 4, 'trees')]; "
            f"[steklov.verify_extremal(n, i, c) for c, n, i in {GRID!r}]; "
            "tops = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(all(x.match and x.bound_ok for x in r), "
            "*sorted(tops - sys.stdlib_module_names - {'steklov'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "STEKLOV_CACHE_DIR": ""}, timeout=120, check=True)
    assert out.stdout.split() == ["True", "numpy"]


def test_bad_stored_code_raises_on_every_sweep(monkeypatch):
    sweep(5, 2, "trees")  # the memo holds the good class
    calls = []

    def bad_class(n):
        calls.append(n)
        return GraphClassStream("trees", n, ("(1()1())",))  # a 3-vertex code

    monkeypatch.setattr(extremal, "enumerate_trees", bad_class)
    for _ in range(2):
        with pytest.raises(ParseError):
            sweep(5, 2, "trees")
    assert calls == [5, 5]


def test_sigma_sentinel_no_boundary():
    g = path_graph(3).with_roles([Role.INTERIOR] * 3)
    assert sigma_value(g, 1) == math.inf


# -- monotonicity -------------------------------------------------------------------


def _random_host(rng, g):
    """Extend g by pendant vertices and extra edges; shrink the boundary."""
    n = g.n
    extra = int(rng.integers(1, 4))
    edges = list(g.edges)
    for k in range(extra):
        edges.append((int(rng.integers(0, n + k)), n + k, float(rng.uniform(0.2, 3.0))))
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for u in range(n + extra):
        for v in range(u + 1, n + extra):
            if (u, v) not in present and rng.random() < 0.15:
                edges.append((u, v, float(rng.uniform(0.2, 3.0))))
    b = list(g.boundary)
    keep = set(
        rng.choice(b, size=int(rng.integers(1, len(b) + 1)), replace=False).tolist()
    )
    roles = [
        Role.BOUNDARY if v in keep else Role.INTERIOR for v in range(n + extra)
    ]
    measures = list(g.measures) + [float(rng.uniform(0.5, 2.0)) for _ in range(extra)]
    return make_graph(n + extra, edges, measures=measures, roles=roles)


def test_monotonicity_random(rng):
    for _ in range(300):
        g = random_weighted_graph(rng, n_max=6)
        gt = _random_host(rng, g)
        v = check_monotonicity(gt, g)
        assert v.ok, (g.edges, gt.edges)
        assert all(s >= -1e-9 for s in v.slacks)


def test_monotonicity_rejects_bad_embedding():
    g = path_graph(3)
    gt = make_graph(3, [(0, 1, 2), (1, 2, 1)])  # reweighted edge
    with pytest.raises(NotASubgraphError):
        check_monotonicity(gt, g)


# -- rigidity -----------------------------------------------------------------------


def _comb_host(g, teeth_len=1):
    """Attach a pendant path of teeth_len edges to every vertex of g."""
    edges = list(g.edges)
    n = g.n
    for v in range(g.n):
        prev = v
        for _ in range(teeth_len):
            edges.append((prev, n, 1))
            prev = n
            n += 1
    roles = list(g.roles) + [Role.INTERIOR] * (n - g.n)
    measures = list(g.measures) + [1] * (n - g.n)
    return make_graph(n, edges, measures=measures, roles=roles)


def test_rigidity_comb_instances(rng):
    for _ in range(20):
        g = random_weighted_graph(rng, n_max=5)
        if len(g.boundary) < 2:
            continue
        gt = _comb_host(g, teeth_len=int(rng.integers(1, 3)))
        v = check_rigidity_equivalence(gt, g)
        assert v.data.comb
        assert v.spectra_equal and v.conditions_hold and v.agree
        if v.comb_consistent is not None:
            assert v.comb_consistent


def test_rigidity_biconditional_random(rng):
    agreed = 0
    for _ in range(150):
        g = random_weighted_graph(rng, n_max=5)
        if len(g.boundary) < 2:
            continue
        gt = _random_host(rng, g)
        if len(gt.boundary) < 2:
            continue
        v = check_rigidity_equivalence(gt, g)
        assert v.agree, (g.edges, gt.edges)
        agreed += 1
    assert agreed > 50


def test_rigidity_triangle_with_pendant():
    # triangle 0-1-2 plus a pendant 3 at vertex 0; boundary {0, 3} on both
    roles = [Role.BOUNDARY, Role.INTERIOR, Role.INTERIOR, Role.BOUNDARY]
    g = make_graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1)], roles=roles)
    gt_edges = g.edges + ((1, 4, 1),)
    gt = make_graph(5, [tuple(e) for e in gt_edges], roles=roles + [Role.INTERIOR])
    v = check_rigidity_equivalence(gt, g)
    assert v.agree


def test_rigidity_borderline_pair(monkeypatch):
    # two rows of the H basis 5e-9 * scale apart: above the zero tolerance,
    # so H still separates, but within ten times it, so the pair is flagged
    basis = np.array([[1.0], [1.0 + 5e-9], [-1.0]])
    monkeypatch.setattr(extremal, "_h_basis", lambda big: basis)
    data = rigidity_data(path_graph(3), path_graph(3))
    assert data.borderline_pairs == ((0, 1),)
    assert data.separates


def test_rigidity_check_assembles_the_host_once(rng, monkeypatch):
    # G~ is assembled once, for its Steklov spectrum; the H basis is solved
    # from that operator's interior factor, not by one harmonic extension
    # per column.
    hosts = []
    for _ in range(30):
        g = random_weighted_graph(rng, n_max=5)
        if len(g.boundary) >= 2:
            hosts += [(_comb_host(g), g), (_random_host(rng, g), g)]
    checked = 0
    for gt, g in hosts:
        if len(gt.boundary) < 2:
            continue
        with monkeypatch.context() as m:
            assemblies = counting_calls(m, spectral, "_laplacian")
            extensions = counting_calls(m, spectral, "harmonic_extension")
            check_rigidity_equivalence(gt, g)
        assert sum(h is gt for h in assemblies) == 1
        assert extensions == []
        checked += 1
    assert checked > 20


# -- statement-level checks ----------------------------------------------------------


def test_positivity_connected(rng):
    for _ in range(100):
        g = random_weighted_graph(rng, n_max=7)
        b = list(g.boundary)
        z = b[0]
        roles = [
            Role.DIRICHLET if v == z else g.roles[v] for v in range(g.n)
        ]
        h = g.with_roles(roles)
        if not h.boundary:
            continue
        v = verify_positivity(h)
        assert v.ok


def test_positivity_fails_on_a_one_signed_higher_eigenvector(monkeypatch):
    # K_{1,3} with two boundary leaves and one Dirichlet leaf passes; with
    # its second eigenvector replaced by |f_2|, one-signed on B, the
    # verdict must fail on that vector alone
    g = combinatorial_graph(4, [(0, 1), (0, 2), (0, 3)]).with_roles(
        [Role.INTERIOR, Role.BOUNDARY, Role.BOUNDARY, Role.DIRICHLET])
    assert verify_positivity(g).ok
    res = steklov_spectrum(g)
    vectors = res.extensions.copy()
    vectors[:, 1] = np.abs(vectors[:, 1])
    one_signed = SpectralResult(res.kind, res.eigenvalues, vectors, res.support, None)
    monkeypatch.setattr(extremal, "steklov_spectrum", lambda h: one_signed)
    v = verify_positivity(g)
    assert v.simple and v.one_signed
    assert v.higher_change_sign is False and v.ok is False


def test_positivity_disconnected_decomposition():
    # middle vertex Dirichlet: Omega_D falls apart into two singletons
    g = path_graph(3).with_roles([Role.BOUNDARY, Role.DIRICHLET, Role.BOUNDARY])
    v = verify_positivity(g)
    assert v.skipped and v.decomposition_ok and v.ok


def test_lambda1_bound_broom_equality():
    fam = build_broom(1, 1, 2)
    v = verify_lambda1_bound(fam.graph)
    assert v.holds and v.equality
    assert abs(v.lambda1 - 0.2) <= 1e-9
    assert v.structure_matches


def test_lambda1_bound_path():
    g = path_graph(3).with_roles([Role.DIRICHLET, Role.INTERIOR, Role.BOUNDARY])
    v = verify_lambda1_bound(g)
    assert v.l == 1 and v.n == 1
    assert v.holds and v.equality and v.structure_matches


def test_lambda1_bound_strict_case():
    # caterpillar that is not a minimal broom: bound strict
    g = combinatorial_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5)])
    roles = [Role.DIRICHLET] + [
        Role.BOUNDARY if v in (4, 5) else Role.INTERIOR for v in range(1, 6)
    ]
    v = verify_lambda1_bound(g.with_roles(roles))
    assert v.holds and not v.equality


def test_lambda1_bound_hypothesis_gates():
    with pytest.raises(HypothesesNotMetError):
        verify_lambda1_bound(path_graph(3))  # no Dirichlet vertex
    g = make_graph(
        3,
        [(0, 1, 1), (1, 2, 2)],  # non-unit interior edge
        roles=[Role.DIRICHLET, Role.INTERIOR, Role.BOUNDARY],
    )
    with pytest.raises(HypothesesNotMetError):
        verify_lambda1_bound(g)


def test_lambda1_bound_sweep_trees(rng):
    # every unit tree with one Dirichlet leaf and the rest of the leaves as
    # boundary satisfies the bound; at equality the broom structure matches
    equalities = 0
    for n in range(3, 9):
        for g in enumerate_trees(n):
            leaves = g.leaves()
            if len(leaves) < 2:
                continue
            for z in leaves:
                roles = [
                    Role.DIRICHLET if v == z
                    else (Role.BOUNDARY if v in leaves else Role.INTERIOR)
                    for v in range(g.n)
                ]
                v = verify_lambda1_bound(g.with_roles(roles))
                assert v.holds
                if v.equality:
                    equalities += 1
                    assert v.structure_matches
    assert equalities > 5


def _lambda1_bound_inputs():
    """Every graph the lambda_1 bound tests above verify, and the brooms
    Br(l, i, d) with i, d < 6 at four lengths."""
    yield build_broom(1, 1, 2).graph
    yield path_graph(3).with_roles([Role.DIRICHLET, Role.INTERIOR, Role.BOUNDARY])
    cat = combinatorial_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5)])
    yield cat.with_roles([Role.DIRICHLET] + [
        Role.BOUNDARY if v in (4, 5) else Role.INTERIOR for v in range(1, 6)])
    for n in range(3, 9):
        for g in enumerate_trees(n):
            leaves = g.leaves()
            for z in leaves if len(leaves) >= 2 else ():
                yield g.with_roles([
                    Role.DIRICHLET if v == z
                    else (Role.BOUNDARY if v in leaves else Role.INTERIOR)
                    for v in range(g.n)
                ])
    for l in (3, 3.0, 2.5, 0.1):
        for i in range(6):
            for d in range(6):
                yield build_broom(l, i, d).graph


def test_lambda1_structure_reads_the_broom_shapes():
    # the (i, d) lookup in the solution's arms decides structure_matches as
    # the BroomParams lookup in its shapes does
    equalities = 0
    for g in _lambda1_bound_inputs():
        v = verify_lambda1_bound(g)
        want = None
        if v.equality and len(g.dirichlet) == 1:
            o = g.dirichlet[0]
            (attach,) = g.adjacency[o]
            want = broom_shape(g.adjacency, o, attach, v.l) in minimal_broom(v.l, v.n).shapes
            equalities += 1
        assert v.structure_matches is want, g.edges
    assert equalities > 50


def test_steklov_clump_p4():
    v = verify_steklov_clump(path_graph(4))
    assert v.clump == Fraction(3, 2)
    assert abs(v.bound - 2.0 / 3.0) <= 1e-15
    assert v.holds and v.rigidity_consistent
    # a single edge: clump number 1/2 at the midpoint, both halves are Br(1/2)
    v = verify_steklov_clump(path_graph(2))
    assert v.clump == Fraction(1, 2) and v.broom_clumps == 2
    assert v.equality and v.rigidity_consistent


def test_lambda1_bound_float_dirichlet_length():
    # a Dirichlet edge of float length is still the minimal broom's edge
    for l in (2.5, 0.1):
        for n in range(6):
            for p in minimal_broom(l, n).brooms:
                v = verify_lambda1_bound(build_broom(l, p.i, p.d).graph)
                assert v.equality and v.structure_matches, (l, p)


def test_lambda1_bound_float_length_ties_like_integer():
    # at l = 3, n = 4 the splits i = 0 and i = 1 tie; the binary value of
    # the float weight 1/3.0 would break the tie and lose the broom
    v = verify_lambda1_bound(build_broom(3.0, 1, 3).graph)
    assert v.l == 3 and v.equality and v.structure_matches
    assert v == verify_lambda1_bound(build_broom(3, 1, 3).graph)


def test_steklov_clump_float_weights_match_integer():
    # both tree bounds read a weight stored as 1.0 as the unit weight, also
    # in the dumbbell match at equality
    for n in range(2, 11):
        for g in enumerate_trees(n):
            h = make_graph(g.n, [(u, v, 1.0) for u, v, _ in g.edges], roles=g.roles)
            assert verify_steklov_clump(h) == verify_steklov_clump(g), g.edges
            assert verify_sigma2_tree(h) == verify_sigma2_tree(g), g.edges


def test_steklov_clump_sweep():
    for n in range(2, 10):
        for g in enumerate_trees(n):
            v = verify_steklov_clump(g)
            assert v.holds and v.rigidity_consistent, (n, g.edges)


def _oracle_steklov_clump(g):
    """verify_steklov_clump by the Fraction path: the clump number is the
    least clump_number_at over every vertex and edge midpoint, attained at
    one point, and a broom clump is a clump at that point as long as the
    clump number whose rooted metric code is a minimal broom's."""
    points = [GeometricPoint.at_vertex(v) for v in range(g.n)]
    points += [GeometricPoint.on_edge(u, v, Fraction(1, 2)) for u, v, _ in g.edges]
    values = [clump_number_at(g, pt) for pt in points]
    clump = min(values)
    (pt,) = [p for p, x in zip(points, values) if x == clump]
    codes = broom_codes(clump)
    matches = sum(c.length == clump and tree_code(*clump_rooted_tree(g, pt, c)) in codes
                  for c in clump_lengths_at(g, pt))
    bound = float(lambda_value(clump))
    sigma2 = sigma_value(g, 2)
    equality = abs(sigma2 - bound) <= extremal.VERDICT_TOL
    return extremal.ClumpBoundVerdict(
        sigma2, clump, bound, sigma2 >= bound - extremal.VERDICT_TOL, equality, matches,
        rigidity_consistent=(matches >= 2) == equality)


def test_steklov_clump_matches_the_fraction_oracle():
    # every tree 2 <= n <= 11, stored and relabelled at random (so the walk
    # from vertex 0 meets the centroids from every side): the whole verdict,
    # bound, equality, broom count and rigidity included
    rng = np.random.default_rng(37)
    checked = brooms = 0
    for n in range(2, 12):
        for g in enumerate_trees(n):
            label = rng.permutation(n).tolist()
            twin = combinatorial_graph(n, [(label[u], label[v]) for u, v, _ in g.edges])
            for h in (g, twin):
                got = verify_steklov_clump(h)
                assert got == _oracle_steklov_clump(h), h.edges
                assert type(got.broom_clumps) is int and type(got.clump) is Fraction
                checked += 1
                brooms += got.broom_clumps >= 2
    assert checked == 870 and brooms > 50


def test_warm_clump_bound_builds_no_broom_and_no_clump_list(monkeypatch):
    # a warm verify decides in integer halves: no BroomParams, and no clump
    # vertex list, is built
    trees = [g for n in range(2, 10) for g in enumerate_trees(n)]
    first = [verify_steklov_clump(g) for g in trees]
    shapes = counting_calls(monkeypatch, families.BroomParams, "__post_init__")
    clump_lists = counting_calls(monkeypatch, geometry, "_clumps_at")
    assert [verify_steklov_clump(g) for g in trees] == first
    assert shapes == [] and clump_lists == []


def test_sigma2_tree_sweep():
    for n in range(2, 10):
        for g in enumerate_trees(n):
            v = verify_sigma2_tree(g)
            assert v.holds, (n, g.edges)
            if v.equality:
                assert v.dumbbell_match


def test_tree_bounds_refuse_graphs_outside_their_hypotheses():
    # both bounds hold for unit trees with at least one edge, unit measures,
    # no B_D and B exactly the leaves; any other graph is refused, not
    # reported as a counterexample
    b, i, d = "boundary", "interior", "dirichlet"
    p3 = [(0, 1, 1), (1, 2, 1)]
    refused = [
        make_graph(1, roles=[b]),  # a single vertex
        make_graph(3, p3, measures=[100, 1, 100], roles=[b, i, b]),
        make_graph(3, p3, roles=[b, i, d]),
        make_graph(3, p3, roles=[b, b, b]),
        make_graph(3, p3, roles=[b, i, i]),
        combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)]),
        make_graph(4, [(0, 1, 1), (2, 3, 1)], roles=[b] * 4),
    ]
    refused += [g.with_roles([Role.BOUNDARY] * n) for n in range(3, 9) for g in enumerate_trees(n)]
    for g in refused:
        for verify in (verify_steklov_clump, verify_sigma2_tree):
            with pytest.raises(HypothesesNotMetError):
                verify(g)
    light = make_graph(3, [(0, 1, Fraction(1, 100)), (1, 2, Fraction(1, 100))], roles=[b, i, b])
    with pytest.raises(HypothesesNotMetError):
        verify_sigma2_tree(light)
    with pytest.raises(NotUnitWeightError):
        verify_steklov_clump(light)


def test_tree_bounds_share_one_solve(monkeypatch):
    # the two bounds read one Steklov solve of each tree object, and asking
    # again solves nothing
    for n in range(2, 10):
        for g in enumerate_trees(n):
            with monkeypatch.context() as m:
                assemblies = counting_calls(m, spectral, "dtn_matrix")
                first = verify_steklov_clump(g), verify_sigma2_tree(g)
                assert len(assemblies) == 1, g.edges
                assert (verify_steklov_clump(g), verify_sigma2_tree(g)) == first
                assert len(assemblies) == 1, g.edges


def test_connected_statements_reject_disconnected_graphs():
    roles = [Role.BOUNDARY, Role.DIRICHLET, Role.BOUNDARY, Role.DIRICHLET]
    two_edges = make_graph(4, [(0, 1, 1), (2, 3, 1)], roles=roles)
    with pytest.raises(DisconnectedError):
        verify_positivity(two_edges)
    with pytest.raises(DisconnectedError):
        verify_bipartite_top(two_edges)


def test_bipartite_top_examples():
    assert verify_bipartite_top(path_graph(3)).ok
    c4 = combinatorial_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    v = verify_bipartite_top(c4)
    assert abs(v.mu_max - 4.0) <= 1e-9
    assert not v.simple or v.ok  # C4 top eigenvalue is simple
    tri = combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotBipartiteError):
        verify_bipartite_top(tri)


def test_bipartite_gate_matches_brute_force_colouring():
    # NotBipartiteError exactly when no 2-colouring (vertex 0 on side 0)
    # leaves every edge across, for every connected class with n <= 7
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            bipartite = any(
                all((mask >> u & 1) != (mask >> v & 1) for u, v, _ in g.edges)
                for mask in range(0, 1 << n, 2)
            )
            if bipartite:
                verify_bipartite_top(g)
            else:
                with pytest.raises(NotBipartiteError):
                    verify_bipartite_top(g)


def test_bipartite_top_random_trees(rng):
    from conftest import random_unit_tree

    for _ in range(100):
        g = random_unit_tree(rng, int(rng.integers(2, 9)))
        v = verify_bipartite_top(g)
        assert v.ok or not v.simple  # identity requires a simple top eigenvalue


def test_reg_star_plain():
    v = verify_reg_star(3, 2)
    assert all(abs(s - 0.5) <= 1e-9 for s in v.sigmas)
    assert v.upper_ok and v.equality


def test_reg_star_with_extension():
    # l = 4: branch budget floor(sqrt(13)) = 3; a 3-edge branch keeps equality
    v = verify_reg_star(2, 4, extension=rooted_path(3))
    assert v.branch_budget == 3
    assert v.branches_small and v.upper_ok and v.equality
    # l = 1: budget 1, so a 2-edge branch voids the equality claim
    v2 = verify_reg_star(2, 1, extension=rooted_path(2))
    assert v2.branch_budget == 1
    assert not v2.branches_small and v2.equality is None
    assert v2.upper_ok
    # extension rooted at 2 with branches of 1, 2 and 3 edges: {0}, the path
    # {1, 4} and the fork {3, 5, 6}, which is 3 edges but only 2 deep
    edges = [(2, 0), (2, 1), (1, 4), (2, 3), (3, 5), (3, 6)]
    ext = RootedTree(combinatorial_graph(7, edges), 2)
    for r, l in ((2, 4), (3, 3)):  # budget 3: every branch fits
        v = verify_reg_star(r, l, extension=ext)
        assert v.branch_budget == 3 and v.branches_small
        assert v.upper_ok and v.equality
    v = verify_reg_star(2, 2, extension=ext)  # budget 2: the fork does not
    assert v.branch_budget == 2 and not v.branches_small
    assert v.upper_ok and v.equality is None


def test_sigma_lambda_strict(rng):
    v = verify_sigma_lambda(path_graph(3), 1)
    assert v.strict and v.lambda1 < v.sigma2
    for _ in range(50):
        g = random_weighted_graph(rng, n_max=6)
        if len(g.boundary) < 2:
            continue
        z = int(rng.integers(0, g.n))
        v = verify_sigma_lambda(g, z, w=float(rng.uniform(0.2, 3.0)))
        assert v.strict


# P3 with its Dirichlet vertex at an end (a host) or in the middle (a
# subgraph whose boundary holds the host's)
PINNED_HOST = make_graph(3, [(0, 1, 1), (1, 2, 1)], roles=["dirichlet", "interior", "boundary"])
PINNED_SUB = make_graph(3, [(0, 1, 1), (1, 2, 1)], roles=["boundary", "dirichlet", "boundary"])
# P3 with measure 2 at its middle, and P3 whose one boundary vertex is 0
HEAVY_P3 = make_graph(3, [(0, 1, 1), (1, 2, 1)], measures=[1, 2, 1],
                      roles=["boundary", "interior", "boundary"])
ONE_END_P3 = make_graph(3, [(0, 1, 1), (1, 2, 1)], roles=["boundary", "interior", "interior"])
# Br(1, 1, 2) with its last pendant made interior: a leaf outside B u B_D
BROOM_112 = build_broom(1, 1, 2).graph
LEAF_OFF_BROOM = BROOM_112.with_roles(BROOM_112.roles[:-1] + (Role.INTERIOR,))


@pytest.mark.parametrize("build,error,fragment", [
    (lambda: check_monotonicity(path_graph(3), path_graph(4)), NotASubgraphError,
     "subgraph has more vertices than its host"),
    (lambda: verify_reg_star(1, 1), InvalidParamsError, "need r >= 2 and l >= 1"),
    (lambda: verify_sigma_lambda(path_graph(3), 5), InvalidParamsError,
     "z must be a vertex of G"),
    # read as an index: these named a misleading edge out of range
    (lambda: verify_sigma_lambda(path_graph(4), True), InvalidParamsError,
     "z must be an integer"),
    (lambda: verify_sigma_lambda(path_graph(4), 1.0), InvalidParamsError,
     "z must be an integer"),
    # a root outside the extension raised a bare KeyError
    (lambda: verify_reg_star(3, 2, RootedTree(rooted_path(2).graph, 7)), InvalidParamsError,
     "root 7 is not a vertex of the graph"),
    (lambda: verify_positivity(path_graph(3)), InvalidParamsError,
     "positivity check needs B_D nonempty"),
    (lambda: verify_lambda1_bound(combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)])),
     HypothesesNotMetError, "the lambda_1 bound is defined for trees"),
    # the tree check is the unit-tree statements' own: it raised a plain
    # HypothesesNotMetError
    (lambda: verify_lambda1_bound(combinatorial_graph(3, [(0, 1), (1, 2), (0, 2)])),
     NotATreeError, "the lambda_1 bound is defined for trees"),
    # the statements that compare plain spectra refuse a graph with B_D
    (lambda: check_monotonicity(PINNED_HOST, path_graph(3)), InvalidParamsError,
     "needs B_D empty"),
    (lambda: check_monotonicity(path_graph(3), PINNED_SUB), InvalidParamsError,
     "needs B_D empty"),
    (lambda: rigidity_data(PINNED_HOST, path_graph(3)), InvalidParamsError, "needs B_D empty"),
    (lambda: check_rigidity_equivalence(PINNED_HOST, path_graph(3)), InvalidParamsError,
     "needs B_D empty"),
    (lambda: check_rigidity_equivalence(path_graph(3), PINNED_SUB), InvalidParamsError,
     "needs B_D empty"),
    # rigidity_data checks the embedding before it reads the host
    (lambda: rigidity_data(PINNED_HOST, path_graph(4)), NotASubgraphError,
     "subgraph has more vertices than its host"),
    (lambda: check_monotonicity(path_graph(3), HEAVY_P3), NotASubgraphError,
     "has a different measure in host"),
    (lambda: check_monotonicity(path_graph(3), ONE_END_P3), NotASubgraphError,
     "host boundary must be contained"),
    (lambda: rigidity_data(ONE_END_P3, ONE_END_P3), InvalidParamsError,
     "rigidity needs |B~| >= 2"),
    (lambda: verify_lambda1_bound(LEAF_OFF_BROOM), HypothesesNotMetError,
     "leaves must be exactly B u B_D"),
    # the same roles by name: "interior" was read as Dirichlet, and the
    # bound held
    (lambda: verify_lambda1_bound(BROOM_112.with_roles(BROOM_112.roles[:-1] + ("interior",))),
     HypothesesNotMetError, "leaves must be exactly B u B_D"),
    (lambda: verify_sigma_lambda(BROOM_112, 1), InvalidParamsError, "needs B_D empty"),
    (lambda: theta_value(1), InvalidParamsError, "need i >= 2"),
    (lambda: theta_value(4.0), InvalidParamsError, "i must be an integer, not 4.0"),
    (lambda: theta_value(True), InvalidParamsError, "i must be an integer, not True"),
    (lambda: sweep(5, 2, "forest"), InvalidParamsError, "unknown graph class"),
    # a surd does not mix with a float
    (lambda: QuadraticSurd(1, 1, 2) + 0.5, TypeError, "unsupported operand"),
    (lambda: QuadraticSurd(1, 1, 2) * 0.5, TypeError, "unsupported operand"),
], ids=["monotonicity-larger-subgraph", "reg-star-r1", "sigma-lambda-z5",
        "sigma-lambda-bool-z", "sigma-lambda-float-z", "reg-star-root-off-extension",
        "positivity-without-dirichlet", "lambda1-cycle", "lambda1-cycle-not-a-tree",
        "monotonicity-pinned-host",
        "monotonicity-pinned-subgraph", "rigidity-pinned-host", "equivalence-pinned-host",
        "equivalence-pinned-subgraph", "rigidity-embedding-first",
        "monotonicity-measure", "monotonicity-host-boundary", "rigidity-one-boundary-vertex",
        "lambda1-interior-leaf", "lambda1-interior-leaf-by-name", "sigma-lambda-broom",
        "theta-1", "theta-float-i", "theta-bool-i", "sweep-unknown-class",
        "surd-plus-float", "surd-times-float"])
def test_statement_refusals(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
