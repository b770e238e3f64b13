"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line. These intentionally re-derive everything from the
public API so a green run certifies the whole pipeline end to end."""

import itertools
import math
from fractions import Fraction

import numpy as np

from steklov.clumps import classify_type_AB, is_sub_k
from steklov.enumeration import enumerate_trees, tree_code
from steklov.extremal import (
    check_monotonicity,
    verify_bipartite_top,
    verify_extremal,
    verify_positivity,
)
from steklov.families import (
    broom_lambda1,
    build_broom,
    build_comb,
    build_cycle,
    build_path,
    comb_spectrum,
    lambda_value,
    rooted_path,
    RootedTree,
)
from steklov.geometry import (
    GeometricPoint,
    clump_number,
    clump_number_at,
    verify_nodal_theorem,
)
from steklov.graph import Role, make_graph
from steklov.spectral import (
    laplacian_matrix,
    normal_derivative,
    steklov_spectrum,
)

from conftest import random_weighted_graph
from test_extremal import _random_host


def _verdict(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_closed_form_conformance():
    grid = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, 3, Fraction(10, 3)]
    ok = True
    for l, i, d in itertools.product(grid, range(5), range(5)):
        closed = float(broom_lambda1(l, i, d))
        numeric = steklov_spectrum(build_broom(l, i, d).graph).eigenvalue(1)
        ok = ok and abs(closed - numeric) <= 1e-10
    ok = ok and lambda_value(2) == Fraction(1, 2)
    ok = ok and lambda_value(3) == Fraction(1, 3)
    ok = ok and lambda_value(4) == Fraction(1, 5)
    ok = ok and lambda_value(Fraction(10, 3)) == Fraction(3, 11)
    _verdict(1, "closed-form conformance", ok)


def test_criterion_2_sigma2_trees_n7():
    rep = verify_extremal(7, 2, "trees")
    ok = (
        rep.class_size == 11
        and abs(rep.minimum - 1.0 / 3.0) <= 1e-9
        and rep.match
        and len(rep.argmin_codes) == 3
    )
    _verdict(2, "sigma_2 minimum over trees, n=7", ok)


def test_criterion_3_sigma2_trees_n9():
    rep = verify_extremal(9, 2, "trees")
    ok = (
        rep.class_size == 47
        and abs(rep.minimum - 0.2) <= 1e-9
        and rep.match
        and len(rep.argmin_codes) == 1
    )
    _verdict(3, "sigma_2 minimum over trees, n=9", ok)


def test_criterion_4_star_case():
    rep = verify_extremal(7, 3, "trees")
    ok = abs(rep.minimum - 0.5) <= 1e-9 and rep.match and len(rep.argmin_codes) == 1
    rep2 = verify_extremal(10, 3, "trees")
    ok = ok and abs(rep2.minimum - 1.0 / 3.0) <= 1e-9
    ok = ok and rep2.match and len(rep2.argmin_codes) == 4
    _verdict(4, "sigma_3 star minimizers (n=7 and n=10)", ok)


def test_criterion_5_comb_case():
    rep = verify_extremal(6, 3, "connected")
    ok = (
        rep.class_size == 112
        and abs(rep.minimum - 0.75) <= 1e-9
        and rep.match
        and len(rep.argmin_codes) == 2
    )
    rep2 = verify_extremal(8, 4, "trees")
    target = 1.0 / (1.0 + 1.0 / (2.0 + math.sqrt(2.0)))
    ok = ok and rep2.class_size == 23
    ok = ok and abs(rep2.minimum - target) <= 1e-9
    ok = ok and rep2.match and len(rep2.argmin_codes) == 1
    _verdict(5, "sigma_i comb minimizers (n=6,i=3 and n=8,i=4)", ok)


def test_criterion_6_connected_n7_consistency():
    trees = verify_extremal(7, 2, "trees")
    conn = verify_extremal(7, 2, "connected")
    ok = (
        conn.class_size == 853
        and abs(conn.minimum - 1.0 / 3.0) <= 1e-9
        and conn.argmin_codes == trees.argmin_codes
    )
    _verdict(6, "connected-graph consistency at n=7", ok)


def _green_identity(rng, trials=200, tol=1e-10):
    for _ in range(trials):
        g = random_weighted_graph(rng)
        f = rng.standard_normal(g.n)
        h = rng.standard_normal(g.n)
        form = laplacian_matrix(g)
        lhs = float(f @ form.matrix @ h)
        lap = (form.matrix @ f) / form.measures
        nd = normal_derivative(g, f)
        interior = sum(
            lap[x] * h[x] * form.measures[x]
            for x in range(g.n)
            if x not in set(g.boundary)
        )
        pair = sum(
            nd[k] * h[x] * form.measures[x] for k, x in enumerate(g.boundary)
        )
        if abs(lhs - (pair + interior)) > tol:
            return False
    return True


def _nodal_all_trees():
    for n in range(2, 10):
        for g in enumerate_trees(n):
            res = steklov_spectrum(g)
            for i in range(1, len(res.eigenvalues) + 1):
                sigma, f = res.eigenpair(i)
                if sigma <= 1e-10:
                    continue
                report = verify_nodal_theorem(g, sigma, f)
                if not report.degenerate and not report.ok:
                    return False
    return True


def _monotonicity(rng, trials=500):
    done = 0
    while done < trials:
        g = random_weighted_graph(rng, n_max=6)
        gt = _random_host(rng, g)
        if not check_monotonicity(gt, g).ok:
            return False
        done += 1
    return True


def _positivity(rng, trials=500):
    done = 0
    while done < trials:
        g = random_weighted_graph(rng, n_max=7)
        z = list(g.boundary)[0]
        roles = [Role.DIRICHLET if v == z else g.roles[v] for v in range(g.n)]
        h = g.with_roles(roles)
        if not h.boundary:
            continue
        if not verify_positivity(h).ok:
            return False
        done += 1
    return True


def _bipartite(rng, trials=200):
    from conftest import random_tree_edges

    done = 0
    while done < trials:
        n = int(rng.integers(2, 9))
        edges = random_tree_edges(rng, n)
        g = make_graph(
            n,
            [(u, v, float(rng.uniform(0.2, 3.0))) for u, v in edges],
            measures=[float(rng.uniform(0.5, 2.0)) for _ in range(n)],
        )
        v = verify_bipartite_top(g)
        if not v.simple:
            continue  # identity needs a simple top eigenvalue
        if not v.ok:
            return False
        done += 1
    return True


def _clump_oracle():
    for n in range(2, 11):
        for g in enumerate_trees(n):
            pts = [GeometricPoint.at_vertex(v) for v in range(g.n)]
            pts += [
                GeometricPoint.on_edge(u, v, Fraction(j, 10))
                for u, v, _ in g.edges
                for j in range(1, 10)
            ]
            if min(clump_number_at(g, p) for p in pts) != clump_number(g).clump_number:
                return False
    return True


def _type_ab_total():
    for n in range(2, 11):
        for g in enumerate_trees(n):
            for k in range(1, 5):
                if len(g.edges) < k - 1:
                    continue
                if classify_type_AB(g, k).verdict not in ("TypeA", "TypeB", "Both"):
                    return False
    return True


def _sub_k_gap():
    for n in range(2, 11):
        for g in enumerate_trees(n):
            for k in range(1, 5):
                if is_sub_k(g, k).value:
                    s2 = steklov_spectrum(g).eigenvalue(2)
                    if not s2 > float(lambda_value(k)) + 1e-12:
                        return False
    return True


def test_criterion_7_property_suites():
    rng = np.random.default_rng(20260823)
    suites = {
        "green-identity": _green_identity(rng),
        "nodal-theorem": _nodal_all_trees(),
        "monotonicity": _monotonicity(rng),
        "positivity": _positivity(rng),
        "bipartite-top": _bipartite(rng),
        "clump-oracle": _clump_oracle(),
        "type-AB": _type_ab_total(),
        "sub-k-gap": _sub_k_gap(),
    }
    for name, ok in suites.items():
        print(f"  - {name}: {'ok' if ok else 'FAILED'}")
    _verdict(7, "property suites", all(suites.values()))


def _rooted_teeth(max_n=4):
    seen = {}
    for n in range(2, max_n + 1):
        for g in enumerate_trees(n):
            for root in range(n):
                code = tree_code(g, root=root)
                if code not in seen:
                    seen[code] = RootedTree(g, root)
    return list(seen.values())


def test_criterion_8_comb_closed_form():
    bases = [build_path(n).graph for n in range(2, 6)]
    bases += [build_cycle(n).graph for n in range(3, 6)]
    ok = True
    for base in bases:
        for tooth in _rooted_teeth():
            vals, _ = comb_spectrum(base, tooth)
            comb = build_comb(base, tooth).graph
            numeric = steklov_spectrum(comb).eigenvalues[: len(vals)]
            if np.max(np.abs(np.sort(vals) - numeric)) > 1e-9:
                ok = False
    # hand-derived anchor: sigma_3 of the path comb with single-edge teeth
    anchor, _ = comb_spectrum(build_path(3).graph, rooted_path(1))
    ok = ok and abs(sorted(anchor)[2] - 0.75) <= 1e-9
    _verdict(8, "comb closed-form spectrum", ok)
