"""Counting layer: tensions, flows, polynomials, reciprocity, witnesses."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

import surfgraph as sg
from surfgraph import (
    BadModulus,
    CorpusSpec,
    NotBoundaryAcyclic,
    OrientationClass,
    TooLarge,
    all_orientations,
    bao_witness_vector,
    build,
    cli,
    count_class,
    dual,
    enumerate_class,
    from_json_dict,
    generate,
    orientation_to_string,
    poly_eval,
)
from surfgraph import enumeration, guards, orientations, reciprocity, ribbonmap
import mapzoo
from mapzoo import (
    BRIDGE,
    EDGELESS,
    FACE_MATRIX_PRIMAL,
    ISOLATED,
    K5,
    KITE,
    LOOP,
    NAMED,
    PETERSEN,
    SMALL,
    THETA,
    TORUS,
    TRIANGLE,
    TWO_COMPONENTS,
    CONDITIONS,
    balanced_flow_matrix,
    box_join,
    box_values,
    count_solutions,
    disjoint_union,
    forget_graphs,
    fresh,
    incidence_matrix,
    integral_pairs,
    local_tension_matrix,
    mod_values,
    proper_colorings,
    ribbon_maps,
    signed_pattern_counts,
    support_counts,
    surgery_pairs,
    tension_matrix,
)

# ascending coefficients, frozen from closed forms
POLYS = {
    "tension": {
        "edgeless": [1],
        "bridge": [-1, 1],
        "loop": [0],
        "triangle": [2, -3, 1],
        "theta": [-1, 1],
        "torus": [0],
        "kite": [0],
    },
    "flow": {
        "edgeless": [1],
        "bridge": [0],
        "loop": [-1, 1],
        "triangle": [-1, 1],
        "theta": [2, -3, 1],
        "torus": [1, -2, 1],
    },
    "local-tension": {
        "edgeless": [1],
        "bridge": [-1, 1],
        "loop": [0],
        "torus": [1, -2, 1],
        "kite": [-6, 11, -6, 1],
    },
    "balanced-flow": {
        "edgeless": [1],
        "bridge": [0],
        "loop": [-1, 1],
        "torus": [0],
    },
}

_POLY_FN = {
    "tension": sg.poly_tension,
    "flow": sg.poly_flow,
    "local-tension": sg.poly_local_tension,
    "balanced-flow": sg.poly_balanced_flow,
}


def test_frozen_polynomials():
    for kind, table in POLYS.items():
        for name, coeffs in table.items():
            assert _POLY_FN[kind](NAMED[name]) == coeffs, (kind, name)


def test_counts_with_zeros_are_lattice_sizes():
    # tensions with zeros = k^(V-c); flows with zeros = k^(E-V+c)
    for g in SMALL:
        d = g.euler
        for k in range(1, 5):
            assert sg.count_tensions(g, k) == k ** (d.v_count - d.c)
            assert sg.count_flows(g, k) == k ** (d.e_count - d.v_count + d.c)


def test_local_zero_counts_are_kernel_sizes():
    # face matrices are dual incidence matrices, hence totally
    # unimodular: the kernel size mod k is k^(E - rank) for every k
    for g in SMALL:
        d = g.euler
        for k in range(1, 5):
            assert sg.count_local_tensions(g, k) == k ** (
                d.e_count - d.f_count + d.c
            )
            assert sg.count_balanced_flows(g, k) == k ** (d.f_count - d.c)


def test_duality_of_counts():
    for g in SMALL:
        gd = dual(g)
        for k in range(1, 5):
            assert sg.count_nz_tensions(g, k) == sg.count_nz_balanced_flows(gd, k)
            assert sg.count_nz_local_tensions(g, k) == sg.count_nz_flows(gd, k)


def test_chromatic_oracle():
    # proper k-colorings = k^components * nowhere-zero tension count
    for name, g in NAMED.items():
        c = g.euler.c
        for k in range(1, 5):
            assert proper_colorings(g, k) == k**c * sg.count_nz_tensions(
                g, k
            ), (name, k)


def test_modulus_validation():
    for fn in (
        sg.count_nz_tensions,
        sg.count_flows,
        sg.count_integral_local_tensions,
        sg.reciprocity_pairs_tension,
    ):
        with pytest.raises(BadModulus):
            fn(TRIANGLE, 0)
        with pytest.raises(BadModulus):
            fn(TRIANGLE, -2)
    with pytest.raises(BadModulus):
        sg.integral_local_tension_reciprocity_pairs(TRIANGLE, -1)


def test_scan_guard(monkeypatch):
    dps = []
    real = enumeration._frontier
    monkeypatch.setattr(enumeration, "_frontier", lambda *a: dps.append(a) or real(*a))
    # The theta's flows mod 10^5: 99999 values of the first chord, then of
    # the second from each of 99999 sums of the tree edge's form, about
    # 10^10 steps; no DP starts
    with pytest.raises(TooLarge, match=r"count mod 100000 by a frontier DP over 2 columns"):
        sg.count_nz_flows(THETA, 10**5)
    # Newly refused: the digon's tensions mod 10^4 were admitted at the
    # bound as 10^8 assignments, but their DP takes 10^4 + 10^8 steps
    with pytest.raises(TooLarge, match=r"about 100010000 steps"):
        sg.count_tensions(from_json_dict(DIGON), 10**4)
    assert dps == []
    # Newly admitted: 22 loops on one vertex were refused for their 3^22
    # assignments, but their flows have 22 free columns and no form, so
    # the DP keeps one state and takes 44 steps
    big = build(
        44,
        [tuple(range(44))],
        [(2 * i, 2 * i + 1) for i in range(22)],
    )
    assert sg.count_nz_flows(big, 3) == 2**22
    assert len(dps) == 1


def _bouquet(m):
    return build(2 * m, [tuple(range(2 * m))], [(2 * i, 2 * i + 1) for i in range(m)])


def test_poly_guard_fires_before_any_count(monkeypatch):
    from surfgraph import enumeration, ribbonmap

    calls = []
    forests = []

    def spy(real):
        def counter(g, k):
            calls.append(k)
            return real(g, k)

        return counter

    real_forest = ribbonmap._spanning_forest

    def forest(n, pairs):
        forests.append(n)
        return real_forest(n, pairs)

    for kind, real in list(enumeration.COUNT_NZ.items()):
        monkeypatch.setitem(enumeration.COUNT_NZ, kind, spy(real))
    monkeypatch.setattr(ribbonmap, "_spanning_forest", forest)

    for fn in _POLY_FN.values():
        # 17 edges: the 2^17 subset walk and its k = 2, 3 counts, bounded
        # together by 3^17 > 10^8 steps, are refused before either starts
        calls.clear()
        forests.clear()
        with pytest.raises(TooLarge):
            fn(_bouquet(17))
        assert calls == [] and forests == []
        # 7 edges: the subset sum needs no samples; the scans check k = 2, 3
        calls.clear()
        fn(_bouquet(7))
        assert calls == [2, 3] and forests


def test_k5_tension_polynomial_past_the_scan_wall():
    assert K5.num_edges == 10
    # chromatic polynomial k(k-1)(k-2)(k-3)(k-4), divided by k
    assert sg.poly_tension(K5) == [24, -50, 35, -10, 1]


def test_petersen_polynomials():
    assert PETERSEN.num_edges == 15
    flow = sg.poly_flow(PETERSEN)
    # a snark: no nowhere-zero 4-flow, nor 3-flow (cubic, not bipartite)
    assert poly_eval(flow, 3) == poly_eval(flow, 4) == 0
    assert poly_eval(flow, 5) > 0
    tension = sg.poly_tension(PETERSEN)
    assert 3 * poly_eval(tension, 3) == proper_colorings(PETERSEN, 3)


# -- integral counts -----------------------------------------------------------


def test_integral_local_tensions_on_torus():
    assert [sg.count_integral_local_tensions(TORUS, k) for k in range(1, 5)] == [
        0,
        4,
        16,
        36,
    ]


def test_integral_flows_on_loop_and_triangle():
    assert [sg.count_integral_flows(LOOP, k) for k in range(1, 5)] == [0, 2, 4, 6]
    assert [sg.count_integral_flows(TRIANGLE, k) for k in range(1, 5)] == [
        0,
        2,
        4,
        6,
    ]


def test_quasipolynomials_have_period_one_here():
    q = sg.quasi_integral_local_tensions(TORUS)
    assert q.period == 1
    assert q.constituents == ((Fraction(4), Fraction(-8), Fraction(4)),)
    q = sg.quasi_integral_flows(TRIANGLE)
    assert q.period == 1
    assert [q.evaluate(k) for k in range(1, 5)] == [0, 2, 4, 6]


def test_kite_quasipolynomial():
    # 4(k - 1)(k - 2)(k - 3): a 6-edge anchor for the half-box join
    q = sg.quasi_integral_local_tensions(KITE)
    assert q.period == 1
    assert q.constituents == (tuple(map(Fraction, (-24, 44, -24, 4))),)


@pytest.mark.parametrize("bad", [0, -1, 1.0, "2", None])
def test_max_period_must_be_a_positive_integer(monkeypatch, bad):
    calls = []
    real = reciprocity._box_counts
    monkeypatch.setattr(reciprocity, "_box_counts", lambda *a: calls.append(a) or real(*a))
    for fit in (sg.quasi_integral_local_tensions, sg.quasi_integral_flows):
        with pytest.raises(ValueError, match="max_period"):
            fit(TORUS, max_period=bad)
    with pytest.raises(ValueError, match="max_period"):
        sg.fit_quasipolynomial({k: k for k in range(1, 9)}, 1, max_period=bad)
    assert calls == []
    # the same spy sees the box DP of an admitted fit
    assert sg.quasi_integral_local_tensions(fresh(TORUS), max_period=1).period == 1
    assert len(calls) == 1


# -- reciprocity ----------------------------------------------------------------


def test_reciprocity_values():
    assert [sg.reciprocity_pairs_tension(BRIDGE, k) for k in range(1, 4)] == [
        2,
        3,
        4,
    ]
    assert [
        sg.reciprocity_pairs_local_tension(TORUS, k) for k in range(1, 5)
    ] == [4, 9, 16, 25]
    assert sg.reciprocity_pairs_flow(TRIANGLE, 2) == 3


# (-1)^SIGN_EXP[kind](euler) * P(-k) counts the reciprocity pairs
SIGN_EXP = {
    "tension": lambda d: d.v_count - d.c,
    "flow": lambda d: d.e_count - d.v_count + d.c,
    "local-tension": lambda d: d.e_count - d.f_count + d.c,
    "balanced-flow": lambda d: d.f_count - d.c,
}


def test_signed_reciprocity_on_zoo():
    pair_fn = {
        "tension": sg.reciprocity_pairs_tension,
        "flow": sg.reciprocity_pairs_flow,
        "local-tension": sg.reciprocity_pairs_local_tension,
        "balanced-flow": sg.reciprocity_pairs_balanced_flow,
    }
    for name, g in NAMED.items():
        if g.num_edges > 4:
            continue
        d = g.euler
        for kind in SIGN_EXP:
            coeffs = _POLY_FN[kind](g)
            sign = (-1) ** SIGN_EXP[kind](d)
            for k in range(1, 4):
                assert sign * poly_eval(coeffs, -k) == pair_fn[kind](g, k), (
                    name,
                    kind,
                    k,
                )


def test_integral_reciprocity_on_torus():
    assert [
        sg.integral_local_tension_reciprocity_pairs(TORUS, k) for k in range(4)
    ] == [4, 16, 36, 64]


def test_integral_reciprocity_constant_term_counts_bao():
    for g in (EDGELESS, BRIDGE, LOOP, TORUS, TRIANGLE, THETA):
        assert sg.integral_local_tension_reciprocity_pairs(
            g, 0
        ) == count_class(g, OrientationClass.BAO)


# -- witness vectors -------------------------------------------------------------


def test_witness_vectors_for_every_bao():
    # postconditions (kernel membership, nowhere-zero, sign agreement)
    # are asserted inside the operation itself
    for g in (TRIANGLE, THETA, TORUS, KITE):
        for o in enumerate_class(g, OrientationClass.BAO):
            vec = bao_witness_vector(g, o)
            assert len(vec) == g.num_edges


def test_witness_rejects_non_bao():
    for o in all_orientations(LOOP):
        with pytest.raises(NotBoundaryAcyclic):
            bao_witness_vector(LOOP, o)


def test_a_witness_outside_the_kernel_raises(monkeypatch):
    # one edge more than the coherent cocycles give breaks both face sums
    from types import SimpleNamespace

    real = reciprocity.coherent_cocycles
    monkeypatch.setattr(
        reciprocity, "coherent_cocycles", lambda g, o: [*real(g, o), SimpleNamespace(edges=(0,))]
    )
    o = sg.orientation_from_string(TRIANGLE, "++-")
    with pytest.raises(AssertionError, match="escapes the face matrix kernel"):
        bao_witness_vector(TRIANGLE, o)


def test_witness_on_acyclic_triangle():
    o = sg.orientation_from_string(TRIANGLE, "++-")
    vec = bao_witness_vector(TRIANGLE, o)
    assert all(x != 0 for x in vec)
    assert [x > 0 for x in vec] == [s == 1 for s in o.signs]


def _complete_dual(n):
    """g = h* for h = K_n, with darts 2e, 2e+1 at i < j for the e-th edge
    (i, j) in lexicographic order and each rotation in increasing dart
    order, and the signs of i -> j when (j - i) mod n <= n // 2: a TCO of
    h, so a BAO of g."""
    ends = list(itertools.combinations(range(n), 2))
    at = [[] for _ in range(n)]
    for e, (i, j) in enumerate(ends):
        at[i].append(2 * e)
        at[j].append(2 * e + 1)
    h = build(2 * len(ends), [tuple(d) for d in at], [(2 * e, 2 * e + 1) for e in range(len(ends))])
    signs = "".join("+" if (j - i) % n <= n // 2 else "-" for i, j in ends)
    return dual(h), signs


def test_cocycle_search_is_refused_before_it_runs(monkeypatch, capsys, tmp_path):
    # the bound is 2^45 - 1; listing the cycles of K_10 already takes 800 MB
    g, signs = _complete_dual(11)
    o = sg.orientation_from_string(g, signs)
    searched = []
    monkeypatch.setattr(ribbonmap, "_enumerate_cycles", lambda h: searched.append(h) or [])
    for call in (bao_witness_vector, sg.is_totally_biwalkable, orientations.coherent_cocycles):
        with pytest.raises(TooLarge, match="up to 35184372088831 cycles"):
            call(g, o)
    # newly refused: the public listings, on the map and on its dual
    for listing in (lambda: ribbonmap.cocycles(g), lambda: ribbonmap.cycles(g.dual)):
        with pytest.raises(TooLarge, match="up to 35184372088831 cycles"):
            listing()
    path = tmp_path / "k11dual.json"
    path.write_text(sg.dumps(g))
    assert cli.main(["witness", str(path), signs]) == 3
    assert "35184372088831 cycles" in capsys.readouterr().err
    assert searched == []


def test_cocycle_guard_admits_k8_and_prices_every_call(monkeypatch):
    # positive control: K_8 has at most 2^21 - 1 = 2097151 cycles
    g, signs = _complete_dual(8)
    o = sg.orientation_from_string(g, signs)
    vec = bao_witness_vector(g, o)
    assert len(vec) == 28 and all(x != 0 for x in vec)
    assert sg.is_totally_biwalkable(g, o) is False  # a BAO whose dual is not acyclic
    # the public listings: the 8,018 cycles of K_8, as cocycles of g
    assert len(ribbonmap.cocycles(g)) == len(ribbonmap.cycles(g.dual)) == 8018
    # the cocycles are now listed on g, and the guard still runs
    monkeypatch.setattr(guards, "MAX_ASSIGNMENTS", 2097150)
    for call in (
        lambda: orientations.coherent_cocycles(g, o),
        lambda: ribbonmap.cocycles(g),
        lambda: ribbonmap.cycles(g.dual),
    ):
        with pytest.raises(TooLarge, match="up to 2097151 cycles"):
            call()


# -- condition matrices -----------------------------------------------------------


def test_dual_face_matrix_is_the_incidence_matrix():
    # the oracle's matrices: local tensions of g* are the flows of g
    for g in SMALL:
        assert (local_tension_matrix(dual(g)) == incidence_matrix(g)).all()


def test_matrix_shapes():
    for g in SMALL:
        e = g.num_edges
        assert tension_matrix(g).shape[1] == e
        assert incidence_matrix(g).shape == (g.num_vertices, e)
        assert local_tension_matrix(g).shape == (g.num_faces, e)
        assert balanced_flow_matrix(g).shape[1] == e


def test_interpolate_round_trip():
    coeffs = [2, -3, 1]
    samples = [(k, poly_eval(coeffs, k)) for k in range(1, 5)]
    assert sg.interpolate(samples) == coeffs


# -- the assignment scan ------------------------------------------------------------


def _spy_first_step(monkeypatch) -> list:
    """Record every call of the pair route's first step, the component
    count of every edge subset."""
    calls = []
    real = reciprocity._subset_components
    monkeypatch.setattr(reciprocity, "_subset_components", lambda h: calls.append(h) or real(h))
    return calls


def test_pair_counters_refuse_before_the_support_histogram(monkeypatch):
    # The pair polynomial reads no k^E histogram; a 21-edge bouquet is
    # refused at any k by its 2^21 sign masks, before the route's first step
    calls = _spy_first_step(monkeypatch)
    g = _bouquet(21)
    for kind, pairs in reciprocity.PAIRS.items():
        with pytest.raises(TooLarge, match=r"2\^21 vectors"):
            pairs(g, 1)
        assert calls == [], kind
    # the same spy sees the first step of every admitted pair count
    for pairs in reciprocity.PAIRS.values():
        pairs(fresh(TRIANGLE), 1)
    assert len(calls) == 4


def test_pair_guard_refuses_before_any_pattern_count(monkeypatch):
    # The dual of the planar 17-loop bouquet is a tree on 18 vertices: BAO
    # forbids its 2^18 - 2 cut sides, and reachability takes 2 V E steps.
    # The guard charges each of the 2^17 edge subsets 3E walk steps and
    # those class-count steps, and refuses before the route's first step.
    calls = _spy_first_step(monkeypatch)
    g = _bouquet(17)
    work = (3 * 17 + 2**18 - 2 + 2 * 18 * 17) << 17
    with pytest.raises(TooLarge, match=f"about {work} steps"):
        reciprocity.reciprocity_pairs_local_tension(g, 2)
    assert calls == []
    # Flows on the same bouquet, once refused for their 3^17 sign vectors
    # off the supports, are answered: every vector is a flow, and every
    # loop left is a directed cycle either way, so the pairs are (k + 1)^E
    assert reciprocity.reciprocity_pairs_flow(g, 2) == 3**17
    assert len(calls) == 1


def test_pair_counters_check_the_empty_support_against_the_class_mask(monkeypatch):
    real = reciprocity.count_class
    monkeypatch.setattr(reciprocity, "count_class", lambda g, cls: real(g, cls) + 1)
    for kind, pairs in reciprocity.PAIRS.items():
        with pytest.raises(AssertionError, match="at the empty support"):
            pairs(fresh(TRIANGLE), 2)


# The zoo without the 15-edge Petersen graph, whose 3^15 scan is slow.
PAIR_ZOO = [*SMALL, FACE_MATRIX_PRIMAL, ISOLATED, TWO_COMPONENTS, K5]


def test_pair_counts_equal_the_surgery_route(corpus):
    for g in [*corpus, *PAIR_ZOO]:
        for kind, pairs in reciprocity.PAIRS.items():
            want = surgery_pairs(g, kind, (1, 2, 3))
            assert [pairs(g, k) for k in (1, 2, 3)] == want, (kind, g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=6))
def test_random_maps_verify_and_match_the_surgery_route(g):
    report = cli._verify_graph(g, 2)
    assert report["all_pass"], [row for row in report["identities"] if not row["pass"]]
    for kind, pairs in reciprocity.PAIRS.items():
        assert [pairs(g, 2)] == surgery_pairs(g, kind, (2,)), kind


def _assert_pair_polys_are_the_signed_polys(g):
    for kind, sign_exp in SIGN_EXP.items():
        sign = (-1) ** sign_exp(g.euler)
        signed = [sign * (-1) ** i * c for i, c in enumerate(_POLY_FN[kind](g))]
        assert reciprocity._pair_poly(g, kind) == signed, (kind, g)


def test_pair_polynomials_are_the_signed_polynomials(corpus):
    for g in [*corpus, *PAIR_ZOO]:
        _assert_pair_polys_are_the_signed_polys(g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=6))
def test_random_maps_pair_polynomials_are_the_signed_polynomials(g):
    _assert_pair_polys_are_the_signed_polys(g)


def test_integral_pairs_refuse_before_the_sign_histogram(monkeypatch):
    # at k = 0 the box is 1^E, but the BAO class scan of a 13-edge
    # bouquet is refused; no DP over its local tensions may start before that
    calls = []
    real = reciprocity._frontier

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(reciprocity, "_frontier", spy)
    with pytest.raises(TooLarge):
        sg.integral_local_tension_reciprocity_pairs(_bouquet(13), 0)
    assert calls == []
    # the same spy sees the DP of an admitted count: every orientation of
    # a two-edge path is a BAO
    path = build(4, [0, 2, 1, 3], [(0, 1), (2, 3)])
    assert sg.integral_local_tension_reciprocity_pairs(path, 0) == 2**2
    assert len(calls) == 1


def test_integral_pairs_refuse_before_the_class_scan(monkeypatch):
    # at k = 1 the local tensions of a 17-edge path, the flows of 17 loops,
    # are 17 free columns of 3 values, each step charged a mask of 2^17
    # bits: the pair DP is refused, and the BAO scan it reads may not run first
    from surfgraph import orientations

    calls = []
    real = orientations._scan_class
    monkeypatch.setattr(orientations, "_scan_class", lambda g, c: calls.append(c) or real(g, c))
    inner = [(2 * j - 1, 2 * j) for j in range(1, 17)]
    path = build(34, [(0,), *inner, (33,)], [(2 * i, 2 * i + 1) for i in range(17)])
    with pytest.raises(TooLarge, match=r"17 columns of 3 values and masks of 2048 words"):
        sg.integral_local_tension_reciprocity_pairs(path, 1)
    assert calls == []
    # Newly admitted: at k = 0 the path was refused for its 3^17 sign
    # patterns, but the DP keeps one mask per column; every orientation of
    # a tree is a BAO
    assert sg.integral_local_tension_reciprocity_pairs(path, 0) == 2**17
    assert calls == [OrientationClass.BAO]


def _one_face_bouquet(m):
    # one vertex and one face, genus m / 2: handles a b a^-1 b^-1 in a row
    darts = [(4 * i + d, 4 * i + d + 2) for i in range(m // 2) for d in (0, 1)]
    return build(2 * m, [tuple(range(2 * m))], darts)


def test_integral_pairs_price_the_masks_before_any_scan(monkeypatch):
    from surfgraph import orientations

    dps, scans = [], []
    real_dp, real_scan = reciprocity._frontier, orientations._scan_class
    monkeypatch.setattr(reciprocity, "_frontier", lambda *a: dps.append(a) or real_dp(*a))
    monkeypatch.setattr(orientations, "_scan_class", lambda g, c: scans.append(c) or real_scan(g, c))
    # Newly refused: a one-face map has a zero face row, so each sign
    # pattern of its local tensions keeps its own mask over the 2^E
    # orientations, all of them BAOs.  The 3^E < 10^8 patterns were
    # admitted at k = 1, but the last column alone holds 3^(E-1) masks of
    # 2^E bits, and the DP never starts.
    for m, words in ((14, 256), (16, 1024)):
        g = _one_face_bouquet(m)
        assert (g.num_vertices, g.num_faces) == (1, 1)
        with pytest.raises(TooLarge, match=rf"{m} columns of 3 values and masks of {words} words"):
            sg.integral_local_tension_reciprocity_pairs(g, 1)
    assert dps == [] and scans == []
    # at 8 edges the DP runs: each edge takes t = 0 with both directions or
    # one of t = +-1 with one
    assert sg.integral_local_tension_reciprocity_pairs(_one_face_bouquet(8), 1) == 4**8
    assert len(dps) == 1 and scans == [OrientationClass.BAO]
    # Newly admitted: a path at k = 8 was refused for its 17^8 > 10^8
    # assignments, but the DP keeps at most 3^j masks of 2^8 bits at column j.
    # Every orientation of a tree is a BAO and each edge takes t = 0 with
    # both directions or one of 2k nonzero values with one.
    inner = [(2 * j - 1, 2 * j) for j in range(1, 8)]
    path = build(16, [(0,), *inner, (15,)], [(2 * i, 2 * i + 1) for i in range(8)])
    assert sg.integral_local_tension_reciprocity_pairs(path, 8) == 18**8


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_solutions_without_conditions_yield_the_product_in_order(monkeypatch, chunk):
    # the oracle's scan: every row of the value box, in blocks
    import numpy as np

    if chunk is not None:
        monkeypatch.setattr(mapzoo, "CHUNK", chunk)
    limit = mapzoo.CHUNK
    for values in ([], [0], [1, 2], [0, 1, 2], [-2, -1, 1, 2]):
        vals = np.array(values, dtype=np.int64)
        for width in range(5):
            blocks = list(mapzoo.solutions(np.zeros((0, width), dtype=np.int64), vals, width, 3))
            rows = [tuple(r) for b in blocks for r in b.tolist()]
            assert rows == list(itertools.product(values, repeat=width))
            for b in blocks:
                # one grid as large as the chunk allows, never larger
                assert len(b) <= limit
                assert len(b) == len(values) ** width or len(b) * len(values) > limit


# The E = 6 and E = 7 maps of the seed-1 `frontier` benchmark ladder.
FRONTIER = [
    {
        "sigma": [[7, 2, 9], [0, 11, 5], [8, 1, 6], [3, 4, 10]],
        "edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]],
    },
    {
        "sigma": [[12, 3, 11, 9], [5, 2], [6, 10, 0, 8, 13], [4, 7, 1]],
        "edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11], [12, 13]],
    },
]

def _scan_results(maps):
    # the oracle's scans, next to the library counts they check
    import numpy as np

    out = []
    for g in maps:
        e = g.num_edges
        for kind in enumeration.KINDS:
            matrix = CONDITIONS[kind](g)
            for k in (1, 2, 3):
                out.append(enumeration.COUNT_NZ[kind](g, k))
                out.append(reciprocity.PAIRS[kind](g, k))
                vals = np.arange(k, dtype=np.int64)
                out.append(support_counts(matrix, vals, e, k).tolist())
        for k in (1, 2):
            vals = np.arange(-k, k + 1, dtype=np.int64)
            out.append(signed_pattern_counts(local_tension_matrix(g), vals, e, None).tolist())
            out.append(box_join(local_tension_matrix(g), e, [k + 1]))
            out.append(box_join(incidence_matrix(g), e, [k + 1]))
            out.append(sg.count_integral_local_tensions(g, k + 1))
            out.append(sg.count_integral_flows(g, k + 1))
            out.append(sg.integral_local_tension_reciprocity_pairs(g, k))
    return out


def test_chunk_size_does_not_change_any_scan(monkeypatch):
    maps = [g for m in range(4) for g in generate(CorpusSpec(edges=m))]
    maps += [from_json_dict(doc) for doc in FRONTIER]
    assert [g.num_edges for g in maps[-2:]] == [6, 7]
    expected = _scan_results(maps)
    for chunk in (1, 7):
        monkeypatch.setattr(mapzoo, "CHUNK", chunk)
        # fresh maps, or the counts would come from the first pass's memo
        assert _scan_results([fresh(g) for g in maps]) == expected, chunk


ZOO = SMALL + [FACE_MATRIX_PRIMAL, ISOLATED, TWO_COMPONENTS, K5, PETERSEN]


# -- the nowhere-zero DP ---------------------------------------------------------


def _dp_mismatches(g, ks):
    """(map, k, flow, DP, scan) wherever the DP over fundamental-cycle
    coordinates and the kernel scan of the condition matrix disagree, for
    tensions and flows on g and on its dual."""
    out = []
    for h in (g, g.dual):
        for flow, matrix in ((False, tension_matrix(h)), (True, incidence_matrix(h))):
            for k in ks:
                scan = count_solutions(matrix, mod_values(k, True), h.num_edges, k)
                dp = enumeration._nz_count(h, k, flow)
                if dp != scan:
                    out.append((h, k, flow, dp, scan))
    return out


def test_dp_counts_equal_the_kernel_scans(corpus):
    for g in [*corpus, *ZOO]:
        # k = 4 on the 15-edge Petersen map scans 3^15 rows: stop at k = 3
        assert _dp_mismatches(g, range(1, 4 if g.num_edges > 10 else 5)) == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=7))
def test_random_maps_dp_counts_equal_the_kernel_scans(g):
    assert _dp_mismatches(g, range(1, 5)) == []


def test_dp_forms_with_no_variables_count_nothing():
    # a loop is a tension form with no variables, a bridge a flow form
    for g, flow in ((LOOP, False), (BRIDGE, True), (disjoint_union(TRIANGLE, LOOP), False)):
        assert () in enumeration._forms(g, flow)
        assert [enumeration._nz_count(g, k, flow) for k in range(1, 6)] == [0] * 5
    for flow in (False, True):
        assert [enumeration._nz_count(EDGELESS, k, flow) for k in (1, 2)] == [1, 1]


def test_a_wrong_dp_fails_verify(monkeypatch, tmp_path, capsys):
    real = enumeration._nz_count
    monkeypatch.setattr(enumeration, "_nz_count", lambda h, k, flow: real(h, k, flow) + 1)
    # The duality rows compare the DP with the row counts, the balanced
    # flows of g* being the tension rows of g.  The tension polynomial is
    # cross-checked against the DP at k = 2 and 3, at every size, so verify
    # fails with exit code 4.
    for g in (TRIANGLE, KITE):
        path = tmp_path / "g.json"
        path.write_text(sg.dumps(g))
        assert cli.main(["verify", str(path)]) == 4
        err = capsys.readouterr().err
        assert err == "error: internal cross-check failed: tension subset sum gives 0 at k=2, the count 1\n", err


def test_a_wrong_tension_row_count_fails_both_balanced_flow_rows(monkeypatch, tmp_path, capsys, corpus):
    # The balanced flows of g are counted on the tension rows of g*, kept
    # on g*'s graph under ("count", "tension", k, True).  The other side of
    # each row that reads them is the tension DP on fundamental
    # coordinates, kept under ("nz count", False, k), and no cross-check
    # reads the row count.  So one error in the row DP fails both rows,
    # self-dual maps included.
    real = enumeration._row_count

    def off_by_one(h, condition, k, nonzero):
        return real(h, condition, k, nonzero) + (condition == "tension" and nonzero)

    monkeypatch.setattr(enumeration, "_row_count", off_by_one)
    rows = {"tension of map equals balanced-flow of dual", "balanced-flow of map equals tension of dual"}
    path = tmp_path / "g.json"
    for g in corpus:
        path.write_text(sg.dumps(g))
        assert cli.main(["verify", str(path)]) == 4
        out, err = capsys.readouterr()
        assert "internal cross-check" not in err
        failed = {i["identity"] for i in json.loads(out)["identities"] if not i["pass"]}
        assert failed == rows, g


def test_a_wrong_flow_row_count_fails_both_local_tension_rows(monkeypatch, tmp_path, capsys, corpus):
    # The local tensions of g are counted on the flow rows of g*, kept on
    # g*'s graph under ("count", "flow", k, True).  The other side of each
    # row that reads them is the flow DP on fundamental coordinates, kept
    # under ("nz count", True, k), and no cross-check reads the row count.
    # So one error in the row DP fails both rows, self-dual maps included.
    real = enumeration._row_count

    def off_by_one(h, condition, k, nonzero):
        return real(h, condition, k, nonzero) + (condition == "flow" and nonzero)

    monkeypatch.setattr(enumeration, "_row_count", off_by_one)
    rows = {"flow of map equals local-tension of dual", "local-tension of map equals flow of dual"}
    path = tmp_path / "g.json"
    for g in corpus:
        path.write_text(sg.dumps(g))
        assert cli.main(["verify", str(path)]) == 4
        out, err = capsys.readouterr()
        assert "internal cross-check" not in err
        failed = {i["identity"] for i in json.loads(out)["identities"] if not i["pass"]}
        assert failed == rows, g


# -- the integral box DP -----------------------------------------------------------


def _box_kmax(g):
    # k <= 8, as far as the direct oracle stays below about 2^21 rows
    kmax = 1
    while kmax < 8 and (2 * kmax) ** g.num_edges <= 1 << 21:
        kmax += 1
    return kmax


def test_box_counts_match_the_direct_scan(corpus):
    # local tensions of g are the flows of g*: its face rows are g*'s incidence
    maps = [(g, 8) for g in corpus] + [(g, _box_kmax(g)) for g in ZOO]
    assert [kmax for _, kmax in maps[-6:]] == [6, 8, 8, 8, 3, 2]
    for g, kmax in maps:
        e = g.num_edges
        for h, matrix in ((g.dual, local_tension_matrix(g)), (g, incidence_matrix(g))):
            counts = reciprocity._box_counts(h, range(1, kmax + 1))
            direct = [count_solutions(matrix, box_values(k), e, None) for k in range(1, kmax + 1)]
            assert counts == direct, (g, h is g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=6))
def test_random_maps_box_counts_match_the_half_box_join(g):
    ks = range(1, 6)
    for h, matrix in ((g.dual, local_tension_matrix(g)), (g, incidence_matrix(g))):
        assert reciprocity._box_counts(h, ks) == box_join(matrix, g.num_edges, ks)


def test_box_counts_edge_cases():
    # no columns and no forms: the one empty assignment, for every k
    assert reciprocity._box_counts(EDGELESS, [1, 2, 3]) == [1, 1, 1]
    # kmax = 1: no values, so nothing on a map with edges
    for g in (LOOP, TRIANGLE, _bouquet(3)):
        assert reciprocity._box_counts(g, [1]) == [0]
    # no forms: every chord of a bouquet is free, (2k - 2)^width rows
    for width in range(6):
        counts = reciprocity._box_counts(_bouquet(width), range(1, 5))
        assert counts == [(2 * k - 2) ** width for k in range(1, 5)]
    # one form: the tree edge of the theta carries the signed sum of two
    # chords, so its flows are x0 + x1 + x2 = 0 up to signs, an odd width
    counts = reciprocity._box_counts(THETA, range(1, 5))
    assert counts == [
        sum(1 for x in itertools.product(range(-(k - 1), k), repeat=3) if 0 not in x and sum(x) == 0)
        for k in range(1, 5)
    ]
    # ks need not be consecutive: each count is that of its own box
    assert reciprocity._box_counts(THETA, [2, 5, 6]) == [
        reciprocity._box_counts(THETA, [k])[0] for k in (2, 5, 6)
    ]
    # a form with no variables is a bridge: no flow is nowhere zero
    assert reciprocity._box_counts(BRIDGE, range(1, 4)) == [0, 0, 0]


def test_box_counts_stream_the_right_half_in_blocks(monkeypatch):
    # the oracle join's blocks do not change it, and it is the DP's count
    maps = [g for m in range(4) for g in generate(CorpusSpec(edges=m))]
    cases = [(h, f(g), g.num_edges) for g in maps for h, f in ((g.dual, local_tension_matrix), (g, incidence_matrix))]
    expected = [box_join(matrix, e, range(1, 7)) for _, matrix, e in cases]
    assert [reciprocity._box_counts(h, range(1, 7)) for h, _, _ in cases] == expected
    for chunk in (1, 7):
        monkeypatch.setattr(mapzoo, "CHUNK", chunk)
        got = [box_join(matrix, e, range(1, 7)) for _, matrix, e in cases]
        assert got == expected, chunk


def test_integral_counts_stay_small_at_large_k():
    import tracemalloc

    path = build(4, [0, 2, 1, 3], [(0, 1), (2, 3)])  # two edges, three vertices
    cases = [
        (sg.count_integral_flows, path, 5000, 0),
        (sg.count_integral_local_tensions, path, 5000, 9998**2),
        (sg.count_integral_flows, THETA, 232, sg.quasi_integral_flows(THETA).evaluate(232)),
    ]
    for count, g, k, expected in cases:
        # the guard admits these DPs, of at most 462 + 462^2 steps
        tracemalloc.start()
        try:
            assert count(g, k) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, (count.__name__, g.num_edges, k, peak)


def test_integral_counts_guard_the_join_they_run(monkeypatch):
    # 7 loops at k = 8: the box holds 15^7 > 10^8 vectors, but the flows
    # have no forms, so the DP keeps one state.  Every loop carries any
    # flow; each loop of this planar bouquet bounds a face alone, so no
    # local tension is nowhere zero.
    assert sg.count_integral_flows(_bouquet(7), 8) == 14**7
    assert sg.count_integral_local_tensions(_bouquet(7), 8) == 0

    joins = []
    real = reciprocity._box_counts
    monkeypatch.setattr(reciprocity, "_box_counts", lambda *a: joins.append(a) or real(*a))
    # The theta's flows: 11998 values of the first chord, then the same for
    # the second from each of 11998 partial sums of the tree edge's form
    with pytest.raises(TooLarge, match=r"2 columns of 11998 values and 1 boxes, about 143964002 steps"):
        sg.count_integral_flows(THETA, 6000)
    assert joins == []
    # Newly admitted: the local tensions of a two-edge path are the flows of
    # two loops, no form, so 2 * 399998 steps.  The half-box join refused it
    # for the 399998 left half-rows it would hold.
    path = build(4, [0, 2, 1, 3], [(0, 1), (2, 3)])
    assert sg.count_integral_local_tensions(path, 200000) == 399998**2
    assert len(joins) == 1


def test_dp_guards_bound_every_step(corpus, monkeypatch):
    # Each guard's estimate, from the plan alone, bounds every step of the
    # DP it admits: a state entering a column times a value.  Rerun with
    # every sum accepted, no step is cut at a form's check, so each marks
    # its column once, and its states hold those of the real DP.
    steps, estimates = [], []
    real = enumeration._frontier
    anything = range(-(10**6), 10**6)

    def counted(plan, values, accept, modulus=0, mark=None, start=None):
        def spy(tag, slot, v):
            steps[-1] += slot < len(plan[1])
            return mark(tag, slot, v) if mark else 0

        steps.append(0)
        real(plan, values, anything, modulus, spy, start)
        return real(plan, values, accept, modulus, mark, start)

    real_price = guards._dp_price

    def price(*args):
        estimates.append(real_price(*args))
        return estimates[-1]

    def priced(count, *args):
        # (steps, estimate) of each DP the count runs, each priced before it starts
        forget_graphs()
        steps.clear()
        estimates.clear()
        count(*args)
        assert len(steps) == len(estimates), (count, args)
        return list(zip(steps, estimates))

    for module in (enumeration, reciprocity):
        monkeypatch.setattr(module, "_frontier", counted)
    monkeypatch.setattr(guards, "_dp_price", price)
    # the counts mod k: nowhere-zero tensions and flows on fundamental
    # coordinates, every condition's rows, nonzero or not, and the local
    # tensions and balanced flows, on the flow and tension rows of the dual
    digon = from_json_dict(DIGON)
    for g in [*corpus, *ZOO[:-1], digon]:
        h = fresh(g)  # an empty memo, and priced empties the graph table: every DP runs
        for k in (2, 3):
            runs = [priced(enumeration._dp_count, h, k, flow) for flow in (False, True)]
            runs += [
                priced(enumeration._count, h, k, nonzero, condition)
                for condition in enumeration._ROWS
                for nonzero in (False, True)
            ]
            runs += [
                priced(count, h, k)
                for count in (
                    sg.count_local_tensions,
                    sg.count_nz_local_tensions,
                    sg.count_balanced_flows,
                    sg.count_nz_balanced_flows,
                )
            ]
            assert len(runs) == 10 and all(len(run) == 1 for run in runs), (g, k)
            assert all(n <= bound for [(n, bound)] in runs), (g, k, runs)
    # the digon's zero-allowing tension rows at k = 2 take 2 + 2 * 2 steps,
    # past the 2^2 assignments
    assert priced(enumeration._count, fresh(digon), 2, False, "tension") == [(6, 6)]
    # mod 2 the triangle's one row holds at most 2 sums however many of its
    # edges are assigned: the estimate is the DP's own 2 + 4 + 4 steps
    assert priced(enumeration._count, fresh(TRIANGLE), 2, False, "tension") == [(10, 10)]
    # the integral box and pair DPs
    for g in [*ZOO[:-2], *(from_json_dict(doc) for doc in (*FRONTIER, EARLY_CLOSE))]:
        for h in (g, g.dual):
            kmax = g.num_edges + 4
            steps.clear()
            estimates.clear()
            guards.check_dp(enumeration._fundamental_plan(h, True)[2], 2 * kmax - 2, boxes=kmax)
            reciprocity._box_counts(h, range(1, kmax + 1))
            assert steps[0] <= estimates[0], (g, h is g)
        words = -(-(2**g.num_edges) // 64)
        for k in range(4):
            [(n, bound)] = priced(sg.integral_local_tension_reciprocity_pairs, fresh(g), k)
            assert n * words <= bound, (g, k)


# The two-edge digon: its zero-allowing tension rows at k = 2 take more DP
# steps than its k^E assignments.
DIGON = {"sigma": [[0, 2], [1, 3]], "edges": [[0, 1], [2, 3]]}


# A 5-edge map whose dual's flow forms close before the last column: at
# k = 2 the masks entering a column outnumber the sign patterns of the
# free values before it, so the pair guard must count the closed forms.
EARLY_CLOSE = {
    "sigma": [[0, 4, 2, 6], [1, 5, 8], [3, 7, 9]],
    "edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
}


def test_quasi_fit_joins_once_per_period_and_refuses_first(monkeypatch):
    joins, scans = [], []
    real_join, real_scan = reciprocity._box_counts, enumeration._row_count
    real_fit = reciprocity.fit_quasipolynomial

    def join(h, ks):
        joins.append(ks[-1])
        return real_join(h, ks)

    def scan(*args):
        scans.append(args)
        return real_scan(*args)

    def fit_from_period_3(samples, degree, max_period):
        # period-1 maps here; fail the smaller periods to make the driver go on
        if max_period < 3:
            raise sg.NoFit(f"forced miss at period {max_period}")
        return real_fit(samples, degree, max_period=max_period)

    monkeypatch.setattr(reciprocity, "_box_counts", join)
    monkeypatch.setattr(enumeration, "_row_count", scan)
    q = sg.quasi_integral_local_tensions(TORUS)
    assert q.period == 1 and joins == [6] and scans == []
    monkeypatch.setattr(reciprocity, "fit_quasipolynomial", fit_from_period_3)
    joins.clear()
    q = sg.quasi_integral_flows(TRIANGLE)
    assert joins == [7, 12, 17] and scans == []
    # Each period is priced with the periods before it, before its DP
    # starts.  The theta's flows take 156, 506 and 1056 steps at periods
    # 1, 2 and 3: a guard of 1000 steps admits the first two, which the
    # forced misses run, and refuses the third before its DP.
    monkeypatch.setattr(guards, "MAX_ASSIGNMENTS", 1000)
    joins.clear()
    with pytest.raises(
        TooLarge,
        match=r"2 columns of 32 values and 17 boxes, after 662 steps of the DPs before it, "
        r"about 1718 steps in all",
    ):
        sg.quasi_integral_flows(THETA)
    assert joins == [7, 12] and scans == []
    # the same row-count spy sees an admitted count mod k
    sg.count_flows(fresh(THETA), 2)
    assert len(scans) == 1


def test_quasi_guard_prices_one_period_at_a_time(monkeypatch):
    joins = []
    real = reciprocity._box_counts
    monkeypatch.setattr(reciprocity, "_box_counts", lambda h, ks: joins.append(ks[-1]) or real(h, ks))
    e7, e9 = from_json_dict(FRONTIER[1]), from_json_dict(FRONTIER_9)
    # Newly admitted: the 7-edge map's local tensions fit at period 1, a DP
    # of about 9 * 10^5 steps.  Priced up to the default period 6 at once,
    # the DPs came to about 1.3 * 10^9 steps and were refused.
    q = sg.quasi_integral_local_tensions(e7)
    assert q.period == 1 and joins == [11]
    assert [q.evaluate(k) for k in (3, 11)] == [
        sg.count_integral_local_tensions(e7, k) for k in (3, 11)
    ]
    # Newly admitted too: the 9-edge map's flows fit at period 1, a DP of
    # about 3.6 * 10^5 steps; its period-6 DP alone is about 3.3 * 10^8
    joins.clear()
    q = sg.quasi_integral_flows(e9)
    assert q.period == 1 and joins == [13]
    assert q.evaluate(4) == sg.count_integral_flows(e9, 4)
    # A guard one step smaller refuses the 7-edge map at period 1, though
    # its fit is kept on its graph: the guard runs before the lookup.
    monkeypatch.setattr(guards, "MAX_ASSIGNMENTS", 899039)
    joins.clear()
    with pytest.raises(TooLarge, match=r"about 899040 steps,"):
        sg.quasi_integral_local_tensions(fresh(e7))
    assert joins == []


# The E = 9 map of the seed-1 `frontier` benchmark ladder.
FRONTIER_9 = {
    "sigma": [[16, 0, 11, 15], [7, 9, 12, 2], [1, 10, 4, 17], [8, 13, 5, 6], [3, 14]],
    "edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11], [12, 13], [14, 15], [16, 17]],
}


# -- oracles for the frontier DP on condition rows and for the integral pairs ----


def _row_mismatches(g, ks):
    """(condition, k, nonzero, count, scan) wherever a library count and the
    kernel scan of its condition matrix disagree: each condition's rows,
    the public tension counts against every simple cycle's row, the public
    local-tension counts against the face rows, and the public
    balanced-flow counts against the vertex rows joined with the cycle
    rows of g*."""
    counts = {
        condition: lambda k, nonzero, c=condition: enumeration._count(g, k, nonzero, c)
        for condition in enumeration._ROWS
    }
    tensions = (sg.count_tensions, sg.count_nz_tensions)
    counts["all-cycles"] = lambda k, nonzero: tensions[nonzero](g, k)
    local = (sg.count_local_tensions, sg.count_nz_local_tensions)
    counts["local-tension"] = lambda k, nonzero: local[nonzero](g, k)
    balanced = (sg.count_balanced_flows, sg.count_nz_balanced_flows)
    counts["balanced-flow"] = lambda k, nonzero: balanced[nonzero](g, k)
    out = []
    for condition, count in counts.items():
        matrix = CONDITIONS[condition](g)
        for k in ks:
            for nonzero in (False, True):
                n = count(k, nonzero)
                scan = count_solutions(matrix, mod_values(k, nonzero), g.num_edges, k)
                if n != scan:
                    out.append((condition, k, nonzero, n, scan))
    return out


def test_row_counts_equal_the_kernel_scans(corpus):
    for g in [*corpus, *PAIR_ZOO]:
        assert _row_mismatches(g, range(1, 5)) == [], g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=6))
def test_random_maps_row_counts_equal_the_kernel_scans(g):
    assert _row_mismatches(g, range(1, 5)) == []


def test_rows_are_the_condition_matrices(corpus):
    import numpy as np

    def dense(rows, width):
        out = np.zeros((len(rows), width), dtype=np.int64)
        for i, row in enumerate(rows):
            assert list(row) == sorted(row) and all(d for _, d in row)
            for e, d in row:
                out[i, e] = d
        return out

    for g in PAIR_ZOO:
        for condition in enumeration._ROWS:
            rows, matrix = enumeration._rows(g, condition), CONDITIONS[condition]
            assert (dense(rows, g.num_edges) == matrix(g)).all(), (condition, g)
    # the local-tension counts read the flow rows of g*: the face rows of g
    for g in [*corpus, *PAIR_ZOO]:
        rows = enumeration._rows(g.dual, "flow")
        assert (dense(rows, g.num_edges) == local_tension_matrix(g)).all(), g


def test_integral_pairs_equal_the_sign_pattern_scan(corpus):
    # the oracle scans (2k + 1)^E rows: K5 stops at k = 1
    for g in [*corpus, *PAIR_ZOO]:
        ks = range(2) if g.num_edges > 6 else range(4)
        got = [sg.integral_local_tension_reciprocity_pairs(g, k) for k in ks]
        assert got == [integral_pairs(g, k) for k in ks], g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=6))
def test_random_maps_integral_pairs_equal_the_sign_pattern_scan(g):
    for k in range(4):
        assert sg.integral_local_tension_reciprocity_pairs(g, k) == integral_pairs(g, k)
