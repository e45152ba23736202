"""Orientation classes: predicates, censuses, duality, cw-face statistics."""

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings

from surfgraph import (
    CorpusSpec,
    GraphMismatch,
    Orientation,
    OrientationClass,
    TooLarge,
    all_orientations,
    build,
    count_class,
    cw_faces,
    dual,
    dual_orientation,
    enumerate_class,
    generate,
    is_acyclic,
    is_boundary_acyclic,
    is_totally_biwalkable,
    is_totally_cyclic,
    orientation_from_string,
    orientation_to_string,
    poly_eval,
    tbo_generating_poly_formula,
    tbo_generating_polynomial,
    tbo_histogram,
    to_json_dict,
)
from surfgraph import cli, enumeration, orientations, reciprocity
from mapzoo import (
    FACE_MATRIX_PRIMAL,
    ISOLATED,
    K5,
    KITE,
    LOOP,
    NAMED,
    PETERSEN,
    SMALL,
    TORUS,
    TRIANGLE,
    TWO_COMPONENTS,
    abstract_map,
    directed_walk_tbo,
    every_edge_on_directed_cycle,
    fresh,
    ribbon_maps,
)

# (ao, tco, bao, tbo) per zoo map; frozen by brute force over 2^E orientations
CENSUS = {
    "edgeless": (1, 1, 1, 1),
    "bridge": (2, 0, 2, 0),
    "loop": (0, 2, 0, 2),
    "triangle": (6, 2, 6, 2),
    "theta": (2, 6, 2, 6),
    "torus": (0, 4, 4, 0),
    "kite": (0, 56, 24, 24),
}

_CLASSES = (
    OrientationClass.AO,
    OrientationClass.TCO,
    OrientationClass.BAO,
    OrientationClass.TBO,
)


def test_census_table():
    for name, g in NAMED.items():
        assert tuple(count_class(g, c) for c in _CLASSES) == CENSUS[name], name


def test_class_inclusions():
    for g in NAMED.values():
        for o in all_orientations(g):
            if is_acyclic(g, o):
                assert is_boundary_acyclic(g, o)
            if is_totally_biwalkable(g, o):
                assert is_totally_cyclic(g, o)


def test_planar_collapse_on_the_zoo():
    for name, g in NAMED.items():
        if g.euler.g != 0:
            continue
        for o in all_orientations(g):
            assert is_acyclic(g, o) == is_boundary_acyclic(g, o), name
            assert is_totally_cyclic(g, o) == is_totally_biwalkable(g, o), name


def test_torus_map_separates_the_classes():
    # on the torus every orientation is totally cyclic and boundary
    # acyclic, none is acyclic or totally bi-walkable
    for o in all_orientations(TORUS):
        assert is_totally_cyclic(TORUS, o)
        assert is_boundary_acyclic(TORUS, o)
        assert not is_acyclic(TORUS, o)
        assert not is_totally_biwalkable(TORUS, o)


def test_predicates_match_walk_definition():
    # definitional oracle: every edge on a closed directed walk that no
    # cocycle meets coherently
    for m in range(0, 4):
        for g in generate(CorpusSpec(edges=m)):
            for o in all_orientations(g):
                assert directed_walk_tbo(g, o.signs) == is_totally_biwalkable(
                    g, o
                )


def _cycle_definition_mask(h):
    # the masks, in all_orientations order, with every edge on a directed cycle
    return sum(
        1 << r for r, o in enumerate(all_orientations(h)) if every_edge_on_directed_cycle(h, o.signs)
    )


def _assert_tco_is_the_cycle_definition(g):
    for h in (g, g.dual):
        assert orientations._class_mask(h, OrientationClass.TCO) == _cycle_definition_mask(h), h


def test_predicates_match_the_cycle_definition():
    # definitional oracle: TCO is every edge on a directed cycle; the
    # masks of g* are also the BAO masks of g
    maps = [g for m in range(6) for g in generate(CorpusSpec(edges=m))]
    assert len(maps) == 1005
    for g in maps:
        _assert_tco_is_the_cycle_definition(g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=6))
def test_random_maps_match_the_cycle_definition(g):
    _assert_tco_is_the_cycle_definition(g)


def test_boundary_predicate_runs_no_cut_scan(monkeypatch):
    # BAO compares its face-set scan with strong connectivity of g*, not
    # with the whole TCO predicate of g*, whose cut scan repeats the test
    cuts = []
    real = orientations._no_coherent_cut
    monkeypatch.setattr(orientations, "_no_coherent_cut", lambda *a: cuts.append(a) or real(*a))
    for g in (TRIANGLE, TORUS, KITE, TWO_COMPONENTS):
        for o in all_orientations(g):
            is_boundary_acyclic(g, o)
    assert cuts == []
    # the spy does see the TCO predicate's own scan
    is_totally_cyclic(TRIANGLE, orientation_from_string(TRIANGLE, "+++"))
    assert len(cuts) == 1


def test_a_flipped_dual_search_fails_the_boundary_predicate(monkeypatch):
    real = orientations._components_strongly_connected
    monkeypatch.setattr(orientations, "_components_strongly_connected", lambda *a: not real(*a))
    o = orientation_from_string(TRIANGLE, "+++")
    with pytest.raises(AssertionError, match=r"boundary scan .* disagree on \+\+\+$"):
        is_boundary_acyclic(TRIANGLE, o)


def test_specific_triangle_orientations():
    cyclic = orientation_from_string(TRIANGLE, "+++")
    assert is_totally_cyclic(TRIANGLE, cyclic)
    assert not is_acyclic(TRIANGLE, cyclic)
    flipped = orientation_from_string(TRIANGLE, "++-")
    assert is_acyclic(TRIANGLE, flipped)
    assert not is_totally_cyclic(TRIANGLE, flipped)


def test_orientation_validation():
    with pytest.raises(GraphMismatch):
        Orientation(TRIANGLE, (1, 1))
    with pytest.raises(GraphMismatch):
        Orientation(TRIANGLE, (1, 0, 1))
    with pytest.raises(GraphMismatch):
        orientation_from_string(TRIANGLE, "++")
    with pytest.raises(GraphMismatch):
        orientation_from_string(TRIANGLE, "+x+")
    with pytest.raises(GraphMismatch):
        is_acyclic(TORUS, Orientation(TRIANGLE, (1, 1, 1)))


def test_orientation_strings():
    o = orientation_from_string(TRIANGLE, "+-+")
    assert o.signs == (1, -1, 1)
    assert orientation_to_string(o) == "+-+"
    # unicode minus is accepted on input, never emitted
    assert orientation_from_string(TRIANGLE, "+−+").signs == (1, -1, 1)


def test_reverse_and_endpoints():
    o = orientation_from_string(TRIANGLE, "+-+")
    assert o.reverse().signs == (-1, 1, -1)
    t, h = TRIANGLE.edge_tail_vertex(1), TRIANGLE.edge_head_vertex(1)
    assert o.edge_endpoints(1) == (h, t)
    assert o.edge_endpoints(0) == (
        TRIANGLE.edge_tail_vertex(0),
        TRIANGLE.edge_head_vertex(0),
    )


def test_dual_orientation_double_application_is_identity():
    for g in NAMED.values():
        gd = dual(g)
        for o in all_orientations(g):
            od = dual_orientation(g, o)
            assert od.graph == gd
            assert dual_orientation(gd, od).signs == o.signs


def test_elementwise_duality_bijections():
    for g in NAMED.values():
        gd = dual(g)
        for cls, dual_cls in (
            (OrientationClass.BAO, OrientationClass.TCO),
            (OrientationClass.AO, OrientationClass.TBO),
        ):
            image = {
                dual_orientation(g, o).signs for o in enumerate_class(g, cls)
            }
            assert image == {o.signs for o in enumerate_class(gd, dual_cls)}


def test_cw_faces_of_the_cyclic_triangle():
    seen = set()
    for o in enumerate_class(TRIANGLE, OrientationClass.TBO):
        faces = cw_faces(TRIANGLE, o)
        assert len(faces) == 1
        seen |= faces
    assert seen == {0, 1}


def test_cw_faces_never_contain_a_tail_dart():
    for g in (TRIANGLE, TORUS, KITE):
        for o in all_orientations(g):
            for f in cw_faces(g, o):
                orbit = g.faces[f]
                tails = {
                    (t if s == 1 else h)
                    for (t, h), s in zip(g.edge_pairs, o.signs)
                }
                assert not (set(orbit) & tails)


def test_tbo_histograms():
    assert tbo_histogram(TRIANGLE) == {1: 2}
    assert tbo_histogram(TORUS) == {}
    assert tbo_histogram(KITE) == {1: 24}


def test_histogram_matches_formula_on_zoo():
    for name, g in NAMED.items():
        assert tbo_generating_polynomial(g) == tbo_generating_poly_formula(
            g
        ), name


def test_enumeration_guard():
    big = build(
        42,
        [tuple(range(42))],
        [(2 * i, 2 * i + 1) for i in range(21)],
    )
    with pytest.raises(TooLarge):
        count_class(big, OrientationClass.AO)


# -- the mask engine against the per-orientation predicates -------------------


def test_engine_matches_the_predicates(corpus):
    # The predicates are the oracle: enumerate_class must list exactly the
    # orientations they accept, in all_orientations order, and the cw-face
    # histogram must count cw_faces over that list.
    assert ISOLATED.isolated == 1 and TWO_COMPONENTS.num_components == 2
    for g in [*corpus, *SMALL, FACE_MATRIX_PRIMAL, ISOLATED, TWO_COMPONENTS]:
        for cls in _CLASSES:
            pred = orientations._PREDICATES[cls]
            want = [o.signs for o in all_orientations(g) if pred(g, o)]
            assert [o.signs for o in enumerate_class(g, cls)] == want, cls
            assert count_class(g, cls) == len(want), cls
        _assert_cw_counts_match(g)


def _assert_cw_counts_match(g):
    # The cw-face histogram and the unique-cw counts, against cw_faces
    # over the predicate's totally bi-walkable orientations.
    tbo = [o for o in all_orientations(g) if is_totally_biwalkable(g, o)]
    cws = [cw_faces(g, o) for o in tbo]
    assert tbo_histogram(g) == Counter(len(faces) for faces in cws)
    assert orientations.unique_cw_counts(g) == [
        sum(faces == {f} for faces in cws) for f in range(g.num_faces)
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ribbon_maps(max_edges=6))
def test_random_maps_engine_matches_the_predicates(g):
    # Disconnected maps and isolated vertices included: each class read on
    # g or g* must keep exactly the orientations its predicate accepts.
    for cls in _CLASSES:
        pred = orientations._PREDICATES[cls]
        want = [o.signs for o in all_orientations(g) if pred(g, o)]
        assert [o.signs for o in enumerate_class(g, cls)] == want, cls
    _assert_cw_counts_match(g)
    if g.num_components > 1:
        # each component has a cw face in every such orientation
        assert orientations.unique_cw_counts(g) == [0] * g.num_faces


@pytest.mark.parametrize(
    "route, cls",
    [
        ("_avoids", OrientationClass.BAO),
        ("_peel", OrientationClass.AO),
        ("_strongly_connected", OrientationClass.TCO),
    ],
)
def test_a_flipped_mask_fails_the_cross_check(route, cls, monkeypatch, tmp_path, capsys):
    # Mask 3 of the triangle is the orientation +-- (edge 0 is the top bit).
    real = getattr(orientations, route)

    def flipped(*args):
        return real(*args) ^ (1 << 3)

    monkeypatch.setattr(orientations, route, flipped)
    with pytest.raises(AssertionError, match=r"on \+--$"):
        count_class(fresh(TRIANGLE), cls)
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(to_json_dict(TRIANGLE)))
    assert cli.main(["count", "--class", cls.value, str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_class_scan_guard_refuses_before_any_route(monkeypatch):
    calls = []
    for route in ("_avoids", "_peel", "_strongly_connected"):
        real = getattr(orientations, route)
        monkeypatch.setattr(
            orientations, route, lambda *a, _r=route, _f=real: calls.append(_r) or _f(*a)
        )
    # A 20-edge cycle passes the 2^20 orientation guard; its 2^20 - 2 cut
    # sides (TCO) and 20 x 20 peel steps per mask (AO), and the same counts
    # read on its dual (BAO, TBO, whose g* is the ring), do not pass the
    # total-work guard.
    ring = abstract_map(20, [(i, (i + 1) % 20) for i in range(20)])
    assert ring.num_faces == 2
    cases = [
        (ring, OrientationClass.AO, 2 * 1 + 20 * 20),
        (ring, OrientationClass.TCO, 2**20 - 2 + 2 * 20 * 20),
        (dual(ring), OrientationClass.BAO, 2**20 - 2 + 2 * 20 * 20),
        (dual(ring), OrientationClass.TBO, 2 * 1 + 20 * 20),
    ]
    for g, cls, per_mask in cases:
        for fn in (count_class, enumerate_class):
            with pytest.raises(TooLarge, match=f"about {per_mask << 20} tests"):
                fn(g, cls)
    assert calls == []
    # the same spies do see a scan the guard lets through
    count_class(fresh(TRIANGLE), OrientationClass.TCO)
    assert calls == ["_avoids", "_strongly_connected"]


def test_cycle_bound_is_an_upper_bound(corpus):
    # The guard counts two patterns per cycle before any cycle is listed.
    for g in [*corpus, *SMALL, FACE_MATRIX_PRIMAL, TWO_COMPONENTS, K5, PETERSEN]:
        for h in (g, dual(g)):
            assert len(h._cycles) <= orientations._cycle_bound(h)
    assert orientations._cycle_bound(dual(PETERSEN)) == len(dual(PETERSEN)._cycles) == 34


def test_class_counts_past_the_census():
    # |p(-1)| of each polynomial counts its class: the engine at E = 10, 15
    for g in (K5, PETERSEN):
        for kind in enumeration.KINDS:
            value = abs(poly_eval(enumeration.POLY[kind](g), -1))
            assert count_class(g, reciprocity.CLASS_OF[kind]) == value, kind
