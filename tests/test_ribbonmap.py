"""Structure layer: construction, orbits, dual, surgeries, cycles, codes."""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfgraph as sg
from surfgraph import (
    BadPairing,
    CorpusSpec,
    Cycle,
    DuplicateEdge,
    InvalidCycle,
    NonPermutation,
    OddDartCount,
    RibbonGraph,
    UnknownEdge,
    UnknownFace,
    abstract_contract,
    boundary,
    build,
    canonical_code,
    check_cycle,
    cocycles,
    contract,
    cycles,
    delete,
    double_slash,
    dual,
    face_matrix,
    fundamental_cycles,
    generate,
    is_separating,
    signed_boundary,
)
from surfgraph import ribbonmap
from mapzoo import (
    BRIDGE,
    EDGELESS,
    FACE_MATRIX_PRIMAL,
    ISOLATED,
    K5,
    KITE,
    KITE_ANCHOR_BOUNDARY,
    KITE_ANCHOR_FACES,
    KITE_ANCHOR_SIGNED,
    LOOP,
    NAMED,
    PETERSEN,
    SMALL,
    THETA,
    TORUS,
    TRIANGLE,
    TWO_COMPONENTS,
    fresh,
    ribbon_maps,
)

# (V, E, F, c, genus) per zoo map; frozen by hand
EULER = {
    "edgeless": (1, 0, 1, 1, 0),
    "bridge": (2, 1, 1, 1, 0),
    "loop": (1, 1, 2, 1, 0),
    "triangle": (3, 3, 2, 1, 0),
    "theta": (2, 3, 3, 1, 0),
    "torus": (1, 2, 1, 1, 1),
    "kite": (2, 6, 4, 1, 1),
}


def _relabel(g: RibbonGraph, perm):
    n = g.num_darts
    new_sigma = [0] * n
    for d in range(n):
        new_sigma[perm[d]] = perm[g.sigma[d]]
    new_pairs = tuple((perm[t], perm[h]) for t, h in g.edge_pairs)
    return RibbonGraph(tuple(new_sigma), new_pairs, isolated=g.isolated)


def _rank(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# -- construction and validation ---------------------------------------------


def test_euler_table():
    for name, g in NAMED.items():
        d = g.euler
        assert (d.v_count, d.e_count, d.f_count, d.c, d.g) == EULER[name]
        assert d.v_count - d.e_count + d.f_count == 2 * d.c - 2 * d.g
        assert sg.euler_data(g) == d and g.genus == d.g


def test_build_rejects_odd_dart_count():
    with pytest.raises(OddDartCount):
        build(3, [0, 1, 2], [(0, 1)])


def test_build_rejects_non_permutation():
    with pytest.raises(NonPermutation):
        build(2, [0, 0], [(0, 1)])
    with pytest.raises(NonPermutation, match="appears twice"):
        build(2, [(0,), (0, 1)], [(0, 1)])
    with pytest.raises(NonPermutation, match="outside 0..1"):
        build(2, [(0, 2)], [(0, 1)])
    with pytest.raises(NonPermutation, match="dart 1 missing"):
        build(2, [(0,)], [(0, 1)])
    with pytest.raises(NonPermutation, match="covers 2 darts, expected 4"):
        build(4, [1, 0], [(0, 1), (2, 3)])


def test_build_rejects_bad_pairings():
    with pytest.raises(BadPairing):
        build(2, [0, 1], [(0, 0)])
    with pytest.raises(BadPairing):
        build(4, [0, 1, 2, 3], [(0, 1), (1, 2)])
    with pytest.raises(BadPairing):
        build(2, [0, 1], [(0, 7)])
    with pytest.raises(BadPairing):
        build(4, [0, 1, 2, 3], [(0, 1)])


def test_negative_isolated_rejected():
    with pytest.raises(ValueError):
        build(0, [], [], isolated_vertices=-1)


def test_kite_orbits_pinned():
    assert KITE.faces == ((0, 10, 5), (1, 6, 9), (2, 4, 7), (3, 8, 11))
    assert KITE.vertices == ((0, 6, 2, 8, 1, 10, 3, 4), (5, 7, 9, 11))


def test_edge_helpers_on_bridge_and_loop():
    assert BRIDGE.edge_tail_vertex(0) == 0
    assert BRIDGE.edge_head_vertex(0) == 1
    assert BRIDGE.is_bridge(0) and not BRIDGE.is_loop_edge(0)
    assert BRIDGE.is_coloop_edge(0)  # one face on both sides
    assert LOOP.is_loop_edge(0) and not LOOP.is_bridge(0)
    assert not LOOP.is_coloop_edge(0)
    with pytest.raises(UnknownEdge):
        BRIDGE.check_edge(1)


# -- dual ---------------------------------------------------------------------


def test_dual_is_an_involution():
    # g.dual.dual is g itself; a fresh copy of g* checks the involution
    for g in SMALL:
        assert dual(dual(g)) is g
        assert fresh(dual(g)).dual == g


def test_dual_swaps_vertices_and_faces():
    for g in SMALL:
        d, dd = g.euler, dual(g).euler
        assert (dd.v_count, dd.f_count) == (d.f_count, d.v_count)
        assert (dd.e_count, dd.c, dd.g) == (d.e_count, d.c, d.g)


def test_torus_map_is_self_dual():
    assert canonical_code(dual(TORUS)) == canonical_code(TORUS)


# -- boundaries and the face matrix -------------------------------------------


def test_kite_boundary_anchor():
    assert boundary(KITE, KITE_ANCHOR_FACES) == KITE_ANCHOR_BOUNDARY


def test_kite_signed_boundary_anchor():
    assert signed_boundary(KITE, KITE_ANCHOR_FACES) == KITE_ANCHOR_SIGNED


def test_signed_boundary_edge_cases():
    for g in SMALL:
        zero = (0,) * g.num_edges
        assert signed_boundary(g, set()) == zero
        assert signed_boundary(g, set(range(g.num_faces))) == zero


def test_signed_boundary_is_a_row_sum():
    for g in (TRIANGLE, TORUS, KITE):
        mat = face_matrix(g)
        for r in range(1, 3):
            for faces in itertools.combinations(range(g.num_faces), r):
                expected = tuple(
                    sum(mat[f][e] for f in faces) for e in range(g.num_edges)
                )
                assert signed_boundary(g, set(faces)) == expected


def test_boundary_is_its_definition(corpus):
    # every face subset of every census map with at most three edges and
    # of the zoo maps: the edges with two distinct sides, exactly one of
    # which is in the set
    census = [g for g in corpus if g.num_edges <= 3]
    zoo = [*SMALL, FACE_MATRIX_PRIMAL, ISOLATED, TWO_COMPONENTS, K5, PETERSEN]
    for g in census + zoo:
        sides = [(g.edge_right_face(e), g.edge_left_face(e)) for e in range(g.num_edges)]
        for r in range(g.num_faces + 1):
            for faces in itertools.combinations(range(g.num_faces), r):
                want = {e for e, (a, b) in enumerate(sides) if a != b and (a in faces) != (b in faces)}
                assert boundary(g, faces) == want, (g, faces)


def test_boundary_rejects_unknown_face():
    with pytest.raises(UnknownFace):
        boundary(TRIANGLE, {5})


def test_face_matrix_columns_sum_to_zero():
    for g in SMALL:
        mat = face_matrix(g)
        for e in range(g.num_edges):
            assert sum(row[e] for row in mat) == 0


def test_face_matrix_rank_is_faces_minus_components():
    for g in SMALL:
        assert _rank(face_matrix(g)) == g.num_faces - g.num_components


def test_documented_face_matrix_shape():
    mat = face_matrix(dual(FACE_MATRIX_PRIMAL))
    assert len(mat) == 2
    assert sorted(mat) == [(-1, 0, -1, 0), (1, 0, 1, 0)]


# -- cycles, cocycles, separation ---------------------------------------------


def test_triangle_has_one_cycle():
    assert cycles(TRIANGLE) == [
        Cycle(edges=(0, 1, 2), directions=(1, 1, 1), vertices=(0, 1, 2))
    ]


def test_torus_cycles_are_the_two_loops():
    assert [c.edges for c in cycles(TORUS)] == [(0,), (1,)]


def test_cycle_census():
    assert len(cycles(THETA)) == 3
    assert len(cycles(KITE)) == 8
    assert len(cocycles(KITE)) == 7


def test_cocycles_mirror_dual_cycles():
    for g in SMALL:
        ours = sorted(frozenset(c.edges) for c in cocycles(g))
        theirs = sorted(frozenset(c.edges) for c in cycles(dual(g)))
        assert ours == theirs


def test_every_enumerated_cycle_validates():
    for g in SMALL:
        for c in cycles(g) + fundamental_cycles(g):
            check_cycle(g, c)


def test_fundamental_cycle_count():
    for g in SMALL:
        d = g.euler
        assert len(fundamental_cycles(g)) == d.e_count - d.v_count + d.c


def test_fundamental_cycles_are_pinned_on_the_census():
    # The basis fixes every form, plan and guard price.  Pinned by a digest
    # over g and g* of every connected map with at most five edges, and of
    # every map, connected or not, with at most three.
    maps = [g for m in range(6) for g in generate(CorpusSpec(edges=m))]
    maps += [g for m in range(4) for g in generate(CorpusSpec(edges=m, connected=False))]
    assert len(maps) == 1050
    bases = [
        [[c.edges, c.directions, c.vertices] for c in fundamental_cycles(h)]
        for g in maps
        for h in (g, g.dual)
    ]
    digest = hashlib.sha256(json.dumps(bases).encode()).hexdigest()[:16]
    assert digest == "8a6322f3b842bc06"


def test_check_cycle_rejections():
    with pytest.raises(InvalidCycle):
        check_cycle(TRIANGLE, Cycle((0, 1), (1,), (0, 1)))
    with pytest.raises(InvalidCycle):
        check_cycle(TRIANGLE, Cycle((0, 0), (1, -1), (0, 1)))
    with pytest.raises(InvalidCycle):
        check_cycle(TRIANGLE, Cycle((0, 9), (1, 1), (0, 1)))
    with pytest.raises(InvalidCycle):
        check_cycle(TRIANGLE, Cycle((0, 1), (1, 2), (0, 1)))
    with pytest.raises(InvalidCycle):
        check_cycle(TRIANGLE, Cycle((0, 2), (1, 1), (0, 1)))


def test_separating_cycles():
    assert is_separating(TRIANGLE, cycles(TRIANGLE)[0])
    assert is_separating(LOOP, cycles(LOOP)[0])
    for c in cycles(TORUS):
        assert not is_separating(TORUS, c)


# -- the subset census ---------------------------------------------------------


def test_subset_census_equals_a_walk_of_every_subset(corpus):
    # The oracle: one union-find per edge subset B, its component sizes counted.
    for g in [*corpus, ISOLATED, TWO_COMPONENTS, K5]:
        g = fresh(g)
        for h in (g, g.dual):
            ends = [(h.edge_tail_vertex(e), h.edge_head_vertex(e)) for e in range(h.num_edges)]
            want: Counter = Counter()
            for bits in range(1 << h.num_edges):
                chosen = [uw for e, uw in enumerate(ends) if bits >> e & 1]
                roots, _ = ribbonmap._spanning_forest(h.num_vertices, chosen)
                want[len(chosen), tuple(sorted(Counter(roots).values()))] += 1
            census = ribbonmap._subset_census(h)
            assert {(size, comps): n for size, comps, n in census} == want
            assert len(census) == len(want) and ribbonmap._subset_census(h) is census


# -- surgeries ----------------------------------------------------------------


def test_delete_nothing_is_identity():
    for g in SMALL:
        assert delete(g, set()) == g


def test_a_bridge_is_an_edge_whose_deletion_adds_a_component(corpus):
    for g in [*corpus, *NAMED.values()]:
        for e in range(g.num_edges):
            assert g.is_bridge(e) == (delete(g, {e}).num_components > g.num_components), (g, e)


def test_delete_all_edges_keeps_vertices_as_isolated():
    for g in SMALL:
        h = delete(g, range(g.num_edges))
        assert h.num_edges == 0
        assert h.num_vertices == g.num_vertices


def test_delete_rejects_unknown_edge():
    with pytest.raises(UnknownEdge):
        delete(TRIANGLE, {3})


def test_contract_is_dual_delete_dual():
    for g in (TRIANGLE, TORUS, KITE):
        for r in range(g.num_edges + 1):
            for edges in itertools.combinations(range(g.num_edges), min(r, 2)):
                assert contract(g, set(edges)) == dual(
                    delete(dual(g), set(edges))
                )


def test_contract_values():
    d = contract(BRIDGE, {0}).euler
    assert (d.v_count, d.e_count, d.f_count, d.c) == (1, 0, 1, 1)
    # pinching a contractible loop splits the sphere in two
    d = contract(LOOP, {0}).euler
    assert (d.v_count, d.e_count, d.f_count, d.c) == (2, 0, 2, 2)


def test_double_slash_deletes_regular_edges():
    # triangle edges have two distinct sides: removal is deletion
    assert double_slash(TRIANGLE, [0]) == delete(TRIANGLE, {0})


def test_double_slash_contracts_single_face_edges():
    # both torus edges see the same face on both sides
    assert double_slash(TORUS, [0]) == contract(TORUS, {0})


def test_double_slash_rejects_repeats():
    with pytest.raises(DuplicateEdge):
        double_slash(KITE, [1, 1])


def test_double_slash_census_is_order_invariant():
    # Whether an edge counts as a coloop is decided at its own removal step,
    # so different processing orders can land on different embedded maps.
    # The data the signed-reciprocity pairing reads off the result (the
    # boundary-acyclic census and the Euler profile) must not care.
    from surfgraph import OrientationClass, count_class

    codes = set()
    censuses = set()
    for order in itertools.permutations([1, 3, 4]):
        h = double_slash(KITE, list(order))
        codes.add(canonical_code(h))
        d = h.euler
        censuses.add((count_class(h, OrientationClass.BAO), d.e_count, d.f_count - d.c))
    assert len(codes) == 2  # the embedded map really does depend on order
    assert censuses == {(6, 3, 1)}


def test_abstract_contract_forgets_the_surface():
    h = abstract_contract(TRIANGLE, {0})
    d = h.euler
    assert (d.v_count, d.e_count, d.c) == (2, 2, 1)
    h = abstract_contract(TRIANGLE, {0, 1, 2})
    assert (h.num_vertices, h.num_edges) == (1, 0)
    # contracting nothing keeps the abstract graph, not the embedding
    h = abstract_contract(TORUS, set())
    assert (h.num_vertices, h.num_edges, h.num_components) == (1, 2, 1)


# -- canonical codes -----------------------------------------------------------


def test_codes_distinguish_the_zoo():
    codes = {name: canonical_code(g) for name, g in NAMED.items()}
    assert len(set(codes.values())) == len(codes)


def test_isolated_vertices_enter_the_code():
    one = build(0, [], [], isolated_vertices=1)
    two = build(0, [], [], isolated_vertices=2)
    assert canonical_code(one) != canonical_code(two)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ribbon_maps(), st.data())
def test_code_is_relabeling_invariant(g, data):
    perm = data.draw(st.permutations(list(range(g.num_darts))))
    assert canonical_code(_relabel(g, perm)) == canonical_code(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ribbon_maps())
def test_euler_identity_and_dual_closure(g):
    d = g.euler
    assert d.v_count - d.e_count + d.f_count == 2 * d.c - 2 * d.g
    assert d.g >= 0
    assert fresh(dual(g)).dual == g
    assert canonical_code(fresh(dual(g)).dual) == canonical_code(g)


# -- serialization -------------------------------------------------------------


def test_json_round_trip():
    for g in SMALL:
        assert sg.from_json_dict(sg.to_json_dict(g)) == g
        assert sg.loads(sg.dumps(g)) == g


def test_labels_survive_round_trip():
    g = build(2, [0, 1], [(0, 1)], labels={"name": "bridge"})
    assert sg.loads(sg.dumps(g)).labels == {"name": "bridge"}


def test_from_json_rejects_malformed_documents():
    with pytest.raises(NonPermutation):
        sg.from_json_dict([1, 2])
    with pytest.raises(NonPermutation):
        sg.from_json_dict({"sigma": "no", "edges": []})
    with pytest.raises(BadPairing):
        sg.from_json_dict({"sigma": [[0, 1]], "edges": [[0, 1, 2]]})
