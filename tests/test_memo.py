"""The memos, in three places.  What reads a map's rotation (its
canonical code) is kept on the map.  What reads the labels of its graph,
(V, edge ends) - cycles, rows, plans, class masks, cw cubes,
subset components, scan costs - is kept per labelled graph in one table
shared by every map with that graph.  What relabelling the vertices and
reversing edges leave unchanged - the counts, the subset census and
polynomials, the pair polynomials, quasi fits, integral pairs and the cw
formula - is kept per isomorphism class of graph in a second table,
found by a canonical form of (V, edge ends).  What reads faces is kept on
the graphs of the dual, so the local-tension and balanced-flow rows of g
are the flow and tension rows of g*.

Each value is computed once, after the guards and the cross-checks, and
handed out read-only.  A census asks for each labelled value once per
graph and each invariant once per class, however many maps share it.
The guards price each labelled graph's own plan or mask before any
lookup, since relabelling changes a plan: a value computed under the
override is still refused on an isomorphic copy without it.  The dual of
g.dual is g itself, so nothing is computed again on an equal copy of g.
The pair counters read the forbidden subcubes of g or g*, so verify builds no
surgered map and takes no canonical code beyond the one naming g in its
report, which a census map carries from its dedupe."""

import pytest

from surfgraph import (
    CorpusSpec,
    OrientationClass,
    TooLarge,
    build,
    cli,
    count_class,
    enumeration,
    generate,
    generator,
    guards,
    orientations,
    reciprocity,
    ribbonmap,
)
from mapzoo import (
    BRIDGE,
    FACE_MATRIX_PRIMAL,
    ISOLATED,
    K5,
    SMALL,
    THETA,
    TRIANGLE,
    TWO_COMPONENTS,
    forget_graphs,
    fresh,
)

ZOO = [*SMALL, FACE_MATRIX_PRIMAL, ISOLATED, TWO_COMPONENTS, K5]

def _report(g, kmax=3):
    report = cli._verify_graph(g, kmax)
    del report["elapsed_s"]
    return report


def _graph(h):
    """The key of h's values in the graph table."""
    return h.num_vertices, h._edge_ends


def _class(h):
    """The key of h's invariant values in the class table."""
    return ribbonmap._graph_form(h.num_vertices, h._edge_ends)


def _relabelled(g, perm, reverse):
    """g with dart d renamed perm[d], and edge `reverse` turned around."""
    sigma = [0] * g.num_darts
    for d, s in enumerate(g.sigma):
        sigma[perm[d]] = perm[s]
    pairs = [(perm[t], perm[h]) for t, h in g.edge_pairs]
    pairs[reverse] = pairs[reverse][::-1]
    return ribbonmap.RibbonGraph(tuple(sigma), tuple(pairs), g.isolated)


def test_a_second_verify_on_the_same_map_gives_the_same_report(corpus):
    for g in [fresh(h) for h in corpus]:
        first = _report(g)
        assert first["all_pass"], first["graph"]
        assert _report(g) == first
    for g in [fresh(h) for h in ZOO]:
        assert _report(g) == _report(g)


def test_the_graph_table_changes_no_report():
    # m <= 5: 1,740 maps g and g* on 599 graphs at m = 5 alone
    maps = [g for m in range(6) for g in generate(CorpusSpec(edges=m))]
    shared = [_report(g) for g in maps]
    assert all(report["all_pass"] for report in shared)
    for g, report in zip(maps, shared):
        forget_graphs()
        assert _report(fresh(g)) == report, report["graph"]


def test_maps_share_what_reads_only_their_graph(monkeypatch):
    scans = []
    real = orientations._scan_class

    def scan(h, cycles):
        scans.append((_graph(h), cycles))
        return real(h, cycles)

    monkeypatch.setattr(orientations, "_scan_class", scan)
    # the theta graph embedded in the sphere and in the torus
    pairs = [(0, 1), (2, 3), (4, 5)]
    planar = build(6, [(0, 2, 4), (5, 3, 1)], pairs)
    torus = build(6, [(0, 2, 4), (1, 3, 5)], pairs)
    assert (planar.genus, torus.genus) == (0, 1) and _graph(planar) == _graph(torus)
    counts = {}
    for g in (planar, torus):
        counts[g] = [count_class(g, cls) for cls in OrientationClass]
    # AO and TCO read the one graph, scanned once; BAO and TBO each dual's
    assert len(scans) == 2 + 2 * 2 and len(set(scans)) == len(scans)
    assert counts[planar] == [2, 6, 2, 6] and counts[torus] == [2, 6, 8, 0]
    # one more vertex, or one edge turned around, is another graph
    isolated = build(6, [(0, 2, 4), (5, 3, 1), ()], pairs)
    turned = build(6, [(0, 2, 4), (5, 3, 1)], [(1, 0), (2, 3), (4, 5)])
    for g in (isolated, turned):
        scans.clear()
        assert count_class(g, OrientationClass.AO) == 2
        assert count_class(g, OrientationClass.TCO) == 6
        assert scans == [(_graph(g), True), (_graph(g), False)]


def test_verify_computes_each_quantity_once(corpus, monkeypatch):
    masks, surgeries, scans, codes = [], [], [], []
    real_scan_class = orientations._scan_class
    real_count = enumeration._row_count

    def scan_class(h, cycles):
        masks.append((h, cycles))
        return real_scan_class(h, cycles)

    def count(h, condition, k, nonzero):
        # every row count is kept on the class of its graph, g's or g*'s
        scans.append(((_class(h), condition), nonzero, k))
        return real_count(h, condition, k, nonzero)

    def spy(log, real):
        return lambda *args: log.append(args) or real(*args)

    monkeypatch.setattr(orientations, "_scan_class", scan_class)
    monkeypatch.setattr(enumeration, "_row_count", count)
    for name in ("delete", "contract", "double_slash", "abstract_contract"):
        monkeypatch.setattr(reciprocity, name, spy(surgeries, getattr(reciprocity, name)))
    monkeypatch.setattr(generator, "_least_code", spy(codes, generator._least_code))

    maps = [fresh(h) for h in corpus]  # held, so no id is reused meanwhile
    for g in maps:
        generator.canonical_code(g)  # the report names g by its code
        surgeries.clear()
        codes.clear()
        cli._verify_graph(g, 3)
        assert surgeries == [] and codes == []
    # each class mask once per graph and side, and all four primitives of
    # every map read
    mask_keys = [(_graph(h), cycles) for h, cycles in masks]
    assert len(set(mask_keys)) == len(mask_keys)
    assert set(mask_keys) == {(_graph(h), c) for g in maps for h in (g, g.dual) for c in (False, True)}
    # each count once per class, and every condition scanned at each
    # k = 1..3, once
    assert len(set(scans)) == len(scans)
    per_matrix: dict = {}
    for matrix, _, k in scans:
        per_matrix.setdefault(matrix, []).append(k)
    assert all(sorted(ks) == [1, 2, 3] for ks in per_matrix.values())
    # the same spies see a surgery, and the one it calls, and a code
    for log in (surgeries, codes):
        log.clear()
    reciprocity.double_slash(TRIANGLE, [0])
    generator.canonical_code(fresh(TRIANGLE))
    assert len(surgeries) == 2 and codes


def test_verify_scans_each_primitive_once(corpus, monkeypatch):
    # BAO(g) is TCO(g*) and TBO(g) is AO(g*): the six (map, class) masks
    # verify reads are the cycles and the cuts of g and of g*, four scans
    # for a map whose graphs are new, none for one whose graphs are not
    scans = []
    real = orientations._scan_class
    monkeypatch.setattr(
        orientations, "_scan_class", lambda h, cycles: scans.append((h, cycles)) or real(h, cycles)
    )
    seen = set()
    for g in [fresh(h) for h in corpus]:
        scans.clear()
        cli._verify_graph(g, 3)
        read = [(_graph(h), cycles) for h, cycles in scans]
        assert len(set(read)) == len(read) and not seen & set(read)
        seen.update(read)
        assert {(_graph(h), c) for h in (g, g.dual) for c in (False, True)} <= seen
    assert len(seen) < 4 * len(corpus)


def test_verify_builds_the_cw_face_masks_once(corpus, monkeypatch):
    # unique_cw_counts and the cw histogram read one tuple kept on the
    # graph of g*, whose vertices are the faces of g
    builds = []
    real = orientations._cw_cubes
    monkeypatch.setattr(orientations, "_cw_cubes", lambda h: builds.append(_graph(h)) or real(h))
    maps = [fresh(h) for h in corpus]
    for g in maps:
        cli._verify_graph(g, 3)
        cw = orientations._tbo_cw(g)
        assert isinstance(cw, tuple) and orientations._tbo_cw(g) is cw
    assert len(set(builds)) == len(builds)
    assert set(builds) == {_graph(g.dual) for g in maps}


def test_verify_builds_each_form_set_and_dp_count_once(corpus, monkeypatch):
    forms, counts, walks = [], [], []
    real_forms, real_count = enumeration._forms, enumeration._nz_count
    real_walk = ribbonmap._census_walk

    def build_forms(h, flow):
        forms.append((h, flow))
        return real_forms(h, flow)

    def count(h, k, flow):
        counts.append((h, k, flow))
        return real_count(h, k, flow)

    def walk(h):
        walks.append(h)
        return real_walk(h)

    monkeypatch.setattr(enumeration, "_forms", build_forms)
    monkeypatch.setattr(enumeration, "_nz_count", count)
    monkeypatch.setattr(ribbonmap, "_census_walk", walk)
    maps = [fresh(h) for h in [*corpus, *ZOO]]
    seen = {"forms": [], "counts": [], "walks": []}
    for g in maps:
        forms.clear()
        counts.clear()
        walks.clear()
        cli._verify_graph(g, 3)
        # all of it on g or g.dual, none on g.dual.dual built afresh
        built = [h for h, _ in forms] + [h for h, _, _ in counts] + walks
        assert all(h is g or h is g.dual for h in built)
        seen["forms"] += [(_graph(h), flow) for h, flow in forms]
        seen["counts"] += [(_class(h), k, flow) for h, k, flow in counts]
        seen["walks"] += map(_class, walks)
    # over the census, each graph's forms once, and each class's DP counts
    # and census once
    for log, keys in seen.items():
        assert len(set(keys)) == len(keys), log
    # four polynomials and the cw formula: one census walk each of the
    # classes of the graphs of g and g*
    assert set(seen["walks"]) == {_class(h) for g in maps for h in (g, g.dual)}
    # tensions and flows of every g, each at k = 1..3, are DP counts, on
    # fundamental forms of both kinds
    for g in maps:
        assert {(_class(g), k, flow) for k in (1, 2, 3) for flow in (False, True)} <= set(seen["counts"])
        assert {(_graph(g), False), (_graph(g), True)} <= set(seen["forms"])


def test_verify_prices_each_class_once_and_guards_every_scan(corpus, monkeypatch):
    priced, bounds, masks, guarded = [], [], [], []
    real_cost, real_bound = orientations._scan_cost, orientations._cycle_bound
    real_mask, real_guard = orientations._class_mask, orientations.check_class_scan

    def cost(h, cycles):
        priced.append((h, cycles))
        return real_cost(h, cycles)

    def mask(g, cls):
        masks.append((g, cls))
        return real_mask(g, cls)

    def spy(log, real):
        return lambda *args: log.append(args) or real(*args)

    for module in (orientations, reciprocity):
        monkeypatch.setattr(module, "_scan_cost", cost)
        monkeypatch.setattr(module, "_class_mask", mask)
    monkeypatch.setattr(orientations, "_cycle_bound", spy(bounds, real_bound))
    monkeypatch.setattr(orientations, "check_class_scan", spy(guarded, real_guard))
    maps = [fresh(h) for h in [*corpus, *ZOO]]
    for g in maps:
        for log in (masks, guarded):
            log.clear()
        cli._verify_graph(g, 3)
        # every mask read is guarded, though many are read twice
        assert len(guarded) == len(masks) > len({(id(h), cls) for h, cls in masks})
        # a second verify reads every price from the memo, but guards again
        first, bounded = len(guarded), len(bounds)
        cli._verify_graph(g, 3)
        assert len(bounds) == bounded and len(guarded) == len(masks) > first
    # each cycle class priced once per graph of its primitive, asked often
    once = {_graph(h) for h, cycles in priced if cycles}
    assert sorted(map(_graph, (h for (h,) in bounds))) == sorted(once)
    assert len(priced) > len(once)


def test_memoised_arrays_are_read_only():
    # A class mask is an int and a row set a tuple of tuples, immutable:
    # the memo hands out the same one.
    g = fresh(TRIANGLE)
    for cls in OrientationClass:
        mask = orientations._class_mask(g, cls)
        assert isinstance(mask, int)
        assert orientations._class_mask(g, cls) is mask
    # g* too: the local-tension rows of g are its flow rows
    for h in (g, g.dual):
        for condition in enumeration._ROWS:
            rows = enumeration._rows(h, condition)
            assert enumeration._rows(h, condition) is rows
            assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
            with pytest.raises(TypeError):
                rows[0] = ()
        # a DP's column plan is tuples all the way down, so it hashes
        plans = [(enumeration._row_plan, condition) for condition in enumeration._ROWS]
        plans += [(enumeration._fundamental_plan, flow) for flow in (False, True)]
        for plan_of, arg in plans:
            plan = plan_of(h, arg)
            assert plan_of(h, arg) is plan and isinstance(hash(plan), int)


def test_a_failed_cross_check_stores_nothing(monkeypatch):
    real_peel = orientations._peel

    def flipped(*args):
        return real_peel(*args) ^ (1 << 3)

    monkeypatch.setattr(orientations, "_peel", flipped)
    g = fresh(TRIANGLE)
    for _ in range(2):
        with pytest.raises(AssertionError, match="forbidden subcubes and graph search"):
            count_class(g, OrientationClass.AO)

    # one route of a two-route count off by one: both calls raise
    real_count = enumeration._nz_count
    monkeypatch.setattr(enumeration, "_nz_count", lambda h, k, flow: real_count(h, k, flow) + 1)
    for _ in range(2):
        with pytest.raises(AssertionError, match="tension subset sum gives 0 at k=2, the count 1"):
            enumeration.poly_tension(g)


def test_a_result_computed_under_the_override_is_still_refused_without_it(monkeypatch):
    # 3 edges pass no scan under a 10-test guard: 3^3 rows, 2^3 masks x
    # patterns; the nowhere-zero tension DP has 2 forest columns, 2 + 4
    # steps at k = 3, so it is asked at k = 4 (3 + 9)
    monkeypatch.setattr(guards, "MAX_ASSIGNMENTS", 10)
    g = fresh(TRIANGLE)
    calls = [
        lambda: count_class(g, OrientationClass.AO),
        lambda: orientations.tbo_histogram(g),
        lambda: orientations.unique_cw_counts(g),
        lambda: enumeration.count_nz_tensions(g, 4),
        lambda: enumeration.count_nz_balanced_flows(g, 3),
        lambda: reciprocity.reciprocity_pairs_flow(g, 3),
        lambda: reciprocity.integral_local_tension_reciprocity_pairs(g, 1),
    ]
    monkeypatch.setenv("SURFGRAPH_GUARD_OVERRIDE", "1")
    for call in calls:
        call()
    monkeypatch.delenv("SURFGRAPH_GUARD_OVERRIDE")
    for call in calls:
        with pytest.raises(TooLarge):
            call()


def test_a_copy_with_permuted_vertices_and_a_reversed_edge_is_still_refused(monkeypatch):
    # as above, but the values computed under the override are asked for
    # again on an isomorphic copy: its lookups would hit the class table,
    # so the guards must price the copy's own plans and masks first
    monkeypatch.setattr(guards, "MAX_ASSIGNMENTS", 10)
    g = fresh(TRIANGLE)
    copy = _relabelled(g, (2, 3, 4, 5, 0, 1), reverse=0)
    assert sorted(_graph(copy)[1]) != sorted(_graph(g)[1])
    calls = [
        lambda h: count_class(h, OrientationClass.AO),
        lambda h: orientations.tbo_histogram(h),
        lambda h: orientations.unique_cw_counts(h),
        lambda h: orientations.tbo_generating_poly_formula(h),
        lambda h: enumeration.count_nz_tensions(h, 4),
        lambda h: enumeration.count_nz_balanced_flows(h, 3),
        lambda h: enumeration.poly_flow(h),
        lambda h: reciprocity.reciprocity_pairs_flow(h, 3),
        lambda h: reciprocity.integral_local_tension_reciprocity_pairs(h, 1),
        lambda h: reciprocity.quasi_integral_flows(h),
    ]
    monkeypatch.setenv("SURFGRAPH_GUARD_OVERRIDE", "1")
    for call in calls:
        call(g)
    monkeypatch.delenv("SURFGRAPH_GUARD_OVERRIDE")
    # the copy's graphs share g's classes, which hold the values
    for h, k in ((g, copy), (g.dual, copy.dual)):
        assert _graph(h) != _graph(k) and k._class_memo is h._class_memo
    assert g._class_memo and g.dual._class_memo
    for call in calls:
        with pytest.raises(TooLarge):
            call(copy)


def test_the_form_keeps_loops_parallel_edges_and_isolated_vertices():
    # a loop beside an edge, and two parallel edges, on two vertices
    loop = build(4, [(0, 2, 3), (1,)], [(0, 1), (2, 3)])
    digon = build(4, [(0, 2), (3, 1)], [(0, 1), (2, 3)])
    assert [g.num_vertices for g in (loop, digon)] == [2, 2]
    assert _class(loop) == (2, ((0, 1), (1, 1))) and _class(digon) == (2, ((0, 1), (0, 1)))
    # parallel edges count, and so do isolated vertices
    assert len({_class(g) for g in (BRIDGE, digon, THETA)}) == 3
    assert _class(ISOLATED) == (4, ((1, 2), (1, 3), (2, 3)))
    assert _class(TRIANGLE) == (3, ((0, 1), (0, 2), (1, 2)))
    # relabelling the vertices and turning edges around keep the form
    for g in [*SMALL, K5, TWO_COMPONENTS]:
        n = g.num_darts
        for reverse in range(g.num_edges):
            copy = _relabelled(g, [(d + 2) % n for d in range(n)], reverse)
            assert _class(copy) == _class(g)
    # past the price of its search a graph keeps its labelled key
    assert ribbonmap._FORM_PRICE < 40320
    cycle = [(v, (v + 1) % 8) for v in range(8)]
    assert ribbonmap._graph_form(8, cycle) == (8, tuple(cycle))


def test_the_census_graphs_fall_into_30_and_95_classes():
    # g and g* over the connected census: labelled graphs and classes
    for m, graphs, classes in ((4, 100, 30), (5, 599, 95)):
        hs = [h for g in generate(CorpusSpec(edges=m)) for h in (g, g.dual)]
        assert len(set(map(_graph, hs))) == graphs
        assert len(set(map(_class, hs))) == classes


def test_verify_computes_each_invariant_once_per_class(corpus, monkeypatch):
    # the pair polynomials, quasi fits, integral pairs, subset polynomials
    # and cw formulas each run once per class and key over the census,
    # and never twice for one map's verify on graphs already seen
    runs = []

    def spy(module, name, key):
        real = getattr(module, name)

        def run(*args):
            runs.append((name, key(*args)))
            return real(*args)

        monkeypatch.setattr(module, name, run)

    spy(reciprocity, "_pair_poly", lambda h, tension: (_class(h), tension))
    spy(reciprocity, "_fit_period", lambda h, degree, period: (_class(h), period))
    spy(reciprocity, "_integral_pairs", lambda h, k, bao: (_class(h), k))
    spy(enumeration, "_checked_sum", lambda h, kind, counts: (_class(h), kind))
    spy(orientations, "_cw_formula", lambda h: _class(h))
    maps = [fresh(g) for g in corpus]
    for g in maps:
        cli._verify_graph(g, 3)
    assert len(set(runs)) == len(runs)
    classes = {_class(h) for g in maps for h in (g, g.dual)}
    assert {key[0] for name, key in runs if name == "_checked_sum"} == classes
    assert {key for name, key in runs if name == "_cw_formula"} == {_class(g.dual) for g in maps}
    # a second census asks the table only
    runs.clear()
    for g in maps:
        cli._verify_graph(fresh(g), 3)
    assert runs == []
