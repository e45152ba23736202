"""The per-map memo: class masks and their scan costs, the TBO masks
per cw face, condition rows, mod-k counts, the DP's forms and column
plans, the nowhere-zero counts and the subset census are computed once
per map, after the guards and the cross-checks, and handed out
read-only.  The dual of g.dual is g itself, so nothing is computed again
on an equal copy of g.  The pair counters read g's own forbidden
subcubes, so verify builds no surgered map and takes no canonical code
beyond the one naming g in its report."""

import pytest

from surfgraph import (
    OrientationClass,
    TooLarge,
    cli,
    count_class,
    enumeration,
    generator,
    guards,
    orientations,
    reciprocity,
    ribbonmap,
)
from mapzoo import FACE_MATRIX_PRIMAL, ISOLATED, K5, SMALL, TRIANGLE, TWO_COMPONENTS, fresh

ZOO = [*SMALL, FACE_MATRIX_PRIMAL, ISOLATED, TWO_COMPONENTS, K5]

_CONDITIONS = ("tension", "all-cycles", "flow", "local-tension", "balanced-flow")


def _report(g, kmax=3):
    report = cli._verify_graph(g, kmax)
    del report["elapsed_s"]
    return report


def test_a_second_verify_on_the_same_map_gives_the_same_report(corpus):
    for g in [fresh(h) for h in corpus]:
        first = _report(g)
        assert first["all_pass"], first["graph"]
        assert _report(g) == first
    for g in [fresh(h) for h in ZOO]:
        assert _report(g) == _report(g)


def test_verify_computes_each_quantity_once(corpus, monkeypatch):
    masks, surgeries, scans, codes = [], [], [], []
    real_scan_class = orientations._scan_class
    real_count = enumeration._row_count

    def scan_class(g, cls):
        masks.append((g, cls))
        return real_scan_class(g, cls)

    def count(h, condition, k, nonzero):
        scans.append(((h, condition), nonzero, k))
        return real_count(h, condition, k, nonzero)

    def spy(log, real):
        return lambda *args: log.append(args) or real(*args)

    monkeypatch.setattr(orientations, "_scan_class", scan_class)
    monkeypatch.setattr(enumeration, "_row_count", count)
    for name in ("delete", "contract", "double_slash", "abstract_contract"):
        monkeypatch.setattr(reciprocity, name, spy(surgeries, getattr(reciprocity, name)))
    monkeypatch.setattr(generator, "_least_code", spy(codes, generator._least_code))

    for g in [fresh(h) for h in corpus]:
        generator.canonical_code(g)  # the report names g by its code
        for log in (masks, surgeries, scans, codes):
            log.clear()
        cli._verify_graph(g, 3)
        assert surgeries == [] and codes == []
        # the lists hold every map, so no id is reused meanwhile
        mask_keys = [(id(h), cls) for h, cls in masks]
        assert len(set(mask_keys)) == len(mask_keys)
        scan_keys = [((id(h), c), n, k) for (h, c), n, k in scans]
        assert len(set(scan_keys)) == len(scan_keys)
        # every condition is scanned at each k = 1..3, once
        per_matrix: dict[int, list[int]] = {}
        for key in scan_keys:
            per_matrix.setdefault(key[0], []).append(key[2])
        assert all(sorted(ks) == [1, 2, 3] for ks in per_matrix.values())
        assert {cls for h, cls in masks if h is g} == set(OrientationClass)
    # the same spies see a surgery, and the one it calls, and a code
    for log in (surgeries, codes):
        log.clear()
    reciprocity.double_slash(TRIANGLE, [0])
    generator.canonical_code(fresh(TRIANGLE))
    assert len(surgeries) == 2 and codes


def test_verify_scans_each_primitive_once(corpus, monkeypatch):
    # BAO(g) is TCO(g*) and TBO(g) is AO(g*): the six (map, class) masks
    # verify reads are the cycles and the cuts of g and of g*, four scans
    scans = []
    real = orientations._scan_class
    monkeypatch.setattr(
        orientations, "_scan_class", lambda g, cls: scans.append((g, cls)) or real(g, cls)
    )
    for g in [fresh(h) for h in corpus]:
        scans.clear()
        cli._verify_graph(g, 3)
        assert len(scans) == 4
        read = {(id(h), cycles) for h, cycles in (orientations._primitive(*s) for s in scans)}
        assert read == {(id(h), cycles) for h in (g, g.dual) for cycles in (False, True)}


def test_verify_builds_the_cw_face_masks_once(corpus, monkeypatch):
    # unique_cw_counts and the cw histogram read one tuple kept on g
    builds = []
    real = orientations._cw_cubes
    monkeypatch.setattr(orientations, "_cw_cubes", lambda g: builds.append(g) or real(g))
    for g in [fresh(h) for h in corpus]:
        builds.clear()
        cli._verify_graph(g, 3)
        assert len(builds) == 1 and builds[0] is g
        cw = orientations._tbo_cw(g)
        assert isinstance(cw, tuple) and orientations._tbo_cw(g) is cw and len(builds) == 1


def test_verify_builds_each_form_set_and_dp_count_once(corpus, monkeypatch):
    forms, counts, walks = [], [], []
    real_forms, real_count = enumeration._forms, enumeration._nz_count
    real_walk = ribbonmap._census_walk

    def build(h, flow):
        forms.append((h, flow))
        return real_forms(h, flow)

    def count(h, k, flow):
        counts.append((h, k, flow))
        return real_count(h, k, flow)

    def walk(h):
        walks.append(h)
        return real_walk(h)

    monkeypatch.setattr(enumeration, "_forms", build)
    monkeypatch.setattr(enumeration, "_nz_count", count)
    monkeypatch.setattr(ribbonmap, "_census_walk", walk)
    for g in [fresh(h) for h in [*corpus, *ZOO]]:
        forms.clear()
        counts.clear()
        walks.clear()
        cli._verify_graph(g, 3)
        # all of it on g or g.dual, none on g.dual.dual built afresh
        built = [h for h, _ in forms] + [h for h, _, _ in counts] + walks
        assert all(h is g or h is g.dual for h in built)
        # four polynomials and the cw formula: one census walk each of g and g*
        assert sorted(map(id, walks)) == sorted([id(g), id(g.dual)])
        # the lists hold every map, so no id is reused meanwhile
        form_keys = [(id(h), flow) for h, flow in forms]
        assert len(set(form_keys)) == len(form_keys)
        count_keys = [(id(h), k, flow) for h, k, flow in counts]
        assert len(set(count_keys)) == len(count_keys)
        # tensions and flows of g, each at k = 1..3, are DP counts
        assert {(k, flow) for h, k, flow in counts if h is g} == {
            (k, flow) for k in (1, 2, 3) for flow in (False, True)
        }
        assert {flow for h, flow in forms if h is g} == {False, True}


def test_verify_prices_each_class_once_and_guards_every_scan(corpus, monkeypatch):
    priced, bounds, masks, guarded = [], [], [], []
    real_cost, real_bound = orientations._scan_cost, orientations._cycle_bound
    real_mask, real_guard = orientations._class_mask, orientations.check_class_scan

    def cost(g, cls):
        priced.append((g, cls))
        return real_cost(g, cls)

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
    for g in [fresh(h) for h in [*corpus, *ZOO]]:
        for log in (priced, bounds, masks, guarded):
            log.clear()
        cli._verify_graph(g, 3)
        # the lists hold every map, so no id is reused meanwhile
        cycle_classes = (OrientationClass.AO, OrientationClass.TBO)
        once = {(id(h), cls) for h, cls in priced if cls in cycle_classes}
        assert len(bounds) == len(once) and len(priced) > len(once)
        assert len(guarded) == len(masks) > len({(id(h), cls) for h, cls in masks})
        # a second verify reads every price from the memo, but guards again
        first = len(guarded)
        cli._verify_graph(g, 3)
        assert len(bounds) == len(once) and len(guarded) == len(masks) > first


def test_memoised_arrays_are_read_only():
    # A class mask is an int and a row set a tuple of tuples, immutable:
    # the memo hands out the same one.
    g = fresh(TRIANGLE)
    for cls in OrientationClass:
        mask = orientations._class_mask(g, cls)
        assert isinstance(mask, int)
        assert orientations._class_mask(g, cls) is mask
    for condition in _CONDITIONS:
        rows = enumeration._rows(g, condition)
        assert enumeration._rows(g, condition) is rows
        assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
        with pytest.raises(TypeError):
            rows[0] = ()
    # a DP's column plan is tuples all the way down, so it hashes
    plans = [(enumeration._row_plan, condition) for condition in _CONDITIONS]
    plans += [(enumeration._fundamental_plan, flow) for flow in (False, True)]
    for plan_of, arg in plans:
        plan = plan_of(g, arg)
        assert plan_of(g, arg) is plan and isinstance(hash(plan), int)


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
    real_count = enumeration._row_count

    def off_by_one(h, condition, *args):
        return real_count(h, condition, *args) + (condition == "all-cycles")

    monkeypatch.setattr(enumeration, "_row_count", off_by_one)
    for _ in range(2):
        with pytest.raises(AssertionError, match="all-cycles count"):
            enumeration.count_nz_tensions(g, 2)


def test_a_result_computed_under_the_override_is_still_refused_without_it(monkeypatch):
    # 3 edges pass no scan under a 10-test guard: 3^3 rows, 2^3 masks x patterns
    monkeypatch.setattr(guards, "MAX_ASSIGNMENTS", 10)
    g = fresh(TRIANGLE)
    calls = [
        lambda: count_class(g, OrientationClass.AO),
        lambda: orientations.tbo_histogram(g),
        lambda: orientations.unique_cw_counts(g),
        lambda: enumeration.count_nz_tensions(g, 3),
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
