"""Exhaustive map generation and its censuses."""

import itertools

import pytest

from surfgraph import (
    CorpusSpec,
    RibbonGraph,
    SurfGraphError,
    TooLarge,
    canonical_code,
    corpus_stats,
    dual,
    generate,
)
from surfgraph.guards import _rooted_maps
from surfgraph.generator import _extensions

from mapzoo import ISOLATED, SMALL, TRIANGLE, TWO_COMPONENTS, code_from, disjoint_union, fresh

# connected maps up to isomorphism by edge count, checked against an
# independent hand count for m <= 2, the labelled scan for m <= 4 and
# the rooted-map count for m <= 5 (below)
CONNECTED_CENSUS = {0: 1, 1: 2, 2: 5, 3: 20, 4: 107, 5: 870}

# rooted maps with m edges, all genera: Walsh and Lehman (1972), OEIS A000698
ROOTED_MAPS = {1: 2, 2: 10, 3: 74, 4: 706, 5: 8162}


@pytest.fixture(scope="module")
def census():
    return {m: list(generate(CorpusSpec(edges=m))) for m in CONNECTED_CENSUS}


@pytest.fixture(scope="module")
def scanned():
    """Connected classes by a scan of every rotation system: {m: {code: genus}}."""
    out = {}
    for m in range(1, 5):
        pairs = tuple((2 * i, 2 * i + 1) for i in range(m))
        classes = {}
        for sigma in itertools.permutations(range(2 * m)):
            g = RibbonGraph(sigma, pairs)
            if g.euler.c == 1:
                classes.setdefault(canonical_code(g), g.euler.g)
        out[m] = classes
    return out


def test_connected_census(census):
    assert {m: len(maps) for m, maps in census.items()} == CONNECTED_CENSUS


def test_extension_census_equals_rotation_scan(census, scanned):
    for m, classes in scanned.items():
        assert [canonical_code(g) for g in census[m]] == sorted(classes)


def test_surface_filters_agree_with_rotation_scan(scanned):
    classes = scanned[4]

    def codes(**kw):
        return [canonical_code(g) for g in generate(CorpusSpec(edges=4, **kw))]

    for genus in range(3):
        assert codes(genus=genus) == sorted(c for c, g in classes.items() if g == genus)
    assert codes(planar=True) == sorted(c for c, g in classes.items() if g == 0)
    assert codes(planar=False) == sorted(c for c, g in classes.items() if g > 0)


def test_rooted_map_count(census):
    # A class with |Aut| automorphisms has 2m/|Aut| rootings; the
    # automorphisms fix the start dart of the least relabelling.
    for m, expect in ROOTED_MAPS.items():
        rooted = 0
        for g in census[m]:
            codes = [code_from(g, d) for d in range(2 * m)]
            aut = codes.count(min(codes))
            assert (2 * m) % aut == 0
            rooted += 2 * m // aut
        assert rooted == expect == _rooted_maps(m)


def _full_search_code(g):
    """canonical_code by the unpruned search: every start dart's whole
    relabeled table, the least kept per dart component (the darts of the
    vertices of each component of the map's union-find)."""
    comp_codes = []
    for comp in g.components:
        darts = [d for v in comp for d in g.vertices[v]]
        if darts:  # an isolated vertex counts only in the suffix
            comp_codes.append(min(code_from(g, s) for s in darts))
    text = ";".join(",".join(map(str, code)) for code in sorted(comp_codes))
    return f"{text}|{g.isolated}".encode()


def test_pruned_code_search_equals_the_full_search(census):
    # every candidate the census extends to, m <= 4, duplicates included
    candidates = [
        RibbonGraph(s, tuple((2 * i, 2 * i + 1) for i in range(m + 1)))
        for m in range(1, 4)
        for g in census[m]
        for s in _extensions(g.sigma)
    ]
    assert len(candidates) > len({canonical_code(h) for h in candidates})
    both = disjoint_union(TRIANGLE, fresh(TRIANGLE))
    for g in [*census[1], *candidates, *SMALL, ISOLATED, TWO_COMPONENTS, both]:
        assert canonical_code(fresh(g)) == _full_search_code(g), g


def test_the_census_builds_one_map_per_class(monkeypatch):
    # candidates stay rotation tuples; only the yielded classes become maps
    built = []
    real = RibbonGraph.__post_init__
    monkeypatch.setattr(RibbonGraph, "__post_init__", lambda g: built.append(g) or real(g))
    maps = list(generate(CorpusSpec(edges=5)))
    assert len(built) == len(maps) == CONNECTED_CENSUS[5]
    assert all(g is h for g, h in zip(built, maps))


def test_two_edge_stratification():
    stats = corpus_stats(generate(CorpusSpec(edges=2)))
    assert stats == {
        (1, 2, 1, 1, 1): 1,  # interleaved loops: the torus map
        (1, 2, 3, 1, 0): 1,  # nested loops
        (2, 2, 2, 1, 0): 2,  # double edge; loop with a pendant edge
        (3, 2, 1, 1, 0): 1,  # path
    }


def test_zero_edges():
    maps = list(generate(CorpusSpec(edges=0)))
    assert len(maps) == 1
    assert maps[0].num_vertices == 1
    assert maps[0].num_edges == 0


def test_surface_filters():
    planar = list(generate(CorpusSpec(edges=2, planar=True)))
    twisted = list(generate(CorpusSpec(edges=2, planar=False)))
    genus1 = list(generate(CorpusSpec(edges=2, genus=1)))
    assert len(planar) == 4
    assert len(twisted) == 1
    assert len(genus1) == 1
    assert canonical_code(twisted[0]) == canonical_code(genus1[0])


def test_no_dedupe_counts_labeled_maps():
    assert sum(1 for _ in generate(CorpusSpec(edges=2, dedupe=False))) == 20


def test_output_is_sorted_and_duplicate_free(census):
    for m, maps in census.items():
        codes = [canonical_code(g) for g in maps]
        assert codes == sorted(set(codes))
        for g in maps:
            assert g.euler.c == 1
            assert g.edge_pairs == tuple((2 * i, 2 * i + 1) for i in range(m))


def test_corpus_is_closed_under_duality():
    codes = {canonical_code(g) for g in generate(CorpusSpec(edges=3))}
    assert {canonical_code(dual(g)) for g in generate(CorpusSpec(edges=3))} == codes


def test_spec_validation():
    with pytest.raises(SurfGraphError):
        CorpusSpec(edges=-1)
    with pytest.raises(SurfGraphError):
        CorpusSpec(edges=2, genus=-3)


def test_generator_guard():
    with pytest.raises(TooLarge, match="18175932 candidate maps"):
        next(generate(CorpusSpec(edges=7)))
    with pytest.raises(TooLarge, match=r"\(2\*6\)! = 479001600 rotation systems"):
        next(generate(CorpusSpec(edges=6, dedupe=False)))
    with pytest.raises(TooLarge, match="rotation systems"):
        next(generate(CorpusSpec(edges=6, connected=False)))


def test_census_maps_keep_the_code_they_were_deduped_by():
    # the dedupe key is the canonical code, so no map yielded takes it again
    specs = [CorpusSpec(edges=m) for m in range(1, 6)]
    specs += [CorpusSpec(edges=m, connected=False) for m in range(1, 4)]
    for spec in specs:
        for g in generate(spec):
            assert ("canonical code",) in g._memo
            assert canonical_code(fresh(g)) == canonical_code(g)
