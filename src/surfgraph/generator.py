"""Exhaustive generation of small ribbon maps up to isomorphism.

Darts are 0..2m-1 with the edge pairing frozen as (0,1)(2,3)....  The
connected census grows by edge extension.  Every connected map with
m >= 2 edges has an edge whose removal leaves a connected map: a
non-bridge edge, or a leaf edge taken with its leaf.  So the m-edge
classes are the one-edge extensions of the (m-1)-edge classes, starting
from the loop and the single edge, deduplicated by canonical code.  A
new edge (a, b) cuts a in after some old dart x, then either cuts b in
after some old dart or makes b a vertex of its own: (2m-2)(2m-1)
candidates per parent.  Cutting b in right after a is left out: it is
the mirror of cutting b in right after x, which the loop reaches first.

The labelled scan over all (2m)! rotations stays for labelled maps
(dedupe=False) and for censuses that keep disconnected maps.

Maps with isolated vertices are not generated (any number could be
added to any map); the one exception is m = 0, which yields the single
one-vertex map.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator

from .errors import SurfGraphError
from .guards import check_generator_size, check_rotation_scan
from .records import Record
from .ribbonmap import RibbonGraph, build


class CorpusSpec(Record):
    """Selection predicate for the generated stream.

    planar=True keeps genus 0, planar=False keeps positive genus,
    None ignores the surface either way.
    """

    _fields = ("edges", "genus", "planar", "connected", "dedupe")

    def __init__(
        self,
        edges: int,
        genus: int | None = None,
        planar: bool | None = None,
        connected: bool = True,
        dedupe: bool = True,
    ):
        if not isinstance(edges, int) or edges < 0:
            raise SurfGraphError(f"edge count must be a nonnegative integer, got {edges!r}")
        if genus is not None and (not isinstance(genus, int) or genus < 0):
            raise SurfGraphError(f"genus must be a nonnegative integer or None, got {genus!r}")
        self._set(edges=edges, genus=genus, planar=planar, connected=connected, dedupe=dedupe)


def _admit(spec: CorpusSpec, g: RibbonGraph) -> bool:
    data = g.euler
    if spec.connected and data.c != 1:
        return False
    if spec.genus is not None and data.g != spec.genus:
        return False
    if spec.planar is True and data.g != 0:
        return False
    if spec.planar is False and data.g == 0:
        return False
    return True


def _labelled(m: int) -> Iterator[RibbonGraph]:
    """Every rotation system on 2m darts, in lexicographic order."""
    pairs = tuple((2 * i, 2 * i + 1) for i in range(m))
    for sigma in itertools.permutations(range(2 * m)):
        yield RibbonGraph(sigma, pairs)


def _extensions(g: RibbonGraph) -> Iterator[RibbonGraph]:
    """Every map made by adding one edge (a, b) to g, a and b new darts."""
    n = g.num_darts
    a, b = n, n + 1
    pairs = g.edge_pairs + ((a, b),)
    for x in range(n):
        sigma = [*g.sigma, a, b]
        sigma[x], sigma[a] = a, sigma[x]
        yield RibbonGraph(tuple(sigma), pairs)  # b a vertex of its own
        for y in range(n):  # y = a would mirror y = x
            s = sigma.copy()
            s[y], s[b] = b, sigma[y]
            yield RibbonGraph(tuple(s), pairs)


def _classes(maps: Iterable[RibbonGraph]) -> dict[bytes, RibbonGraph]:
    """The first map seen of each isomorphism class, keyed by canonical code."""
    seen: dict[bytes, RibbonGraph] = {}
    for g in maps:
        seen.setdefault(g._canonical_code, g)
    return seen


def _census(m: int) -> dict[bytes, RibbonGraph]:
    """Connected maps with m >= 1 edges, one per class, keyed by canonical code."""
    level = _classes([RibbonGraph((1, 0), ((0, 1),)), RibbonGraph((0, 1), ((0, 1),))])
    for _ in range(m - 1):
        level = _classes(h for code in sorted(level) for h in _extensions(level[code]))
    return level


def generate(spec: CorpusSpec) -> Iterator[RibbonGraph]:
    """Yield the maps admitted by spec in a deterministic order.

    With dedupe the order is by canonical code, and the connected census
    grows by edge extension; without it, rotation permutations are
    scanned lexicographically and every labeled map is yielded as
    encountered.
    """
    if spec.dedupe and spec.connected:
        check_generator_size(spec.edges)
    else:
        check_rotation_scan(spec.edges)
    if spec.edges == 0:
        maps: Iterable[RibbonGraph] = [build(0, [], [], isolated_vertices=1)]
    elif not spec.dedupe:
        maps = _labelled(spec.edges)
    else:
        classes = _census(spec.edges) if spec.connected else _classes(_labelled(spec.edges))
        maps = (classes[code] for code in sorted(classes))
    for g in maps:
        if _admit(spec, g):
            yield g


def corpus_stats(stream) -> dict[tuple[int, int, int, int, int], int]:
    """Histogram of (vertices, edges, faces, components, genus) tuples."""
    counts: Counter[tuple[int, int, int, int, int]] = Counter()
    for g in stream:
        d = g.euler
        counts[(d.v_count, d.e_count, d.f_count, d.c, d.g)] += 1
    return dict(sorted(counts.items()))
