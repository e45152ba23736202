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

Candidates are rotation tuples sigma over the fixed pairing, since the
canonical code reads only sigma and alpha (alpha[d] = d ^ 1), and a
RibbonGraph is built only for each class yielded.  The labelled scan
over all (2m)! rotations stays for labelled maps (dedupe=False) and for
censuses that keep disconnected maps.

Maps with isolated vertices are not generated (any number could be
added to any map); the one exception is m = 0, which yields the single
one-vertex map.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator, Sequence

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


def _extensions(sigma: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every rotation made by adding one edge (a, b) to sigma, a and b new darts."""
    n = len(sigma)
    a, b = n, n + 1
    for x in range(n):
        s = [*sigma, a, b]
        s[x], s[a] = a, s[x]
        yield tuple(s)  # b a vertex of its own
        for y in range(n):  # y = a would mirror y = x
            t = s.copy()
            t[y], t[b] = b, s[y]
            yield tuple(t)


def canonical_code(g: RibbonGraph) -> bytes:
    """Relabeling-invariant encoding; equal iff maps are isomorphic.

    Per dart-component: the lexicographically least relabeled
    (sigma, alpha) table over breadth-first relabelings from every start
    dart, expanding sigma then alpha (`_least_code`).  Component codes
    are sorted and the isolated vertex count appended.  Kept in the
    map's memo.
    """
    return g._memoised(("canonical code",), lambda: _encode(g.sigma, g.alpha, g.isolated))


def _encode(sigma: Sequence[int], alpha: Sequence[int], isolated: int) -> bytes:
    comp_codes = []
    remaining = set(range(len(sigma)))
    while remaining:
        code, comp = _least_code(sigma, alpha, min(remaining))
        remaining.difference_update(comp)
        comp_codes.append(code)
    comp_codes.sort()
    text = ";".join(",".join(map(str, code)) for code in comp_codes)
    return f"{text}|{isolated}".encode()


def _least_code(
    sigma: Sequence[int], alpha: Sequence[int], seed: int
) -> tuple[tuple[int, ...], list[int]]:
    """The least breadth-first relabeled (sigma, alpha) table of the dart
    component of seed over its start darts, and the darts of that component.

    The search from seed runs first and to the end, so it labels the whole
    component, and its labelling order gives the other starts.  Each of
    them emits its table pair by pair as the search pops darts and is
    abandoned at the first pair above the best table so far; once a pair
    falls below it, the start runs to the end and becomes the best.  All
    tables of a component have the same length, so this is the
    lexicographic minimum (a pruned form of McKay's least-code search).
    """
    best: list[int] = []
    comp = [seed]
    for start in comp:  # the search from seed appends the rest of comp
        idx = [-1] * len(sigma)
        idx[start] = 0
        order = [start] if best else comp
        code: list[int] = []
        tied = bool(best)
        for d in order:  # order grows as the search labels new darts
            s, a = sigma[d], alpha[d]
            if idx[s] < 0:
                idx[s] = len(order)
                order.append(s)
            if idx[a] < 0:
                idx[a] = len(order)
                order.append(a)
            i, j = idx[s], idx[a]
            if tied:
                n = len(code)
                b = best[n], best[n + 1]
                if (i, j) > b:
                    break
                tied = (i, j) == b
            code += (i, j)
        else:
            if not tied:  # below the best, or the first start
                best = code
    return tuple(best), comp


def _classes(rotations: Iterable[tuple[int, ...]], m: int) -> dict[bytes, tuple[int, ...]]:
    """The first rotation seen of each isomorphism class of maps with the
    pairing (0 1)(2 3)... on 2m darts, keyed by canonical code."""
    alpha = tuple(d ^ 1 for d in range(2 * m))
    seen: dict[bytes, tuple[int, ...]] = {}
    for sigma in rotations:
        seen.setdefault(_encode(sigma, alpha, 0), sigma)
    return seen


def _census(m: int) -> dict[bytes, tuple[int, ...]]:
    """Rotations of the connected maps with m >= 1 edges, one per class,
    keyed by canonical code."""
    level = _classes([(1, 0), (0, 1)], 1)
    for j in range(2, m + 1):
        level = _classes((s for code in sorted(level) for s in _extensions(level[code])), j)
    return level


def _coded(sigma: tuple[int, ...], pairs: tuple[tuple[int, int], ...], code: bytes) -> RibbonGraph:
    """The map of a class, its dedupe key kept as its canonical code: both
    are _encode of its sigma, alpha and no isolated vertex."""
    g = RibbonGraph(sigma, pairs)
    g._memo[("canonical code",)] = code
    return g


def generate(spec: CorpusSpec) -> Iterator[RibbonGraph]:
    """Yield the maps admitted by spec in a deterministic order.

    With dedupe the order is by canonical code, and the connected census
    grows by edge extension; without it, rotation permutations are
    scanned lexicographically and every labeled map is yielded as
    encountered.  A map is built only for each rotation yielded, and a
    deduped one keeps the code it was deduped by.
    """
    m = spec.edges
    if spec.dedupe and spec.connected:
        check_generator_size(m)
    else:
        check_rotation_scan(m)
    pairs = tuple((2 * i, 2 * i + 1) for i in range(m))
    if m == 0:
        maps: Iterable[RibbonGraph] = [build(0, [], [], isolated_vertices=1)]
    elif not spec.dedupe:
        maps = (RibbonGraph(s, pairs) for s in itertools.permutations(range(2 * m)))
    else:
        classes = _census(m) if spec.connected else _classes(itertools.permutations(range(2 * m)), m)
        # popped as built, so the dict shrinks while the maps are consumed
        maps = (_coded(classes.pop(code), pairs, code) for code in sorted(classes))
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
