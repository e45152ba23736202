"""Shared fixture maps and slow independent oracles for the test suite.

The maps here are frozen by hand from drawings; tests treat their
published invariants (Euler data, orientation censuses, polynomials)
as ground truth, so do not regenerate or reorder them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from surfgraph import (
    OrientationClass,
    RibbonGraph,
    abstract_contract,
    build,
    contract,
    count_class,
    delete,
    double_slash,
    dual,
    enumeration,
    from_json_dict,
    to_json_dict,
)

# One vertex, no edges: sphere with a single face.
EDGELESS = build(0, [], [], isolated_vertices=1)

# Single edge between two vertices (sphere, one face).
BRIDGE = build(2, [0, 1], [(0, 1)])

# Single contractible loop (sphere, two faces).
LOOP = build(2, [1, 0], [(0, 1)])

# Triangle drawn in the plane: V=3, F=2, genus 0.
TRIANGLE = build(6, [5, 2, 1, 4, 3, 0], [(0, 1), (2, 3), (4, 5)])

# Its dual: two vertices joined by three parallel edges.
THETA = dual(TRIANGLE)

# Two loops interleaved at one vertex: the square torus map, V=E-1=F=1.
TORUS = build(4, [2, 3, 1, 0], [(0, 1), (2, 3)])

# Genus-1 map with V=2, E=6, F=4.  Under the reference orientation the
# face pair {0, 1} has boundary {2, 3, 4, 5} with signed boundary
# (0, 0, 1, -1, 1, -1); tests pin that transcription.
KITE = build(
    12,
    [(0, 6, 2, 8, 1, 10, 3, 4), (11, 5, 7, 9)],
    [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)],
)

KITE_ANCHOR_FACES = frozenset({0, 1})
KITE_ANCHOR_BOUNDARY = frozenset({2, 3, 4, 5})
KITE_ANCHOR_SIGNED = (0, 0, 1, -1, 1, -1)

# Two vertices joined by two parallel edges, plus one loop at each;
# the face matrix of its dual is pinned by a test.
FACE_MATRIX_PRIMAL = build(
    8,
    [(0, 4, 6, 7), (1, 2, 3, 5)],
    [(0, 1), (2, 3), (4, 5), (6, 7)],
)

NAMED = {
    "edgeless": EDGELESS,
    "bridge": BRIDGE,
    "loop": LOOP,
    "triangle": TRIANGLE,
    "theta": THETA,
    "torus": TORUS,
    "kite": KITE,
}

SMALL = [EDGELESS, BRIDGE, LOOP, TRIANGLE, THETA, TORUS, KITE]


def fresh(g: RibbonGraph) -> RibbonGraph:
    """An equal map with nothing computed yet.

    Its per-map memo starts empty, so a test that spies on or breaks a
    route cannot be answered from what an earlier test stored on g.
    """
    return from_json_dict(to_json_dict(g))


def disjoint_union(a: RibbonGraph, b: RibbonGraph) -> RibbonGraph:
    n = a.num_darts
    return build(
        n + b.num_darts,
        list(a.sigma) + [d + n for d in b.sigma],
        list(a.edge_pairs) + [(t + n, h + n) for t, h in b.edge_pairs],
        isolated_vertices=a.isolated + b.isolated,
    )


# A triangle beside an isolated vertex, and a map with two components.
ISOLATED = disjoint_union(TRIANGLE, EDGELESS)
TWO_COMPONENTS = disjoint_union(TORUS, THETA)


def abstract_map(n: int, edges: list[tuple[int, int]]) -> RibbonGraph:
    """A map of the abstract graph on vertices 0..n-1, darts of each
    vertex in edge order: some rotation system, genus unspecified."""
    at = [[] for _ in range(n)]
    for i, (u, w) in enumerate(edges):
        at[u].append(2 * i)
        at[w].append(2 * i + 1)
    return build(2 * len(edges), at, [(2 * i, 2 * i + 1) for i in range(len(edges))])


# Anchors past the census: K5 (E = 10) and the Petersen graph (E = 15).
K5 = abstract_map(5, [(u, w) for u in range(5) for w in range(u + 1, 5)])
PETERSEN = abstract_map(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


@st.composite
def ribbon_maps(draw, max_edges=4):
    """Random rotations on up to max_edges edges, connected or not, with
    up to two isolated vertices."""
    m = draw(st.integers(0, max_edges))
    sigma = draw(st.permutations(list(range(2 * m))))
    pairs = tuple((2 * i, 2 * i + 1) for i in range(m))
    isolated = draw(st.integers(0, 2))
    return RibbonGraph(tuple(sigma), pairs, isolated=isolated)


# The surgery and the class of each reciprocity theorem.
SURGERY = {
    "tension": (delete, OrientationClass.AO),
    "flow": (abstract_contract, OrientationClass.TCO),
    "local-tension": (double_slash, OrientationClass.BAO),
    "balanced-flow": (contract, OrientationClass.TBO),
}


def surgery_pairs(g: RibbonGraph, kind: str, ks) -> list[int]:
    """Reciprocity pairs the long way, at each k in ks: the solutions
    with support A, times the class count of g surgered at A."""
    import numpy as np

    surgery, cls = SURGERY[kind]
    e = g.num_edges
    classes: dict[int, int] = {}
    out = []
    for k in ks:
        counts = enumeration._support_counts(
            enumeration._CONDITIONS[kind](g), np.arange(k, dtype=np.int64), e, k
        )
        total = 0
        for a in np.flatnonzero(counts).tolist():
            if a not in classes:  # edge i at bit e - 1 - i
                support = [i for i in range(e) if a >> (e - 1 - i) & 1]
                classes[a] = count_class(surgery(g, support), cls)
            total += int(counts[a]) * classes[a]
        out.append(total)
    return out


def proper_colorings(g: RibbonGraph, k: int) -> int:
    """Brute-force proper k-colorings of the underlying abstract graph."""
    n = g.num_vertices
    total = 0
    for coloring in itertools.product(range(k), repeat=n):
        if all(
            coloring[g.edge_tail_vertex(e)] != coloring[g.edge_head_vertex(e)]
            for e in range(g.num_edges)
        ):
            total += 1
    return total


def directed_walk_tbo(g: RibbonGraph, signs: tuple[int, ...]) -> bool:
    """Definitional totally-bi-walkable check via closed directed walks.

    Every edge must lie on some closed directed walk W such that no
    cocycle meets W in edges that all cross it the same way.  Walks are
    enumerated exhaustively up to 2|E|+2 steps, so keep this off
    anything bigger than three edges or so.
    """
    from surfgraph import cocycles

    m = g.num_edges
    if m == 0:
        return True
    arcs = []
    for e in range(m):
        t, h = g.edge_tail_vertex(e), g.edge_head_vertex(e)
        if signs[e] == -1:
            t, h = h, t
        arcs.append((t, h))
    # crossing direction of each cocycle edge under this orientation
    crossings = [
        {e: d * signs[e] for e, d in zip(c.edges, c.directions)}
        for c in cocycles(g)
    ]

    def bidirectional(edge_set: frozenset[int]) -> bool:
        for cross in crossings:
            met = {cross[e] for e in edge_set if e in cross}
            if len(met) == 1:
                return False
        return True

    limit = 2 * m + 2
    closed_edge_sets: set[frozenset[int]] = set()

    def extend(v0: int, v: int, used: frozenset[int], depth: int) -> None:
        if depth == limit:
            return
        for e, (t, h) in enumerate(arcs):
            if t == v:
                grown = used | {e}
                if h == v0:
                    closed_edge_sets.add(grown)
                extend(v0, h, grown, depth + 1)

    for v0 in range(g.num_vertices):
        extend(v0, v0, frozenset(), 0)
    good = {s for s in closed_edge_sets if bidirectional(s)}
    return all(any(e in s for s in good) for e in range(m))
