"""Shared fixture maps and slow independent oracles for the test suite.

The maps here are frozen by hand from drawings; tests treat their
published invariants (Euler data, orientation censuses, polynomials)
as ground truth, so do not regenerate or reorder them.

The oracles include brute-force numpy scans of the condition matrices,
which the library's frontier DP must reproduce: every assignment row of
a value set, in blocks, kept where the matrix kills it; the all-cycles
matrix, one row per simple cycle, is the paper's definition of a
tension.  `every_edge_on_directed_cycle` and `directed_walk_tbo` read
TCO and TBO by their definitions, for the class masks and predicates.
`code_from` relabels a map from one start dart with no pruning, for the
canonical code.  `lagrange` interpolates over Fractions, for the
library's integer interpolation and quasipolynomial fits.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from hypothesis import strategies as st

from surfgraph import (
    OrientationClass,
    RibbonGraph,
    abstract_contract,
    all_orientations,
    build,
    contract,
    count_class,
    cycles,
    delete,
    double_slash,
    dual,
    face_matrix,
    from_json_dict,
    fundamental_cycles,
    is_boundary_acyclic,
    to_json_dict,
)
from surfgraph import ribbonmap
from surfgraph.errors import NonIntegerCoefficients
from surfgraph.polynomials import ipoly_add, ipoly_mul

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
    What reads only its graph is shared with every map of that graph,
    and every invariant with every isomorphic graph, until
    `forget_graphs`.
    """
    return from_json_dict(to_json_dict(g))


def forget_graphs() -> None:
    """Empty the values of every labelled graph and every isomorphism
    class in the two shared tables, also where a map holds them, so that
    each graph-keyed and each invariant value is computed again."""
    for table in (ribbonmap._GRAPHS, ribbonmap._CLASSES):
        for memo in table.values():
            memo.clear()


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


def code_from(g: RibbonGraph, start: int) -> tuple[int, ...]:
    """The full breadth-first relabeled (sigma, alpha) table from one start
    dart, expanding sigma then alpha: the canonical code's oracle, with
    no pruning."""
    idx = {start: 0}
    order = [start]
    qi = 0
    while qi < len(order):
        d = order[qi]
        qi += 1
        for nb in (g.sigma[d], g.alpha[d]):
            if nb not in idx:
                idx[nb] = len(order)
                order.append(nb)
    return tuple(x for d in order for x in (idx[g.sigma[d]], idx[g.alpha[d]]))


# -- exact interpolation over fractions -----------------------------------------


def trim(coeffs: Sequence[int | Fraction]) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out or [Fraction(0)]


def lagrange(points: Sequence[tuple[int, int | Fraction]]) -> list[Fraction]:
    """Exact interpolating polynomial through distinct-x points, summed
    over Fractions basis polynomial by basis polynomial: the oracle for
    the library's integer interpolation."""
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x")
    result: list[int | Fraction] = [0]
    for i, (xi, yi) in enumerate(points):
        basis: list[int | Fraction] = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = ipoly_mul(basis, [-xj, 1])  # times (x - xj)
            denom *= xi - xj
        scale = Fraction(yi) / denom
        result = ipoly_add(result, [scale * b for b in basis])
    return trim(result)


def as_int_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise NonIntegerCoefficients(f"coefficient {c} is not an integer")
        out.append(int(c))
    return out


# -- condition matrices and brute-force scans ---------------------------------

CHUNK = 1 << 18  # assignment rows per block


def _cycle_matrix(g: RibbonGraph, cycs) -> np.ndarray:
    m = np.zeros((len(cycs), g.num_edges), dtype=np.int64)
    for i, c in enumerate(cycs):
        for e, d in zip(c.edges, c.directions):
            m[i, e] += d
    return m


def tension_matrix(g: RibbonGraph) -> np.ndarray:
    return _cycle_matrix(g, fundamental_cycles(g))


def all_cycles_matrix(g: RibbonGraph) -> np.ndarray:
    return _cycle_matrix(g, cycles(g))


def incidence_matrix(g: RibbonGraph) -> np.ndarray:
    """Vertices x edges; +1 at the head, -1 at the tail, 0 on loops."""
    m = np.zeros((g.num_vertices, g.num_edges), dtype=np.int64)
    for e in range(g.num_edges):
        m[g.edge_head_vertex(e), e] += 1
        m[g.edge_tail_vertex(e), e] -= 1
    return m


def local_tension_matrix(g: RibbonGraph) -> np.ndarray:
    return np.array(face_matrix(g), dtype=np.int64).reshape(g.num_faces, g.num_edges)


def balanced_flow_matrix(g: RibbonGraph) -> np.ndarray:
    # Cocycle sums over a generating set: cycles of the dual share edge ids.
    return np.vstack([incidence_matrix(g), _cycle_matrix(g, fundamental_cycles(dual(g)))])


CONDITIONS = {
    "tension": tension_matrix,
    "all-cycles": all_cycles_matrix,
    "flow": incidence_matrix,
    "local-tension": local_tension_matrix,
    "balanced-flow": balanced_flow_matrix,
}


def grid(values: np.ndarray, width: int) -> np.ndarray:
    """All rows of values^width, in lexicographic order."""
    n = len(values)
    return values[np.indices((n,) * width).reshape(width, n**width).T]


def grid_blocks(values: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """All rows of values^width, in lexicographic order, in blocks of at
    most CHUNK rows: one grid over the last coordinates, built once, under
    each tuple of the leading ones.  Every block is the same buffer,
    overwritten by the next one.
    """
    n = len(values)
    low = 0
    while low < width and n ** (low + 1) <= CHUNK:
        low += 1
    high = width - low
    block = np.empty((n**low, width), dtype=np.int64)
    block[:, high:] = grid(values, low)
    for head in itertools.product(values.tolist(), repeat=high):
        block[:, :high] = head
        yield block


def solutions(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> Iterator[np.ndarray]:
    """The rows x of values^width with matrix @ x = 0 (mod modulus, if any),
    in lexicographic order, in blocks of at most CHUNK rows.
    """
    for block in grid_blocks(values, width):
        prod = block @ matrix.T
        if modulus is not None:
            prod %= modulus
        yield block[~prod.any(axis=1)]


def count_solutions(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> int:
    return sum(len(rows) for rows in solutions(matrix, values, width, modulus))


def support_counts(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> np.ndarray:
    """counts[mask] = solutions nonzero exactly on mask (edge i at bit width-1-i)."""
    out = np.zeros(1 << width, dtype=np.int64)
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    for rows in solutions(matrix, values, width, modulus):
        out += np.bincount((rows != 0) @ weights, minlength=1 << width)
    return out


def signed_pattern_counts(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> np.ndarray:
    """counts[code] = solutions with sign pattern code, base-3 digits sign+1."""
    out = np.zeros(3**width, dtype=np.int64)
    weights = 3 ** np.arange(width, dtype=np.int64)
    for rows in solutions(matrix, values, width, modulus):
        out += np.bincount((np.sign(rows) + 1) @ weights, minlength=3**width)
    return out


def mod_values(k: int, nonzero: bool) -> np.ndarray:
    return np.arange(1 if nonzero else 0, k, dtype=np.int64)


def box_values(k: int) -> np.ndarray:
    vals = np.arange(-(k - 1), k, dtype=np.int64)
    return vals[vals != 0]


def box_join(matrix: np.ndarray, width: int, ks: Sequence[int]) -> list[int]:
    """counts[i] = nowhere-zero integer rows x with |x(e)| < ks[i] and
    matrix @ x = 0, for ascending ks >= 1.

    Meet in the middle (Horowitz and Sahni, J. ACM 1974): x solves the
    system exactly when the sums of its first width // 2 columns equal the
    negated sums of the rest.  The left half-box, at most the square root
    of the whole box, is grouped by those sums and by the first ks[b] whose
    box holds the half-row; the right half-box streams past in blocks of at
    most CHUNK rows.  Memory is the left half-box plus one block.
    """
    ks = np.asarray(ks, dtype=np.int64)
    nb = len(ks)
    values = box_values(int(ks[-1]))
    half = width // 2

    def first_box(rows: np.ndarray) -> np.ndarray:
        # b such that the rows lie in the boxes of ks[b:] and no other
        return np.searchsorted(ks, np.abs(rows).max(axis=1, initial=0), "right")

    left = grid(values, half)
    keys, group = np.unique(left @ matrix[:, :half].T, axis=0, return_inverse=True)
    # cells: occurring (group, b) codes, group-major; below[i]: rows before i
    cells, sizes = np.unique(group.reshape(-1) * nb + first_box(left), return_counts=True)
    below = np.concatenate([[0], sizes.cumsum()])
    slot = np.arange(len(keys))
    first = np.zeros(nb, dtype=np.int64)  # pairs first counted at ks[b]
    later = np.zeros(len(cells) + 1, dtype=np.int64)  # right rows, by left cell
    for block in grid_blocks(values, width - half):
        sums = -(block @ matrix[:, half:].T)
        both, where = np.unique(np.vstack([keys, sums]), axis=0, return_inverse=True)
        where = where.reshape(-1)
        found = np.full(len(both), -1)
        found[where[: len(keys)]] = slot
        g = found[where[len(keys) :]]
        hit = g >= 0
        g, b = g[hit], first_box(block[hit])
        start = np.searchsorted(cells, g * nb, "left")
        upto = np.searchsorted(cells, g * nb + b, "right")
        end = np.searchsorted(cells, g * nb + nb, "left")
        # left half-rows whose box is no later: the pair starts at ks[b]
        np.add.at(first, b, below[upto] - below[start])
        # later left cells of the group, upto..end-1: it starts at theirs
        later += np.bincount(upto, minlength=len(cells) + 1)
        later -= np.bincount(end, minlength=len(cells) + 1)
    np.add.at(first, cells % nb, sizes * later.cumsum()[:-1])
    return first.cumsum().tolist()


def integral_pairs(g: RibbonGraph, k: int) -> int:
    """Integral local tension reciprocity pairs the long way: the integer
    local tensions with |t| <= k by sign pattern, times the BAOs of g
    whose signs agree with the pattern where it is nonzero."""
    width = g.num_edges

    def bits(signs, sign):  # edge e at bit e
        return sum(1 << e for e, s in enumerate(signs) if s == sign)

    bao = [bits(o.signs, -1) for o in all_orientations(g) if is_boundary_acyclic(g, o)]
    vals = np.arange(-k, k + 1, dtype=np.int64)
    pattern = signed_pattern_counts(local_tension_matrix(g), vals, width, None)
    total = 0
    for code in np.flatnonzero(pattern).tolist():
        signs = [code // 3**e % 3 - 1 for e in range(width)]
        fixed, minus = bits(signs, 1) | bits(signs, -1), bits(signs, -1)
        total += int(pattern[code]) * sum(r & fixed == minus for r in bao)
    return total


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
    surgery, cls = SURGERY[kind]
    e = g.num_edges
    classes: dict[int, int] = {}
    out = []
    for k in ks:
        counts = support_counts(CONDITIONS[kind](g), np.arange(k, dtype=np.int64), e, k)
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


def every_edge_on_directed_cycle(g: RibbonGraph, signs: Sequence[int]) -> bool:
    """Definitional totally-cyclic check: each edge, directed u -> w by
    its sign, lies on a directed cycle, so u is reachable from w."""
    arcs = []
    for e, s in enumerate(signs):
        t, h = g.edge_tail_vertex(e), g.edge_head_vertex(e)
        arcs.append((t, h) if s == 1 else (h, t))
    for u, w in arcs:
        seen, stack = {w}, [w]
        while stack:
            v = stack.pop()
            for a, b in arcs:
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if u not in seen:
            return False
    return True


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
