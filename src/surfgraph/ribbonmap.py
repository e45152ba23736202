"""Dart-based combinatorial maps.

A graph cellularly embedded in a closed orientable surface is stored as
a pair of permutations on darts 0..2m-1: sigma gives the counterclockwise
order of darts around each vertex (orbits = vertices) and alpha swaps the
two darts of each edge.  Faces are the orbits of phi = sigma o alpha.
Isolated vertices carry no darts and are tracked by count; each one is a
sphere component with a single face.

Each edge is stored as an ordered pair [tail_dart, head_dart]; that order
is the map's reference orientation.  With sigma counterclockwise, the
phi-orbit of a dart d is the face to the RIGHT of the directed edge
leaving through d, so an edge's right face is the orbit of its tail dart
and its left face is the orbit of its head dart.
"""

from __future__ import annotations

import json
from collections import Counter, OrderedDict
from functools import cached_property
from math import prod
from typing import Iterable, Sequence

from .errors import (
    BadPairing,
    InvalidCycle,
    NonPermutation,
    OddDartCount,
    UnknownEdge,
    UnknownFace,
)
from .records import Record


class EulerData(Record):
    _fields = ("v_count", "e_count", "f_count", "c", "g")

    def __init__(self, v_count: int, e_count: int, f_count: int, c: int, g: int):
        self._set(v_count=v_count, e_count=e_count, f_count=f_count, c=c, g=g)


class Cycle(Record):
    """Closed walk with pairwise-distinct edges in the underlying graph.

    Step i traverses edges[i] in directions[i] (+1 means tail to head)
    starting from vertices[i]; the walk closes back to vertices[0].
    Vertices may repeat, edges may not.
    """

    _fields = ("edges", "directions", "vertices")

    def __init__(
        self, edges: tuple[int, ...], directions: tuple[int, ...], vertices: tuple[int, ...]
    ):
        self._set(edges=edges, directions=directions, vertices=vertices)


class Cocycle(Record):
    """A cycle of the dual map, read on the primal.

    faces[i] and faces[i+1] (cyclically) are the two sides of edges[i];
    directions[i] = +1 when the cocycle crosses edges[i] from its right
    face to its left face, -1 the other way.
    """

    _fields = ("faces", "edges", "directions")

    def __init__(
        self, faces: tuple[int, ...], edges: tuple[int, ...], directions: tuple[int, ...]
    ):
        self._set(faces=faces, edges=edges, directions=directions)


class RibbonGraph(Record):
    """Immutable combinatorial map; all derived data is cached.

    Equality, hash and repr read sigma, edge_pairs and isolated; labels
    ride along.  The counting layers keep what reads the rotation (the
    canonical code) in `_memoised`, which dies with the map, and what
    reads only V and the edge ends of g or g* (cycles, forms, rows, plans,
    counts, census, class masks, pair polynomials, quasi fits) in
    `_graph_memoised`, shared by every map with the same graph.  Each
    caller runs its guards before the lookup and stores a read-only value
    once its cross-checks passed.
    """

    _fields = ("sigma", "edge_pairs", "isolated")

    def __init__(
        self,
        sigma: tuple[int, ...],
        edge_pairs: tuple[tuple[int, int], ...],
        isolated: int = 0,
        labels: dict | None = None,
    ):
        self._set(sigma=sigma, edge_pairs=edge_pairs, isolated=isolated, labels=labels)
        self.__post_init__()

    def __post_init__(self):
        """Normalize and validate the fields.  Kept apart from __init__ so
        that perfbench/tracer.py can time every map construction."""
        self._set(
            sigma=tuple(int(d) for d in self.sigma),
            edge_pairs=tuple((int(t), int(h)) for t, h in self.edge_pairs),
        )
        n = len(self.sigma)
        if n % 2 != 0:
            raise OddDartCount(f"{n} darts cannot be paired into edges")
        if sorted(self.sigma) != list(range(n)):
            raise NonPermutation("sigma is not a permutation of 0..{}".format(n - 1))
        seen = set()
        for t, h in self.edge_pairs:
            if t == h:
                raise BadPairing(f"dart {t} paired with itself")
            for d in (t, h):
                if not 0 <= d < n:
                    raise BadPairing(f"dart {d} outside 0..{n - 1}")
                if d in seen:
                    raise BadPairing(f"dart {d} appears in two edge pairs")
                seen.add(d)
        if len(seen) != n:
            raise BadPairing("edge pairs do not cover every dart")
        if self.isolated < 0:
            raise ValueError("negative isolated vertex count")

    # -- basic counts ---------------------------------------------------

    @property
    def num_darts(self) -> int:
        return len(self.sigma)

    @property
    def num_edges(self) -> int:
        return len(self.edge_pairs)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def genus(self) -> int:
        return self.euler.g

    # -- permutations and orbits ----------------------------------------

    @cached_property
    def alpha(self) -> tuple[int, ...]:
        a = [0] * self.num_darts
        for t, h in self.edge_pairs:
            a[t] = h
            a[h] = t
        return tuple(a)

    @cached_property
    def phi(self) -> tuple[int, ...]:
        return tuple(self.sigma[self.alpha[d]] for d in range(self.num_darts))

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Vertex dart orbits plus one empty tuple per isolated vertex."""
        return _orbits(self.sigma) + ((),) * self.isolated

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face dart orbits; isolated vertices each carry one empty face."""
        return _orbits(self.phi) + ((),) * self.isolated

    @cached_property
    def _vertex_of_dart(self) -> tuple[int, ...]:
        return _orbit_index(self.vertices, self.num_darts)

    @cached_property
    def _face_of_dart(self) -> tuple[int, ...]:
        return _orbit_index(self.faces, self.num_darts)

    def vertex_of_dart(self, d: int) -> int:
        return self._vertex_of_dart[d]

    def face_of_dart(self, d: int) -> int:
        return self._face_of_dart[d]

    @cached_property
    def _edge_ends(self) -> tuple[tuple[int, int], ...]:
        """(tail vertex, head vertex) of every edge."""
        at = self._vertex_of_dart
        return tuple((at[t], at[h]) for t, h in self.edge_pairs)

    # -- edge geometry ---------------------------------------------------

    def check_edge(self, e: int) -> int:
        if not isinstance(e, int) or not 0 <= e < self.num_edges:
            raise UnknownEdge(f"edge {e!r} outside 0..{self.num_edges - 1}")
        return e

    def edge_tail_vertex(self, e: int) -> int:
        return self.vertex_of_dart(self.edge_pairs[self.check_edge(e)][0])

    def edge_head_vertex(self, e: int) -> int:
        return self.vertex_of_dart(self.edge_pairs[self.check_edge(e)][1])

    def edge_right_face(self, e: int) -> int:
        return self.face_of_dart(self.edge_pairs[self.check_edge(e)][0])

    def edge_left_face(self, e: int) -> int:
        return self.face_of_dart(self.edge_pairs[self.check_edge(e)][1])

    def is_loop_edge(self, e: int) -> bool:
        return self.edge_tail_vertex(e) == self.edge_head_vertex(e)

    def is_coloop_edge(self, e: int) -> bool:
        """True when the edge borders the same face on both sides."""
        return self.edge_right_face(e) == self.edge_left_face(e)

    def is_bridge(self, e: int) -> bool:
        """True when deleting the edge leaves more components: no
        fundamental cycle uses it."""
        self.check_edge(e)
        return not any(e in c.edges for c in self._fundamental_cycles)

    # -- topology ---------------------------------------------------------

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        roots, _ = _spanning_forest(self.num_vertices, self._edge_ends)
        groups: dict[int, set[int]] = {}
        for v, r in enumerate(roots):
            groups.setdefault(r, set()).add(v)
        return tuple(frozenset(groups[r]) for r in sorted(groups))

    @cached_property
    def euler(self) -> EulerData:
        v, e, f = self.num_vertices, self.num_edges, self.num_faces
        c = self.num_components
        chi = v - e + f
        if chi % 2 != 0 or c - chi // 2 < 0:
            raise AssertionError(f"impossible Euler data V={v} E={e} F={f} c={c}")
        return EulerData(v, e, f, c, c - chi // 2)

    @cached_property
    def dual(self) -> "RibbonGraph":
        """Same darts and pairing, vertex rotation phi; labels dropped.  Its
        own dual is this map (phi o alpha = sigma), sharing its memo."""
        d = RibbonGraph(self.phi, self.edge_pairs, self.isolated)
        d.__dict__["dual"] = self
        return d

    # Enumerated structures are cached per graph; the module-level
    # functions below hand out fresh lists so callers cannot corrupt them.

    @property
    def _cycles(self) -> tuple[Cycle, ...]:
        return self._graph_memoised(("cycles",), lambda: tuple(_enumerate_cycles(self)))

    @property
    def _fundamental_cycles(self) -> tuple[Cycle, ...]:
        return self._graph_memoised(
            ("fundamental cycles",), lambda: tuple(_build_fundamental_cycles(self))
        )

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _memoised(self, key, compute):
        """The value stored under key, from compute() on its first use.

        compute() raising stores nothing, so a failed cross-check fails
        again on the next call.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @cached_property
    def _graph_memo(self) -> dict:
        """Its graph's values in _GRAPHS, marked recent; a graph dropped
        from the table has its values emptied."""
        key = (self.num_vertices, self._edge_ends)
        memo = _GRAPHS.pop(key, None)
        if memo is None:
            memo = {}
            if len(_GRAPHS) >= _GRAPHS_KEPT:
                _GRAPHS.popitem(last=False)[1].clear()
        _GRAPHS[key] = memo
        return memo

    def _graph_memoised(self, key, compute):
        """As _memoised, for a value of (V, edge ends) alone."""
        memo = self._graph_memo
        if key in memo:
            return memo[key]
        value = memo[key] = compute()
        return value


# Values per graph (V, edge ends), least recently used dropped first: the
# 18,872 maps g and g* at m = 6 have 4,684 graphs, and 1,024 keep most hits.
_GRAPHS_KEPT = 1024
_GRAPHS: OrderedDict[tuple, dict] = OrderedDict()


def _orbits(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        d = perm[start]
        while d != start:
            orb.append(d)
            seen[d] = True
            d = perm[d]
        out.append(tuple(orb))
    return tuple(out)


def _spanning_forest(
    n: int, edge_ends: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """Union-find over vertices 0..n-1 joined by the given (u, w) pairs.

    Returns the root of every vertex, which is the least vertex of its
    component, and the positions of the pairs that joined two components
    when taken in the given order: a spanning forest.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for i, (u, w) in enumerate(edge_ends):
        a, b = find(u), find(w)
        if a != b:
            parent[max(a, b)] = min(a, b)
            forest.append(i)
    return [find(v) for v in range(n)], forest


def _subset_census(h: RibbonGraph) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(|B|, sorted component sizes of (V, B), number of such B) over the
    2^E edge subsets B of h: the data behind every subset-sum formula,
    walked once per graph."""
    return h._graph_memoised(("subset census",), lambda: _census_walk(h))


def _census_walk(h: RibbonGraph) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Take or skip each edge in turn, carrying each vertex's component
    label (the least vertex of its component).  Subsets of equal size and
    labels have the same future, so they are counted as one state."""
    states = Counter({(0, tuple(range(h.num_vertices))): 1})
    for t, w in h._edge_ends:
        step: Counter[tuple[int, tuple[int, ...]]] = Counter()
        for (size, labels), n in states.items():
            step[size, labels] += n
            a, b = sorted((labels[t], labels[w]))
            if a != b:
                labels = tuple(a if x == b else x for x in labels)
            step[size + 1, labels] += n
        states = step
    census: Counter[tuple[int, tuple[int, ...]]] = Counter()
    for (size, labels), n in states.items():
        census[size, tuple(sorted(Counter(labels).values()))] += n
    return tuple((size, comps, n) for (size, comps), n in sorted(census.items()))


def _orbit_index(orbits: Sequence[tuple[int, ...]], n: int) -> tuple[int, ...]:
    idx = [-1] * n
    for i, orb in enumerate(orbits):
        for d in orb:
            idx[d] = i
    return tuple(idx)


def build(
    dart_count: int,
    sigma,
    edge_pairs,
    *,
    isolated_vertices: int = 0,
    labels: dict | None = None,
) -> RibbonGraph:
    """Validated construction; sigma may be flat or a list of vertex cycles.

    In cycle form an empty cycle denotes an isolated vertex and adds to
    isolated_vertices.
    """
    sigma = list(sigma)
    if sigma and not isinstance(sigma[0], int):
        flat, extra = _cycles_to_permutation(sigma, dart_count)
        isolated_vertices += extra
        sigma = flat
    if len(sigma) != dart_count:
        raise NonPermutation(
            f"sigma covers {len(sigma)} darts, expected {dart_count}"
        )
    return RibbonGraph(
        tuple(sigma),
        tuple(tuple(p) for p in edge_pairs),
        isolated_vertices,
        labels,
    )


def _cycles_to_permutation(cycles, dart_count: int) -> tuple[list[int], int]:
    perm = [-1] * dart_count
    isolated = 0
    for cyc in cycles:
        cyc = list(cyc)
        if not cyc:
            isolated += 1
            continue
        for i, d in enumerate(cyc):
            if not isinstance(d, int) or not 0 <= d < dart_count:
                raise NonPermutation(f"dart {d!r} outside 0..{dart_count - 1}")
            if perm[d] != -1:
                raise NonPermutation(f"dart {d} appears twice in sigma")
            perm[d] = cyc[(i + 1) % len(cyc)]
    if -1 in perm:
        raise NonPermutation(f"dart {perm.index(-1)} missing from sigma")
    return perm, isolated


def euler_data(g: RibbonGraph) -> EulerData:
    return g.euler


def dual(g: RibbonGraph) -> RibbonGraph:
    return g.dual


def _face_set(g: RibbonGraph, faces: Iterable[int]) -> frozenset[int]:
    fs = frozenset(faces)
    for f in fs:
        if not isinstance(f, int) or not 0 <= f < g.num_faces:
            raise UnknownFace(f"face {f!r} outside 0..{g.num_faces - 1}")
    return fs


def boundary(g: RibbonGraph, faces: Iterable[int]) -> frozenset[int]:
    """Edges with two distinct sides, exactly one of which is in the set:
    the support of the signed boundary."""
    return frozenset(e for e, x in enumerate(signed_boundary(g, faces)) if x)


def signed_boundary(
    g: RibbonGraph,
    faces: Iterable[int],
    signs: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """Signed boundary vector of a face set, in {0,+1,-1}^E.

    The face set induces a direction on each boundary edge (the direction
    with an in-set face on its left); entry +1 means that direction agrees
    with the given orientation (reference orientation when signs is None).
    """
    fs = _face_set(g, faces)
    at = g._face_of_dart
    if signs is None:
        signs = (1,) * g.num_edges
    return tuple(((at[h] in fs) - (at[t] in fs)) * s for (t, h), s in zip(g.edge_pairs, signs))


def face_matrix(g: RibbonGraph) -> tuple[tuple[int, ...], ...]:
    """Rows = signed boundaries of single faces w.r.t. the reference orientation."""
    return tuple(signed_boundary(g, (f,)) for f in range(g.num_faces))


# -- cycles and cocycles --------------------------------------------------


def cycles(g: RibbonGraph) -> list[Cycle]:
    """All simple cycles of the underlying graph, loops and 2-cycles included,
    their search priced on every call.

    Each cycle appears once; a cycle and its reversal are not distinguished.
    """
    from .guards import check_cycle_search  # not loaded to build a map

    check_cycle_search(_cycle_bound(g))
    return list(g._cycles)


def _cycle_bound(h: RibbonGraph) -> int:
    """Upper bound on the simple cycles of h: loops, pairs of parallel
    edges, and the at most 2^rank - 1 cycles of the simple graph
    underneath, each through at most V parallel classes."""
    loops = 0
    mult: Counter[tuple[int, int]] = Counter()
    for t, w in h._edge_ends:
        if t == w:
            loops += 1
        else:
            mult[min(t, w), max(t, w)] += 1
    rank = len(mult) - h.num_vertices + h.num_components
    widest = prod(sorted(mult.values(), reverse=True)[: h.num_vertices])
    pairs = sum(m * (m - 1) // 2 for m in mult.values())
    return loops + pairs + (2**rank - 1) * widest


def _enumerate_cycles(g: RibbonGraph) -> list[Cycle]:
    # vertex -> (edge, direction, other endpoint), by edge
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.num_vertices)]
    out: list[Cycle] = []
    seen: set[frozenset[int]] = set()
    for e, (u, w) in enumerate(g._edge_ends):
        adj[u].append((e, 1, w))
        adj[w].append((e, -1, u))
        if u == w:
            out.append(Cycle((e,), (1,), (u,)))

    def grow(start, verts, eds, dirs):
        v = verts[-1]
        for e, d, w in adj[v]:
            if e in eds_set or w == v:  # a loop is a cycle of its own
                continue
            if w == start and len(eds) >= 1:
                key = frozenset(eds + [e])
                if key not in seen:
                    seen.add(key)
                    out.append(
                        Cycle(tuple(eds + [e]), tuple(dirs + [d]), tuple(verts))
                    )
            elif w > start and w not in verts:
                eds_set.add(e)
                grow(start, verts + [w], eds + [e], dirs + [d])
                eds_set.remove(e)

    for s in range(g.num_vertices):
        eds_set: set[int] = set()
        grow(s, [s], [], [])
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def cocycles(g: RibbonGraph) -> list[Cocycle]:
    """Cycles of the dual, re-expressed over the faces of this graph.

    Face ids of g and vertex ids of dual(g) coincide (both index the same
    orbit family sorted by least dart), so the translation is direct.
    The search is priced on every call.
    """
    from .guards import check_cycle_search

    check_cycle_search(_cycle_bound(g.dual))
    return [Cocycle(c.vertices, c.edges, c.directions) for c in g.dual._cycles]


def check_cycle(g: RibbonGraph, cycle: Cycle) -> None:
    k = len(cycle.edges)
    if k == 0 or len(cycle.directions) != k or len(cycle.vertices) != k:
        raise InvalidCycle("cycle components have mismatched lengths")
    if len(set(cycle.edges)) != k:
        raise InvalidCycle("cycle repeats an edge")
    for i in range(k):
        e, d = cycle.edges[i], cycle.directions[i]
        if not 0 <= e < g.num_edges:
            raise InvalidCycle(f"edge {e} outside 0..{g.num_edges - 1}")
        if d not in (1, -1):
            raise InvalidCycle(f"direction {d!r} is not +1 or -1")
        t, h = g.edge_tail_vertex(e), g.edge_head_vertex(e)
        frm, to = (t, h) if d == 1 else (h, t)
        if frm != cycle.vertices[i] or to != cycle.vertices[(i + 1) % k]:
            raise InvalidCycle(f"step {i} does not connect its endpoints")


def fundamental_cycles(g: RibbonGraph) -> list[Cycle]:
    """A cycle basis from a spanning forest: one cycle per non-forest edge."""
    return list(g._fundamental_cycles)


def _build_fundamental_cycles(g: RibbonGraph) -> list[Cycle]:
    ends = g._edge_ends
    _, forest = _spanning_forest(g.num_vertices, ends)
    tree_adj: dict[int, list[tuple[int, int, int]]] = {
        v: [] for v in range(g.num_vertices)
    }
    for e in forest:
        u, w = ends[e]
        tree_adj[u].append((e, 1, w))
        tree_adj[w].append((e, -1, u))
    in_forest = set(forest)
    chords = [e for e in range(g.num_edges) if e not in in_forest]

    def tree_path(src, dst):
        # BFS in the forest; returns steps (edge, dir, from_vertex)
        prev: dict[int, tuple[int, int, int]] = {src: (-1, 0, -1)}
        queue = [src]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            if v == dst:
                break
            for e, d, w in tree_adj[v]:
                if w not in prev:
                    prev[w] = (e, d, v)
                    queue.append(w)
        steps = []
        v = dst
        while v != src:
            e, d, frm = prev[v]
            steps.append((e, d, frm))
            v = frm
        steps.reverse()
        return steps

    out = []
    for e in chords:
        u, w = ends[e]
        if u == w:
            out.append(Cycle((e,), (1,), (u,)))
            continue
        steps = tree_path(w, u)
        edges = (e,) + tuple(s[0] for s in steps)
        dirs = (1,) + tuple(s[1] for s in steps)
        verts = (u,) + tuple(s[2] for s in steps)
        out.append(Cycle(edges, dirs, verts))
    return out


# -- map file format --------------------------------------------------------


def from_json_dict(doc: dict) -> RibbonGraph:
    """Parse {"sigma": [[dart,...],...], "edges": [[tail,head],...], "labels"?}.

    Empty sigma cycles are isolated vertices.  Every dart 0..2m-1 must
    appear exactly once in sigma and exactly once in edges.
    """
    if not isinstance(doc, dict):
        raise NonPermutation("map document must be a JSON object")
    sigma_cycles = doc.get("sigma")
    edges = doc.get("edges")
    # type() rather than isinstance(): JSON true and false are Python bools.
    if not isinstance(sigma_cycles, list) or not all(
        isinstance(c, list) and all(type(d) is int for d in c) for c in sigma_cycles
    ):
        raise NonPermutation('"sigma" must be a list of cycles of integer darts')
    if not isinstance(edges, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(d) is int for d in p)
        for p in edges
    ):
        raise BadPairing('"edges" must be a list of [tail, head] integer dart pairs')
    dart_count = 2 * len(edges)
    return build(
        dart_count,
        [tuple(c) for c in sigma_cycles] if sigma_cycles else [],
        [tuple(p) for p in edges],
        labels=doc.get("labels"),
    )


def to_json_dict(g: RibbonGraph) -> dict:
    doc = {
        "sigma": [list(orb) for orb in g.vertices],
        "edges": [list(p) for p in g.edge_pairs],
    }
    if g.labels:
        doc["labels"] = g.labels
    return doc


def loads(text: str) -> RibbonGraph:
    return from_json_dict(json.loads(text))


def dumps(g: RibbonGraph) -> str:
    return json.dumps(to_json_dict(g))
