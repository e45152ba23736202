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
from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadPairing,
    DuplicateEdge,
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
    ride along.  Besides the cached properties below, the counting
    layers keep their per-map results in `_memo` through `_memoised`:
    class masks and their scan costs, condition matrices, mod-k scans,
    DP forms and counts, the subset census and components, and pair
    polynomials.
    They die with the map.  Each caller runs its guards before the
    lookup and stores a value only once its cross-checks passed; the
    stored values are read-only.
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
        self.check_edge(e)
        return delete(self, {e}).num_components > self.num_components

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

    # Enumerated structures are cached per instance; the module-level
    # functions below hand out fresh lists so callers cannot corrupt them.

    @cached_property
    def _cycles(self) -> tuple[Cycle, ...]:
        return tuple(_enumerate_cycles(self))

    @cached_property
    def _cocycles(self) -> tuple[Cocycle, ...]:
        return tuple(
            Cocycle(c.vertices, c.edges, c.directions) for c in self.dual._cycles
        )

    @cached_property
    def _fundamental_cycles(self) -> tuple[Cycle, ...]:
        return tuple(_build_fundamental_cycles(self))

    @cached_property
    def _face_matrix(self) -> tuple[tuple[int, ...], ...]:
        at = self._face_of_dart
        sides = [(at[t], at[h]) for t, h in self.edge_pairs]  # (right, left)
        return tuple(
            tuple(int(left == f) - int(right == f) for right, left in sides)
            for f in range(self.num_faces)
        )

    @cached_property
    def _canonical_code(self) -> bytes:
        comp_codes = []
        remaining = set(range(self.num_darts))
        while remaining:
            seed = min(remaining)
            comp = _dart_component(self, seed)
            remaining -= comp
            comp_codes.append(min(_code_from(self, s) for s in sorted(comp)))
        comp_codes.sort()
        text = ";".join(",".join(map(str, code)) for code in comp_codes)
        return f"{text}|{self.isolated}".encode()

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
    walked once per map."""
    return h._memoised(("subset census",), lambda: _census_walk(h))


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


def _subset_components(h: RibbonGraph) -> tuple[int, ...]:
    """c(B), the components of (V, B), for every edge subset B of h, edge e
    at bit E-1-e; walked once per map."""
    return h._memoised(("subset components",), lambda: _components_walk(h))


def _components_walk(h: RibbonGraph) -> tuple[int, ...]:
    """Skip, then take, each edge in turn, depth first, carrying each
    vertex's component label: the subsets come out in ascending order."""
    ends = h._edge_ends
    out: list[int] = []

    def walk(e: int, labels: tuple[int, ...], n: int) -> None:
        if e == len(ends):
            out.append(n)
            return
        walk(e + 1, labels, n)
        a, b = labels[ends[e][0]], labels[ends[e][1]]
        if a != b:
            labels, n = tuple(a if x == b else x for x in labels), n - 1
        walk(e + 1, labels, n)

    walk(0, tuple(range(h.num_vertices)), h.num_vertices)
    return tuple(out)


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


def _edge_set(g: RibbonGraph, edges: Iterable[int]) -> frozenset[int]:
    return frozenset(g.check_edge(e) for e in edges)


def delete(g: RibbonGraph, edges: Iterable[int]) -> RibbonGraph:
    """Remove edges; vertices stay (possibly becoming isolated).

    Remaining darts are renumbered consecutively in their old order, and
    remaining edges keep their relative order.
    """
    doomed = _edge_set(g, edges)
    if not doomed:
        return g
    dead_darts = {d for e in doomed for d in g.edge_pairs[e]}
    kept = [d for d in range(g.num_darts) if d not in dead_darts]
    new_id = {d: i for i, d in enumerate(kept)}
    sigma = []
    for d in kept:
        x = g.sigma[d]
        while x in dead_darts:
            x = g.sigma[x]
        sigma.append(new_id[x])
    pairs = [
        (new_id[t], new_id[h])
        for e, (t, h) in enumerate(g.edge_pairs)
        if e not in doomed
    ]
    emptied = sum(1 for orb in _orbits(g.sigma) if all(d in dead_darts for d in orb))
    return RibbonGraph(tuple(sigma), tuple(pairs), g.isolated + emptied)


def contract(g: RibbonGraph, edges: Iterable[int]) -> RibbonGraph:
    """Ribbon contraction, uniformly as dual-delete-dual."""
    doomed = _edge_set(g, edges)
    if not doomed:
        return g
    return delete(g.dual, doomed).dual


def double_slash(g: RibbonGraph, edges: Iterable[int]) -> RibbonGraph:
    """Process edges in order: contract coloops, delete everything else.

    Coloop status is decided on the current intermediate graph, not the
    input graph; an edge is a coloop when it borders one face twice.
    """
    order = [g.check_edge(e) for e in edges]
    if len(set(order)) != len(order):
        raise DuplicateEdge("repeated edge id in double_slash")
    cur = g
    cur_id = {e: e for e in order}
    for orig in order:
        c = cur_id.pop(orig)
        if cur.is_coloop_edge(c):
            cur = contract(cur, {c})
        else:
            cur = delete(cur, {c})
        cur_id = {o: (i - 1 if i > c else i) for o, i in cur_id.items()}
    return cur


def abstract_contract(g: RibbonGraph, edges: Iterable[int]) -> RibbonGraph:
    """Contraction of the underlying abstract graph (loops in the set vanish).

    Vertex classes are the components of the spanning subgraph on the given
    edges; remaining edges are re-rooted on the classes.  The result's
    rotation system is a canonical placeholder: only the abstract graph is
    meaningful, which suffices for every strong-connectivity consumer.
    """
    inner = _edge_set(g, edges)
    ends = g._edge_ends
    root_of, _ = _spanning_forest(g.num_vertices, [ends[e] for e in inner])
    roots = sorted(set(root_of))
    cls = {r: i for i, r in enumerate(roots)}
    kept = [e for e in range(g.num_edges) if e not in inner]
    darts_at: dict[int, list[int]] = {i: [] for i in range(len(roots))}
    pairs = []
    for j, e in enumerate(kept):
        tail, head = ends[e]
        u, w = cls[root_of[tail]], cls[root_of[head]]
        darts_at[u].append(2 * j)
        darts_at[w].append(2 * j + 1)
        pairs.append((2 * j, 2 * j + 1))
    sigma = [0] * (2 * len(kept))
    isolated = 0
    for i in range(len(roots)):
        ds = sorted(darts_at[i])
        if not ds:
            isolated += 1
            continue
        for a, b in zip(ds, ds[1:] + ds[:1]):
            sigma[a] = b
    return RibbonGraph(tuple(sigma), tuple(pairs), isolated)


def _face_set(g: RibbonGraph, faces: Iterable[int]) -> frozenset[int]:
    fs = frozenset(faces)
    for f in fs:
        if not isinstance(f, int) or not 0 <= f < g.num_faces:
            raise UnknownFace(f"face {f!r} outside 0..{g.num_faces - 1}")
    return fs


def boundary(g: RibbonGraph, faces: Iterable[int]) -> frozenset[int]:
    """Edges with two distinct sides, exactly one of which is in the set."""
    fs = _face_set(g, faces)
    out = set()
    for e in range(g.num_edges):
        r, l = g.edge_right_face(e), g.edge_left_face(e)
        if r != l and (r in fs) != (l in fs):
            out.add(e)
    return frozenset(out)


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
    out = []
    for e in range(g.num_edges):
        r, l = g.edge_right_face(e), g.edge_left_face(e)
        val = (1 if l in fs else 0) - (1 if r in fs else 0)
        if signs is not None:
            val *= signs[e]
        out.append(val)
    return tuple(out)


def face_matrix(g: RibbonGraph) -> tuple[tuple[int, ...], ...]:
    """Rows = signed boundaries of single faces w.r.t. the reference orientation."""
    return g._face_matrix


# -- cycles and cocycles --------------------------------------------------


def _adjacency(g: RibbonGraph) -> dict[int, list[tuple[int, int, int]]]:
    # vertex -> sorted (edge, direction, other endpoint)
    adj: dict[int, list[tuple[int, int, int]]] = {
        v: [] for v in range(g.num_vertices)
    }
    for e, (t, h) in enumerate(g.edge_pairs):
        u, w = g.vertex_of_dart(t), g.vertex_of_dart(h)
        adj[u].append((e, 1, w))
        adj[w].append((e, -1, u))
    for v in adj:
        adj[v].sort()
    return adj


def cycles(g: RibbonGraph) -> list[Cycle]:
    """All simple cycles of the underlying graph, loops and 2-cycles included.

    Each cycle appears once; a cycle and its reversal are not distinguished.
    """
    return list(g._cycles)


def _enumerate_cycles(g: RibbonGraph) -> list[Cycle]:
    adj = _adjacency(g)
    out: list[Cycle] = []
    seen: set[frozenset[int]] = set()
    for e, (t, h) in enumerate(g.edge_pairs):
        if g.vertex_of_dart(t) == g.vertex_of_dart(h):
            out.append(Cycle((e,), (1,), (g.vertex_of_dart(t),)))
            seen.add(frozenset((e,)))

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
    """
    return list(g._cocycles)


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


def is_separating(g: RibbonGraph, cycle: Cycle) -> bool:
    """True when contracting the cycle splits off a surface component."""
    check_cycle(g, cycle)
    return contract(g, set(cycle.edges)).num_components == g.num_components + 1


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


def canonical_code(g: RibbonGraph) -> bytes:
    """Relabeling-invariant encoding; equal iff maps are isomorphic.

    Per dart-component: breadth-first relabeling from every start dart,
    expanding sigma then alpha, keeping the lexicographically least
    relabeled (sigma, alpha) table.  Component codes are sorted and the
    isolated vertex count appended.
    """
    return g._canonical_code


def _dart_component(g: RibbonGraph, seed: int) -> set[int]:
    comp = {seed}
    stack = [seed]
    while stack:
        d = stack.pop()
        for nb in (g.sigma[d], g.alpha[d]):
            if nb not in comp:
                comp.add(nb)
                stack.append(nb)
    return comp


def _code_from(g: RibbonGraph, start: int) -> tuple[int, ...]:
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
