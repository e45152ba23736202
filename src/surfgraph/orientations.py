"""Edge orientations and their four classes.

An orientation assigns each edge +1 (keep the reference direction, tail
dart to head dart) or -1 (reverse it).  The classes:

  AO   acyclic: no directed cycle.
  TCO  totally cyclic: no coherently directed nonempty cut, equivalently
       every component strongly connected.
  BAO  boundary acyclic: no face set whose signed boundary is coherent,
       equivalently the carried-over orientation of the dual g* is TCO.
  TBO  totally bi-walkable: no coherently directed cocycle, equivalently
       the carried-over orientation of the dual g* is AO.

Class counts and enumerations scan all 2^E orientations at once as sign
masks r in [0, 2^E), in `all_orientations` order: edge 0 is the most
significant bit, and a set bit means sign -1.  A set of masks is one
Python int whose bit r stands for mask r, so a scan is a few bitwise
operations on 2^E-bit ints and loads no numpy.  A coherent structure
whose edges must carry given signs forbids the subcube of masks with
r & X == P, where X holds its edges and P those that must be -1.  Each
class forbids coherent cycles or coherent cuts, of g or of g*
(`_primitive`), and is computed by two routes over all the masks:

  class  forbidden subcubes (cycles both ways)     graph search
  AO     directed cycles of g                       Kahn peel on g
  TCO    coherent cut sides of g                    reachability on g
  BAO    coherent cut sides of g* (face sets of g)  reachability on g*
  TBO    directed cycles of g* (cocycles of g)      Kahn peel on g*

The reciprocity pair counters in `reciprocity` read the same subcubes
(`_support_classes`): those that miss an edge set A give the class of g
surgered at A, on the sign vectors off A.  The per-orientation
predicates `is_*` compute their own characterizations in plain Python
and serve as oracles for the engine: AO by a Kahn peel, and TCO, BAO and
TBO each by a scan of the coherent cuts, face sets or cocycles of g
against a search on g or g*.  The definitional readings (every edge on a
directed cycle, on a bi-walkable closed walk) are census oracles in the
tests.  Whenever two routes are computed they are compared, and any
disagreement raises; that cross-check is part of the contract, not a
debugging aid.  A class mask reads only its primitive's vertex count and
edge ends, so one that passed it is kept on the primitive's graph (an
int, so read-only), under "cycles" or "cuts": BAO(g) is TCO(g*) and
TBO(g) is AO(g*), so the four classes of g and the four of g* are four
scans, shared by every map of a census with the same graphs.  The cost
estimate its guard reads, and the TBO masks per cw face (read on g*),
are kept the same way; the guards still run on every call.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from itertools import product
from operator import and_, or_
from typing import Iterator, Sequence

from . import ribbonmap
from .errors import GraphMismatch
from .guards import check_class_scan, check_orientation_scan, check_subset_poly
from .records import Record
from .ribbonmap import RibbonGraph, _cycle_bound


class Orientation(Record):
    _fields = ("graph", "signs")

    def __init__(self, graph: RibbonGraph, signs: tuple[int, ...]):
        signs = tuple(int(s) for s in signs)
        self._set(graph=graph, signs=signs)
        if len(signs) != graph.num_edges:
            raise GraphMismatch(f"{len(signs)} signs for {graph.num_edges} edges")
        if any(s not in (1, -1) for s in signs):
            raise GraphMismatch("orientation signs must be +1 or -1")

    def reverse(self) -> "Orientation":
        return Orientation(self.graph, tuple(-s for s in self.signs))

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """Directed (from_vertex, to_vertex) of edge e under this orientation."""
        u = self.graph.edge_tail_vertex(e)
        w = self.graph.edge_head_vertex(e)
        return (u, w) if self.signs[e] == 1 else (w, u)


class OrientationClass(Enum):
    AO = "ao"
    TCO = "tco"
    BAO = "bao"
    TBO = "tbo"


def orientation_to_string(o: Orientation) -> str:
    return "".join("+" if s == 1 else "-" for s in o.signs)


def orientation_from_string(g: RibbonGraph, text: str) -> Orientation:
    """Parse '+'/'-' (ASCII hyphen or U+2212 minus), one per edge."""
    signs = []
    for ch in text:
        if ch == "+":
            signs.append(1)
        elif ch in "-−":
            signs.append(-1)
        else:
            raise GraphMismatch(f"orientation character {ch!r} is not + or -")
    return Orientation(g, tuple(signs))


def _check(g: RibbonGraph, o: Orientation) -> None:
    if o.graph != g:
        raise GraphMismatch("orientation belongs to a different graph")


def _directed_pairs(g: RibbonGraph, signs: Sequence[int]) -> list[tuple[int, int]]:
    return [(u, w) if s == 1 else (w, u) for (u, w), s in zip(g._edge_ends, signs)]


def is_acyclic(g: RibbonGraph, o: Orientation) -> bool:
    """No directed cycle; a directed loop or 2-cycle counts as one."""
    _check(g, o)
    return _acyclic(g, o.signs)


def _acyclic(g: RibbonGraph, signs: Sequence[int]) -> bool:
    n = g.num_vertices
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, w in _directed_pairs(g, signs):
        if u == w:
            return False
        out[u].append(w)
        indeg[w] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return done == n


def is_totally_cyclic(g: RibbonGraph, o: Orientation) -> bool:
    """No coherent nonempty cut; cross-checked via strong connectivity."""
    _check(g, o)
    a = _no_coherent_cut(g, o.signs)
    b = _components_strongly_connected(g, o.signs)
    if a != b:
        raise AssertionError(
            f"cut scan ({a}) and strong connectivity ({b}) disagree "
            f"on {orientation_to_string(o)}"
        )
    return a


def _no_coherent_cut(g: RibbonGraph, signs: Sequence[int]) -> bool:
    # Scan one side of every cut within each component; a coherent cut
    # pointing into the chosen side is caught by its complement.
    pairs = _directed_pairs(g, signs)
    for comp in g.components:
        verts = sorted(comp)
        if len(verts) < 2:
            continue
        check_orientation_scan(len(verts))
        local = [
            (u, w) for u, w in pairs if u in comp or w in comp
        ]
        for bits in range(1, (1 << len(verts)) - 1):
            side = {verts[i] for i in range(len(verts)) if bits >> i & 1}
            outgoing = incoming = 0
            for u, w in local:
                if (u in side) != (w in side):
                    if u in side:
                        outgoing += 1
                    else:
                        incoming += 1
            if outgoing > 0 and incoming == 0:
                return False
    return True


def _out_lists(n: int, pairs: Sequence[tuple[int, int]]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n)]
    for u, w in pairs:
        out[u].append(w)
    return out


def _reach(out: list[list[int]], start: int) -> set[int]:
    """Vertices reachable from start along the directed out-lists."""
    seen = {start}
    stack = [start]
    while stack:
        for w in out[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _components_strongly_connected(g: RibbonGraph, signs: Sequence[int]) -> bool:
    pairs = _directed_pairs(g, signs)
    fwd = _out_lists(g.num_vertices, pairs)
    bwd = _out_lists(g.num_vertices, [(w, u) for u, w in pairs])
    for comp in g.components:
        root = min(comp)
        if not (comp <= _reach(fwd, root) and comp <= _reach(bwd, root)):
            return False
    return True


def is_boundary_acyclic(g: RibbonGraph, o: Orientation) -> bool:
    """No coherently oriented boundary; cross-checked via strong
    connectivity of the dual.

    The face-set scan runs over faces with nonempty dart orbits only:
    a face of an isolated vertex has an all-zero boundary row, so its
    membership never changes any boundary vector.
    """
    _check(g, o)
    a = _no_coherent_boundary(g, o.signs)
    b = _components_strongly_connected(g.dual, o.signs)
    if a != b:
        raise AssertionError(
            f"boundary scan ({a}) and dual strong connectivity ({b}) disagree "
            f"on {orientation_to_string(o)}"
        )
    return a


def _no_coherent_boundary(g: RibbonGraph, signs: Sequence[int]) -> bool:
    active = [f for f in range(g.num_faces) if g.faces[f]]
    check_orientation_scan(len(active))
    for bits in range(1, 1 << len(active)):
        chosen = {active[i] for i in range(len(active)) if bits >> i & 1}
        # coherent: every nonzero entry has the same sign
        if len(set(ribbonmap.signed_boundary(g, chosen, signs)) - {0}) == 1:
            return False
    return True


def is_totally_biwalkable(g: RibbonGraph, o: Orientation) -> bool:
    """No coherent cocycle; cross-checked as acyclicity of the dual."""
    _check(g, o)
    a = _no_coherent_cocycle(g, o.signs)
    b = _acyclic(g.dual, o.signs)
    if a != b:
        raise AssertionError(
            f"cocycle scan ({a}) and dual acyclicity ({b}) disagree "
            f"on {orientation_to_string(o)}"
        )
    return a


def _coherent(coc: ribbonmap.Cocycle, signs: Sequence[int]) -> bool:
    """Every edge of the cocycle crosses it the same way under signs."""
    first = coc.directions[0] * signs[coc.edges[0]]
    return all(d * signs[e] == first for e, d in zip(coc.edges, coc.directions))


def _no_coherent_cocycle(g: RibbonGraph, signs: Sequence[int]) -> bool:
    return not any(_coherent(coc, signs) for coc in ribbonmap.cocycles(g))


def coherent_cocycles(g: RibbonGraph, o: Orientation) -> list[ribbonmap.Cocycle]:
    """The cocycles whose edges all cross in the direction given by o."""
    _check(g, o)
    return [coc for coc in ribbonmap.cocycles(g) if _coherent(coc, o.signs)]


def dual_orientation(g: RibbonGraph, o: Orientation) -> Orientation:
    """Carry an orientation over to the dual map.

    The dual edge keeps the dart pair and its order, and the directed
    dual edge crosses the primal edge from its right face to its left
    face, so the sign vector is unchanged.  Applying the map twice gives
    back the original orientation (frozen as a regression test).
    """
    _check(g, o)
    return Orientation(g.dual, o.signs)


_PREDICATES = {
    OrientationClass.AO: is_acyclic,
    OrientationClass.TCO: is_totally_cyclic,
    OrientationClass.BAO: is_boundary_acyclic,
    OrientationClass.TBO: is_totally_biwalkable,
}


def all_orientations(g: RibbonGraph) -> Iterator[Orientation]:
    check_orientation_scan(g.num_edges)
    for signs in product((1, -1), repeat=g.num_edges):
        yield Orientation(g, signs)


def enumerate_class(g: RibbonGraph, cls: OrientationClass) -> list[Orientation]:
    e = g.num_edges
    return [Orientation(g, _mask_signs(e, r)) for r in _set_bits(_class_mask(g, cls))]


def count_class(g: RibbonGraph, cls: OrientationClass) -> int:
    return _class_mask(g, cls).bit_count()


# -- the mask engine ---------------------------------------------------------


def _subcube(num_edges: int, required) -> tuple[int, int]:
    """(X, P) such that r & X == P exactly when r gives every (edge, sign)
    pair in `required` its sign."""
    x = p = 0
    for e, s in required:
        bit = 1 << (num_edges - 1 - e)
        x |= bit
        if s == -1:
            p |= bit
    return x, p


def _mask_signs(num_edges: int, r: int) -> tuple[int, ...]:
    return tuple(-1 if r >> (num_edges - 1 - e) & 1 else 1 for e in range(num_edges))


def _full(num_edges: int) -> int:
    """All 2^E sign masks."""
    return (1 << (1 << num_edges)) - 1


@lru_cache(maxsize=4)
def _lanes(num_edges: int) -> tuple[tuple[int, int], ...]:
    """Per edge e, (masks keeping its direction, masks running it head to
    tail).  The second, rev[e], repeats 2^b zeros then 2^b ones through the
    2^E bits, b = E - 1 - e; the first is its complement."""
    size, full = 1 << num_edges, _full(num_edges)
    out = []
    for e in range(num_edges):
        half = 1 << (num_edges - 1 - e)
        rev, period = ((1 << half) - 1) << half, 2 * half
        while period < size:
            rev |= rev << period
            period *= 2
        out.append((full ^ rev, rev))
    return tuple(out)


def _cube(num_edges: int, x: int, p: int) -> int:
    """The masks r with r & x == p."""
    lanes = _lanes(num_edges)
    out = _full(num_edges)
    while x:
        b = x.bit_length() - 1
        out &= lanes[num_edges - 1 - b][p >> b & 1]
        x ^= 1 << b
    return out


def _set_bits(m: int) -> list[int]:
    """The positions of the set bits of m, ascending."""
    return [r for r, c in enumerate(reversed(format(m, "b"))) if c == "1"]


def _both_ways(h: RibbonGraph) -> Iterator[tuple[int, int]]:
    """Each cycle of h is coherent when every edge carries its direction,
    or every edge the opposite one."""
    for c in h._cycles:
        x, p = _subcube(h.num_edges, zip(c.edges, c.directions))
        yield x, p
        yield x, x ^ p


def _cut_cubes(h: RibbonGraph) -> Iterator[tuple[int, int]]:
    """Every edge leaving S, for each side S of a cut within one component
    of h; a cut coherent into S is caught by the complement of S.  A union
    of sides across components forbids nothing more: its subcube lies in
    each part's, and its edges miss a set A only when each part's do."""
    ends = h._edge_ends
    for comp in h.components:
        verts = sorted(comp)
        for bits in range(1, (1 << len(verts)) - 1):
            side = {verts[i] for i in range(len(verts)) if bits >> i & 1}
            yield _subcube(
                h.num_edges,
                [
                    (e, 1 if t in side else -1)
                    for e, (t, w) in enumerate(ends)
                    if (t in side) != (w in side)
                ],
            )


def _avoids(num_edges: int, cubes) -> int:
    """The masks outside all the given subcubes."""
    hit = 0
    for x, p in cubes:
        hit |= _cube(num_edges, x, p)
    return _full(num_edges) ^ hit


def _peel(h: RibbonGraph) -> int:
    """Kahn peel on h for every mask at once: repeatedly drop the vertices
    no live edge enters; the masks where no vertex survives (no directed
    cycle)."""
    full = _full(h.num_edges)
    alive = [full] * h.num_vertices
    ends = h._edge_ends
    while True:
        entered = [0] * h.num_vertices
        for (t, w), (keep, rev) in zip(ends, _lanes(h.num_edges)):
            entered[w] |= alive[t] & keep
            entered[t] |= alive[w] & rev
        kept = [a & n for a, n in zip(alive, entered)]
        if kept == alive:
            return full ^ reduce(or_, alive, 0)
        alive = kept


def _reached(h: RibbonGraph, forward: bool) -> list[int]:
    """Per vertex, the masks where it is reached from the least vertex of
    its component, along (forward) or against the directed edges."""
    full = _full(h.num_edges)
    seen = [0] * h.num_vertices
    for comp in h.components:
        seen[min(comp)] = full
    ends = h._edge_ends
    while True:
        before = list(seen)
        for (t, w), (keep, rev) in zip(ends, _lanes(h.num_edges)):
            # back: the masks where the search crosses from w to t
            back, ahead = (rev, keep) if forward else (keep, rev)
            seen[t] |= seen[w] & back
            seen[w] |= seen[t] & ahead
        if seen == before:
            return seen


def _strongly_connected(h: RibbonGraph) -> int:
    """The masks where every component of h is strongly connected."""
    both = _reached(h, True) + _reached(h, False)
    return reduce(and_, both, _full(h.num_edges))


def _primitive(g: RibbonGraph, cls: OrientationClass) -> tuple[RibbonGraph, bool]:
    """The map a class is read on, g or g*, and whether it forbids
    coherent cycles (AO, TBO) rather than coherent cuts (TCO, BAO)."""
    h = g.dual if cls in (OrientationClass.BAO, OrientationClass.TBO) else g
    return h, cls in (OrientationClass.AO, OrientationClass.TBO)


# The memo key of what a class reads on its primitive, by whether it
# forbids cycles.
_SIDE = {True: "cycles", False: "cuts"}


def _scan_cost(g: RibbonGraph, cls: OrientationClass) -> int:
    """Subcube patterns plus search steps per mask of both routes, from
    sizes; kept on the primitive's graph, by cycles or cuts, since every
    guarded call asks for it."""
    h, cycles = _primitive(g, cls)
    return h._graph_memoised(
        ("scan cost", _SIDE[cycles]), lambda: _estimate_scan_cost(h, cycles)
    )


def _estimate_scan_cost(h: RibbonGraph, cycles: bool) -> int:
    """Each cycle gives two patterns, each cut side one; a search makes at
    most V rounds over the E edges, and reachability runs both ways."""
    v, e = h.num_vertices, h.num_edges
    if cycles:
        return 2 * _cycle_bound(h) + v * e
    return sum(2 ** len(comp) - 2 for comp in h.components) + 2 * v * e


def _class_cubes(g: RibbonGraph, cls: OrientationClass) -> Iterator[tuple[int, int]]:
    """The forbidden subcubes of one class."""
    h, cycles = _primitive(g, cls)
    return _both_ways(h) if cycles else _cut_cubes(h)


def _support_classes(g: RibbonGraph, cls: OrientationClass, supports: Sequence[int]) -> list[int]:
    """Per edge set A in supports, the class of g surgered at A: the sign
    vectors on the edges off A that avoid the forbidden subcubes missing A."""
    e = g.num_edges
    cubes: dict[int, int] = {}  # the masks in the subcubes on each edge set X
    for x, p in _class_cubes(g, cls):
        cubes[x] = cubes.get(x, 0) | _cube(e, x, p)
    out = []
    for a in supports:
        hit = 0
        for x, masks in cubes.items():
            if not x & a:
                hit |= masks
        # no subcube counted reads a bit in A, so each vector off A is
        # counted once per sign pattern on A
        out.append(((1 << e) - hit.bit_count()) >> a.bit_count())
    return out


def _agree(num_edges: int, a: int, b: int, what: str) -> None:
    diff = a ^ b
    if diff:
        r = (diff & -diff).bit_length() - 1
        text = "".join("+" if s == 1 else "-" for s in _mask_signs(num_edges, r))
        raise AssertionError(
            f"{what} disagree ({bool(a >> r & 1)} vs {bool(b >> r & 1)}) on {text}"
        )


def _class_mask(g: RibbonGraph, cls: OrientationClass) -> int:
    """The sign masks of the orientations in cls, as the set bits of one
    int.  Guarded on every call, scanned once per primitive's graph: the
    mask is kept on the graph of h = g or g* under "cycles" or "cuts", so
    BAO(g) and TCO(g*), or TBO(g) and AO(g*), are one scan, and so are
    the classes of every map with the same graph."""
    e = g.num_edges
    check_orientation_scan(e)
    check_class_scan(e, _scan_cost(g, cls))
    h, cycles = _primitive(g, cls)
    return h._graph_memoised(("class", _SIDE[cycles]), lambda: _scan_class(g, cls))


def _scan_class(g: RibbonGraph, cls: OrientationClass) -> int:
    e = g.num_edges
    h, cycles = _primitive(g, cls)
    cubes = _avoids(e, _class_cubes(g, cls))
    search = _peel(h) if cycles else _strongly_connected(h)
    _agree(e, cubes, search, f"{cls.value}: forbidden subcubes and graph search")
    return cubes


def cw_faces(g: RibbonGraph, o: Orientation) -> frozenset[int]:
    """Faces whose dual vertex is a sink under the carried-over orientation.

    A face's orbit darts are the tail darts of the dual edges leaving its
    dual vertex, so the face is a sink exactly when none of its darts is
    a tail dart under o.  An isolated vertex's empty face counts as a
    sink (degree zero).
    """
    _check(g, o)
    tails = {
        (t if o.signs[e] == 1 else h) for e, (t, h) in enumerate(g.edge_pairs)
    }
    return frozenset(
        f for f, orbit in enumerate(g.faces) if not any(d in tails for d in orbit)
    )


def _cw_cubes(h: RibbonGraph) -> Iterator[tuple[int, int]]:
    """One subcube per vertex of h = g*, a face of g: every edge at it
    points into it, so it is a sink of the carried-over orientation.

    A vertex at both ends of an edge would need both of its signs at
    once, which no cube expresses; but such an edge is a loop of h, so no
    orientation is totally bi-walkable and no cube is applied.
    """
    need: list[list[tuple[int, int]]] = [[] for _ in range(h.num_vertices)]
    for e, (t, w) in enumerate(h._edge_ends):
        need[t].append((e, -1))
        need[w].append((e, 1))
    for pairs in need:
        yield _subcube(h.num_edges, pairs)


def _tbo_cw(g: RibbonGraph) -> tuple[int, ...]:
    """Per face, the totally bi-walkable masks where it is cw; read on g*,
    whose vertices are the faces of g and whose acyclic masks are the TBO
    masks of g, kept on its graph, behind the guards of the TBO mask."""
    e, tbo = g.num_edges, _class_mask(g, OrientationClass.TBO)
    h = g.dual
    return h._graph_memoised(("cw",), lambda: tuple(_cube(e, x, p) & tbo for x, p in _cw_cubes(h)))


def tbo_histogram(g: RibbonGraph) -> dict[int, int]:
    """Map j -> number of totally bi-walkable orientations with j cw-faces."""
    tbo = _class_mask(g, OrientationClass.TBO)
    # planes[i]: the masks whose cw-face count has bit i set; each face's
    # masks are added by a ripple carry
    planes = [0] * g.num_faces.bit_length()
    for carry in _tbo_cw(g):
        for i, plane in enumerate(planes):
            if not carry:
                break
            planes[i], carry = plane ^ carry, plane & carry
    hist = {}
    for j in range(g.num_faces + 1):
        masks = tbo
        for i, plane in enumerate(planes):
            masks &= plane if j >> i & 1 else tbo ^ plane
        if masks:
            hist[j] = masks.bit_count()
    return hist


def unique_cw_counts(g: RibbonGraph) -> list[int]:
    """Per face: the totally bi-walkable orientations whose only cw face it is."""
    cw = _tbo_cw(g)
    ones = twos = 0  # the masks with at least one, at least two cw faces
    for c in cw:
        twos |= ones & c
        ones |= c
    once = ones & ~twos
    return [(c & once).bit_count() for c in cw]


def tbo_generating_polynomial(g: RibbonGraph) -> list[int]:
    """The histogram as ascending coefficients in q."""
    from .polynomials import ipoly_trim

    hist = tbo_histogram(g)
    out = [0] * (max(hist) + 1 if hist else 1)
    for j, n in hist.items():
        out[j] = n
    return ipoly_trim(out)


def tbo_generating_poly_formula(g: RibbonGraph) -> list[int]:
    """Subset-sum formula for the cw-face generating polynomial.

    Evaluated on the dual's vertex data: over edge subsets S, the sign is
    (-1)^(|S| - |V*| + c(S)) and each component C of the spanning subgraph
    (V*, S) contributes a factor 1 - (1-q)^|V(C)|, one term per census key.
    """
    # Imported here, so that a class count never loads polynomials.
    from .polynomials import ipoly_add, ipoly_mul, ipoly_pow, ipoly_sub, ipoly_trim

    h = g.dual
    # The subset census of g*, priced as poly_balanced_flow prices it.
    check_subset_poly(h.num_edges)
    n = h.num_vertices
    factor = [ipoly_sub([1], ipoly_pow([1, -1], size)) for size in range(n + 1)]
    total = [0]
    for size, comps, count in ribbonmap._subset_census(h):
        term = [-count if (size - n + len(comps)) % 2 else count]
        for csize in comps:
            term = ipoly_mul(term, factor[csize])
        total = ipoly_add(total, term)
    return ipoly_trim(total)
