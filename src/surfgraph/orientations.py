"""Edge orientations and their four classes.

An orientation assigns each edge +1 (keep the reference direction, tail
dart to head dart) or -1 (reverse it).  The classes:

  AO   acyclic: no directed cycle.
  TCO  totally cyclic: no coherently directed nonempty cut, equivalently
       every component strongly connected.
  BAO  boundary acyclic: no face set whose signed boundary is coherent,
       equivalently the carried-over orientation of the dual is TCO.
  TBO  totally bi-walkable: no coherently directed cocycle, equivalently
       the carried-over orientation of the dual is AO.

Every predicate with two characterizations computes both and raises if
they ever disagree; that cross-check is part of the contract, not a
debugging aid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator, Sequence

from . import ribbonmap
from .errors import GraphMismatch
from .guards import check_orientation_scan
from .polynomials import ipoly_add, ipoly_mul, ipoly_pow, ipoly_scale, ipoly_sub, ipoly_trim
from .ribbonmap import RibbonGraph


@dataclass(frozen=True)
class Orientation:
    graph: RibbonGraph
    signs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        if len(self.signs) != self.graph.num_edges:
            raise GraphMismatch(
                f"{len(self.signs)} signs for {self.graph.num_edges} edges"
            )
        if any(s not in (1, -1) for s in self.signs):
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
    out = []
    for e, (t, h) in enumerate(g.edge_pairs):
        u, w = g.vertex_of_dart(t), g.vertex_of_dart(h)
        out.append((u, w) if signs[e] == 1 else (w, u))
    return out


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
    """No coherent nonempty cut; cross-checked via strong connectivity.

    On graphs with at most 5 edges the definitional reading (every edge
    on a directed cycle) is evaluated as a third route.
    """
    _check(g, o)
    a = _no_coherent_cut(g, o.signs)
    b = _components_strongly_connected(g, o.signs)
    if a != b:
        raise AssertionError(
            f"cut scan ({a}) and strong connectivity ({b}) disagree "
            f"on {orientation_to_string(o)}"
        )
    if g.num_edges <= 5:
        c = _every_edge_on_directed_cycle(g, o.signs)
        if c != a:
            raise AssertionError(
                f"definitional directed-cycle check ({c}) disagrees ({a}) "
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


def _every_edge_on_directed_cycle(g: RibbonGraph, signs: Sequence[int]) -> bool:
    pairs = _directed_pairs(g, signs)
    fwd = _out_lists(g.num_vertices, pairs)
    return all(u in _reach(fwd, w) for u, w in pairs)


def is_boundary_acyclic(g: RibbonGraph, o: Orientation) -> bool:
    """No coherently oriented boundary; cross-checked on the dual.

    The face-set scan runs over faces with nonempty dart orbits only:
    a face of an isolated vertex has an all-zero boundary row, so its
    membership never changes any boundary vector.
    """
    _check(g, o)
    a = _no_coherent_boundary(g, o.signs)
    b = is_totally_cyclic(g.dual, Orientation(g.dual, o.signs))
    if a != b:
        raise AssertionError(
            f"boundary scan ({a}) and dual total cyclicity ({b}) disagree "
            f"on {orientation_to_string(o)}"
        )
    return a


def _no_coherent_boundary(g: RibbonGraph, signs: Sequence[int]) -> bool:
    sides = [
        (g.edge_right_face(e), g.edge_left_face(e)) for e in range(g.num_edges)
    ]
    active = [f for f in range(g.num_faces) if g.faces[f]]
    check_orientation_scan(len(active))
    for bits in range(1, 1 << len(active)):
        chosen = {active[i] for i in range(len(active)) if bits >> i & 1}
        pos = neg = False
        for e, (r, l) in enumerate(sides):
            val = ((1 if l in chosen else 0) - (1 if r in chosen else 0)) * signs[e]
            if val > 0:
                pos = True
            elif val < 0:
                neg = True
        if pos != neg:
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


def _no_coherent_cocycle(g: RibbonGraph, signs: Sequence[int]) -> bool:
    for coc in g._cocycles:
        first = coc.directions[0] * signs[coc.edges[0]]
        if all(
            coc.directions[i] * signs[coc.edges[i]] == first
            for i in range(1, len(coc.edges))
        ):
            return False
    return True


def coherent_cocycles(g: RibbonGraph, o: Orientation) -> list[ribbonmap.Cocycle]:
    """The cocycles whose edges all cross in the direction given by o."""
    _check(g, o)
    out = []
    for coc in g._cocycles:
        vals = {coc.directions[i] * o.signs[coc.edges[i]] for i in range(len(coc.edges))}
        if len(vals) == 1:
            out.append(coc)
    return out


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


def enumerate_class(
    g: RibbonGraph, cls: OrientationClass
) -> list[Orientation]:
    pred = _PREDICATES[cls]
    return [o for o in all_orientations(g) if pred(g, o)]


def count_class(g: RibbonGraph, cls: OrientationClass) -> int:
    return len(enumerate_class(g, cls))


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


def tbo_histogram(g: RibbonGraph) -> dict[int, int]:
    """Map j -> number of totally bi-walkable orientations with j cw-faces."""
    return dict(
        Counter(
            len(cw_faces(g, o)) for o in enumerate_class(g, OrientationClass.TBO)
        )
    )


def tbo_generating_polynomial(g: RibbonGraph) -> list[int]:
    """The histogram as ascending coefficients in q."""
    hist = tbo_histogram(g)
    out = [0] * (max(hist) + 1 if hist else 1)
    for j, n in hist.items():
        out[j] = n
    return ipoly_trim(out)


def tbo_generating_poly_formula(g: RibbonGraph) -> list[int]:
    """Subset-sum formula for the cw-face generating polynomial.

    Evaluated on the dual's vertex data: over edge subsets S, the sign is
    (-1)^(|S| - |V*| + c(S)) and each component C of the spanning subgraph
    (V*, S) contributes a factor 1 - (1-q)^|V(C)|.
    """
    h = g.dual
    check_orientation_scan(h.num_edges)
    n = h.num_vertices
    factor = [ipoly_sub([1], ipoly_pow([1, -1], size)) for size in range(n + 1)]
    total = [0]
    for size, roots in ribbonmap._subset_forests(h):
        comps = Counter(roots)
        sign = -1 if (size - n + len(comps)) % 2 else 1
        term = [1]
        for csize in comps.values():
            term = ipoly_mul(term, factor[csize])
        total = ipoly_add(total, ipoly_scale(term, sign))
    return ipoly_trim(total)