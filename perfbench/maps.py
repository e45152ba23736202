"""Seeded input maps, and reference counts computed without the library.

A map is built as a JSON document in the library's file format: darts
0..2E-1, edge i is the dart pair (2i, 2i+1) from tail to head, and
"sigma" lists the darts around each vertex in rotation order.

Every map built here is connected, loopless and 2-edge-connected, and
no edge has the same face on both sides.  Those three conditions make
all four orientation-class counts nonzero: a loop empties AO, a bridge
empties TCO, and a single-face edge is a loop of the dual, which empties
TBO.  Uniform random rotation systems would give loops and hide the
real cost of the class scans behind early exits.

The reference counts below (proper colourings, acyclic and totally
cyclic orientations of a map and of its dual) use only this file, so
they check the library's answers from outside.
"""

from __future__ import annotations

import random
from itertools import product


class MapSpec:
    """Shape of one seeded map: vertices, edges and genus.

    With `relabel`, the map itself is drawn once, independently of the
    seed, and the seed only relabels it: vertices, edges, edge directions
    and the starting dart of each rotation.  The class scans do work in
    proportion to the class sizes, which the embedding sets; on maps
    drawn afresh per seed, the classes14 pass time swung by a third from
    seed to seed.
    """

    def __init__(self, vertices: int, edges: int, genus: int, relabel: bool = False):
        faces = edges + 2 - 2 * genus - vertices
        if vertices < 2 or edges < vertices or faces < 2:
            raise ValueError(f"no map with V={vertices} E={edges} genus={genus}")
        self.vertices, self.edges, self.genus, self.faces = vertices, edges, genus, faces
        self.relabel = relabel


def _orbits(perm: list[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orb = []
        d = start
        while not seen[d]:
            seen[d] = True
            orb.append(d)
            d = perm[d]
        out.append(orb)
    return out


def _faces(rot: list[list[int]], darts: int) -> list[list[int]]:
    # Face permutation phi(d) = sigma(alpha(d)), the library's convention.
    sigma = [0] * darts
    for cyc in rot:
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]
    return _orbits([sigma[d ^ 1] for d in range(darts)])


def _genus(spec: MapSpec, rot: list[list[int]]) -> tuple[int, list[list[int]]]:
    faces = _faces(rot, 2 * spec.edges)
    return (2 - spec.vertices + spec.edges - len(faces)) // 2, faces


def _two_sided(faces: list[list[int]], edges: int) -> bool:
    face_of = {}
    for i, orb in enumerate(faces):
        for d in orb:
            face_of[d] = i
    return all(face_of[2 * e] != face_of[2 * e + 1] for e in range(edges))


def build_map(spec: MapSpec, rng: random.Random) -> dict:
    """A map of the given shape, drawn from rng.

    The underlying graph is a Hamiltonian cycle plus random chords, so it
    is connected, loopless and 2-edge-connected by construction.  A walk
    over rotation systems, swapping two darts at one vertex per step,
    moves toward the target genus and then on until no edge has the
    same face on both sides.
    """
    V, E = spec.vertices, spec.edges
    for _ in range(200):
        order = rng.sample(range(V), V)
        ends = [(order[i], order[(i + 1) % V]) for i in range(V)]
        while len(ends) < E:
            ends.append(tuple(rng.sample(range(V), 2)))
        rng.shuffle(ends)
        rot: list[list[int]] = [[] for _ in range(V)]
        for e, (u, w) in enumerate(ends):
            rot[u].append(2 * e)
            rot[w].append(2 * e + 1)
        for cyc in rot:
            rng.shuffle(cyc)
        g, faces = _genus(spec, rot)
        movable = [v for v in range(V) if len(rot[v]) >= 3]
        for _ in range(3000):
            if g == spec.genus and _two_sided(faces, E):
                return {"sigma": rot, "edges": [[2 * e, 2 * e + 1] for e in range(E)]}
            v = rng.choice(movable)
            i, j = rng.sample(range(len(rot[v])), 2)
            rot[v][i], rot[v][j] = rot[v][j], rot[v][i]
            g2, faces2 = _genus(spec, rot)
            if abs(g2 - spec.genus) <= abs(g - spec.genus):
                g, faces = g2, faces2
            else:
                rot[v][i], rot[v][j] = rot[v][j], rot[v][i]
    raise RuntimeError(f"no map found for V={V} E={E} genus={spec.genus}")


def relabel(doc: dict, rng: random.Random) -> dict:
    """An isomorphic copy of the map under random labels."""
    rot, E = doc["sigma"], len(doc["edges"])
    perm = rng.sample(range(E), E)
    flip = [rng.random() < 0.5 for _ in range(E)]

    def dart(d: int) -> int:
        return 2 * perm[d // 2] + ((d & 1) ^ flip[d // 2])

    cycles = []
    for cyc in rng.sample(rot, len(rot)):
        start = rng.randrange(len(cyc))
        cycles.append([dart(d) for d in cyc[start:] + cyc[:start]])
    return {"sigma": cycles, "edges": [[2 * e, 2 * e + 1] for e in range(E)]}


def build_maps(specs: list[MapSpec], seed: int, salt: str) -> list[dict]:
    """One map per spec; the same seed and salt give the same maps."""
    rng = random.Random(f"{salt}:{seed}")
    fixed = random.Random(f"{salt}:fixed")
    return [relabel(build_map(s, fixed), rng) if s.relabel else build_map(s, rng) for s in specs]


# -- shape of a map, read back from its JSON document ------------------------


class Shape:
    """Vertex ends of every edge for a map and for its dual."""

    def __init__(self, doc: dict):
        rot = doc["sigma"]
        self.edges = len(doc["edges"])
        vertex_of = {d: v for v, cyc in enumerate(rot) for d in cyc}
        self.vertices = len(rot)
        self.ends = [(vertex_of[t], vertex_of[h]) for t, h in doc["edges"]]
        faces = _faces(rot, 2 * self.edges)
        face_of = {d: f for f, orb in enumerate(faces) for d in orb}
        self.faces = len(faces)
        self.dual_ends = [(face_of[t], face_of[h]) for t, h in doc["edges"]]
        self.genus = (2 - self.vertices + self.edges - self.faces) // 2

    def record(self) -> dict:
        return {"V": self.vertices, "E": self.edges, "F": self.faces, "genus": self.genus}


# -- reference counts, independent of the library ----------------------------


def proper_colourings(n: int, ends: list[tuple[int, int]], k: int) -> int:
    """Vertex colourings with k colours and no edge inside one colour class."""
    return sum(
        1 for col in product(range(k), repeat=n) if all(col[u] != col[w] for u, w in ends)
    )


def _reach(start: int, adj: list[int]) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def orientation_classes(n: int, ends: list[tuple[int, int]]) -> tuple[int, int]:
    """(acyclic, totally cyclic) orientation counts of a connected multigraph.

    Orientation r reverses edge e when bit e of r is set.  An orientation
    is acyclic when sources can be peeled off until no vertex is left, and
    totally cyclic when every vertex reaches and is reached from vertex 0.
    """
    full = (1 << n) - 1
    acyclic = cyclic = 0
    for r in range(1 << len(ends)):
        out = [0] * n
        inc = [0] * n
        loop = False
        for e, (u, w) in enumerate(ends):
            if r >> e & 1:
                u, w = w, u
            if u == w:
                loop = True
            out[u] |= 1 << w
            inc[w] |= 1 << u
        left = full
        if not loop:
            while left:
                sources = 0
                for v in range(n):
                    if left >> v & 1 and not inc[v] & left:
                        sources |= 1 << v
                if not sources:
                    break
                left &= ~sources
        acyclic += left == 0 and not loop
        cyclic += _reach(0, out) == full and _reach(0, inc) == full
    return acyclic, cyclic


def class_counts(shape: Shape) -> dict[str, int]:
    """AO, TCO, BAO and TBO of a connected map, via BAO(g) = TCO(g*) and
    TBO(g) = AO(g*)."""
    ao, tco = orientation_classes(shape.vertices, shape.ends)
    dual_ao, dual_tco = orientation_classes(shape.faces, shape.dual_ends)
    return {"ao": ao, "tco": tco, "bao": dual_tco, "tbo": dual_ao}


# -- the inputs of each workload ---------------------------------------------

# classes14: the orientation scans at E = 12 and 14, on two fixed maps.
CLASS_SPECS = [MapSpec(6, 12, 0, relabel=True), MapSpec(7, 14, 1, relabel=True)]

# frontier: one map per rung of the edge ladder, genus 0 to 2.
FRONTIER_SPECS = [
    MapSpec(4, 6, 0),
    MapSpec(4, 7, 1),
    MapSpec(5, 8, 1),
    MapSpec(5, 9, 2),
    MapSpec(6, 10, 1),
    MapSpec(6, 11, 2),
    MapSpec(7, 12, 0),
]

WORKLOAD_SPECS = {
    "census4": [],
    "classes14": CLASS_SPECS,
    "frontier": FRONTIER_SPECS,
}


def workload_maps(workload: str, seed: int) -> list[dict]:
    return build_maps(WORKLOAD_SPECS[workload], seed, workload)
