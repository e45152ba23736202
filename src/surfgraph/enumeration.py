"""Exact counting of tensions and flows, and the reciprocity pair counters.

Four families of edge assignments, each defined by a linear condition:

  tension         sums around cycles vanish (fundamental cycle basis)
  flow            conservation at every vertex (signed incidence)
  local tension   sums around face boundaries vanish (face matrix)
  balanced flow   flow whose signed sums across all cocycles vanish
                  (incidence stacked with a cycle basis of the dual)

Nowhere-zero tensions and flows mod k are counted in pure Python by a
DP over fundamental-cycle coordinates, _nz_count.  Every other count mod
k, and every support or sign histogram, reduces the int64 numpy blocks
of one brute-force scan, _solutions; local tensions and balanced flows
keep it, so each duality check in verify compares two routes.  Integer
counts in a box |x(e)| < k come from _box_counts, a meet-in-the-middle
join that reads every k up to a bound at once.  Arithmetic is exact, and
numpy is imported inside the functions that use it.

The four polynomials in k are two subset sums (Whitney, Tutte) over the
subset census of g or g*, exact since every condition matrix is totally
unimodular, and checked against the DP counts at k = 2 and 3.  The
reciprocity pairs are one more polynomial per kind, from the components
of every edge subset and the class of g surgered at each support that
occurs, read on g's own forbidden subcubes; verify compares it with the
signed polynomial at -k.  Integral local tension counts get a
quasipolynomial fit; the integral pair counts keep the direct scan.

A quantity with a second independent characterization is computed both
ways, and disagreement raises.  The condition matrices (read-only), the
mod-k counts, the DP's forms and counts, the subset census and components
and the pair polynomials are kept on the map (RibbonGraph._memo).  Guards
run before every lookup; nothing is stored from a call that raised.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import sub
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from . import ribbonmap
from .errors import BadModulus, NoFit, NotBoundaryAcyclic
from .guards import check_assignment_scan, check_box_join, check_pair_poly, check_subset_poly
from .orientations import (
    Orientation,
    OrientationClass,
    _class_mask,
    _cube,
    _primitive,
    _scan_cost,
    _subcube,
    _support_classes,
    coherent_cocycles,
    count_class,
    is_boundary_acyclic,
)
from .polynomials import (
    QuasiPolynomial,
    _require_max_period,
    as_int_coeffs,
    fit_quasipolynomial,
    ipoly_trim,
    lagrange,
    poly_eval,
)
from .ribbonmap import EulerData, RibbonGraph

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 18  # assignment rows per numpy block


# -- condition matrices ------------------------------------------------------
#
# Each matrix is built once per map and handed out read-only.


def _matrix(g: RibbonGraph, condition: str, build: Callable[[], np.ndarray]) -> np.ndarray:
    return g._memoised(("matrix", condition), lambda: _read_only(build()))


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _cycle_matrix(g: RibbonGraph, cycs) -> np.ndarray:
    import numpy as np

    m = np.zeros((len(cycs), g.num_edges), dtype=np.int64)
    for i, c in enumerate(cycs):
        for e, d in zip(c.edges, c.directions):
            m[i, e] += d
    return m


def tension_matrix(g: RibbonGraph) -> np.ndarray:
    return _matrix(g, "tension", lambda: _cycle_matrix(g, g._fundamental_cycles))


def _all_cycles_matrix(g: RibbonGraph) -> np.ndarray:
    return _matrix(g, "all-cycles", lambda: _cycle_matrix(g, g._cycles))


def incidence_matrix(g: RibbonGraph) -> np.ndarray:
    """Vertices x edges; +1 at the head, -1 at the tail, 0 on loops."""
    import numpy as np

    def build():
        m = np.zeros((g.num_vertices, g.num_edges), dtype=np.int64)
        for e in range(g.num_edges):
            m[g.edge_head_vertex(e), e] += 1
            m[g.edge_tail_vertex(e), e] -= 1
        return m

    return _matrix(g, "flow", build)


def local_tension_matrix(g: RibbonGraph) -> np.ndarray:
    import numpy as np

    return _matrix(
        g,
        "local-tension",
        lambda: np.array(g._face_matrix, dtype=np.int64).reshape(g.num_faces, g.num_edges),
    )


def balanced_flow_matrix(g: RibbonGraph) -> np.ndarray:
    import numpy as np

    # Cocycle sums over a generating set: cycles of the dual share edge ids.
    return _matrix(
        g,
        "balanced-flow",
        lambda: np.vstack([incidence_matrix(g), _cycle_matrix(g, g.dual._fundamental_cycles)]),
    )


_CONDITIONS = {
    "tension": tension_matrix,
    "all-cycles": _all_cycles_matrix,
    "flow": incidence_matrix,
    "local-tension": local_tension_matrix,
    "balanced-flow": balanced_flow_matrix,
}


# -- assignment scans --------------------------------------------------------


def _grid(values: np.ndarray, width: int) -> np.ndarray:
    """All rows of values^width, in lexicographic order."""
    import numpy as np

    n = len(values)
    return values[np.indices((n,) * width).reshape(width, n**width).T]


def _grid_blocks(values: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """All rows of values^width, in lexicographic order, in blocks of at
    most _CHUNK rows: one grid over the last coordinates, built once, under
    each tuple of the leading ones.  Every block is the same buffer,
    overwritten by the next one.
    """
    import numpy as np

    n = len(values)
    low = 0
    while low < width and n ** (low + 1) <= _CHUNK:
        low += 1
    high = width - low
    block = np.empty((n**low, width), dtype=np.int64)
    block[:, high:] = _grid(values, low)
    for head in itertools.product(values.tolist(), repeat=high):
        block[:, :high] = head
        yield block


def _solutions(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> Iterator[np.ndarray]:
    """The rows x of values^width with matrix @ x = 0 (mod modulus, if any),
    in lexicographic order, in blocks of at most _CHUNK rows.
    """
    for block in _grid_blocks(values, width):
        prod = block @ matrix.T
        if modulus is not None:
            prod %= modulus
        yield block[~prod.any(axis=1)]


def _count_solutions(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> int:
    return sum(len(rows) for rows in _solutions(matrix, values, width, modulus))


def _support_counts(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> np.ndarray:
    """counts[mask] = solutions nonzero exactly on mask (edge i at bit width-1-i)."""
    import numpy as np

    out = np.zeros(1 << width, dtype=np.int64)
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    for rows in _solutions(matrix, values, width, modulus):
        out += np.bincount((rows != 0) @ weights, minlength=1 << width)
    return out


def _signed_pattern_counts(
    matrix: np.ndarray, values: np.ndarray, width: int, modulus: int | None
) -> np.ndarray:
    """counts[code] = solutions with sign pattern code, base-3 digits sign+1."""
    import numpy as np

    out = np.zeros(3**width, dtype=np.int64)
    weights = 3 ** np.arange(width, dtype=np.int64)
    for rows in _solutions(matrix, values, width, modulus):
        out += np.bincount((np.sign(rows) + 1) @ weights, minlength=3**width)
    return out


def _box_counts(matrix: np.ndarray, width: int, ks: Sequence[int]) -> list[int]:
    """counts[i] = nowhere-zero integer rows x with |x(e)| < ks[i] and
    matrix @ x = 0, for ascending ks >= 1.

    Meet in the middle (Horowitz and Sahni, J. ACM 1974): x solves the
    system exactly when the sums of its first width // 2 columns equal the
    negated sums of the rest.  The left half-box, at most the square root
    of the whole box, is grouped by those sums and by the first ks[b] whose
    box holds the half-row; the right half-box streams past in blocks of at
    most _CHUNK rows.  Memory is the left half-box plus one block.
    """
    import numpy as np

    ks = np.asarray(ks, dtype=np.int64)
    nb = len(ks)
    values = _box_values(int(ks[-1]))
    half = width // 2

    def first_box(rows: np.ndarray) -> np.ndarray:
        # b such that the rows lie in the boxes of ks[b:] and no other
        return np.searchsorted(ks, np.abs(rows).max(axis=1, initial=0), "right")

    left = _grid(values, half)
    keys, group = np.unique(left @ matrix[:, :half].T, axis=0, return_inverse=True)
    # cells: occurring (group, b) codes, group-major; below[i]: rows before i
    cells, sizes = np.unique(group.reshape(-1) * nb + first_box(left), return_counts=True)
    below = np.concatenate([[0], sizes.cumsum()])
    slot = np.arange(len(keys))
    first = np.zeros(nb, dtype=np.int64)  # pairs first counted at ks[b]
    later = np.zeros(len(cells) + 1, dtype=np.int64)  # right rows, by left cell
    for block in _grid_blocks(values, width - half):
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


def _require_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise BadModulus(f"k must be a positive integer, got {k!r}")


def _mod_values(k: int, nonzero: bool) -> np.ndarray:
    import numpy as np

    return np.arange(1 if nonzero else 0, k, dtype=np.int64)


def _box_values(k: int) -> np.ndarray:
    import numpy as np

    vals = np.arange(-(k - 1), k, dtype=np.int64)
    return vals[vals != 0]


# -- nowhere-zero tensions and flows over fundamental-cycle coordinates ------
#
# Tensions and flows mod k form free Z_k-modules (Tutte 1954).  A tension
# is fixed by its values on the spanning forest: each chord carries the
# signed sum of the forest edges on its fundamental cycle.  A flow is
# fixed by its values on the chords: each forest edge carries the signed
# sum of the chords whose cycles use it.  So a nowhere-zero count gives
# the free values 1..k-1 and asks every determined value, a form in the
# free ones, to be nonzero; a form with no variables (a loop for
# tensions, a bridge for flows) is always zero.  The frontier DP below
# assigns the free values in order (Sekine, Imai and Tani, ISAAC 1995).


def _forms(h: RibbonGraph, flow: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The determined values as forms in the free ones: one tuple of
    (free index, sign) per determined edge, by free index."""
    cycles = h._fundamental_cycles
    chords = {c.edges[0] for c in cycles}
    if flow:
        forms: dict[int, list[tuple[int, int]]] = {}
        for i, c in enumerate(cycles):
            for e, d in zip(c.edges[1:], c.directions[1:]):
                forms.setdefault(e, []).append((i, d))
        return tuple(tuple(forms.get(e, ())) for e in range(h.num_edges) if e not in chords)
    forest = {e: i for i, e in enumerate(e for e in range(h.num_edges) if e not in chords)}
    return tuple(
        tuple(sorted((forest[e], d) for e, d in zip(c.edges[1:], c.directions[1:])))
        for c in cycles
    )


def _nz_count(h: RibbonGraph, k: int, flow: bool) -> int:
    """Nowhere-zero flows (flow) or tensions of h mod k, by a DP whose state
    is the partial sums mod k of the forms begun but not finished.  A form
    is checked to be nonzero at its last variable, then leaves the state.
    """
    forms = h._memoised(("forms", flow), lambda: _forms(h, flow))
    if not all(forms):
        return 0
    free = h.num_edges - len(forms)
    opens, closes = [[] for _ in range(free)], [[] for _ in range(free)]
    for i, f in enumerate(forms):
        opens[f[0][0]].append(i)
        closes[f[-1][0]].append(i)
    signs = [dict(f) for f in forms]
    states = {(): 1}
    live: list[int] = []  # the forms behind each state position
    for j in range(free):
        live += opens[j]
        sign = [signs[i].get(j, 0) for i in live]
        shut = [s for s, i in enumerate(live) if i in closes[j]]
        keep = [s for s, i in enumerate(live) if i not in closes[j]]
        pad = (0,) * len(opens[j])
        step: dict[tuple[int, ...], int] = {}
        for state, n in states.items():
            state += pad
            for v in range(1, k):
                sums = [(x + d * v) % k for x, d in zip(state, sign)]
                if all(sums[s] for s in shut):
                    key = tuple(sums[s] for s in keep)
                    step[key] = step.get(key, 0) + n
        states = step
        live = [live[s] for s in keep]
    return sum(states.values())


def _dp_count(h: RibbonGraph, k: int, flow: bool) -> int:
    """_nz_count behind the assignment guard, once per map, flag and k."""
    _require_k(k)
    check_assignment_scan(k, h.num_edges)
    return h._memoised(("nz count", flow, k), lambda: _nz_count(h, k, flow))


# -- the four counting families ----------------------------------------------


def _count(g: RibbonGraph, k: int, nonzero: bool, condition: str) -> int:
    """Solutions mod k of one condition on g, scanned once per map."""
    _require_k(k)
    check_assignment_scan(k, g.num_edges)
    return g._memoised(
        ("count", condition, k, nonzero),
        lambda: _count_solutions(
            _CONDITIONS[condition](g), _mod_values(k, nonzero), g.num_edges, k
        ),
    )


def _tension_count(g: RibbonGraph, k: int, nonzero: bool) -> int:
    n = _dp_count(g, k, False) if nonzero else _count(g, k, False, "tension")
    if g.num_edges <= 4:
        # On small graphs, re-derive the condition from every simple cycle.
        n2 = _count(g, k, nonzero, "all-cycles")
        if n2 != n:
            raise AssertionError(
                f"cycle-basis tension count {n} != all-cycles count {n2}"
            )
    return n


def count_nz_tensions(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero assignments E -> Z_k with zero sum around every cycle."""
    return _tension_count(g, k, True)


def count_tensions(g: RibbonGraph, k: int) -> int:
    return _tension_count(g, k, False)


def count_nz_flows(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero assignments E -> Z_k conserved at every vertex."""
    return _dp_count(g, k, True)


def count_flows(g: RibbonGraph, k: int) -> int:
    return _count(g, k, False, "flow")


def count_nz_local_tensions(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero assignments with zero signed sum around every face."""
    return _count(g, k, True, "local-tension")


def count_local_tensions(g: RibbonGraph, k: int) -> int:
    return _count(g, k, False, "local-tension")


def _balanced_flow_count(g: RibbonGraph, k: int, nonzero: bool) -> int:
    n = _count(g, k, nonzero, "balanced-flow")
    n2 = _tension_count(g.dual, k, nonzero)
    if n != n2:
        raise AssertionError(
            f"balanced flow count {n} != dual tension count {n2}"
        )
    return n


def count_nz_balanced_flows(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero flows whose signed cocycle sums all vanish.

    Cross-checked by transporting the values to the dual and counting its
    nowhere-zero tensions; the two totals must agree.
    """
    return _balanced_flow_count(g, k, True)


def count_balanced_flows(g: RibbonGraph, k: int) -> int:
    return _balanced_flow_count(g, k, False)


# -- integral (bounded integer) counts ---------------------------------------


def count_integral_local_tensions(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero integer local tensions with |t(e)| < k."""
    _require_k(k)
    check_box_join(2 * k - 2, g.num_edges, _CHUNK)
    (count,) = _box_counts(local_tension_matrix(g), g.num_edges, [k])
    return count


def count_integral_flows(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero integer flows with |f(e)| < k."""
    _require_k(k)
    check_box_join(2 * k - 2, g.num_edges, _CHUNK)
    (count,) = _box_counts(incidence_matrix(g), g.num_edges, [k])
    return count


# -- polynomials by subset expansion -----------------------------------------


def interpolate(samples: Sequence[tuple[int, int]]) -> list[int]:
    """Exact integer-coefficient polynomial through (k, count) samples."""
    return as_int_coeffs(lagrange([(int(k), int(v)) for k, v in samples]))


def _subset_sum(h: RibbonGraph, flow: bool) -> list[int]:
    """Nowhere-zero tension or flow polynomial of h (Whitney, Tutte 1954).

    Over the edge subsets B, with c(B) the components of (V, B):
      tension  sum of (-1)^|B| k^(c(B) - c)
      flow     sum of (-1)^(E - |B|) k^(|B| - V + c(B))
    """
    v, e, c = h.num_vertices, h.num_edges, h.num_components
    coeffs = [0] * (max(v, e) + 1)
    for size, comps, n in ribbonmap._subset_census(h):
        cb = len(comps)
        if flow:
            coeffs[size - v + cb] += -n if (e - size) % 2 else n
        else:
            coeffs[cb - c] += -n if size % 2 else n
    return ipoly_trim(coeffs)


def _subset_poly(g: RibbonGraph, kind: str, on_dual: bool, flow: bool) -> list[int]:
    # Refuse before the 2^E subsets and the k = 2, 3 counts on h start.
    check_subset_poly(g.num_edges)
    h = g.dual if on_dual else g
    coeffs = _subset_sum(h, flow)
    count = COUNT_NZ["flow" if flow else "tension"]
    for k in (2, 3):
        value, counted = poly_eval(coeffs, k), count(h, k)
        if value != counted:
            raise AssertionError(
                f"{kind} subset sum gives {value} at k={k}, the count {counted}"
            )
    return coeffs


def poly_tension(g: RibbonGraph) -> list[int]:
    return _subset_poly(g, "tension", on_dual=False, flow=False)


def poly_flow(g: RibbonGraph) -> list[int]:
    return _subset_poly(g, "flow", on_dual=False, flow=True)


def poly_local_tension(g: RibbonGraph) -> list[int]:
    """Flow polynomial of the dual: faces of g are the vertices of g*."""
    return _subset_poly(g, "local-tension", on_dual=True, flow=True)


def poly_balanced_flow(g: RibbonGraph) -> list[int]:
    """Tension polynomial of the dual, where balanced flows become tensions."""
    return _subset_poly(g, "balanced-flow", on_dual=True, flow=False)


def _quasi_driver(
    g: RibbonGraph, matrix: np.ndarray, max_period: int
) -> QuasiPolynomial:
    """Fit each period in turn from one join over k = 1..period(E+2)+2.

    Each join is guarded by its own half-boxes before it is built.
    """
    _require_max_period(max_period)
    degree = g.num_edges
    last: NoFit | None = None
    for period in range(1, max_period + 1):
        kmax = period * (degree + 2) + 2
        check_box_join(2 * kmax - 2, degree, _CHUNK)
        ks = range(1, kmax + 1)
        samples = dict(zip(ks, _box_counts(matrix, degree, ks)))
        try:
            return fit_quasipolynomial(samples, degree, max_period=period)
        except NoFit as exc:
            last = exc
    raise NoFit(str(last))


def quasi_integral_local_tensions(
    g: RibbonGraph, max_period: int = 6
) -> QuasiPolynomial:
    """Smallest-period quasipolynomial through the integral local tension counts."""
    return _quasi_driver(g, local_tension_matrix(g), max_period)


def quasi_integral_flows(g: RibbonGraph, max_period: int = 6) -> QuasiPolynomial:
    return _quasi_driver(g, incidence_matrix(g), max_period)


# -- reciprocity pair counters -----------------------------------------------
# A pair is a solution x and an orientation of g surgered at A = supp(x):
# AO(g\A), TCO(g/A) abstractly, BAO(g//A) or TBO(g/A).  Its class, cls(A),
# is read on g's forbidden subcubes (orientations._support_classes), and
# the class's primitive names the kind's side: tensions (cycle classes) or
# flows (cut classes) of h = g or g*.  Of those, N_in(B) = k^(c(E-B) - c)
# tensions or k^(|B| - V + c(B)) flows vanish off B, c(.) the components
# of h (counted here, not read from the census), so by Moebius inversion
#     pairs(k) = sum_B N_in(B)(k) sum_{A >= B} (-1)^|A-B| cls(A),
# one superset transform (Bjorklund, Husfeldt, Kaski and Koivisto, STOC
# 2007) of cls at the supports that occur.


def _pair_poly(g: RibbonGraph, kind: str) -> list[int]:
    cls = CLASS_OF[kind]
    h, tension = _primitive(g, cls)
    e, v, c = h.num_edges, h.num_vertices, h.num_components
    comps = ribbonmap._subset_components(h)
    full = (1 << e) - 1
    bits = [1 << i for i in range(e)]
    supports = [  # E-A closed for tensions, A bridgeless for flows
        a
        for a in range(full + 1)
        if all(comps[full ^ a | b] < comps[full ^ a] if tension else comps[a ^ b] == comps[a]
               for b in bits if a & b)
    ]
    m = [0] * (full + 1)
    for a, n in zip(supports, _support_classes(g, cls, supports)):
        m[a] = n
    whole = count_class(g, cls)  # the zero vector's support, checked
    if m[0] != whole:
        raise AssertionError(f"{kind} pairs: {m[0]} at the empty support, class mask {whole}")
    for b in bits:  # m[B] <- sum over A >= B of (-1)^|A-B| m[A], one edge at a time
        for s in range(0, full + 1, 2 * b):
            m[s : s + b] = map(sub, m[s : s + b], m[s + b : s + 2 * b])
    coeffs = [0] * (max(v, e) + 1)
    for b, n in enumerate(m):
        if n:
            coeffs[comps[full ^ b] - c if tension else b.bit_count() - v + comps[b]] += n
    return ipoly_trim(coeffs)


def _pairs(g: RibbonGraph, k: int, kind: str) -> int:
    _require_k(k)
    check_pair_poly(g.num_edges, _scan_cost(g, CLASS_OF[kind]))
    return poly_eval(g._memoised(("pairs", kind), lambda: tuple(_pair_poly(g, kind))), k)


def reciprocity_pairs_tension(g: RibbonGraph, k: int) -> int:
    """Pairs (tension t, acyclic orientation of g with supp(t) deleted)."""
    return _pairs(g, k, "tension")


def reciprocity_pairs_flow(g: RibbonGraph, k: int) -> int:
    """Pairs (flow f, totally cyclic orientation of g with supp(f) contracted abstractly)."""
    return _pairs(g, k, "flow")


def reciprocity_pairs_local_tension(g: RibbonGraph, k: int) -> int:
    """Pairs (local tension t, boundary acyclic orientation after the
    coloop-aware removal of supp(t))."""
    return _pairs(g, k, "local-tension")


def reciprocity_pairs_balanced_flow(g: RibbonGraph, k: int) -> int:
    """Pairs (balanced flow f, totally bi-walkable orientation of g with
    supp(f) contracted as a ribbon graph)."""
    return _pairs(g, k, "balanced-flow")


def integral_local_tension_reciprocity_pairs(g: RibbonGraph, k: int) -> int:
    """Pairs (integer local tension t with |t| <= k, compatible BAO of g).

    Compatible means the orientation keeps the reference direction where
    t > 0 and reverses it where t < 0; edges with t = 0 are free.  At
    k = 0 only t = 0 remains and the result is |BAO(g)|.
    """
    import numpy as np

    if not isinstance(k, int) or k < 0:
        raise BadModulus(f"k must be a nonnegative integer, got {k!r}")
    width = g.num_edges
    check_assignment_scan(2 * k + 1, width)
    check_assignment_scan(3, width)  # the 3^E sign-pattern histogram
    bao = _class_mask(g, CLASS_OF["local-tension"])
    vals = np.arange(-k, k + 1, dtype=np.int64)
    pattern = _signed_pattern_counts(local_tension_matrix(g), vals, width, None)
    total = 0
    for code in np.flatnonzero(pattern).tolist():
        signs = [code // 3**e % 3 - 1 for e in range(width)]
        x, p = _subcube(width, [(e, s) for e, s in enumerate(signs) if s])
        total += int(pattern[code]) * (bao & _cube(width, x, p)).bit_count()
    return total


# -- the four kinds ----------------------------------------------------------
#
# A kind is a tension or a flow count on the map or on its dual; the
# tables below are its columns, keyed by kind name.  COUNT_NZ, POLY and
# PAIRS give its nowhere-zero counter, polynomial and reciprocity pair
# counter.  |P(-1)| counts the orientations of class CLASS_OF[kind];
# the count on the dual map equals the count of kind DUAL_KIND[kind] on
# the map; and (-1)^SIGN_EXP[kind](euler) * P(-k) counts the pairs.
# Functions are plain dict values, not fields of a record, so wrappers
# that rebind module attributes (perfbench/tracer.py) reach them here.

COUNT_NZ = {
    "tension": count_nz_tensions,
    "flow": count_nz_flows,
    "local-tension": count_nz_local_tensions,
    "balanced-flow": count_nz_balanced_flows,
}

POLY = {
    "tension": poly_tension,
    "flow": poly_flow,
    "local-tension": poly_local_tension,
    "balanced-flow": poly_balanced_flow,
}

PAIRS = {
    "tension": reciprocity_pairs_tension,
    "flow": reciprocity_pairs_flow,
    "local-tension": reciprocity_pairs_local_tension,
    "balanced-flow": reciprocity_pairs_balanced_flow,
}

CLASS_OF = {
    "tension": OrientationClass.AO,
    "flow": OrientationClass.TCO,
    "local-tension": OrientationClass.BAO,
    "balanced-flow": OrientationClass.TBO,
}

DUAL_KIND = {
    "tension": "balanced-flow",
    "flow": "local-tension",
    "local-tension": "flow",
    "balanced-flow": "tension",
}

SIGN_EXP: dict[str, Callable[[EulerData], int]] = {
    "tension": lambda d: d.v_count - d.c,
    "flow": lambda d: d.e_count - d.v_count + d.c,
    "local-tension": lambda d: d.e_count - d.f_count + d.c,
    "balanced-flow": lambda d: d.f_count - d.c,
}

KINDS = tuple(POLY)


# -- witness vectors ---------------------------------------------------------


def bao_witness_vector(g: RibbonGraph, o: Orientation) -> tuple[Fraction, ...]:
    """Sum of the sign vectors of all coherently oriented cocycles.

    For a boundary acyclic orientation the result is a nowhere-zero
    element of the face matrix kernel whose signs reproduce the
    orientation; all three postconditions are asserted.
    """
    import numpy as np

    if not is_boundary_acyclic(g, o):
        raise NotBoundaryAcyclic(
            "orientation admits a coherently oriented boundary"
        )
    p = [0] * g.num_edges
    for coc in coherent_cocycles(g, o):
        for e in coc.edges:
            p[e] += o.signs[e]
    vec = np.array(p, dtype=np.int64)
    if np.any(local_tension_matrix(g) @ vec != 0):
        raise AssertionError("witness vector escapes the face matrix kernel")
    if any(x == 0 for x in p):
        raise AssertionError("witness vector has a zero entry")
    if any((x > 0) != (s == 1) for x, s in zip(p, o.signs)):
        raise AssertionError("witness vector sign mismatch")
    return tuple(Fraction(x) for x in p)
