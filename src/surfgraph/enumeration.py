"""Exact counting of tensions and flows, and the reciprocity pair counters.

Four families of edge assignments, each defined by a linear condition:

  tension         sums around cycles vanish (fundamental cycle basis)
  flow            conservation at every vertex (signed incidence)
  local tension   sums around face boundaries vanish (face rows)
  balanced flow   flow whose signed sums across all cocycles vanish
                  (incidence stacked with a cycle basis of the dual)

Every count is one frontier DP, _frontier (Sekine, Imai and Tani, ISAAC
1995), in pure Python: it assigns values to columns in order, keeps the
partial sums of the forms begun but not finished, and checks each form
at its last column.  It runs on two kinds of columns:

  fundamental coordinates  tensions and flows form free modules (Tutte
      1954): the free values are the columns and the determined values
      the forms.  This counts nowhere-zero tensions and flows mod k,
      nowhere-zero integer flows in a box |x(e)| < k for every k up to
      a bound at once (local tensions of g are the flows of g*), and the
      integral reciprocity pairs.
  condition rows  the edges are the columns and the rows of a condition
      the forms, each zero mod k.  This counts everything else mod k, so
      each duality check in verify compares two routes.

The four polynomials in k are two subset sums (Whitney, Tutte) over the
subset census of g or g*, exact since every condition matrix is totally
unimodular, and checked against the DP counts at k = 2 and 3.  The
reciprocity pairs are one more polynomial per kind, from the components
of every edge subset and the class of g surgered at each support that
occurs, read on g's own forbidden subcubes; verify compares it with the
signed polynomial at -k.  Integral local tension counts get a
quasipolynomial fit.

A quantity with a second independent characterization is computed both
ways, and disagreement raises.  The condition rows, the DP's forms and
column plans (tuples), the mod-k counts, the subset census and
components and the pair polynomials are kept on the map
(RibbonGraph._memo).  Guards run before every lookup, and every DP is
priced from its own plan (guards.check_dp); nothing is stored from a
call that raised.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import add, sub
from typing import TYPE_CHECKING, Callable, Sequence

from . import ribbonmap
from .errors import BadModulus, NoFit, NotBoundaryAcyclic
from .guards import check_dp, check_pair_poly, check_subset_poly
from .orientations import (
    Orientation,
    OrientationClass,
    _class_mask,
    _lanes,
    _primitive,
    _scan_cost,
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
    from fractions import Fraction

# A form: (column, coefficient) pairs, in column order, no zero coefficient.
Form = tuple[tuple[int, int], ...]


# -- the frontier DP ---------------------------------------------------------


def _plan(width: int, forms: Sequence[Form]) -> tuple:
    """The frontier DP's schedule over columns 0..width-1 for these forms:
    the slots of the forms with no columns; per column the order of the
    sums once the forms that begin there join them (None if none does)
    and how many join, the slots of the forms that end there (their sums
    come first, the sums kept in the order of their last columns), and
    each sum's coefficient; and per column, for the guards, the values
    assigned before it (columns and closed forms) and the variables
    already assigned in each form open as it starts.  Form i has slot
    width + i.  All of it is tuples, so a plan can be kept on the map."""
    last = [f[-1][0] if f else -1 for f in forms]
    opens: list[list[int]] = [[] for _ in range(width)]
    for i, f in enumerate(forms):
        if f:
            opens[f[0][0]].append(i)
    coeffs = [dict(f) for f in forms]
    columns = []
    guide = []
    live: list[int] = []  # the forms behind the sums
    closed = 0
    for j in range(width):
        guide.append((j + closed, tuple(sum(c < j for c in coeffs[i]) for i in live)))
        order = None
        if opens[j]:
            grown = live + opens[j]
            order = tuple(sorted(range(len(grown)), key=lambda s: last[grown[s]]))
            live = [grown[s] for s in order]
        shut = tuple(width + i for i in live if last[i] == j)
        columns.append((order, len(opens[j]), shut, tuple(coeffs[i].get(j, 0) for i in live)))
        live = live[len(shut) :]
        closed += len(shut)
    return tuple(width + i for i, f in enumerate(forms) if not f), tuple(columns), tuple(guide)


def _frontier(
    plan: tuple,
    values: Sequence[int],
    accept: range,
    modulus: int = 0,
    mark: Callable | None = None,
    start=None,
) -> dict:
    """Assignments of the values to the columns of plan under which every
    form takes a value in accept (mod modulus, if nonzero), counted by
    tag.

    The state is the partial sums of the forms begun but not finished,
    and a tag that starts as start: mark(tag, slot, value) gives the tag
    after column j takes a value (slot j) or a form ends on one (its
    slot), or None to drop the assignment.  A form is checked at its
    last column, then leaves the state; a form with no columns is 0.
    """
    empty, columns, _ = plan
    tag = start
    for slot in empty:
        if 0 not in accept:
            return {}
        if mark is not None:
            tag = mark(tag, slot, 0)
            if tag is None:
                return {}
    ok = accept.__contains__
    states = {((), tag): 1}
    for j, (order, opened, shut, sign) in enumerate(columns):
        entries = [(sums, tag, n) for (sums, tag), n in states.items()]
        if order is not None:
            pad = (0,) * opened
            entries = [(tuple(map((sums + pad).__getitem__, order)), t, n) for sums, t, n in entries]
        cut = len(shut)
        step: dict = {}
        for v in values:
            delta = [d * v for d in sign]
            for sums, tag, n in entries:
                if modulus:
                    new = tuple(map(modulus.__rmod__, map(add, sums, delta)))
                else:
                    new = tuple(map(add, sums, delta))
                if cut and not all(map(ok, new[:cut])):
                    continue
                if mark is not None:
                    tag = mark(tag, j, v)
                    for slot, x in zip(shut, new):
                        if tag is None:
                            break
                        tag = mark(tag, slot, x)
                    if tag is None:
                        continue
                key = (new[cut:], tag)
                step[key] = step.get(key, 0) + n
        states = step
        if not states:
            return {}
    out: dict = {}
    for (_, tag), n in states.items():
        out[tag] = out.get(tag, 0) + n
    return out


def _require_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise BadModulus(f"k must be a positive integer, got {k!r}")


# -- fundamental coordinates -------------------------------------------------
#
# Tensions and flows form free modules, over Z_k and over Z (Tutte 1954).
# A tension is fixed by its values on the spanning forest: each chord
# carries the signed sum of the forest edges on its fundamental cycle.  A
# flow is fixed by its values on the chords: each forest edge carries the
# signed sum of the chords whose cycles use it.  So the free values are
# the DP's columns, and each determined value is a form in them, checked
# to lie in the value set; a form with no variables (a loop for tensions,
# a bridge for flows) is always zero.


def _forms(h: RibbonGraph, flow: bool) -> tuple[Form, ...]:
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


def _fundamental_forms(h: RibbonGraph, flow: bool) -> tuple[Form, ...]:
    return h._memoised(("forms", flow), lambda: _forms(h, flow))


def _fundamental_plan(h: RibbonGraph, flow: bool) -> tuple:
    forms = _fundamental_forms(h, flow)
    return h._memoised(("plan", flow), lambda: _plan(h.num_edges - len(forms), forms))


def _nz_count(h: RibbonGraph, k: int, flow: bool) -> int:
    """Nowhere-zero flows (flow) or tensions of h mod k."""
    nonzero = range(1, k)
    return sum(_frontier(_fundamental_plan(h, flow), nonzero, nonzero, k).values())


def _dp_count(h: RibbonGraph, k: int, flow: bool) -> int:
    """_nz_count, priced from its plan, once per map, flag and k."""
    _require_k(k)
    check_dp(_fundamental_plan(h, flow)[2], k - 1, k)
    return h._memoised(("nz count", flow, k), lambda: _nz_count(h, k, flow))


def _box_counts(h: RibbonGraph, ks: Sequence[int]) -> list[int]:
    """counts[i] = nowhere-zero integer flows x of h with |x(e)| < ks[i],
    for ascending ks >= 1, from one DP whose tag is the first box that
    holds every value so far."""
    kmax = ks[-1]

    def box(b: int, _slot: int, v: int) -> int | None:
        # the first box holding v is ks[bisect_right(ks, |v|)]; none holds 0
        return max(b, bisect_right(ks, abs(v))) if v else None

    values = (*range(1 - kmax, 0), *range(1, kmax))
    tags = _frontier(_fundamental_plan(h, True), values, range(1 - kmax, kmax), 0, box, 0)
    return list(accumulate(tags.get(b, 0) for b in range(len(ks))))


def _price_box(h: RibbonGraph, kmax: int, boxes: int) -> None:
    check_dp(_fundamental_plan(h, True)[2], 2 * kmax - 2, boxes=boxes)


# -- condition rows ----------------------------------------------------------


def _form(terms) -> Form:
    """(column, coefficient) terms summed per column, in column order."""
    acc: dict[int, int] = {}
    for col, d in terms:
        acc[col] = acc.get(col, 0) + d
    return tuple((col, d) for col, d in sorted(acc.items()) if d)


def _cycle_rows(cycles) -> tuple[Form, ...]:
    return tuple(_form(zip(c.edges, c.directions)) for c in cycles)


def _incidence_rows(g: RibbonGraph) -> tuple[Form, ...]:
    """One row per vertex: +1 at the head, -1 at the tail, 0 on loops."""
    at: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for e, (tail, head) in enumerate(g._edge_ends):
        at[head].append((e, 1))
        at[tail].append((e, -1))
    return tuple(map(_form, at))


_ROWS: dict[str, Callable[[RibbonGraph], tuple[Form, ...]]] = {
    "tension": lambda g: _cycle_rows(g._fundamental_cycles),
    "all-cycles": lambda g: _cycle_rows(g._cycles),
    "flow": _incidence_rows,
    "local-tension": lambda g: tuple(_form(enumerate(row)) for row in g._face_matrix),
    # Cocycle sums over a generating set: cycles of the dual share edge ids.
    "balanced-flow": lambda g: _incidence_rows(g) + _cycle_rows(g.dual._fundamental_cycles),
}


def _rows(g: RibbonGraph, condition: str) -> tuple[Form, ...]:
    return g._memoised(("rows", condition), lambda: _ROWS[condition](g))


def _row_plan(g: RibbonGraph, condition: str) -> tuple:
    return g._memoised(("plan", condition), lambda: _plan(g.num_edges, _rows(g, condition)))


def _row_count(g: RibbonGraph, condition: str, k: int, nonzero: bool) -> int:
    """Assignments of range(nonzero, k) to the edges of g under which every
    row of the condition is zero mod k."""
    return sum(_frontier(_row_plan(g, condition), range(nonzero, k), range(1), k).values())


# -- the four counting families ----------------------------------------------


def _count(g: RibbonGraph, k: int, nonzero: bool, condition: str) -> int:
    """Solutions mod k of one condition on g, priced from its plan, counted
    once per map."""
    _require_k(k)
    check_dp(_row_plan(g, condition)[2], k - nonzero, k)
    return g._memoised(
        ("count", condition, k, nonzero),
        lambda: _row_count(g, condition, k, nonzero),
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
    """Nowhere-zero integer local tensions with |t(e)| < k: the flows of g*."""
    _require_k(k)
    _price_box(g.dual, k, 1)
    (count,) = _box_counts(g.dual, [k])
    return count


def count_integral_flows(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero integer flows with |f(e)| < k."""
    _require_k(k)
    _price_box(g, k, 1)
    (count,) = _box_counts(g, [k])
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


def _quasi_driver(g: RibbonGraph, h: RibbonGraph, max_period: int) -> QuasiPolynomial:
    """Fit each period in turn from one box DP on the flows of h over
    k = 1..period(E+2)+2.  The largest period's DP, which bounds every
    smaller one's, is priced before the first runs."""
    _require_max_period(max_period)
    degree = g.num_edges
    kmax = max_period * (degree + 2) + 2
    _price_box(h, kmax, kmax)
    last: NoFit | None = None
    for period in range(1, max_period + 1):
        ks = range(1, period * (degree + 2) + 3)
        samples = dict(zip(ks, _box_counts(h, ks)))
        try:
            return fit_quasipolynomial(samples, degree, max_period=period)
        except NoFit as exc:
            last = exc
    raise NoFit(str(last))


def quasi_integral_local_tensions(
    g: RibbonGraph, max_period: int = 6
) -> QuasiPolynomial:
    """Smallest-period quasipolynomial through the integral local tension counts."""
    return _quasi_driver(g, g.dual, max_period)


def quasi_integral_flows(g: RibbonGraph, max_period: int = 6) -> QuasiPolynomial:
    return _quasi_driver(g, g, max_period)


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
    k = 0 only t = 0 remains and the result is |BAO(g)|.  The local
    tensions are the flows of g*, counted by the box DP with the mask of
    the BAOs still compatible as its tag.
    """
    if not isinstance(k, int) or k < 0:
        raise BadModulus(f"k must be a nonnegative integer, got {k!r}")
    width = g.num_edges
    h = g.dual
    plan = _fundamental_plan(h, True)
    check_dp(plan[2], 2 * k + 1, edges=width)
    bao = _class_mask(g, CLASS_OF["local-tension"])
    chords = [c.edges[0] for c in h._fundamental_cycles]
    tree = sorted(set(range(width)) - set(chords))  # the edges of forms, in order
    lanes = _lanes(width)  # per edge: (masks keeping its direction, masks reversing it)
    slots = [lanes[e] for e in chords + tree]

    def compatible(mask: int, slot: int, v: int) -> int | None:
        return (mask & slots[slot][v < 0] or None) if v else mask

    box = range(-k, k + 1)
    tags = _frontier(plan, box, box, 0, compatible, bao)
    return sum(n * mask.bit_count() for mask, n in tags.items())


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
    from fractions import Fraction

    if not is_boundary_acyclic(g, o):
        raise NotBoundaryAcyclic(
            "orientation admits a coherently oriented boundary"
        )
    p = [0] * g.num_edges
    for coc in coherent_cocycles(g, o):
        for e in coc.edges:
            p[e] += o.signs[e]
    if any(sum(map(int.__mul__, row, p)) for row in g._face_matrix):
        raise AssertionError("witness vector escapes the face matrix kernel")
    if any(x == 0 for x in p):
        raise AssertionError("witness vector has a zero entry")
    if any((x > 0) != (s == 1) for x, s in zip(p, o.signs)):
        raise AssertionError("witness vector sign mismatch")
    return tuple(Fraction(x) for x in p)
