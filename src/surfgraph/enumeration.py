"""Exact counting of tensions and flows, and their four polynomials.

Four families of edge assignments, each defined by a linear condition:

  tension         sums around cycles vanish (fundamental cycle basis)
  flow            conservation at every vertex (signed incidence)
  local tension   sums around face boundaries vanish: flows of g*
  balanced flow   flow whose signed sums across all cocycles vanish:
                  tensions of g*

Every count is one frontier DP, _frontier (Sekine, Imai and Tani, ISAAC
1995), in pure Python: it assigns values to columns in order, keeps the
partial sums of the forms begun but not finished, and checks each form
at its last column.  It runs on two kinds of columns:

  fundamental coordinates  tensions and flows form free modules (Tutte
      1954): the free values are the columns and the determined values
      the forms.  This counts nowhere-zero tensions and flows mod k,
      nowhere-zero integer flows in a box |x(e)| < k for every k up to
      a bound at once (local tensions of g are the flows of g*), and the
      integral reciprocity pairs; `reciprocity` runs those last two.
  condition rows  the edges are the columns and the rows of a condition,
      tension or flow, the forms, each zero mod k.  This counts everything
      else mod k, on g or g*, so each duality check in verify compares two
      routes.

The four polynomials in k are two subset sums (Whitney, Tutte) over the
subset census of g or g*, exact since every condition matrix is totally
unimodular, and checked against the DP counts at k = 2 and 3.  The
reciprocity side (pair counts, integral counts and their quasipolynomial
fits, witness vectors) is in `reciprocity`, so this module loads neither
`orientations` nor `fractions`.

A quantity with a second independent characterization is computed both
ways, and disagreement raises.  The DP's forms and column plans
(tuples), the counts and the subset census are kept on the map's graph,
(V, edge ends), for every map with that graph; the local tensions and
balanced flows of g are the flows and tensions of g*, kept on its graph.
Guards run before every lookup, and every DP is priced from its own plan
(guards.check_dp); nothing is stored from a call that raised.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Sequence

from . import ribbonmap
from .errors import BadModulus
from .guards import check_dp, check_subset_poly
from .polynomials import ipoly_trim, poly_eval
from .ribbonmap import RibbonGraph

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
    width + i.  All of it is tuples, so a plan can be kept on its graph."""
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
    return h._graph_memoised(("forms", flow), lambda: _forms(h, flow))


def _fundamental_plan(h: RibbonGraph, flow: bool) -> tuple:
    forms = _fundamental_forms(h, flow)
    return h._graph_memoised(("plan", flow), lambda: _plan(h.num_edges - len(forms), forms))


def _nz_count(h: RibbonGraph, k: int, flow: bool) -> int:
    """Nowhere-zero flows (flow) or tensions of h mod k."""
    nonzero = range(1, k)
    return sum(_frontier(_fundamental_plan(h, flow), nonzero, nonzero, k).values())


def _dp_count(h: RibbonGraph, k: int, flow: bool) -> int:
    """_nz_count, priced from its plan, once per graph, flag and k."""
    _require_k(k)
    check_dp(_fundamental_plan(h, flow)[2], k - 1, k)
    return h._graph_memoised(("nz count", flow, k), lambda: _nz_count(h, k, flow))


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
    "flow": _incidence_rows,
}


def _rows(g: RibbonGraph, condition: str) -> tuple[Form, ...]:
    return g._graph_memoised(("rows", condition), lambda: _ROWS[condition](g))


def _row_plan(g: RibbonGraph, condition: str) -> tuple:
    return g._graph_memoised(("plan", condition), lambda: _plan(g.num_edges, _rows(g, condition)))


def _row_count(g: RibbonGraph, condition: str, k: int, nonzero: bool) -> int:
    """Assignments of range(nonzero, k) to the edges of g under which every
    row of the condition is zero mod k."""
    return sum(_frontier(_row_plan(g, condition), range(nonzero, k), range(1), k).values())


# -- the four counting families ----------------------------------------------


def _count(g: RibbonGraph, k: int, nonzero: bool, condition: str) -> int:
    """Solutions mod k of one condition on g, priced from its plan, counted
    once per graph."""
    _require_k(k)
    check_dp(_row_plan(g, condition)[2], k - nonzero, k)
    return g._graph_memoised(
        ("count", condition, k, nonzero), lambda: _row_count(g, condition, k, nonzero)
    )


def count_nz_tensions(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero assignments E -> Z_k with zero sum around every cycle."""
    return _dp_count(g, k, False)


def count_tensions(g: RibbonGraph, k: int) -> int:
    return _count(g, k, False, "tension")


def count_nz_flows(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero assignments E -> Z_k conserved at every vertex."""
    return _dp_count(g, k, True)


def count_flows(g: RibbonGraph, k: int) -> int:
    return _count(g, k, False, "flow")


def count_nz_local_tensions(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero assignments with zero signed sum around every face: the
    flows of g*, on its rows rather than the coordinates count_nz_flows
    reads, so each duality row of verify compares two routes."""
    return _count(g.dual, k, True, "flow")


def count_local_tensions(g: RibbonGraph, k: int) -> int:
    return count_flows(g.dual, k)


def count_nz_balanced_flows(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero flows whose signed sums across all cocycles vanish: the
    tensions of g*, on its rows rather than the coordinates
    count_nz_tensions reads, so each duality row of verify compares two
    routes."""
    return _count(g.dual, k, True, "tension")


def count_balanced_flows(g: RibbonGraph, k: int) -> int:
    return count_tensions(g.dual, k)


# -- polynomials by subset expansion -----------------------------------------


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


def _subset_poly(h: RibbonGraph, flow: bool) -> list[int]:
    # Refuse before the 2^E subsets and the k = 2, 3 counts on h start.
    check_subset_poly(h.num_edges)
    coeffs = _subset_sum(h, flow)
    kind = "flow" if flow else "tension"
    for k in (2, 3):
        value, counted = poly_eval(coeffs, k), COUNT_NZ[kind](h, k)
        if value != counted:
            raise AssertionError(
                f"{kind} subset sum gives {value} at k={k}, the count {counted}"
            )
    return coeffs


def poly_tension(g: RibbonGraph) -> list[int]:
    return _subset_poly(g, flow=False)


def poly_flow(g: RibbonGraph) -> list[int]:
    return _subset_poly(g, flow=True)


def poly_local_tension(g: RibbonGraph) -> list[int]:
    """Flow polynomial of the dual: faces of g are the vertices of g*."""
    return poly_flow(g.dual)


def poly_balanced_flow(g: RibbonGraph) -> list[int]:
    """Tension polynomial of the dual, where balanced flows become tensions."""
    return poly_tension(g.dual)


# -- the four kinds ----------------------------------------------------------
#
# A kind is a tension or a flow count on the map or on its dual; the
# tables below are its columns, keyed by kind name.  COUNT_NZ and POLY
# give its nowhere-zero counter and polynomial, and the count on the
# dual map equals the count of kind DUAL_KIND[kind] on the map.  The
# reciprocity columns (pair counter, class, sign) are in `reciprocity`,
# keyed by KINDS.  Functions are plain dict values, not fields of a
# record, so wrappers that rebind module attributes (perfbench/tracer.py)
# reach them here.

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

DUAL_KIND = {
    "tension": "balanced-flow",
    "flow": "local-tension",
    "local-tension": "flow",
    "balanced-flow": "tension",
}

KINDS = tuple(POLY)


def __getattr__(name: str):
    # |P(-1)| of each kind counts a class of orientations: count_class is
    # served from orientations on first use, so no count loads that module.
    if name == "count_class":
        from .orientations import count_class

        return count_class
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
