"""The identities that `verify` checks, as one table of rows.

A row is one identity on a map g: its name, two sides, the first k it
reads (None for no k; the last is kmax), when it runs (the integral row
only when E <= 4) and how the report shows a side (the class-bijection
rows compare two masks and show their sizes).  A side is a function of
the map's Context, holding g, g* and the four polynomials of g, each
read once per map, and of the ks; a row passes when its sides are equal.
A row's `dps` are the frontier DPs it runs, as guards.check_dp
arguments, so that a report is priced whole before its first row runs:
a kind's duality row compares two DPs on its class's primitive h = g or
g*, on fundamental coordinates and on condition rows.  The per-kind rows
come from enumeration's KINDS and DUAL_KIND and reciprocity's CLASS_OF,
SIGN_EXP and PAIRS.  Sides call the library through its modules'
attributes and tables, so wrappers that rebind them
(perfbench/tracer.py, the tests' spies) see every call.  Only `verify`,
`batch` and `reciprocity` import this module, and they load all it
imports whatever they run.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import enumeration as en
from . import guards, orientations, ribbonmap
from . import reciprocity as rc
from .guards import _dp_price
from .polynomials import poly_eval
from .ribbonmap import RibbonGraph


class Context:
    """One map g and its dual gd; poly(kind) is computed on its first use."""

    def __init__(self, g: RibbonGraph):
        self.g, self.gd = g, ribbonmap.dual(g)
        self.poly = functools.cache(lambda kind: en.POLY[kind](g))


class Row(NamedTuple):
    name: str
    lhs: Callable[[Context, Any], Any]
    rhs: Callable[[Context, Any], Any]
    k_from: int | None = None
    runs: Callable[[RibbonGraph], bool] = lambda g: True
    shown: Callable[[Any], Any] = lambda side: side
    dps: Callable[[Context, Any], Iterable[tuple]] = lambda c, ks: ()


def _routes(g: RibbonGraph, kind: str) -> tuple[tuple, tuple]:
    """The guides of the DPs counting the nowhere-zero tensions (cycle
    classes) or flows of the kind's primitive h = g or g* mod k: on
    fundamental coordinates, and on the condition's rows."""
    h, cycles = orientations._primitive(g, rc.CLASS_OF[kind])
    return en._fundamental_plan(h, not cycles)[2], en._row_plan(h, "tension" if cycles else "flow")[2]


def _per_kind(kind: str) -> tuple[Row, Row, Row]:
    """The kind's duality, minus-one and signed-pairs rows."""
    dual, cls = en.DUAL_KIND[kind], rc.CLASS_OF[kind]

    def signed(c: Context, ks: Sequence[int]) -> list[int]:
        sign = (-1) ** rc.SIGN_EXP[kind](c.g.euler)
        return [sign * poly_eval(c.poly(kind), -k) for k in ks]

    return (
        Row(f"{kind} of map equals {dual} of dual",
            lambda c, ks: [en.COUNT_NZ[kind](c.g, k) for k in ks],
            lambda c, ks: [en.COUNT_NZ[dual](c.gd, k) for k in ks], k_from=1,
            dps=lambda c, ks: [(guide, k - 1, k) for guide in _routes(c.g, kind) for k in ks]),
        Row(f"|{kind} polynomial at -1| counts {cls.value} orientations",
            lambda c, ks: abs(poly_eval(c.poly(kind), -1)),
            lambda c, ks: orientations.count_class(c.g, cls),
            # the first row to read the polynomial: its DP checks at k = 2, 3
            dps=lambda c, ks: [(_routes(c.g, kind)[0], k - 1, k) for k in (2, 3)]),
        Row(f"signed {kind} polynomial at -k counts reciprocity pairs", signed,
            lambda c, ks: [rc.PAIRS[kind](c.g, k) for k in ks], k_from=1),
    )


def _integral(c: Context, ks: Sequence[int]) -> list[int | str]:
    quasi = rc.quasi_integral_local_tensions(c.g)
    return [int(x) if x.denominator == 1 else str(x) for x in (abs(quasi.evaluate(-k)) for k in ks)]


def _unique_cw(c: Context, ks: None) -> list[int]:
    # The dual of a TBO is acyclic, so each component of g* has a sink, a
    # cw face: with c >= 2 components no orientation has exactly one.
    dual_tension = c.poly("balanced-flow")
    const = abs(dual_tension[0]) if dual_tension else 0
    return [const if c.g.euler.c == 1 else 0] * c.g.num_faces


def _bijection(kind: str) -> Row:
    # dual_orientation keeps the sign vector, and g and g* share the masks'
    # bit order, so the bijection is the equality of two masks.  DUAL_KIND
    # pairs the kinds two by two, so two kinds give both bijections.
    cls, dual_cls = rc.CLASS_OF[kind], rc.CLASS_OF[en.DUAL_KIND[kind]]
    return Row(f"dual orientations of {cls.value} maps are exactly the {dual_cls.value} maps of the dual",
               lambda c, ks: orientations._class_mask(c.g, cls),
               lambda c, ks: orientations._class_mask(c.gd, dual_cls), shown=int.bit_count)


_DUALITY, _MINUS_ONE, _SIGNED_PAIRS = zip(*map(_per_kind, en.KINDS))
SIGNED_PAIRS = dict(zip(en.KINDS, _SIGNED_PAIRS))

ROWS = (
    *_DUALITY, *_MINUS_ONE, *_SIGNED_PAIRS,
    Row("|integral local-tension quasipolynomial at -k| counts compatible pairs", _integral,
        lambda c, ks: [rc.integral_local_tension_reciprocity_pairs(c.g, k) for k in ks],
        k_from=0, runs=lambda g: g.num_edges <= 4,
        dps=lambda c, ks: [*rc._quasi_dps(c.gd), *(rc._pairs_dp(c.g, k) for k in ks)]),
    Row("|dual tension polynomial at -1| counts totally bi-walkable orientations",
        lambda c, ks: abs(poly_eval(c.poly("balanced-flow"), -1)),  # the tension polynomial of g*
        lambda c, ks: orientations.count_class(c.g, orientations.OrientationClass.TBO)),
    Row("every face is the unique cw face of |dual tension constant term| orientations",
        lambda c, ks: orientations.unique_cw_counts(c.g), _unique_cw),
    Row("cw-face histogram matches the subset-sum formula",
        lambda c, ks: orientations.tbo_generating_polynomial(c.g),
        lambda c, ks: orientations.tbo_generating_poly_formula(c.g)),
    *map(_bijection, ("local-tension", "tension")),  # BAO -> TCO and AO -> TBO
)


def _price(c: Context, rows: list[tuple[Row, Any]], kmax: int) -> None:
    """Refuse a report before its first row runs if the frontier DPs of its
    rows, on both sides and at every k, priced as if no value were kept,
    are too many steps together; the refusal names how many and their sum."""
    prices = [_dp_price(*dp) for row, ks in rows for dp in row.dps(c, ks)]
    total = sum(prices)
    if total > guards.MAX_ASSIGNMENTS:
        guards._refuse(
            f"the identities at kmax {kmax}, {len(prices)} frontier DPs priced before "
            f"the first runs, about {total} steps in all,"
        )


def report(g: RibbonGraph, kmax: int) -> dict:
    """Check every row that runs on g, at k up to kmax; report both sides of each."""
    from .generator import canonical_code

    t0 = time.perf_counter()
    c = Context(g)
    rows = [(row, None if row.k_from is None else range(row.k_from, kmax + 1)) for row in ROWS if row.runs(g)]
    _price(c, rows, kmax)
    identities = []
    for row, ks in rows:
        lhs, rhs = row.lhs(c, ks), row.rhs(c, ks)
        identities.append({"identity": row.name, "k_range": ks if ks is None else [ks.start, kmax],
                           "lhs": row.shown(lhs), "rhs": row.shown(rhs), "pass": lhs == rhs})
    d = g.euler
    return {
        "graph": canonical_code(g).hex(),
        "euler": {"vertices": d.v_count, "edges": d.e_count, "faces": d.f_count,
                  "components": d.c, "genus": d.g},
        "kmax": kmax,
        "identities": identities,
        "all_pass": all(i["pass"] for i in identities),
        "elapsed_s": round(time.perf_counter() - t0, 4),
    }


def summary(report: dict) -> str:
    """The report for people: one line per row, then how many pass."""
    rows = report["identities"]
    lines = [f"  PASS {i['identity']}" if i["pass"] else f"  FAIL {i['identity']}: lhs={i['lhs']} rhs={i['rhs']}"
             for i in rows]
    passed = sum(i["pass"] for i in rows)
    lines.append(f"graph {report['graph'][:16]}…: {passed}/{len(rows)} identities pass ({report['elapsed_s']}s)")
    return "\n".join(lines)
