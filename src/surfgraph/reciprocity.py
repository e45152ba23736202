"""The reciprocity side: pair counts, integral counts and their
quasipolynomials, witness vectors, and the surgeries the theorem names.

Each kind's polynomial, read at -k with a sign, counts pairs of an
assignment and an orientation of g surgered at its support: AO(g\\A),
TCO(g/A) abstractly, BAO(g//A) or TBO(g/A).  The pair counters read
those classes on the forbidden subcubes of g or g* (orientations), so
they build no surgered map; the surgeries serve the tests' pair oracle
and is_separating.  Integral flows in a box |x(e)| < k are one box DP
(enumeration's frontier DP), fitted by a quasipolynomial; the integral
local tensions of g are those flows of g*, and the value of their fit at
-k counts the integral pairs with the BAOs.  A witness vector shows each
BAO as the signs of a local tension.

Interpolation runs in integers: the polynomial through the points is
an integer polynomial N over one denominator L (`_scaled_interpolant`).
`interpolate` divides N by L and refuses a remainder; the
quasipolynomial fits check each candidate constituent's held-out
samples y at x as N(x) == L y.  A quasipolynomial of period p is p
constituent polynomials, one per residue class of the argument mod p,
with rational coefficients, built as fractions.Fraction once the period
is certified; only the functions that build Fractions import
`fractions`.  verify and the `reciprocity`, `integral` and `witness`
commands load this module; the counts and polynomials load none of it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from math import lcm, prod
from operator import sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .enumeration import KINDS, _frontier, _fundamental_plan, _require_k
from .errors import BadModulus, DuplicateEdge, NoFit, NonIntegerCoefficients, NotBoundaryAcyclic
from .guards import check_cycle_search, check_dp, check_pair_poly
from .orientations import (
    Orientation,
    OrientationClass,
    _SIDE,
    _class_mask,
    _lanes,
    _scan_cost,
    _support_classes,
    coherent_cocycles,
    count_class,
    is_boundary_acyclic,
)
from .polynomials import ipoly_mul, ipoly_trim, poly_eval
from .records import Record
from .ribbonmap import (
    Cycle,
    EulerData,
    RibbonGraph,
    _cycle_bound,
    _orbits,
    _spanning_forest,
    check_cycle,
    face_matrix,
)

if TYPE_CHECKING:
    from fractions import Fraction


# -- reciprocity pair counters -----------------------------------------------
# A pair is a solution x and an orientation of g surgered at A = supp(x):
# AO(g\A), TCO(g/A) abstractly, BAO(g//A) or TBO(g/A).  The last two are
# TCO(g*/A) and AO(g*\A): the local-tension and balanced-flow pairs of g
# are the flow and tension pairs of g*.  So the counters take the
# primitive h = g or g* and whether they count tensions (AO) or flows
# (TCO), and read cls(A) on h's forbidden subcubes
# (orientations._support_classes).  Of those, N_in(B) = k^(c(E-B) - c)
# tensions or k^(|B| - V + c(B)) flows vanish off B, c(.) the components
# of h (counted here, not read from the census), so by Moebius inversion
#     pairs(k) = sum_B N_in(B)(k) sum_{A >= B} (-1)^|A-B| cls(A),
# one superset transform (Bjorklund, Husfeldt, Kaski and Koivisto, STOC
# 2007) of cls at the supports that occur.


def _subset_components(h: RibbonGraph) -> tuple[int, ...]:
    """c(B), the components of (V, B), for every edge subset B of h, edge e
    at bit E-1-e; walked once per graph."""
    return h._graph_memoised(("subset components",), lambda: _components_walk(h))


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


def _pair_poly(h: RibbonGraph, tension: bool) -> list[int]:
    e, v, c = h.num_edges, h.num_vertices, h.num_components
    comps = _subset_components(h)
    full = (1 << e) - 1
    bits = [1 << i for i in range(e)]
    supports = [  # E-A closed for tensions, A bridgeless for flows
        a
        for a in range(full + 1)
        if all(comps[full ^ a | b] < comps[full ^ a] if tension else comps[a ^ b] == comps[a]
               for b in bits if a & b)
    ]
    m = [0] * (full + 1)
    for a, n in zip(supports, _support_classes(h, tension, supports)):
        m[a] = n
    whole = count_class(h, OrientationClass.AO if tension else OrientationClass.TCO)
    if m[0] != whole:  # the zero vector's support
        raise AssertionError(f"{_SIDE[tension]}: {m[0]} pairs at the empty support, class mask {whole}")
    for b in bits:  # m[B] <- sum over A >= B of (-1)^|A-B| m[A], one edge at a time
        for s in range(0, full + 1, 2 * b):
            m[s : s + b] = map(sub, m[s : s + b], m[s + b : s + 2 * b])
    coeffs = [0] * (max(v, e) + 1)
    for b, n in enumerate(m):
        if n:
            coeffs[comps[full ^ b] - c if tension else b.bit_count() - v + comps[b]] += n
    return ipoly_trim(coeffs)


def _pairs(h: RibbonGraph, k: int, tension: bool) -> int:
    """The tension (AO) or flow (TCO) pair count of h at k, from the pair
    polynomial kept on the isomorphism class of h's graph, by cycles or
    cuts."""
    _require_k(k)
    check_pair_poly(h.num_edges, _scan_cost(h, tension))
    poly = h._invariant_memoised(("pairs", _SIDE[tension]), lambda: tuple(_pair_poly(h, tension)))
    return poly_eval(poly, k)


def reciprocity_pairs_tension(g: RibbonGraph, k: int) -> int:
    """Pairs (tension t, acyclic orientation of g with supp(t) deleted)."""
    return _pairs(g, k, True)


def reciprocity_pairs_flow(g: RibbonGraph, k: int) -> int:
    """Pairs (flow f, totally cyclic orientation of g with supp(f) contracted abstractly)."""
    return _pairs(g, k, False)


def reciprocity_pairs_local_tension(g: RibbonGraph, k: int) -> int:
    """Pairs (local tension t, boundary acyclic orientation after the
    coloop-aware removal of supp(t)): the flow pairs of g*."""
    return reciprocity_pairs_flow(g.dual, k)


def reciprocity_pairs_balanced_flow(g: RibbonGraph, k: int) -> int:
    """Pairs (balanced flow f, totally bi-walkable orientation of g with
    supp(f) contracted as a ribbon graph): the tension pairs of g*."""
    return reciprocity_pairs_tension(g.dual, k)


# -- the four kinds ----------------------------------------------------------
#
# The reciprocity columns of enumeration's kind table, keyed by its KINDS.
# PAIRS gives each kind's pair counter; |P(-1)| counts the orientations of
# class CLASS_OF[kind]; and (-1)^SIGN_EXP[kind](euler) * P(-k) counts the
# pairs.  Functions are plain dict values, not fields of a record, so
# wrappers that rebind module attributes reach them here.

PAIRS = dict(
    zip(
        KINDS,
        (
            reciprocity_pairs_tension,
            reciprocity_pairs_flow,
            reciprocity_pairs_local_tension,
            reciprocity_pairs_balanced_flow,
        ),
    )
)

CLASS_OF = dict(
    zip(KINDS, (OrientationClass.AO, OrientationClass.TCO, OrientationClass.BAO, OrientationClass.TBO))
)

SIGN_EXP: dict[str, Callable[[EulerData], int]] = dict(
    zip(
        KINDS,
        (
            lambda d: d.v_count - d.c,
            lambda d: d.e_count - d.v_count + d.c,
            lambda d: d.e_count - d.f_count + d.c,
            lambda d: d.f_count - d.c,
        ),
    )
)


# -- integral (bounded integer) counts ---------------------------------------


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


def count_integral_local_tensions(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero integer local tensions with |t(e)| < k: the flows of g*."""
    return count_integral_flows(g.dual, k)


def count_integral_flows(g: RibbonGraph, k: int) -> int:
    """Nowhere-zero integer flows with |f(e)| < k."""
    _require_k(k)
    check_dp(_fundamental_plan(g, True)[2], 2 * k - 2)
    (count,) = _box_counts(g, [k])
    return count


def integral_local_tension_reciprocity_pairs(g: RibbonGraph, k: int) -> int:
    """Pairs (integer local tension t with |t| <= k, compatible BAO of g).

    Compatible means the orientation keeps the reference direction where
    t > 0 and reverses it where t < 0; edges with t = 0 are free.  At
    k = 0 only t = 0 remains and the result is |BAO(g)|.  The local
    tensions are the flows of g*, counted by the box DP with the mask of
    the BAOs still compatible as its tag.  The BAOs of g are the TCOs of
    g*, so the count is kept per k on the isomorphism class of g*'s graph.
    """
    if not isinstance(k, int) or k < 0:
        raise BadModulus(f"k must be a nonnegative integer, got {k!r}")
    h = g.dual
    check_dp(*_pairs_dp(g, k))
    bao = _class_mask(g, CLASS_OF["local-tension"])  # TCO of g*, guarded here too
    return h._invariant_memoised(("integral pairs", k), lambda: _integral_pairs(h, k, bao))


def _pairs_dp(g: RibbonGraph, k: int) -> tuple:
    """The check_dp arguments of g's integral pair DP at k, on g*."""
    return _fundamental_plan(g.dual, True)[2], 2 * k + 1, 0, 1, g.num_edges


def _integral_pairs(h: RibbonGraph, k: int, bao: int) -> int:
    width = h.num_edges
    plan = _fundamental_plan(h, True)
    chords = [c.edges[0] for c in h._fundamental_cycles]
    tree = sorted(set(range(width)) - set(chords))  # the edges of forms, in order
    lanes = _lanes(width)  # per edge: (masks keeping its direction, masks reversing it)
    slots = [lanes[e] for e in chords + tree]

    def compatible(mask: int, slot: int, v: int) -> int | None:
        return (mask & slots[slot][v < 0] or None) if v else mask

    box = range(-k, k + 1)
    tags = _frontier(plan, box, box, 0, compatible, bao)
    return sum(n * mask.bit_count() for mask, n in tags.items())


# -- exact interpolation and quasipolynomials --------------------------------


class QuasiPolynomial(Record):
    """Period p and one ascending coefficient list per residue class.

    evaluate(n) uses constituents[n % period]; Python's % keeps the
    index nonnegative for negative n, so reciprocity evaluations at
    -k pick the class of -k mod p.
    """

    _fields = ("period", "constituents")

    def __init__(self, period: int, constituents: tuple[tuple[Fraction, ...], ...]):
        self._set(period=period, constituents=constituents)
        if period < 1 or len(constituents) != period:
            raise ValueError("need exactly `period` constituents")

    def evaluate(self, n: int) -> Fraction:
        from fractions import Fraction

        nums, den = self._scaled[n % self.period]
        return Fraction(poly_eval(nums, n), den)

    @cached_property
    def _scaled(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each constituent as integer coefficients over one denominator,
        so that evaluate builds one Fraction rather than one per step."""
        out = []
        for cs in self.constituents:
            den = lcm(*(c.denominator for c in cs))
            out.append((tuple(c.numerator * (den // c.denominator) for c in cs), den))
        return tuple(out)

    @property
    def degree(self) -> int:
        return max(len(ipoly_trim(c)) - 1 for c in self.constituents)

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "constituents": [[str(c) for c in cs] for cs in self.constituents],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuasiPolynomial":
        from fractions import Fraction

        return cls(
            period=int(d["period"]),
            constituents=tuple(
                tuple(Fraction(s) for s in cs) for cs in d["constituents"]
            ),
        )


def _scaled_interpolant(points: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """(N, L) with N / L the polynomial through the distinct-x points, N
    integer coefficients and L > 0 the least common multiple of the
    Lagrange denominators w_i = prod_{j != i} (x_i - x_j):
        N = sum_i y_i (L / w_i) prod_{j != i} (x - x_j),
    each product one synthetic division of prod_j (x - x_j) by x - x_i."""
    xs = [x for x, _ in points]
    full = [1]
    for x in xs:
        full = ipoly_mul(full, [-x, 1])
    weights = [prod(xi - xj for xj in xs if xj != xi) for xi in xs]
    den = lcm(*weights)
    num = [0] * len(xs)
    for (xi, yi), w in zip(points, weights):
        scale = yi * (den // w)
        carry = 0
        for i in range(len(xs), 0, -1):
            carry = full[i] + carry * xi
            num[i - 1] += scale * carry
    return num, den


def interpolate(samples: Sequence[tuple[int, int]]) -> list[int]:
    """Exact integer-coefficient polynomial through (k, count) samples."""
    points = [(int(k), int(v)) for k, v in samples]
    if len({x for x, _ in points}) != len(points):
        raise ValueError("interpolation points must have distinct x")
    num, den = _scaled_interpolant(points)
    for c in num:
        if c % den:
            from fractions import Fraction

            raise NonIntegerCoefficients(f"coefficient {Fraction(c, den)} is not an integer")
    return ipoly_trim([c // den for c in num])


def _require_max_period(max_period: int) -> None:
    if not isinstance(max_period, int) or max_period < 1:
        raise ValueError(f"max_period must be an integer >= 1, got {max_period!r}")


def fit_quasipolynomial(
    samples: Mapping[int, int],
    max_degree: int,
    max_period: int = 6,
) -> QuasiPolynomial:
    """Smallest-period quasipolynomial through the samples.

    For each candidate period, every residue class must supply at least
    max_degree + 2 points: max_degree + 1 to interpolate and at least
    one held out to verify.  Classes that verify exactly for every
    held-out point certify the period.  The keys may be spaced unevenly.
    Fits and checks run in integers (`_scaled_interpolant`); the
    Fractions are built once, for the certified period.
    """
    _require_max_period(max_period)
    ks = sorted(samples)
    starving = False
    for p in range(1, max_period + 1):
        classes: dict[int, list[int]] = {r: [] for r in range(p)}
        for k in ks:
            classes[k % p].append(k)
        if any(len(v) < max_degree + 2 for v in classes.values()):
            starving = True
            continue
        fits = []
        for r in range(p):
            pts = [(k, samples[k]) for k in classes[r]]
            num, den = _scaled_interpolant(pts[: max_degree + 1])
            if any(poly_eval(num, k) != den * v for k, v in pts[max_degree + 1 :]):
                break
            fits.append((num, den))
        else:
            from fractions import Fraction

            return QuasiPolynomial(
                period=p,
                constituents=tuple(
                    tuple(Fraction(c, den) for c in ipoly_trim(num)) for num, den in fits
                ),
            )
    if starving:
        raise NoFit(
            f"not enough samples to certify any period <= {max_period} "
            f"at degree {max_degree}"
        )
    raise NoFit(f"no quasipolynomial of period <= {max_period} fits the samples")


def _quasi_dps(h: RibbonGraph, max_period: int = 6) -> Iterator[tuple]:
    """The check_dp arguments of the box DP of each period that
    quasi_integral_flows(h) may fit, over k = 1..period(E+2)+2."""
    guide = _fundamental_plan(h, True)[2]
    for period in range(1, max_period + 1):
        kmax = period * (h.num_edges + 2) + 2
        yield guide, 2 * kmax - 2, 0, kmax


def _fit_period(h: RibbonGraph, degree: int, period: int) -> QuasiPolynomial | None:
    ks = range(1, period * (degree + 2) + 3)
    try:
        return fit_quasipolynomial(dict(zip(ks, _box_counts(h, ks))), degree, max_period=period)
    except NoFit:
        return None


def quasi_integral_local_tensions(
    g: RibbonGraph, max_period: int = 6
) -> QuasiPolynomial:
    """Smallest-period quasipolynomial through the integral local tension counts."""
    return quasi_integral_flows(g.dual, max_period)


def quasi_integral_flows(g: RibbonGraph, max_period: int = 6) -> QuasiPolynomial:
    """Smallest-period quasipolynomial through the integral flow counts.

    Each period is fitted in turn from one box DP over k =
    1..period(E+2)+2.  Before a period's DP runs, it is priced with those
    of the periods before it, so the whole call stays under one budget.
    Each period's fit, or None if it fits no period up to it, is kept on
    the isomorphism class of g's graph."""
    _require_max_period(max_period)
    spent = 0
    for period, dp in enumerate(_quasi_dps(g, max_period), 1):
        spent = check_dp(*dp, spent=spent)
        fit = g._invariant_memoised(("quasi", period), lambda: _fit_period(g, g.num_edges, period))
        if fit is not None:
            return fit
    raise NoFit(f"no quasipolynomial of period <= {max_period} fits the samples")


# -- witness vectors ---------------------------------------------------------


def bao_witness_vector(g: RibbonGraph, o: Orientation) -> tuple[Fraction, ...]:
    """Sum of the sign vectors of all coherently oriented cocycles.

    For a boundary acyclic orientation the result is a nowhere-zero
    element of the face matrix kernel whose signs reproduce the
    orientation; all three postconditions are asserted.
    """
    from fractions import Fraction

    check_cycle_search(_cycle_bound(g.dual))  # before the face-set scan
    if not is_boundary_acyclic(g, o):
        raise NotBoundaryAcyclic(
            "orientation admits a coherently oriented boundary"
        )
    p = [0] * g.num_edges
    for coc in coherent_cocycles(g, o):
        for e in coc.edges:
            p[e] += o.signs[e]
    if any(sum(map(int.__mul__, row, p)) for row in face_matrix(g)):
        raise AssertionError("witness vector escapes the face matrix kernel")
    if any(x == 0 for x in p):
        raise AssertionError("witness vector has a zero entry")
    if any((x > 0) != (s == 1) for x, s in zip(p, o.signs)):
        raise AssertionError("witness vector sign mismatch")
    return tuple(Fraction(x) for x in p)


# -- surgeries ---------------------------------------------------------------
#
# The maps the pair counts are defined on: g with a support deleted,
# contracted as a ribbon graph or abstractly, or removed coloop-aware.


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


def is_separating(g: RibbonGraph, cycle: Cycle) -> bool:
    """True when contracting the cycle splits off a surface component."""
    check_cycle(g, cycle)
    return contract(g, set(cycle.edges)).num_components == g.num_components + 1
