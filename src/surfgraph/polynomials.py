"""Exact polynomial and quasipolynomial arithmetic.

All interpolation runs over fractions.Fraction; nothing here touches
floating point.  `fractions` (and with it `decimal`) is imported by the
functions that build fractions, so the integer helpers load neither.  Polynomials are ascending coefficient lists.  A
quasipolynomial of period p is p constituent polynomials, one per
residue class of the argument mod p, with rational coefficients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import NoFit, NonIntegerCoefficients
from .records import Record

if TYPE_CHECKING:
    from fractions import Fraction

    Coeffs = list[Fraction]
    Num = int | Fraction


def poly_eval(coeffs: Sequence[int | Fraction], x: int | Fraction):
    """Evaluate an ascending coefficient list at x (Horner)."""
    acc: int | Fraction = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def trim(coeffs: Sequence[int | Fraction]) -> Coeffs:
    from fractions import Fraction

    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out or [Fraction(0)]


# Coefficient-list helpers, exact for int and Fraction entries alike:
# generating functions use them on ints, interpolation on fractions.


def ipoly_trim(a: Sequence[int]) -> list[int]:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out or [0]


def ipoly_add(a: Sequence[Num], b: Sequence[Num]) -> list[Num]:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def ipoly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return ipoly_add(a, [-x for x in b])


def ipoly_mul(a: Sequence[Num], b: Sequence[Num]) -> list[Num]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ipoly_pow(a: Sequence[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = ipoly_mul(out, a)
    return out


def ipoly_scale(a: Sequence[Num], s: Num) -> list[Num]:
    return [s * x for x in a]


def lagrange(points: Sequence[tuple[int, int | Fraction]]) -> Coeffs:
    """Exact interpolating polynomial through distinct-x points."""
    from fractions import Fraction

    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x")
    result: list[Num] = [0]
    for i, (xi, yi) in enumerate(points):
        basis: list[Num] = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = ipoly_mul(basis, [-xj, 1])  # times (x - xj)
            denom *= xi - xj
        result = ipoly_add(result, ipoly_scale(basis, Fraction(yi) / denom))
    return trim(result)


def as_int_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise NonIntegerCoefficients(f"coefficient {c} is not an integer")
        out.append(int(c))
    return out


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

        return Fraction(poly_eval(self.constituents[n % self.period], n))

    @property
    def degree(self) -> int:
        return max(len(trim(c)) - 1 for c in self.constituents)

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
    held-out point certify the period.
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
        consts: list[tuple[Fraction, ...]] = []
        good = True
        for r in range(p):
            pts = [(k, samples[k]) for k in classes[r]]
            coeffs = lagrange(pts[: max_degree + 1])
            if any(poly_eval(coeffs, k) != v for k, v in pts[max_degree + 1 :]):
                good = False
                break
            consts.append(tuple(trim(coeffs)))
        if good:
            return QuasiPolynomial(period=p, constituents=tuple(consts))
    if starving:
        raise NoFit(
            f"not enough samples to certify any period <= {max_period} "
            f"at degree {max_degree}"
        )
    raise NoFit(f"no quasipolynomial of period <= {max_period} fits the samples")
