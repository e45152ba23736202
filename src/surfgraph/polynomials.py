"""Exact integer polynomial arithmetic.

Polynomials are ascending coefficient lists.  The helpers below are
exact for int and Fraction entries alike; nothing here touches floating
point or imports `fractions`.  Interpolation and the quasipolynomials,
whose coefficients are fractions, are in `reciprocity`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    Num = int | Fraction


def poly_eval(coeffs: Sequence[int | Fraction], x: int | Fraction):
    """Evaluate an ascending coefficient list at x (Horner)."""
    acc: int | Fraction = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# Coefficient-list helpers, exact for int and Fraction entries alike:
# generating functions and interpolation use them on ints, the
# quasipolynomials' constituents on fractions.


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
