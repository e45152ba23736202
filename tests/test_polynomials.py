"""Exact interpolation and quasipolynomial fitting."""

from fractions import Fraction

import pytest

from surfgraph import NoFit, QuasiPolynomial, fit_quasipolynomial, poly_eval
from surfgraph.errors import NonIntegerCoefficients
from surfgraph.polynomials import ipoly_add, ipoly_mul, ipoly_pow, ipoly_sub, ipoly_trim
from surfgraph.reciprocity import as_int_coeffs, lagrange, trim


def test_poly_eval_is_exact():
    assert poly_eval([2, -3, 1], 5) == 12
    assert poly_eval([2, -3, 1], -1) == 6
    assert poly_eval([], 7) == 0
    assert poly_eval([Fraction(1, 2)], 3) == Fraction(1, 2)


def test_lagrange_recovers_polynomials():
    assert trim(lagrange([(1, 2), (2, 5), (3, 10)])) == [1, 0, 1]
    assert trim(lagrange([(1, 7), (2, 7)])) == [7]
    # the zero polynomial normalizes to a single zero coefficient
    assert trim(lagrange([(0, 0), (1, 0), (2, 0)])) == [0]


def test_lagrange_rejects_duplicate_x():
    with pytest.raises(ValueError):
        lagrange([(1, 2), (1, 3)])


def test_as_int_coeffs():
    assert as_int_coeffs([Fraction(2), Fraction(-3)]) == [2, -3]
    with pytest.raises(NonIntegerCoefficients):
        as_int_coeffs([Fraction(1, 2)])


def test_integer_poly_helpers():
    assert ipoly_pow([1, -1], 2) == [1, -2, 1]
    assert ipoly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert ipoly_add([1], [0, 2]) == [1, 2]
    assert ipoly_sub([1, 2], [1, 2]) == [0, 0]  # arithmetic does not trim
    assert ipoly_trim([0, 0]) == [0]
    assert ipoly_trim([3, 1, 0]) == [3, 1]


def test_quasipolynomial_evaluate_and_degree():
    q = QuasiPolynomial(
        2,
        (
            (Fraction(0), Fraction(1, 2)),  # even arguments: n/2
            (Fraction(-1, 2), Fraction(1, 2)),  # odd arguments: (n-1)/2
        ),
    )
    assert [q.evaluate(n) for n in range(6)] == [0, 0, 1, 1, 2, 2]
    assert q.evaluate(-3) == -2  # class of -3 mod 2 is 1
    assert q.degree == 1


def test_quasipolynomial_validation_and_json():
    with pytest.raises(ValueError):
        QuasiPolynomial(2, ((Fraction(1),),))
    q = QuasiPolynomial(1, ((Fraction(1, 3), Fraction(2)),))
    doc = q.to_json_dict()
    assert doc == {"period": 1, "constituents": [["1/3", "2"]]}
    assert QuasiPolynomial.from_json_dict(doc) == q


def test_fit_finds_smallest_period():
    samples = {k: 7 for k in range(1, 9)}
    q = fit_quasipolynomial(samples, max_degree=2, max_period=4)
    assert q.period == 1
    assert q.evaluate(100) == 7

    samples = {k: k // 2 for k in range(1, 13)}
    q = fit_quasipolynomial(samples, max_degree=1, max_period=4)
    assert q.period == 2
    assert all(q.evaluate(k) == k // 2 for k in range(1, 13))


def test_fit_reports_starvation_separately():
    with pytest.raises(NoFit, match="not enough samples"):
        fit_quasipolynomial({1: 1, 2: 2}, max_degree=3, max_period=1)


def test_fit_fails_on_non_quasipolynomial_data():
    samples = {k: 2**k for k in range(1, 13)}
    with pytest.raises(NoFit):
        fit_quasipolynomial(samples, max_degree=2, max_period=2)
