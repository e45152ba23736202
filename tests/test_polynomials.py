"""Exact interpolation and quasipolynomial fitting."""

import random
from fractions import Fraction

import pytest

from surfgraph import (
    NoFit,
    QuasiPolynomial,
    fit_quasipolynomial,
    interpolate,
    poly_eval,
    quasi_integral_flows,
    quasi_integral_local_tensions,
    reciprocity,
)
from surfgraph.errors import NonIntegerCoefficients
from surfgraph.polynomials import ipoly_add, ipoly_mul, ipoly_pow, ipoly_sub, ipoly_trim
from mapzoo import (
    FACE_MATRIX_PRIMAL,
    ISOLATED,
    KITE,
    SMALL,
    TWO_COMPONENTS,
    as_int_coeffs,
    forget_graphs,
    fresh,
    lagrange,
    trim,
)


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


def _uneven_keys(rng, n):
    """n distinct keys with uneven gaps, 0 and a negative key among them,
    in no particular order."""
    keys = {0, rng.randint(-40, -1)}
    while len(keys) < n:
        keys.add(rng.randint(-40, 40))
    keys = list(keys)
    rng.shuffle(keys)
    return keys


def test_interpolate_equals_the_fraction_oracle():
    rng = random.Random(5)
    refused = 0
    for _ in range(300):
        degree = rng.randint(0, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        keys = _uneven_keys(rng, max(2, degree + 1 + rng.randint(0, 2)))
        samples = [(k, poly_eval(coeffs, k)) for k in keys]
        assert interpolate(samples) == as_int_coeffs(lagrange(samples)) == ipoly_trim(coeffs)
        # one value off by one: the fit is rational, and mostly not integral
        i = rng.randrange(len(samples))
        samples[i] = (samples[i][0], samples[i][1] + 1)
        try:
            want = as_int_coeffs(lagrange(samples))
        except NonIntegerCoefficients as exc:
            refused += 1
            with pytest.raises(NonIntegerCoefficients) as got:
                interpolate(samples)
            assert str(got.value) == str(exc)
        else:
            assert interpolate(samples) == want
    assert refused > 200


def test_interpolate_rejects_repeated_keys():
    for samples in ([(1, 2), (1, 2)], [(1, 2), (1, 3)], [(0, 0), (-3, 9), (5, 1), (-3, 9)]):
        with pytest.raises(ValueError, match="distinct x"):
            interpolate(samples)


def test_interpolate_of_nothing_is_zero():
    assert interpolate([]) == [0]
    assert interpolate([(k, 0) for k in (-7, 0, 2, 3, 11)]) == [0]


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


def _lagrange_fit(samples, max_degree, max_period):
    """The smallest certified period by Fraction interpolation, or None:
    the oracle for the integer fit."""
    ks = sorted(samples)
    for p in range(1, max_period + 1):
        classes = [[k for k in ks if k % p == r] for r in range(p)]
        if any(len(c) < max_degree + 2 for c in classes):
            continue
        consts = []
        for c in classes:
            coeffs = lagrange([(k, samples[k]) for k in c[: max_degree + 1]])
            if any(poly_eval(coeffs, k) != samples[k] for k in c[max_degree + 1 :]):
                break
            consts.append(tuple(trim(coeffs)))
        else:
            return QuasiPolynomial(p, tuple(consts))
    return None


def _assert_fits_agree(samples, max_degree, max_period):
    """The integer fit and the oracle agree; the fit, or None for NoFit."""
    want = _lagrange_fit(samples, max_degree, max_period)
    if want is None:
        with pytest.raises(NoFit):
            fit_quasipolynomial(samples, max_degree, max_period=max_period)
        return None
    got = fit_quasipolynomial(samples, max_degree, max_period=max_period)
    assert got == want and got.to_json_dict() == want.to_json_dict()
    assert all(type(c) is Fraction for cs in got.constituents for c in cs)
    return got


def test_integer_fit_equals_the_lagrange_fit_on_the_census(corpus, monkeypatch):
    calls = []
    real = reciprocity.fit_quasipolynomial
    monkeypatch.setattr(
        reciprocity, "fit_quasipolynomial", lambda *a, **kw: calls.append((a, kw)) or real(*a, **kw)
    )
    for g in [*corpus, *SMALL, FACE_MATRIX_PRIMAL, ISOLATED, TWO_COMPONENTS]:
        for quasi in (quasi_integral_local_tensions, quasi_integral_flows):
            forget_graphs()  # so every map's fit runs
            quasi(fresh(g))
    assert len(calls) >= 2 * len(corpus)
    for (samples, degree), kw in calls:
        _assert_fits_agree(samples, degree, kw["max_period"])


def test_integer_fit_equals_the_lagrange_fit_on_uneven_keys():
    # Integer-valued quasipolynomials with fractional coefficients: C(k, 2),
    # the sum of the first k squares, floor(k / 2).  A check that reads the
    # held-out values as evenly spaced rejects their fits: k at the keys
    # 1, 2, 4 has second difference 1.
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    choose2, squares = (0, -half, half), (0, sixth, half, 2 * sixth)
    quasis = [
        [(0, 1)],
        [choose2],
        [squares, (-5, 7)],
        [(2,), choose2, squares],
        [(0, half), (-half, half)],
    ]
    key_sets = [
        [1, 2, 4, 7, 11, 16, 22, 29, 37, 46, 56, 67],
        [-9, -4, -3, 0, 1, 2, 3, 5, 8, 13, 14, 17, 20, 21, 25, 30, 31, 35, 40, 44, 45, 49, 51, 52],
        [k * k for k in range(1, 20)],  # no square is 2 mod 3
    ]
    periods = []
    for consts in quasis:
        for keys in key_sets:
            samples = {k: int(poly_eval(consts[k % len(consts)], k)) for k in keys}
            for degree in range(4):
                q = _assert_fits_agree(samples, degree, 3)
                periods.append(q and q.period)
                wrong = {**samples, keys[-1]: samples[keys[-1]] + 1}
                _assert_fits_agree(wrong, degree, 3)
    assert {1, 2, 3, None} <= set(periods)
    # the keys are uneven, yet k itself is fitted at period 1
    q = fit_quasipolynomial({k: k for k in key_sets[0]}, 1, max_period=1)
    assert q.constituents == ((0, 1),)
