from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tautverify.errors import NonUnitSeriesError
from tautverify.series import (
    TruncatedSeries,
    exp_scaled,
    jet_sum,
    series_inverse,
    series_mul,
    todd_inverse,
)

from conftest import rationals


def coeffs(s):
    return list(s.coeffs)


def series(cs):
    return TruncatedSeries(len(cs) - 1, tuple(F(c) for c in cs))


def one(order):
    return series([1] + [0] * order)


def test_todd_inverse_order4():
    s = todd_inverse(4)
    assert coeffs(s) == [F(1), F(-1, 2), F(1, 12), F(0), F(-1, 720)]


def test_exp_scaled_half_order2():
    assert coeffs(exp_scaled(F(1, 2), 2)) == [F(1), F(1, 2), F(1, 8)]


def test_jet_sum_5_1_order3():
    # sum of six exponentials with weights 1..6
    assert coeffs(jet_sum(5, 1, 3)) == [F(6), F(21), F(91, 2), F(441, 6)]


@pytest.mark.parametrize("w", [0, F(1, 2), 1, F(-3, 4)])
def test_jet_sum_matches_sum_of_exponentials(w):
    # the power-sum coefficients against e^{wt} times the sum of the n + 1
    # exponentials e^{it}, added coefficient by coefficient
    for n in range(7):
        for order in range(6):
            exps = [exp_scaled(i, order) for i in range(n + 1)]
            total = series([sum((e.coeffs[k] for e in exps), F(0)) for k in range(order + 1)])
            expected = series_mul(exp_scaled(w, order), total)
            got = jet_sum(n, w, order)
            assert got == expected, (n, order)
            assert all(type(c) is F for c in got.coeffs)


def test_grr_integrand_product_order4():
    s = series_mul(todd_inverse(4), exp_scaled(F(1, 2), 4))
    assert coeffs(s) == [F(1), F(0), F(-1, 24), F(0), F(7, 5760)]


def test_grr_integrand_is_even_through_order6():
    s = series_mul(todd_inverse(6), exp_scaled(F(1, 2), 6))
    assert all(s.coeff(k) == 0 for k in (1, 3, 5))


def test_mul_by_one_identity():
    s = jet_sum(2, F(1, 2), 4)
    assert series_mul(one(4), s) == s


def test_mul_truncates_to_min_order():
    a = series([1, 1])
    b = series([1, -1, 0])
    prod = series_mul(a, b)
    assert prod.order == 1
    assert coeffs(prod) == [F(1), F(0)]
    prod2 = series_mul(series([1, 1, 0]), b)
    assert coeffs(prod2) == [F(1), F(0), F(-1)]


def test_inverse_geometric():
    inv = series_inverse(series([1, 1, 0, 0]))
    assert coeffs(inv) == [F(1), F(-1), F(1), F(-1)]


def test_inverse_of_one():
    unit = one(3)
    assert series_inverse(unit) == unit


def test_inverse_unit_shifted_by_quarter():
    # 1/(1 - t/4) = 1 + t/4 + t^2/16 + t^3/64
    inv = series_inverse(series([1, F(-1, 4), 0, 0]))
    assert coeffs(inv) == [F(1), F(1, 4), F(1, 16), F(1, 64)]


def test_inverse_requires_unit():
    with pytest.raises(NonUnitSeriesError):
        series_inverse(series([0, 1]))


series_units = st.lists(rationals, min_size=5, max_size=5).map(
    lambda cs: series([F(1)] + cs[1:])
)


@given(series_units)
def test_inverse_roundtrip(s):
    assert series_mul(s, series_inverse(s)) == one(s.order)
