from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tautverify.errors import DegreeError, NonUnitSeriesError
from tautverify.poly import TruncatedPoly, monomial_degree
from tautverify.series import exp_scaled, jet_sum, series_inverse, todd_inverse

from conftest import fields, rationals


def coeffs(s):
    return [s.coeff({"psi": k}) for k in range(s.max_degree + 1)]


def series(cs):
    order = len(cs) - 1
    terms = (TruncatedPoly.monomial({"psi": k}, F(c), order) for k, c in enumerate(cs))
    return sum(terms, TruncatedPoly.zero(order))


def one(order):
    return series([1] + [0] * order)


def test_todd_inverse_order4():
    s = todd_inverse(4)
    assert coeffs(s) == [F(1), F(-1, 2), F(1, 12), F(0), F(-1, 720)]


def test_exp_scaled_half_order2():
    assert coeffs(exp_scaled(F(1, 2), 2)) == [F(1), F(1, 2), F(1, 8)]


def lowest_terms(s):
    return all(type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1 for _, n, d in s.triples)


@given(rationals, st.integers(0, 6))
def test_exp_scaled_is_the_exponential_series(w, order):
    s = exp_scaled(w, order)
    assert s.max_degree == order
    assert coeffs(s) == [w**k / factorial(k) for k in range(order + 1)]
    assert lowest_terms(s)


@pytest.mark.parametrize("order", range(7))
def test_no_series_keeps_a_term_above_its_order(order):
    # a TruncatedPoly never holds a monomial above its max_degree; the
    # coefficient reads above stop at the order, so they cannot see one
    for s in (
        exp_scaled(F(-3, 4), order),
        exp_scaled(2, order),
        todd_inverse(order),
        series_inverse(exp_scaled(F(1, 2), order)),
    ):
        assert s.max_degree == order
        assert all(monomial_degree(e) <= order for e, _, _ in s.triples), s.triples


def bernoulli(n):
    """B_0..B_n from sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1), so B_1 = -1/2."""
    b = [F(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


@pytest.mark.parametrize("n", range(11))
def test_todd_inverse_is_the_bernoulli_series(n):
    s = todd_inverse(n)
    assert coeffs(s) == [b / factorial(k) for k, b in enumerate(bernoulli(n))]
    assert lowest_terms(s)


@given(st.lists(rationals, min_size=5, max_size=5).filter(lambda cs: cs[0] != 0).map(series))
def test_series_inverse_is_in_lowest_terms(s):
    # any nonzero constant term, negative ones too, so the inverse's sign is normalised
    inv = series_inverse(s)
    assert lowest_terms(inv)
    assert fields(s * inv) == fields(one(s.max_degree))


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
            total = series([sum((coeffs(e)[k] for e in exps), F(0)) for k in range(order + 1)])
            expected = exp_scaled(w, order) * total
            got = jet_sum(n, w, order)
            assert fields(got) == fields(expected), (n, order)
            assert lowest_terms(got)


def test_grr_integrand_product_order4():
    s = todd_inverse(4) * exp_scaled(F(1, 2), 4)
    assert coeffs(s) == [F(1), F(0), F(-1, 24), F(0), F(7, 5760)]


def test_grr_integrand_is_even_through_order6():
    s = todd_inverse(6) * exp_scaled(F(1, 2), 6)
    assert all(s.coeff({"psi": k}) == 0 for k in (1, 3, 5))


def test_mul_by_one_identity():
    s = jet_sum(2, F(1, 2), 4)
    assert fields(one(4) * s) == fields(s)


def test_mul_truncates_to_min_order():
    a = series([1, 1])
    b = series([1, -1, 0])
    prod = a * b
    assert prod.max_degree == 1
    assert coeffs(prod) == [F(1), F(0)]
    prod2 = series([1, 1, 0]) * b
    assert coeffs(prod2) == [F(1), F(0), F(-1)]


def test_inverse_geometric():
    inv = series_inverse(series([1, 1, 0, 0]))
    assert coeffs(inv) == [F(1), F(-1), F(1), F(-1)]


def test_inverse_of_one():
    unit = one(3)
    assert fields(series_inverse(unit)) == fields(unit)


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
    assert fields(s * series_inverse(s)) == fields(one(s.max_degree))


def test_negative_orders_raise():
    with pytest.raises(DegreeError, match="truncation order must be >= 0"):
        exp_scaled(1, -1)
    with pytest.raises(DegreeError, match="jet order must be >= 0"):
        jet_sum(-1, 1, 2)


def test_inverse_rejects_other_symbols():
    with pytest.raises(DegreeError, match="series in psi alone"):
        series_inverse(one(2) + TruncatedPoly.monomial({"lam1": 1}, 1, 2))
