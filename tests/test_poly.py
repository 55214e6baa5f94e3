from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from tautverify.errors import DegreeError
from tautverify.poly import SYMBOLS, WEIGHTS, TruncatedPoly, _exps_from_powers

from conftest import fields, sparse_rationals


def mono(powers, coeff, deg=3):
    return TruncatedPoly.monomial(powers, coeff, deg)


# --- reference: the dict-of-Fraction arithmetic the integer collection replaced
# Polynomials are (max_degree, sorted terms) pairs.


def _degree(exps):
    return sum(e * WEIGHTS[s] for s, e in zip(SYMBOLS, exps))


def fraction_from_terms(items, max_degree):
    acc = {}
    for exps, c in items:
        c = F(c)
        if c == 0 or _degree(exps) > max_degree:
            continue
        acc[exps] = acc.get(exps, F(0)) + c
    return max_degree, tuple(sorted((e, c) for e, c in acc.items() if c != 0))


def fraction_add(p, q):
    acc = dict(p[1])
    for exps, c in q[1]:
        acc[exps] = acc.get(exps, F(0)) + c
    return fraction_from_terms(acc.items(), min(p[0], q[0]))


def fraction_scale(p, c):
    return fraction_from_terms([(e, F(c) * v) for e, v in p[1]], p[0])


def fraction_mul(p, q):
    deg = min(p[0], q[0])
    acc = {}
    for ea, ca in p[1]:
        for eb, cb in q[1]:
            exps = tuple(x + y for x, y in zip(ea, eb))
            if _degree(exps) > deg:
                continue
            acc[exps] = acc.get(exps, F(0)) + ca * cb
    return fraction_from_terms(acc.items(), deg)


# a few monomials of degrees 0-4 over psi, lam1, lam2 and kappa1, so that the
# terms of one polynomial and the products of two collide often
_MONOMIALS = [
    _exps_from_powers(p)
    for p in (
        {}, {"psi": 1}, {"lam1": 1}, {"kappa1": 1}, {"psi": 2}, {"psi": 1, "lam1": 1}, {"lam2": 1},
        {"psi": 1, "lam1": 2}, {"psi": 3}, {"psi": 2, "lam2": 1},
    )
]
poly_cases = st.tuples(
    st.integers(0, 4),
    st.lists(st.tuples(st.sampled_from(_MONOMIALS), sparse_rationals), max_size=8),
)


def _normalised(p):
    return all(type(n) is int and type(d) is int and n != 0 and d > 0 and gcd(n, d) == 1 for _, n, d in p.triples)


@given(poly_cases, poly_cases, sparse_rationals)
@example((3, [(_MONOMIALS[1], 1), (_MONOMIALS[1], F(-1))]), (2, [(_MONOMIALS[0], 2)]), F(0))
@example((4, [(_MONOMIALS[1], F(1, 6)), (_MONOMIALS[1], F(1, 3))]), (3, [(_MONOMIALS[2], F(-5, 4))]), F(-6))
def test_poly_arithmetic_matches_fraction_oracle(a, b, c):
    p, q = TruncatedPoly.from_terms(a[1], a[0]), TruncatedPoly.from_terms(b[1], b[0])
    fp, fq = fraction_from_terms(a[1], a[0]), fraction_from_terms(b[1], b[0])
    for got, want in (
        (p, fp),
        (p + q, fraction_add(fp, fq)),
        (p - q, fraction_add(fp, fraction_scale(fq, -1))),
        (p * q, fraction_mul(fp, fq)),
        (p.scale(c), fraction_scale(fp, c)),
        (TruncatedPoly.from_terms(dict(a[1]), b[0]), fraction_from_terms(dict(a[1]).items(), b[0])),
    ):
        assert (got.max_degree, tuple((e, F(n, d)) for e, n, d in got.triples)) == want
        assert _normalised(got)


def test_poly_product_collects_like_terms():
    s = mono({"psi": 1}, 1) + mono({"lam1": 1}, 1)
    sq = s * s
    assert sq.coeff({"psi": 1, "lam1": 1}) == 2
    assert fields(sq) == fields(mono({"psi": 2}, 1) + mono({"psi": 1, "lam1": 1}, 2) + mono({"lam1": 2}, 1))


def test_poly_sum_keeps_the_smaller_truncation_degree():
    p = mono({"psi": 1}, 1, deg=2) + mono({"psi": 3}, 1, deg=3)
    assert p.max_degree == 2
    assert fields(p) == fields(mono({"psi": 1}, 1, deg=2))
    assert (mono({"psi": 3}, 1, deg=3) - mono({"psi": 1}, 1, deg=2)).max_degree == 2


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        TruncatedPoly.from_terms({_MONOMIALS[1]: 0.5}, 3)
    with pytest.raises(TypeError):
        mono({"psi": 1}, 1).scale(0.5)


def test_poly_rejects_exponent_tuples_of_the_wrong_length():
    # a short tuple used to be stored beside the full-length key of the same
    # monomial: this printed "1*psi + 1*psi" with psi coefficient 1, not 2
    with pytest.raises(DegreeError):
        TruncatedPoly.from_terms({(1,): 1, (1, 0, 0, 0, 0, 0): 1}, 3)
    with pytest.raises(DegreeError):
        TruncatedPoly.from_terms([((1, 0, 0, 0, 0, 0, 0), 1)], 3)


@pytest.mark.parametrize("symbol", ["kappa0", "lam"])
def test_dropped_symbols_are_unknown(symbol):
    # no term ever carried kappa0, and lam was a second name for the class lam1
    assert SYMBOLS == ("psi", "lam1", "lam2", "kappa1", "kappa2", "kappa3")
    with pytest.raises(DegreeError, match=f"unknown symbol '{symbol}'"):
        mono({symbol: 1}, 1)
