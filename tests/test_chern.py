from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tautverify.chern import ChernVector, character_from_chern, chern_from_character
from tautverify.errors import DegreeError
from tautverify.poly import TruncatedPoly

from conftest import fields, rationals


def psi(k, coeff):
    return TruncatedPoly.monomial({"psi": k}, coeff, 3)


def ch_input(c1, c2, c3):
    return psi(1, c1), psi(2, c2), psi(3, c3)


def test_spin_jet_example():
    cv = chern_from_character(3, *ch_input(F(9, 2), F(35, 8), F(51, 16)))
    assert fields(cv.c1) == fields(psi(1, F(9, 2)))
    assert fields(cv.c2) == fields(psi(2, F(23, 4)))
    assert fields(cv.c3) == fields(psi(3, F(15, 8)))


def test_canonical_jet_example():
    cv = chern_from_character(6, *ch_input(21, F(91, 2), F(441, 6)))
    assert fields((cv.c1, cv.c2, cv.c3)) == fields((psi(1, 21), psi(2, 175), psi(3, 735)))


def test_trivial_character():
    cv = chern_from_character(5, *ch_input(0, 0, 0))
    assert not cv.c1.triples and not cv.c2.triples and not cv.c3.triples


def test_degree_validation():
    with pytest.raises(DegreeError):
        chern_from_character(2, psi(2, 1), psi(2, 1), psi(3, 1))
    with pytest.raises(DegreeError):
        ChernVector(2, psi(2, 1), psi(2, 1), psi(3, 1))


@given(rationals, rationals, rationals)
def test_character_roundtrip(a, b, c):
    cv = chern_from_character(3, *ch_input(a, b, c))
    ch1, ch2, ch3 = character_from_chern(cv)
    assert fields((ch1, ch2, ch3)) == fields(ch_input(a, b, c))


# --- TruncatedPoly behaviour -------------------------------------------------


def test_poly_truncation_drops_high_degree():
    p = TruncatedPoly.monomial({"psi": 2}, 1, 3)
    q = TruncatedPoly.monomial({"psi": 2}, 1, 3)
    assert not (p * q).triples  # degree 4 > 3


def test_poly_grading_weights():
    # lam2 carries weight two, kappa3 weight three
    p = TruncatedPoly.monomial({"lam2": 1, "psi": 1}, 1, 3)
    assert p.is_pure_degree(3)
    q = TruncatedPoly.monomial({"kappa3": 1}, 1, 3)
    assert q.is_pure_degree(3)


def test_poly_zero_coefficients_not_stored():
    p = psi(1, 1) - psi(1, 1)
    assert p.triples == ()


def test_poly_unknown_symbol_rejected():
    with pytest.raises(DegreeError):
        TruncatedPoly.monomial({"mystery": 1}, 1, 3)


@given(rationals, rationals)
def test_poly_arithmetic_commutes(a, b):
    p = TruncatedPoly.monomial({"psi": 1}, a, 3) + TruncatedPoly.monomial({"lam1": 1}, b, 3)
    q = TruncatedPoly.monomial({"psi": 1}, b, 3)
    assert fields(p * q) == fields(q * p)
    assert fields(p + q) == fields(q + p)
