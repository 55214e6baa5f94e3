from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tautverify.chern import ChernVector
from tautverify.errors import DegreeError
from tautverify.grr import (
    grr_spin_character,
    jet_bundle_chern,
    jet_bundles,
    kappa_pushforward,
    lambda2_values,
    lower_order_character,
    m4_specialize,
    porteous_c3,
    porteous_lambda2,
)
from tautverify.poly import TruncatedPoly, _exps_from_powers
from tautverify.series import jet_sum

from conftest import fields, rationals


def mono(powers, coeff, deg=3):
    return TruncatedPoly.monomial(powers, coeff, deg)


def jet(n, w):
    """The Chern classes of the weight-w jet bundle of order n."""
    return jet_bundle_chern(n, jet_sum(n, w, 3))


def test_spin_character_order4():
    out = grr_spin_character(4)
    assert fields(out) == fields(mono({"kappa1": 1}, F(-1, 24)) + mono({"kappa3": 1}, F(7, 5760)))


def test_spin_character_order2():
    assert fields(grr_spin_character(2)) == fields(mono({"kappa1": 1}, F(-1, 24), deg=1))


def test_spin_character_order0():
    assert not grr_spin_character(0).triples


def test_lower_orders_read_off_the_top_order():
    top = grr_spin_character(4)
    for order in range(5):
        assert fields(lower_order_character(top, order)) == fields(grr_spin_character(order))


def test_spin_character_order_cap():
    with pytest.raises(DegreeError):
        grr_spin_character(5)


def test_jet_chern_spin():
    cv = jet(2, F(1, 2))
    assert cv.rank == 3
    assert fields(cv.c1) == fields(mono({"psi": 1}, F(9, 2)))
    assert fields(cv.c2) == fields(mono({"psi": 2}, F(23, 4)))
    assert fields(cv.c3) == fields(mono({"psi": 3}, F(15, 8)))


def test_jet_chern_canonical():
    cv = jet(5, 1)
    assert cv.rank == 6
    expected = (mono({"psi": 1}, 21), mono({"psi": 2}, 175), mono({"psi": 3}, 735))
    assert fields((cv.c1, cv.c2, cv.c3)) == fields(expected)


def test_jet_chern_order_zero():
    cv = jet(0, F(1, 2))
    assert cv.rank == 1
    assert fields(cv.c1) == fields(mono({"psi": 1}, F(1, 2)))
    assert not cv.c2.triples and not cv.c3.triples


def porteous_c3_by_full_quotient(cJ, cE):
    """Reference: the psi-positive degree-3 part of c(J) times the inverse of c(E), truncated at degree 3."""
    one = mono({}, 1)
    e = cE.c1 + cE.c2 + cE.c3
    inv = one - e + e * e - e * e * e
    total = (one + cJ.c1 + cJ.c2 + cJ.c3) * inv
    return TruncatedPoly(3, tuple(t for t in total.degree_part(3).triples if t[0][0] >= 1))


# every monomial of each degree in the base classes lam1 and lam2
_BASE_MONOMIALS = {
    1: [{"lam1": 1}],
    2: [{"lam1": 2}, {"lam2": 1}],
    3: [{"lam1": 3}, {"lam1": 1, "lam2": 1}],
}


def psi_free(degree):
    """A class of pure `degree` in lam1 and lam2, every coefficient drawn from `rationals`."""
    monomials = _BASE_MONOMIALS[degree]
    return st.lists(rationals, min_size=len(monomials), max_size=len(monomials)).map(
        lambda cs: TruncatedPoly.from_terms([(_exps_from_powers(m), c) for m, c in zip(monomials, cs)], 3)
    )


@given(st.integers(0, 5), rationals, psi_free(1), psi_free(2), psi_free(3))
def test_graded_porteous_matches_the_full_quotient(n, w, c1, c2, c3):
    cJ = jet(n, w)
    cE = ChernVector(4, c1, c2, c3)
    assert fields(porteous_c3(cJ, cE)) == fields(porteous_c3_by_full_quotient(cJ, cE))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_porteous_rejects_a_bundle_with_a_psi_term(degree):
    classes = [TruncatedPoly.zero(3)] * 3
    classes[degree - 1] = mono({"psi": 1, "lam1": degree - 1}, 1)
    with pytest.raises(DegreeError, match="must not involve psi"):
        porteous_c3(jet(2, F(1, 2)), ChernVector(4, *classes))


def test_porteous_with_trivial_denominator():
    cJ = jet(2, F(1, 2))
    z = TruncatedPoly.zero(3)
    out = porteous_c3(cJ, ChernVector(1, z, z, z))
    assert fields(out) == fields(cJ.c3)


def test_porteous_spin_case():
    cJ = jet(2, F(1, 2))
    cE = ChernVector.line_bundle(mono({"lam1": 1}, F(-1, 4)))
    out = porteous_c3(cJ, cE)
    expected = (
        mono({"psi": 3}, F(15, 8))
        + mono({"psi": 2, "lam1": 1}, F(23, 16))
        + mono({"psi": 1, "lam1": 2}, F(9, 32))
    )
    assert fields(out) == fields(expected)
    # with c2(E) = 0 the quotient agrees with the published three-term form
    manual = cJ.c3 - cE.c1 * cJ.c2 + cE.c1 * cE.c1 * cJ.c1
    assert fields(out) == fields(manual)


def test_porteous_hodge_case():
    cJ = jet(5, 1)
    cE = ChernVector(4, mono({"lam1": 1}, 1), mono({"lam2": 1}, 1), TruncatedPoly.zero(3))
    out = porteous_c3(cJ, cE)
    expected = (
        mono({"psi": 3}, 735)
        + mono({"psi": 2, "lam1": 1}, -175)
        + mono({"psi": 1, "lam1": 2}, 21)
        + mono({"psi": 1, "lam2": 1}, -21)
    )
    assert fields(out) == fields(expected)


def test_kappa_pushforward_rules():
    assert fields(kappa_pushforward(mono({"psi": 3}, 1), 4)) == fields(mono({"kappa2": 1}, 1))
    out = kappa_pushforward(mono({"psi": 2, "lam1": 1}, -175), 4)
    assert fields(out) == fields(mono({"kappa1": 1, "lam1": 1}, -175))
    out = kappa_pushforward(mono({"psi": 1, "lam1": 2}, 21) + mono({"psi": 1, "lam2": 1}, -21), 4)
    assert fields(out) == fields(mono({"lam1": 2}, 126) + mono({"lam2": 1}, -126))


def test_kappa_pushforward_needs_fiber_class():
    with pytest.raises(DegreeError):
        kappa_pushforward(mono({"lam1": 3}, 1), 4)


def test_kappa_pushforward_past_kappa3_is_an_unknown_symbol():
    with pytest.raises(DegreeError, match="unknown symbol 'kappa4'"):
        kappa_pushforward(mono({"psi": 5}, 1, deg=5), 4)


def test_specialize_examples():
    spin = (
        mono({"kappa2": 1}, F(15, 8))
        + mono({"kappa1": 1, "lam1": 1}, F(23, 16))
        + mono({"lam1": 2}, F(27, 16))
    )
    assert m4_specialize(spin) == F(177, 4)
    hodge = (
        mono({"kappa2": 1}, 735)
        + mono({"kappa1": 1, "lam1": 1}, -175)
        + mono({"lam1": 2}, 126)
        + mono({"lam2": 1}, -126)
    )
    assert m4_specialize(hodge) == F(15771, 2)
    assert m4_specialize(mono({"lam1": 2}, 1)) == 1


def test_specialize_rejects_wrong_degree():
    with pytest.raises(DegreeError):
        m4_specialize(mono({"psi": 3}, 1))


def test_jet_bundles_are_the_pipelines_jet_bundles():
    # each bundle's Chern character is kept beside its Chern classes
    jets = jet_bundles()
    expected = {
        "J2_spin": (jet_sum(2, F(1, 2), 3), jet(2, F(1, 2))),
        "J5_canonical": (jet_sum(5, 1, 3), jet(5, 1)),
    }
    assert fields(jets) == fields(expected)


def test_pipeline_classes():
    jets = jet_bundles()
    assert porteous_lambda2("J2_spin", jets["J2_spin"][1]) == F(177, 4)
    assert porteous_lambda2("J5_canonical", jets["J5_canonical"][1]) == F(15771, 2)


def test_lambda2_values(repo):
    values = lambda2_values(repo, jet_bundles())
    assert list(values) == ["SH4_minus", "H4_minus", "H4", "H4_plus"]
    assert values["SH4_minus"] == F(177, 4)
    assert values["H4_minus"] == 5310
    assert values["H4"] == F(15771, 2)
    assert values["H4_plus"] == 2448


def test_lambda2_matches_assembled_class(repo):
    assert lambda2_values(repo, jet_bundles())["H4_plus"] == repo.golden["h4plus"]["class"]["lam^2"]
