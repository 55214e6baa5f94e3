from fractions import Fraction as F

import pytest

from tautverify.chern import ChernVector
from tautverify.errors import DegreeError
from tautverify.grr import (
    canonical_jet_porteous_class,
    grr_spin_character,
    jet_bundle_chern,
    jet_bundles,
    kappa_pushforward,
    lambda2_values,
    lower_order_character,
    m4_specialize,
    porteous_c3,
    spin_porteous_class,
)
from tautverify.poly import TruncatedPoly
from tautverify.series import jet_sum

from conftest import fields


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


def test_porteous_with_trivial_denominator():
    cJ = jet(2, F(1, 2))
    z = TruncatedPoly.zero(3)
    out = porteous_c3(cJ, ChernVector(1, z, z, z))
    assert fields(out) == fields(cJ.c3)


def test_porteous_spin_case():
    cJ = jet(2, F(1, 2))
    cE = ChernVector.line_bundle(mono({"lam": 1}, F(-1, 4)))
    out = porteous_c3(cJ, cE)
    expected = (
        mono({"psi": 3}, F(15, 8))
        + mono({"psi": 2, "lam": 1}, F(23, 16))
        + mono({"psi": 1, "lam": 2}, F(9, 32))
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
        kappa_pushforward(mono({"lam": 3}, 1), 4)


def test_specialize_examples():
    spin = (
        mono({"kappa2": 1}, F(15, 8))
        + mono({"kappa1": 1, "lam": 1}, F(23, 16))
        + mono({"lam": 2}, F(27, 16))
    )
    assert m4_specialize(spin) == F(177, 4)
    hodge = (
        mono({"kappa2": 1}, 735)
        + mono({"kappa1": 1, "lam1": 1}, -175)
        + mono({"lam1": 2}, 126)
        + mono({"lam2": 1}, -126)
    )
    assert m4_specialize(hodge) == F(15771, 2)
    assert m4_specialize(mono({"lam": 2}, 1)) == 1


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
    assert m4_specialize(spin_porteous_class(jets["J2_spin"][1])) == F(177, 4)
    assert m4_specialize(canonical_jet_porteous_class(jets["J5_canonical"][1])) == F(15771, 2)


def test_lambda2_values(repo):
    values = lambda2_values(repo, jet_bundles())
    assert list(values) == ["SH4_minus", "H4_minus", "H4", "H4_plus"]
    assert values["SH4_minus"] == F(177, 4)
    assert values["H4_minus"] == 5310
    assert values["H4"] == F(15771, 2)
    assert values["H4_plus"] == 2448


def test_lambda2_matches_assembled_class(repo):
    assert lambda2_values(repo, jet_bundles())["H4_plus"] == repo.golden["h4plus"]["class"]["lam^2"]
