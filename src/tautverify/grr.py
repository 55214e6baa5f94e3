"""The determinantal pipeline: Riemann-Roch pushforward for the universal
spin bundle, jet-bundle Chern classes, the degeneracy-locus degree-3 class of
a virtual difference, the kappa pushforward, and the genus-4 specialization
extracting lambda^2 coefficients.

A series from `series` is a `TruncatedPoly` in psi, read by degree part or
term.  The two jet bundles are built once by `jet_bundles`, each as its
Chern character beside its Chern classes; a run of the checks keeps them,
and both the jet_chern check and the lambda^2 pipelines read that one copy.
The two pipelines are one readout, `porteous_lambda2`, which takes the
bundle E of each jet bundle from one table of c(E).  The readers work on
the polynomials' int triples.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping

from .chern import CHERN_MAX_DEGREE, ChernVector, chern_from_character
from .errors import DegreeError
from .linalg import Number, _ratio, _ratio_sum
from .poly import TruncatedPoly, _collect, _exps_from_powers, monomial_degree
from .series import exp_scaled, jet_sum, todd_inverse

GRR_MAX_ORDER = 4
# the spin weight; built once, since the kernels read it back as an int pair
_HALF = Fraction(1, 2)
# name -> (order n, weight w) of the jet bundles the pipelines use
JET_BUNDLES = {"J2_spin": (2, _HALF), "J5_canonical": (5, 1)}
# jet bundle name -> c(E) of the bundle E it maps to, built once.  The spin
# pushforward is a line bundle with c1 = -lambda/4 (the stated value is the
# doubled one) and c2 = 0 as an input datum; the Hodge bundle has
# c1 = lambda1 and c2 = lambda2.
_BUNDLE_E = {
    "J2_spin": ChernVector.line_bundle(TruncatedPoly.monomial({"lam1": 1}, Fraction(-1, 4), CHERN_MAX_DEGREE)),
    "J5_canonical": ChernVector(
        4,
        TruncatedPoly.monomial({"lam1": 1}, 1, CHERN_MAX_DEGREE),
        TruncatedPoly.monomial({"lam2": 1}, 1, CHERN_MAX_DEGREE),
        TruncatedPoly.zero(CHERN_MAX_DEGREE),
    ),
}


def grr_spin_character(order: int) -> TruncatedPoly:
    """Chern character of the (virtual) pushforward of the universal spin bundle.

    Multiplies the inverse Todd series by e^{psi/2}, then sends the psi^k
    coefficient (k >= 1) to kappa_{k-1}.  The psi^1 coefficient vanishes; a
    psi^1 term would name kappa0, which is no symbol, and raise DegreeError.
    """
    if order < 0:
        raise DegreeError("order must be >= 0")
    if order > GRR_MAX_ORDER:
        raise DegreeError(f"order {order} exceeds the configured series support {GRR_MAX_ORDER}")
    s = todd_inverse(order) * exp_scaled(_HALF, order)
    kappas = ((_exps_from_powers({f"kappa{e[0] - 1}": 1}), n, d) for e, n, d in s.triples if e[0])
    return TruncatedPoly(max(order - 1, 0), _collect(kappas, max(order - 1, 0)))


def lower_order_character(character: TruncatedPoly, order: int) -> TruncatedPoly:
    """The spin character of a lower `order`, read off a higher-order one.

    Truncating the series at `order` keeps psi^k for k <= order, and psi^k
    feeds kappa_{k-1} of degree k - 1, so no series is inverted again.
    """
    return TruncatedPoly(max(order - 1, 0), tuple(t for t in character.triples if monomial_degree(t[0]) < order))


def jet_bundle_chern(n: int, ch: TruncatedPoly) -> ChernVector:
    """Chern classes of the jet bundle of order n (rank n + 1) whose Chern character is `ch`."""
    return chern_from_character(n + 1, *(ch.degree_part(k) for k in range(1, 4)))


def jet_bundles() -> dict[str, tuple[TruncatedPoly, ChernVector]]:
    """The Chern character and the Chern classes of each jet bundle of JET_BUNDLES, by name."""
    jets = {}
    for name, (n, w) in JET_BUNDLES.items():
        ch = jet_sum(n, w, CHERN_MAX_DEGREE)
        jets[name] = (ch, jet_bundle_chern(n, ch))
    return jets


def porteous_c3(cJ: ChernVector, cE: ChernVector) -> TruncatedPoly:
    """The psi-positive part of the degree-3 part of c(J)/c(E).

    Terms without the fiber class psi die under the fiber pushforward, so the
    published expansion keeps exactly the psi-positive part.  The degree-3
    part of c(J) s(E), with s(E) = c(E)^{-1} the Segre class, is the graded
    sum of c_i(J) s_{3-i}(E) (Fulton, Intersection Theory, 3.2 and 14.4),
    where s_1 = -e1, s_2 = e1^2 - e2 and s_3 = -e1^3 + 2 e1 e2 - e3.  E is
    pulled back from the base, so c(E) has no psi term (a psi term raises
    DegreeError): then s_3(E) is psi-free, and c_0(J) s_3(E) = s_3(E) is
    dropped whole, so it is never formed.  The rest is
    c3(J) - c2(J) e1 + c1(J) (e1^2 - e2).
    """
    for ci in (cE.c1, cE.c2, cE.c3):
        for e, _, _ in ci.triples:
            if e[0]:
                raise DegreeError(f"c(E) must not involve psi, got {ci}")
    e1 = cE.c1
    total = cJ.c3 - cJ.c2 * e1 + cJ.c1 * (e1 * e1 - cE.c2)
    return TruncatedPoly(CHERN_MAX_DEGREE, tuple(t for t in total.triples if t[0][0]))


def kappa_pushforward(p: TruncatedPoly, g: int) -> TruncatedPoly:
    """Integrate over the fiber: psi^a * M -> kappa_{a-1} * M, psi * M -> (2g-2) M."""
    triples = []
    for exps, n, d in p.triples:
        a = exps[0]
        rest = (0,) + exps[1:]
        if a == 0:
            raise DegreeError(f"monomial {exps} has no fiber-class factor to integrate")
        if a == 1:
            triples.append((rest, n * (2 * g - 2), d))
        else:
            triples.append((tuple(map(add, rest, _exps_from_powers({f"kappa{a - 1}": 1}))), n, d))
    return TruncatedPoly(p.max_degree, _collect(triples, p.max_degree))


# lambda^2 extraction on the genus-4 interior: kappa1 = 12 lambda, Faber's
# kappa2 = 27/2 lambda^2 and lambda2 = lambda1^2/2, where lambda is lam1;
# each factor is a (numerator, denominator) pair.
_SPECIALIZE = {
    _exps_from_powers({"kappa2": 1}): (27, 2),
    _exps_from_powers({"kappa1": 1, "lam1": 1}): (12, 1),
    _exps_from_powers({"lam1": 2}): (1, 1),
    _exps_from_powers({"lam2": 1}): (1, 2),
}


def m4_specialize(p: TruncatedPoly) -> Number:
    """Coefficient of lambda^2 after the genus-4 interior substitutions."""
    if not p.is_pure_degree(2):
        raise DegreeError("m4_specialize needs a class of pure total degree 2")
    products = []
    for exps, n, d in p.triples:
        factor = _SPECIALIZE.get(exps)
        if factor is None:
            raise DegreeError(f"no genus-4 specialization rule for monomial {exps}")
        products.append((n * factor[0], d * factor[1]))
    return _ratio_sum(products)


def porteous_lambda2(name: str, cJ: ChernVector) -> Number:
    """The lambda^2 coefficient of the genus-4 degeneracy locus of the jet bundle `name` of JET_BUNDLES.

    `cJ` is the jet bundle's Chern classes.  The degree-3 Porteous class of
    J - E, with c(E) from `_BUNDLE_E`, is pushed forward along the fiber and
    specialized on the genus-4 interior.
    """
    return m4_specialize(kappa_pushforward(porteous_c3(cJ, _BUNDLE_E[name]), g=4))


LAMBDA2_LOCI = ("SH4_minus", "H4_minus", "H4", "H4_plus")


def lambda2_values(repo, jets: Mapping[str, tuple[TruncatedPoly, ChernVector]]) -> dict[str, Number]:
    """lambda^2 coefficients of the subcanonical loci on the genus-4 interior.

    One pass runs each pipeline once, on the Chern classes of the jet
    bundles `jets` (keyed by JET_BUNDLES name, as `jet_bundles` builds
    them).  SH4_minus comes from the spin pipeline; H4_minus multiplies it by the odd spin cover degree;
    H4 comes from the canonical-jet pipeline; H4_plus subtracts the
    hyperelliptic contribution (one per Weierstrass point) and H4_minus from
    H4.  Both counts are evaluated through the repo's count registry.  The
    two combinations are summed on int pairs, so each value is an int where
    it is integral.
    """
    sh4_minus, h4 = (porteous_lambda2(name, jets[name][1]) for name in ("J2_spin", "J5_canonical"))
    (sn, sd), (hn, hd) = _ratio(sh4_minus), _ratio(h4)
    yn, yd = _ratio(repo.catalog_class("Hyp4").coeff("lam^2"))
    odd, weierstrass = (repo.counts.eval_expr((head, 4)) for head in ("odd_theta", "hyp_weierstrass"))
    h4_minus = _ratio_sum([(odd * sn, sd)])
    h4_plus = _ratio_sum([(hn, hd), (-weierstrass * yn, yd), (-odd * sn, sd)])
    return dict(zip(LAMBDA2_LOCI, (sh4_minus, h4_minus, h4, h4_plus)))
