"""The determinantal pipeline: Riemann-Roch pushforward for the universal
spin bundle, jet-bundle Chern classes, the degeneracy-locus degree-3 class of
a virtual difference, the kappa pushforward, and the genus-4 specialization
extracting lambda^2 coefficients.

A series from `series` is a `TruncatedPoly` in psi, read by degree part or
term.  The two jet bundles are built once by `jet_bundles`, each as its
Chern character beside its Chern classes; a run of the checks keeps them,
and both the jet_chern check and the lambda^2 pipelines read that one copy.
The readers work on the polynomials' int triples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .chern import CHERN_MAX_DEGREE, ChernVector, chern_from_character
from .errors import DegreeError
from .linalg import Number, _ratio, _ratio_sum
from .poly import SYMBOLS, TruncatedPoly, _collect, _exps_from_powers, monomial_degree
from .series import exp_scaled, jet_sum, todd_inverse

GRR_MAX_ORDER = 4
_KAPPA = ("kappa0", "kappa1", "kappa2", "kappa3")
# the spin weight, and the lambda coefficient of c1 in spin_porteous_class;
# built once, since the kernels read each back as an int pair
_HALF = Fraction(1, 2)
_SPIN_C1 = Fraction(-1, 4)
# name -> (order n, weight w) of the jet bundles the pipelines use
JET_BUNDLES = {"J2_spin": (2, _HALF), "J5_canonical": (5, 1)}


def grr_spin_character(order: int) -> TruncatedPoly:
    """Chern character of the (virtual) pushforward of the universal spin bundle.

    Multiplies the inverse Todd series by e^{psi/2}, then sends the psi^k
    coefficient (k >= 1) to kappa_{k-1}.  The psi^1 coefficient vanishes, so
    no kappa0 term ever appears.
    """
    if order < 0:
        raise DegreeError("order must be >= 0")
    if order > GRR_MAX_ORDER:
        raise DegreeError(f"order {order} exceeds the configured series support {GRR_MAX_ORDER}")
    s = todd_inverse(order) * exp_scaled(_HALF, order)
    kappas = ((_exps_from_powers({_KAPPA[e[0] - 1]: 1}), n, d) for e, n, d in s.triples if e[0])
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
            if a - 1 >= len(_KAPPA):
                raise DegreeError(f"kappa_{a - 1} is outside the supported range")
            kappa_exps = list(rest)
            kappa_exps[SYMBOLS.index(_KAPPA[a - 1])] += 1
            triples.append((tuple(kappa_exps), n, d))
    return TruncatedPoly(p.max_degree, _collect(triples, p.max_degree))


# lambda^2 extraction on the genus-4 interior: kappa1 = 12 lambda, Faber's
# kappa2 = 27/2 lambda^2, lambda2 = lambda1^2/2, and lambda == lambda1;
# each factor is a (numerator, denominator) pair.
_SPECIALIZE = {
    _exps_from_powers({"kappa2": 1}): (27, 2),
    _exps_from_powers({"kappa1": 1, "lam": 1}): (12, 1),
    _exps_from_powers({"kappa1": 1, "lam1": 1}): (12, 1),
    _exps_from_powers({"lam": 2}): (1, 1),
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


def spin_porteous_class(cJ: ChernVector) -> TruncatedPoly:
    """kappa-pushforward of the spin degeneracy class at genus 4, given the J2_spin jet bundle."""
    # c1 of the pushforward line bundle is -lambda/4 (the stated value is the
    # doubled one); its c2 vanishes as an input datum.
    cE = ChernVector.line_bundle(TruncatedPoly.monomial({"lam": 1}, _SPIN_C1, CHERN_MAX_DEGREE))
    return kappa_pushforward(porteous_c3(cJ, cE), g=4)


def canonical_jet_porteous_class(cJ: ChernVector) -> TruncatedPoly:
    """kappa-pushforward of the order-5 canonical jet degeneracy class at genus 4, given J5_canonical."""
    z = TruncatedPoly.zero(CHERN_MAX_DEGREE)
    cE = ChernVector(
        4,
        TruncatedPoly.monomial({"lam1": 1}, 1, CHERN_MAX_DEGREE),
        TruncatedPoly.monomial({"lam2": 1}, 1, CHERN_MAX_DEGREE),
        z,
    )
    return kappa_pushforward(porteous_c3(cJ, cE), g=4)


_LOCI = ("SH4_minus", "H4_minus", "H4", "H4_plus")


def lambda2_values(repo, jets: Mapping[str, tuple[TruncatedPoly, ChernVector]]) -> dict[str, Number]:
    """lambda^2 coefficients of the subcanonical loci on the genus-4 interior.

    One pass runs each pipeline once, on the Chern classes of the jet
    bundles `jets` (keyed by JET_BUNDLES name, as `jet_bundles` builds
    them).  SH4_minus comes from the spin pipeline; H4_minus multiplies it by the odd spin cover degree;
    H4 comes from the canonical-jet pipeline; H4_plus subtracts the
    hyperelliptic contribution (one per Weierstrass point) and H4_minus from
    H4.  The two combinations are summed on int pairs, so each value is an
    int where it is integral.
    """
    from .counts import hyperelliptic_weierstrass_count, odd_theta_count

    (_, c_spin), (_, c_canonical) = jets["J2_spin"], jets["J5_canonical"]
    sh4_minus = m4_specialize(spin_porteous_class(c_spin))
    h4 = m4_specialize(canonical_jet_porteous_class(c_canonical))
    (sn, sd), (hn, hd) = _ratio(sh4_minus), _ratio(h4)
    yn, yd = _ratio(repo.catalog_class("Hyp4").coeff("lam^2"))
    odd = odd_theta_count(4)
    h4_minus = _ratio_sum([(odd * sn, sd)])
    h4_plus = _ratio_sum([(hn, hd), (-hyperelliptic_weierstrass_count(4) * yn, yd), (-odd * sn, sd)])
    return dict(zip(_LOCI, (sh4_minus, h4_minus, h4, h4_plus)))
