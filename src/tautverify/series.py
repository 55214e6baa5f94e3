"""Truncated power series in the fiber class psi with exact rational coefficients.

These feed the Riemann-Roch pushforward computation: the inverse Todd series
psi/(e^psi - 1), scaled exponentials e^{w psi}, and the jet-bundle character
sums e^{w psi} * sum_i e^{i psi}.  A series of order n is a one-variable
`TruncatedPoly` in psi with maximum degree n (psi has weight 1), so a product
is `*` and coefficients beyond the order are discarded the same way;
operations never silently extend the order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DegreeError, NonUnitSeriesError
from .linalg import _dot, _from_support, _support_of, as_fraction
from .poly import TruncatedPoly, _collect, _exps_from_powers


def _series(coeffs: Iterable[Fraction], order: int) -> TruncatedPoly:
    """The series sum_k coeffs[k] psi^k of the given order."""
    if order < 0:
        raise DegreeError("truncation order must be >= 0")
    terms = ((_exps_from_powers({"psi": k}), c.numerator, c.denominator) for k, c in enumerate(coeffs))
    return TruncatedPoly(order, _collect(terms, order))


def exp_scaled(w, order: int) -> TruncatedPoly:
    """e^{w psi} = sum_k (w psi)^k / k!  truncated at `order`."""
    w = as_fraction(w)
    return _series((w**k / math.factorial(k) for k in range(order + 1)), order)


def todd_inverse(order: int) -> TruncatedPoly:
    """psi/(e^psi - 1), the inverse Todd series: 1 - psi/2 + psi^2/12 + 0 psi^3 - psi^4/720 ...

    Computed by inverting (e^psi - 1)/psi = sum_k psi^k/(k+1)!, so no
    Bernoulli table is needed and any order is supported.
    """
    denom = _series((Fraction(1, math.factorial(k + 1)) for k in range(order + 1)), order)
    return series_inverse(denom)


def jet_sum(n: int, w, order: int) -> TruncatedPoly:
    """e^{w psi} * sum_{i=0}^{n} e^{i psi}: Chern character of a weight-w jet sum.

    The psi^k coefficient of the sum of exponentials is the power sum
    sum_i i^k over k!, one Fraction per coefficient.
    """
    if n < 0:
        raise DegreeError("jet order must be >= 0")
    sums = tuple(Fraction(sum(i**k for i in range(n + 1)), math.factorial(k)) for k in range(order + 1))
    return exp_scaled(w, order) * _series(sums, order)


def series_inverse(a: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of a series in psi: a * result = 1 up to the truncation order."""
    if any(any(e[1:]) for e, _, _ in a.triples):
        raise DegreeError("series_inverse needs a series in psi alone")
    coeffs = _from_support(tuple((e[0], n, d) for e, n, d in a.triples), a.max_degree + 1)
    if coeffs[0] == 0:
        raise NonUnitSeriesError("cannot invert a series with zero constant term")
    inv = [1 / coeffs[0]]
    for m in range(1, a.max_degree + 1):
        inv.append(-inv[0] * _dot(_support_of(coeffs[1 : m + 1]), _support_of(inv[::-1])))
    return _series(inv, a.max_degree)
