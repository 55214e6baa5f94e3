"""Truncated power series in the fiber class psi with exact rational coefficients.

These feed the Riemann-Roch pushforward computation: the inverse Todd series
psi/(e^psi - 1), scaled exponentials e^{w psi}, and the jet-bundle character
sums e^{w psi} * sum_i e^{i psi}.  A series of order n is a one-variable
`TruncatedPoly` in psi with maximum degree n (psi has weight 1), so a product
is `*` and coefficients beyond the order are discarded the same way;
operations never silently extend the order.  Coefficients are built as
(numerator, denominator) int pairs, one pair per coefficient, and the
inverse runs its recurrence on int pairs too, so no Fraction is built here.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import Iterable

from .errors import DegreeError, NonUnitSeriesError
from .linalg import _pair_sum, _ratio
from .poly import SYMBOLS, TruncatedPoly

_REST = (0,) * (len(SYMBOLS) - 1)  # the exponents of every symbol after psi


def _series(pairs: Iterable[tuple[int, int]], order: int) -> TruncatedPoly:
    """The series sum_k n_k/d_k psi^k of the given order, from its order + 1 int pairs (n_k, d_k), d_k > 0."""
    if order < 0:
        raise DegreeError("truncation order must be >= 0")
    triples = []
    for k, (n, d) in enumerate(pairs):
        if n:
            g = gcd(n, d)
            triples.append(((k, *_REST), n // g, d // g))
    return TruncatedPoly(order, tuple(triples))


def exp_scaled(w, order: int) -> TruncatedPoly:
    """e^{w psi} = sum_k (w psi)^k / k!  truncated at `order`."""
    wn, wd = _ratio(w)
    return _series([(wn**k, wd**k * factorial(k)) for k in range(order + 1)], order)


def todd_inverse(order: int) -> TruncatedPoly:
    """psi/(e^psi - 1), the inverse Todd series: 1 - psi/2 + psi^2/12 + 0 psi^3 - psi^4/720 ...

    Computed by inverting (e^psi - 1)/psi = sum_k psi^k/(k+1)!, so no
    Bernoulli table is needed and any order is supported.
    """
    return series_inverse(_series([(1, factorial(k + 1)) for k in range(order + 1)], order))


def jet_sum(n: int, w, order: int) -> TruncatedPoly:
    """e^{w psi} * sum_{i=0}^{n} e^{i psi}: Chern character of a weight-w jet sum.

    The psi^k coefficient of the sum of exponentials is the power sum
    sum_i i^k over k!, one int pair per coefficient.
    """
    if n < 0:
        raise DegreeError("jet order must be >= 0")
    sums = [(sum([i**k for i in range(n + 1)]), factorial(k)) for k in range(order + 1)]
    return exp_scaled(w, order) * _series(sums, order)


def series_inverse(a: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of a series in psi: a * result = 1 up to the truncation order."""
    if any(any(e[1:]) for e, _, _ in a.triples):
        raise DegreeError("series_inverse needs a series in psi alone")
    coeffs = [(0, 1)] * (a.max_degree + 1)
    for e, n, d in a.triples:
        coeffs[e[0]] = (n, d)
    n0, d0 = coeffs[0]
    if not n0:
        raise NonUnitSeriesError("cannot invert a series with zero constant term")
    # inv[0] = 1/a_0 and inv[m] = -inv[0] * sum_{k=1}^{m} a_k inv[m-k], on int pairs
    inv = [(d0, n0) if n0 > 0 else (-d0, -n0)]
    for m in range(1, a.max_degree + 1):
        n, d = _pair_sum([(an * bn, ad * bd) for (an, ad), (bn, bd) in zip(coeffs[1:], reversed(inv))])
        inv.append((-n * inv[0][0], d * inv[0][1]))
    return _series(inv, a.max_degree)
