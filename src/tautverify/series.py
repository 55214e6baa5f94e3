"""Truncated power series in one variable t with exact rational coefficients.

These feed the Riemann-Roch pushforward computation: the inverse Todd series
t/(e^t - 1), scaled exponentials e^{wt}, and the jet-bundle character sums
e^{wt} * sum_i e^{it}.  Coefficients beyond the truncation order are discarded
identically; operations never silently extend the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeError, NonUnitSeriesError
from .linalg import _ZERO, _combine, _dot, _from_support, _support_of, as_fraction


@dataclass(frozen=True)
class TruncatedSeries:
    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise DegreeError("truncation order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise DegreeError(f"need {self.order + 1} coefficients, got {len(self.coeffs)}")

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else _ZERO

    def __str__(self):
        parts = [f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"


def exp_scaled(w, order: int) -> TruncatedSeries:
    """e^{w t} = sum_k (w t)^k / k!  truncated at `order`."""
    w = as_fraction(w)
    return TruncatedSeries(
        order, tuple(w**k / math.factorial(k) for k in range(order + 1))
    )


def todd_inverse(order: int) -> TruncatedSeries:
    """t/(e^t - 1), the inverse Todd series: 1 - t/2 + t^2/12 + 0 t^3 - t^4/720 ...

    Computed by inverting (e^t - 1)/t = sum_k t^k/(k+1)!, so no Bernoulli
    table is needed and any order is supported.
    """
    denom = TruncatedSeries(
        order, tuple(Fraction(1, math.factorial(k + 1)) for k in range(order + 1))
    )
    return series_inverse(denom)


def jet_sum(n: int, w, order: int) -> TruncatedSeries:
    """e^{wt} * sum_{i=0}^{n} e^{it}: Chern character of a weight-w jet sum.

    The t^k coefficient of the sum of exponentials is the power sum
    sum_i i^k over k!, one Fraction per coefficient.
    """
    if n < 0:
        raise DegreeError("jet order must be >= 0")
    sums = tuple(Fraction(sum(i**k for i in range(n + 1)), math.factorial(k)) for k in range(order + 1))
    return series_mul(exp_scaled(w, order), TruncatedSeries(order, sums))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(a.order, b.order): one kernel sum of shifted copies of b."""
    order = min(a.order, b.order)
    sb = _support_of(b.coeffs)
    shifted = (
        (n, d, tuple((i + j, m, e) for j, m, e in sb if i + j <= order))
        for i, n, d in _support_of(a.coeffs[: order + 1])
    )
    return TruncatedSeries(order, _from_support(_combine(shifted), order + 1))


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse: series_mul(a, result) = 1 up to the truncation order."""
    if a.coeffs[0] == 0:
        raise NonUnitSeriesError("cannot invert a series with zero constant term")
    inv0 = 1 / a.coeffs[0]
    coeffs = [inv0] + [_ZERO] * a.order
    for m in range(1, a.order + 1):
        coeffs[m] = -inv0 * _dot(_support_of(a.coeffs[1 : m + 1]), _support_of(coeffs[m - 1 :: -1]))
    return TruncatedSeries(a.order, tuple(coeffs))
