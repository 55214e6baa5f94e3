"""Multivariate truncated polynomials for the Riemann-Roch pipeline.

The symbol set is fixed at six: the fiber class psi, the Hodge classes lam1
and lam2 (lam1 is the class lambda of the line-bundle case too), and the
pushforward classes kappa1..kappa3.  Grading weights: psi and lam1 have
weight 1, lam2 weight 2, kappa_i weight i.  Monomials above the maximum
total degree are dropped; zero coefficients are never stored.

Terms are stored as ``(exponents, numerator, denominator)`` int triples in
lowest terms with positive denominators, sorted by exponent tuple, so that
chained `+`, `-`, `scale` and `*` build no Fraction: each collects like terms
in the keyed int accumulator of `linalg`, keyed by exponent tuple.  A
polynomial's terms never exceed its own maximum degree, so truncation runs
only where it can drop a term: `+` and `-` filter only an operand whose bound
is above the result's, `scale` filters nothing, and `*` skips a pair of terms
above the bound before it builds the pair's exponents.  `coeff` reads a
coefficient as an exact value: an int where it is integral, and a Fraction
only where it is not (see `linalg._number`).
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import add, mul
from typing import Iterable

from .errors import DegreeError
from .linalg import _ZERO, Number, _combine, _number, _ratio

SYMBOLS = ("psi", "lam1", "lam2", "kappa1", "kappa2", "kappa3")
WEIGHTS = {"psi": 1, "lam1": 1, "lam2": 2, "kappa1": 1, "kappa2": 2, "kappa3": 3}
_INDEX = {s: i for i, s in enumerate(SYMBOLS)}
_WEIGHTS = tuple(WEIGHTS[s] for s in SYMBOLS)

Exps = tuple[int, ...]
Triple = tuple[Exps, int, int]


def monomial_degree(exps: Exps) -> int:
    return sum(map(mul, exps, _WEIGHTS))


def _collect(triples: Iterable[Triple], max_degree: int) -> tuple[Triple, ...]:
    """Sorted nonzero lowest-terms triples of the sum of n/d * x^exps over `triples`, up to `max_degree`."""
    return _combine(((1, 1, [t for t in triples if monomial_degree(t[0]) <= max_degree]),))


def _within(p: "TruncatedPoly", max_degree: int) -> tuple[Triple, ...]:
    """The terms of `p` up to `max_degree`; only a bound below p's own can drop one."""
    if p.max_degree <= max_degree:
        return p.triples
    return tuple(t for t in p.triples if monomial_degree(t[0]) <= max_degree)


def _full_length(exps: Exps) -> Exps:
    if len(exps) != len(SYMBOLS):
        raise DegreeError(f"exponent tuple {exps} must have one entry per symbol of {SYMBOLS}")
    return exps


def _exps_from_powers(powers: Mapping[str, int]) -> Exps:
    exps = [0] * len(SYMBOLS)
    for sym, e in powers.items():
        if sym not in _INDEX:
            raise DegreeError(f"unknown symbol {sym!r}; supported: {SYMBOLS}")
        exps[_INDEX[sym]] = e
    return tuple(exps)


class TruncatedPoly:
    """A polynomial with every monomial above `max_degree` dropped.

    `triples` are sorted by exponent tuple, nonzero, in lowest terms, with
    positive denominators.
    """

    __slots__ = ("max_degree", "triples")

    def __init__(self, max_degree: int, triples: tuple[Triple, ...]):
        self.max_degree, self.triples = max_degree, triples

    @classmethod
    def from_terms(cls, terms: Mapping[Exps, Number] | Iterable[tuple[Exps, Number]], max_degree: int) -> "TruncatedPoly":
        items = terms.items() if isinstance(terms, Mapping) else terms
        triples = ((_full_length(e), *_ratio(c)) for e, c in items)
        return cls(max_degree, _collect(triples, max_degree))

    @classmethod
    def zero(cls, max_degree: int) -> "TruncatedPoly":
        return cls(max_degree, ())

    @classmethod
    def monomial(cls, powers: Mapping[str, int], coeff, max_degree: int) -> "TruncatedPoly":
        return cls.from_terms({_exps_from_powers(powers): coeff}, max_degree)

    def coeff(self, powers: Mapping[str, int]) -> Number:
        target = _exps_from_powers(powers)
        for exps, n, d in self.triples:
            if exps == target:
                return _number(n, d)
        return _ZERO

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return self._plus(other, -1)

    def _plus(self, other: "TruncatedPoly", sign: int) -> "TruncatedPoly":
        deg = min(self.max_degree, other.max_degree)
        return TruncatedPoly(deg, _combine(((1, 1, _within(self, deg)), (sign, 1, _within(other, deg)))))

    def scale(self, c) -> "TruncatedPoly":
        return TruncatedPoly(self.max_degree, _combine(((*_ratio(c), self.triples),)))

    def __mul__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        deg = min(self.max_degree, other.max_degree)
        right = [(monomial_degree(eb), eb, nb, db) for eb, nb, db in other.triples]
        triples = []
        for ea, na, da in self.triples:
            room = deg - monomial_degree(ea)
            for kb, eb, nb, db in right:
                if kb <= room:
                    triples.append((tuple(map(add, ea, eb)), na * nb, da * db))
        return TruncatedPoly(deg, _combine(((1, 1, triples),)))

    def degree_part(self, d: int) -> "TruncatedPoly":
        return TruncatedPoly(self.max_degree, tuple(t for t in self.triples if monomial_degree(t[0]) == d))

    def is_pure_degree(self, d: int) -> bool:
        return all(monomial_degree(e) == d for e, _, _ in self.triples)

    def __str__(self):
        if not self.triples:
            return "0"
        parts = []
        for exps, n, d in self.triples:
            c = f"{n}" if d == 1 else f"{n}/{d}"
            syms = "*".join(
                (f"{s}^{e}" if e > 1 else s) for s, e in zip(SYMBOLS, exps) if e
            )
            parts.append(f"{c}*{syms}" if syms else c)
        return " + ".join(parts)
