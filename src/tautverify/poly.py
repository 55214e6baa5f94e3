"""Multivariate truncated polynomials for the Riemann-Roch pipeline.

The symbol set is fixed: the fiber class psi, the two Hodge-class notations
lam (line-bundle case) and lam1/lam2 (rank-four case), and the pushforward
classes kappa0..kappa3.  Grading weights: psi, lam, lam1 have weight 1, lam2
weight 2, kappa_i weight i.  Monomials above the maximum total degree are
dropped; zero coefficients are never stored.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegreeError
from .linalg import as_fraction

SYMBOLS = ("psi", "lam", "lam1", "lam2", "kappa0", "kappa1", "kappa2", "kappa3")
WEIGHTS = {"psi": 1, "lam": 1, "lam1": 1, "lam2": 2, "kappa0": 0, "kappa1": 1, "kappa2": 2, "kappa3": 3}
_INDEX = {s: i for i, s in enumerate(SYMBOLS)}

Exps = tuple[int, ...]


def monomial_degree(exps: Exps) -> int:
    return sum(e * WEIGHTS[s] for s, e in zip(SYMBOLS, exps))


def _exps_from_powers(powers: Mapping[str, int]) -> Exps:
    exps = [0] * len(SYMBOLS)
    for sym, e in powers.items():
        if sym not in _INDEX:
            raise DegreeError(f"unknown symbol {sym!r}; supported: {SYMBOLS}")
        exps[_INDEX[sym]] = e
    return tuple(exps)


@dataclass(frozen=True)
class TruncatedPoly:
    max_degree: int
    terms: tuple[tuple[Exps, Fraction], ...]  # sorted by exponent tuple, no zeros

    @classmethod
    def from_terms(cls, terms: Mapping[Exps, Fraction] | Iterable[tuple[Exps, Fraction]], max_degree: int) -> "TruncatedPoly":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exps, Fraction] = {}
        for exps, c in items:
            c = as_fraction(c)
            if c == 0 or monomial_degree(exps) > max_degree:
                continue
            acc[exps] = acc.get(exps, Fraction(0)) + c
        cleaned = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return cls(max_degree, cleaned)

    @classmethod
    def zero(cls, max_degree: int = 4) -> "TruncatedPoly":
        return cls(max_degree, ())

    @classmethod
    def monomial(cls, powers: Mapping[str, int], coeff, max_degree: int = 4) -> "TruncatedPoly":
        return cls.from_terms({_exps_from_powers(powers): as_fraction(coeff)}, max_degree)

    @classmethod
    def constant(cls, coeff, max_degree: int = 4) -> "TruncatedPoly":
        return cls.monomial({}, coeff, max_degree)

    def coeff(self, powers: Mapping[str, int]) -> Fraction:
        target = _exps_from_powers(powers)
        for exps, c in self.terms:
            if exps == target:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        deg = min(self.max_degree, other.max_degree)
        acc = dict(self.terms)
        for exps, c in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) + c
        return TruncatedPoly.from_terms(acc, deg)

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "TruncatedPoly":
        c = as_fraction(c)
        return TruncatedPoly.from_terms({e: c * v for e, v in self.terms}, self.max_degree)

    def __mul__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        deg = min(self.max_degree, other.max_degree)
        acc: dict[Exps, Fraction] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                exps = tuple(x + y for x, y in zip(ea, eb))
                if monomial_degree(exps) > deg:
                    continue
                acc[exps] = acc.get(exps, Fraction(0)) + ca * cb
        return TruncatedPoly.from_terms(acc, deg)

    def degree_part(self, d: int) -> "TruncatedPoly":
        return TruncatedPoly.from_terms(
            {e: c for e, c in self.terms if monomial_degree(e) == d}, self.max_degree
        )

    def is_pure_degree(self, d: int) -> bool:
        return all(monomial_degree(e) == d for e, _ in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms:
            syms = "*".join(
                (f"{s}^{e}" if e > 1 else s) for s, e in zip(SYMBOLS, exps) if e
            )
            parts.append(f"{c}*{syms}" if syms else f"{c}")
        return " + ".join(parts)
