"""Chern classes of low rank from Chern characters, via the Newton identities.

Only degrees up to three are needed: c1 = ch1, c2 = (c1^2 - 2 ch2)/2, and c3
solves ch3 = (c1^3 - 3 c1 c2 + 3 c3)/6.  The inverse direction is provided for
round-trip testing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeError
from .poly import TruncatedPoly

CHERN_MAX_DEGREE = 3
# built once: `scale` reads each back as an int pair
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


class ChernVector:
    """Total Chern class 1 + c1 + c2 + c3 of a bundle of the given rank."""

    __slots__ = ("rank", "c1", "c2", "c3")

    def __init__(self, rank: int, c1: TruncatedPoly, c2: TruncatedPoly, c3: TruncatedPoly):
        self.rank, self.c1, self.c2, self.c3 = rank, c1, c2, c3
        for i, ci in ((1, c1), (2, c2), (3, c3)):
            if not ci.is_pure_degree(i):
                raise DegreeError(f"c{i} must have pure total degree {i}, got {ci}")

    @classmethod
    def line_bundle(cls, c1: TruncatedPoly) -> "ChernVector":
        z = TruncatedPoly.zero(CHERN_MAX_DEGREE)
        return cls(1, c1, z, z)


def chern_from_character(
    rank: int, ch1: TruncatedPoly, ch2: TruncatedPoly, ch3: TruncatedPoly
) -> ChernVector:
    """Convert (ch1, ch2, ch3) of a rank-`rank` bundle to Chern classes."""
    for i, chi in ((1, ch1), (2, ch2), (3, ch3)):
        if not chi.is_pure_degree(i):
            raise DegreeError(f"ch{i} must have pure total degree {i}")
    c1 = ch1
    c1_squared = c1 * c1
    c2 = (c1_squared - ch2.scale(2)).scale(_HALF)
    c3 = ch3.scale(2) - (c1_squared * c1).scale(_THIRD) + c1 * c2
    return ChernVector(rank, c1, c2, c3)


def character_from_chern(c: ChernVector) -> tuple[TruncatedPoly, TruncatedPoly, TruncatedPoly]:
    """Inverse of chern_from_character in degrees <= 3 (round-trip oracle)."""
    ch1 = c.c1
    ch2 = (c.c1 * c.c1 - c.c2.scale(2)).scale(Fraction(1, 2))
    ch3 = (c.c1 * c.c1 * c.c1 - (c.c1 * c.c2).scale(3) + c.c3.scale(3)).scale(Fraction(1, 6))
    return ch1, ch2, ch3
