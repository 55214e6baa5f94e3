"""Enumerative degree formulas and the registry of fiber-count constants.

The closed-form degrees (difference maps on a genus-2 curve, theta
characteristic counts) are computed; counts that rest on degeneration case
analysis are data, and only their arithmetic assembly is re-evaluated here.
Every registered constant's expression tree is re-evaluated at load and must
reproduce its stored value exactly; the registry then keeps only the value
(each entry's `source` stays in `counts.json` for readers).  Values are
exact: an int where integral, else a Fraction (see `linalg.as_fraction`).
"""

from __future__ import annotations

from math import prod
from typing import Mapping

from .errors import DataError, UnknownNameError
from .linalg import Number, as_fraction


def abel_difference_degree(d: int) -> int:
    """Degree of (x, y) -> O((d+1)x - dy) on the square of a general genus-2 curve."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return 2 * d * d * (d + 1) * (d + 1)


def mixed_difference_degree(d1: int, d2: int) -> int:
    """Degree of (x, y) -> O(d1 x - d2 y - p) for a fixed base point p, genus 2."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"d1, d2 must be >= 1, got ({d1}, {d2})")
    return 2 * d1 * d1 * d2 * d2


def scorza_correspondence_class(g: int) -> tuple[int, int, int]:
    """The coefficients (a, b, c) of F1, F2 and Delta in the class of a reduced
    Scorza correspondence on the square of a curve: (g-1)F1 + (g-1)F2 + Delta."""
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    return (g - 1, g - 1, 1)


def even_theta_count(g: int) -> int:
    """Number of even theta characteristics: 2^{g-1}(2^g + 1)."""
    return 2 ** (g - 1) * (2**g + 1)


def odd_theta_count(g: int) -> int:
    """Number of odd theta characteristics: 2^{g-1}(2^g - 1)."""
    return 2 ** (g - 1) * (2**g - 1)


def hyperelliptic_weierstrass_count(g: int) -> int:
    """Weierstrass points of a hyperelliptic curve of genus g: 2g + 2."""
    return 2 * g + 2


def elliptic_mult_degree(d: int) -> int:
    """Degree of x -> O(dx) (up to translation) on an elliptic curve: d^2."""
    return d * d


def torsion_count(n: int) -> int:
    """Number of n-torsion points on an elliptic curve: n^2."""
    return n * n


def scorza_triple_degree() -> tuple[int, tuple[int, int, int]]:
    """Total degree of the triple-point correspondence count on genus 2.

    The three parts come from pairing the correspondence class against the
    two fiber classes and the diagonal; the diagonal part is cross-checked
    against the one-variable difference formula at d = 2.
    """
    part1 = mixed_difference_degree(3, 1)
    part2 = mixed_difference_degree(3, 1)
    part3 = mixed_difference_degree(3, 2)
    if part3 != abel_difference_degree(2):
        raise DataError("diagonal part must agree with the d=2 difference degree")
    return part1 + part2 + part3, (part1, part2, part3)


# --- constants registry -----------------------------------------------------

_FUNCTIONS = {
    "abel": lambda d: abel_difference_degree(d),
    "mixed": lambda d1, d2: mixed_difference_degree(d1, d2),
    "even_theta": lambda g: even_theta_count(g),
    "odd_theta": lambda g: odd_theta_count(g),
    "ell_mult_deg": lambda d: elliptic_mult_degree(d),
    "torsion": lambda n: torsion_count(n),
}

_OPS = {"add", "sub", "mul"}


def _freeze(expr):
    return tuple(_freeze(e) for e in expr) if isinstance(expr, list) else expr


class CountRegistry:
    """Named constants, each kept only once its decomposition gives its stored value."""

    def __init__(self, raw: Mapping):
        self._values: dict[str, Number] = {}
        for entry in raw["constants"]:
            cid = entry["id"]
            if cid in self._values:
                raise DataError(f"duplicate count constant {cid!r}")
            value = as_fraction(entry["value"])
            actual = self.eval_expr(_freeze(entry["expr"]))
            if actual != value:
                raise DataError(f"count constant {cid!r}: decomposition gives {actual}, stored {value}")
            self._values[cid] = value

    def eval_expr(self, expr) -> Number:
        if isinstance(expr, (int, str)):
            return as_fraction(expr)  # a bool is rejected there
        if not isinstance(expr, tuple) or not expr:
            raise DataError(f"malformed count expression: {expr!r}")
        head = expr[0]
        if head == "ref":
            return self.get(expr[1])
        if head in _OPS:
            args = [self.eval_expr(e) for e in expr[1:]]
            if head == "add":
                out = sum(args, 0)
            elif head == "mul":
                out = prod(args, start=1)
            elif len(args) != 2:
                raise DataError("sub takes exactly two arguments")
            else:
                out = args[0] - args[1]
            # Fraction arithmetic may give an integral Fraction, which is read back as an int
            return out if type(out) is int else as_fraction(out)
        if head in _FUNCTIONS:
            if any(type(a) is not int for a in expr[1:]):
                raise TypeError(f"count function {head!r} takes int arguments, got {list(expr[1:])!r}")
            return _FUNCTIONS[head](*expr[1:])
        raise DataError(f"unknown count expression head {head!r}")

    def get(self, cid: str) -> Number:
        try:
            return self._values[cid]
        except KeyError:
            raise UnknownNameError(f"unknown count constant {cid!r}") from None
