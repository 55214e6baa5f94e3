"""Enumerative degree formulas and the registry of fiber-count constants.

The closed-form degrees are computed, the difference maps on a genus-2 curve
as one theta pullback on the curve square; counts that rest on degeneration
case analysis are data, and only their arithmetic assembly is re-evaluated.
Every registered constant's expression tree is re-evaluated at load and must
reproduce its stored value exactly; the registry then keeps only the value
(each entry's `source` stays in `counts.json` for readers).  Values are
exact: an int where integral, else a Fraction (see `linalg.as_fraction`).
"""

from __future__ import annotations

from math import factorial, prod
from operator import mul
from typing import Mapping

from .errors import DataError, UnknownNameError
from .linalg import Number, _lowest, _number, as_fraction
from .surfaces import base_lattice


def theta_pullback(a: int, b: int, g: int = 2) -> tuple[tuple[int, int, int], Number]:
    """phi*theta over (f1, f2, D) on the square of a genus-g curve, and (phi*theta)^2 / g!.

    For phi(x, y) = O(ax + by) the class (a^2 g + ab, b^2 g + ab, -ab) is paired on the curve
    square's Gram matrix; in genus 2 that is the degree of phi (Poincare's formula; ACGH, Ch. VIII).
    (1, -1) gives the Scorza class (g-1, g-1, 1).  A map with ab = 0 is not finite and is refused.
    """
    if a * b == 0:
        raise ValueError(f"x, y -> {a}x + {b}y is not finite: a*b must be nonzero")
    cls = (a * a * g + a * b, b * b * g + a * b, -a * b)
    gram = base_lattice("curve_square", genus=g)[1]
    square = sum(x * sum(map(mul, row, cls)) for x, row in zip(cls, gram))  # cls . Gram cls
    return cls, _number(*_lowest(square, factorial(g)))


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
    """Degree of x -> O(dx) (up to translation) on an elliptic curve: d^2, also its number of d-torsion points."""
    return d * d


def scorza_triple_degree() -> tuple[int, tuple[int, int, int]]:
    """Total degree of the triple-point correspondence count on genus 2, and its three parts: two
    fiber parts, each the degree of (x, y) -> 3x - y, and a diagonal part, that of 3x - 2y."""
    parts = tuple(theta_pullback(3, -d)[1] for d in (1, 1, 2))
    return sum(parts), parts


# --- constants registry -----------------------------------------------------

_FUNCTIONS = {
    "abel": lambda d: theta_pullback(d + 1, -d)[1],
    "mixed": lambda d1, d2: theta_pullback(d1, -d2)[1],
    "even_theta": lambda g: even_theta_count(g),
    "odd_theta": lambda g: odd_theta_count(g),
    "ell_mult_deg": lambda d: elliptic_mult_degree(d),
    "torsion": lambda n: elliptic_mult_degree(n),
}

_OPS = {"add", "sub", "mul"}
_ARITY = {"ref": 1, "sub": 2}  # the heads that take a fixed number of arguments


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
        head, args = expr[0], expr[1:]
        if len(args) != _ARITY.get(head, len(args)):
            raise DataError(f"{head} takes exactly {_ARITY[head]} argument{'s' * (_ARITY[head] > 1)}")
        if head == "ref":
            return self.get(args[0])
        if head in _OPS:
            args = [self.eval_expr(e) for e in args]
            out = sum(args, 0) if head == "add" else prod(args, start=1) if head == "mul" else args[0] - args[1]
            # Fraction arithmetic may give an integral Fraction, which is read back as an int
            return out if type(out) is int else as_fraction(out)
        if head in _FUNCTIONS:
            if any(type(a) is not int for a in args):
                raise TypeError(f"count function {head!r} takes int arguments, got {list(args)!r}")
            return _FUNCTIONS[head](*args)
        raise DataError(f"unknown count expression head {head!r}")

    def get(self, cid: str) -> Number:
        try:
            return self._values[cid]
        except KeyError:
            raise UnknownNameError(f"unknown count constant {cid!r}") from None
