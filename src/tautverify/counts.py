"""Enumerative degree formulas and the registry of fiber-count constants.

Each count formula is written once, as a head of `_FUNCTIONS`: the
difference maps on a genus-2 curve as one theta pullback on the curve
square, the classical counts in closed form.  Counts that rest on
degeneration case analysis are data, and only their arithmetic assembly is
re-evaluated.  Every registered constant's expression tree is frozen and
re-evaluated at load and must reproduce its stored value exactly; the
registry keeps the value and the expression (each entry's `source` stays in
`counts.json` for readers), and checks evaluate counts through it.  Values
are exact: an int where integral, else a Fraction (see `linalg.as_fraction`).
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


# --- constants registry -----------------------------------------------------

# the one definition of each count formula, by expression head
_FUNCTIONS = {
    # the degree (phi*theta)^2/2 of phi = (d+1)x - dy, and of d1 x - d2 y, on the genus-2 curve square
    "abel": lambda d: theta_pullback(d + 1, -d)[1],
    "mixed": lambda d1, d2: theta_pullback(d1, -d2)[1],
    # even and odd theta characteristics in genus g: 2^{g-1}(2^g +/- 1) (Mumford 1971)
    "even_theta": lambda g: 2 ** (g - 1) * (2**g + 1),
    "odd_theta": lambda g: 2 ** (g - 1) * (2**g - 1),
    # Weierstrass points of a hyperelliptic curve of genus g
    "hyp_weierstrass": lambda g: 2 * g + 2,
    # the degree of x -> O(dx) on an elliptic curve is also its number of d-torsion points
    **dict.fromkeys(("ell_mult_deg", "torsion"), lambda d: d * d),
}

_OPS = {"add", "sub", "mul"}
_ARITY = {"ref": 1, "sub": 2}  # the heads that take a fixed number of arguments
_ENTRY_FIELDS = {"id", "value", "expr", "source"}


def _freeze(expr):
    return tuple(_freeze(e) for e in expr) if isinstance(expr, list) else expr


class CountRegistry:
    """Named constants, each kept with its expression once that gives its stored value."""

    def __init__(self, raw: Mapping):
        self._constants: dict[str, tuple[Number, object]] = {}  # id -> (value, frozen expression)
        if stray := sorted(set(raw) - {"constants"}):
            raise DataError(f"unknown fields {stray}, not 'constants'")
        for i, entry in enumerate(raw["constants"]):
            if stray := sorted(set(entry) - _ENTRY_FIELDS):
                raise DataError(f"constants/{i}: unknown fields {stray}, not id, value, expr or source")
            cid = entry["id"]
            if cid in self._constants:
                raise DataError(f"duplicate count constant {cid!r}")
            value, expr = as_fraction(entry["value"]), _freeze(entry["expr"])
            actual = self.eval_expr(expr)
            if actual != value:
                raise DataError(f"count constant {cid!r}: decomposition gives {actual}, stored {value}")
            self._constants[cid] = value, expr

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
        return self._lookup(cid)[0]

    def terms(self, cid: str) -> tuple[Number, ...]:
        """The values of the top-level arguments of a constant's add, sub, mul or count-function expression:
        (18, 18, 72) for a total of 18 + 18 + 72; a constant stated as a number has none."""
        expr = self._lookup(cid)[1]
        return tuple(map(self.eval_expr, expr[1:])) if isinstance(expr, tuple) else ()

    def _lookup(self, cid: str) -> tuple[Number, object]:
        try:
            return self._constants[cid]
        except KeyError:
            raise UnknownNameError(f"unknown count constant {cid!r}") from None
