"""Exact-rational verification engine for intersection-theory computations
on moduli of curves in low genus.

Everything is exact: coefficients are arbitrary-precision rationals, checks
compare for strict equality, and all inputs (bases, relations, pullback
tables, family lattices, fiber counts) live in auditable data files.
"""

__version__ = "0.1.0"

from .data import Repo
from .rings import TautClass, divisor_product, reduce_to_basis, special_expand, apply_hom
from .surfaces import evaluate

__all__ = [
    "Repo",
    "TautClass",
    "divisor_product",
    "reduce_to_basis",
    "special_expand",
    "apply_hom",
    "evaluate",
    "__version__",
]

