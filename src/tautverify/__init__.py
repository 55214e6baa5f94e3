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
    "run_all",
    "run_check",
    "__version__",
]


def run_all(repo):
    """Run every registered check; see tautverify.checks for the full API."""
    from .checks import run_all as _run_all

    return _run_all(repo)


def run_check(check_id, repo):
    from .checks import run_check as _run_check

    return _run_check(check_id, repo)
