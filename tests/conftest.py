from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
import hypothesis.strategies as st

from tautverify.chern import ChernVector
from tautverify.data import Repo
from tautverify.linalg import Solution, _dot, _number, _support_of, _table
from tautverify.poly import TruncatedPoly

settings.register_profile(
    "exact",
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def repo() -> Repo:
    return Repo()


# small exact rationals keep the property tests fast while still exercising
# non-integer arithmetic: every fraction in [-6, 6] with denominator <= 12, the
# set st.fractions(-6, 6, max_denominator=12) draws from, sampled from a list
# because drawing fractions is slow; shrinking goes to small denominators first
_small_rationals = sorted(
    {Fraction(n, d) for d in range(1, 13) for n in range(-6 * d, 6 * d + 1)},
    key=lambda x: (x.denominator, abs(x), x < 0),
)
rationals = st.sampled_from(_small_rationals)

# the same values, about half of them zero so that the kernel's zero-skipping
# branches run
sparse_rationals = st.sampled_from([Fraction(0)] * len(_small_rationals) + _small_rationals)


def is_exact_value(x) -> bool:
    """An exact value as the package returns one: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _from_support(s, width):
    """The dense vector of length `width` whose nonzero entries are the support `s`."""
    v = [0] * width
    for i, n, d in s:
        v[i] = _number(n, d)
    return tuple(v)


def coeffs(c):
    """Every coefficient of a class over the basis of its degree, as exact values."""
    return _from_support(c.support, len(c.space.basis(c.degree)))


def mat(rows):
    """A matrix given by dense rows of ints or Fractions, as the row supports the kernels take."""
    return [_support_of(r) for r in rows]


def mul_vec(rows, v):
    """The dense product A v of row supports with a dense vector."""
    vs = _table(_support_of(v))
    return tuple(_dot(r, vs) for r in rows)


def fields(x):
    """What a test compares where a value class compares by identity.

    A `TruncatedPoly` is its (max_degree, triples), a `ChernVector` its rank
    and the fields of its classes, a `Solution` its (vector, kernel_dim);
    tuples, lists and dict values are mapped through, anything else is kept.
    """
    if isinstance(x, TruncatedPoly):
        return x.max_degree, x.triples
    if isinstance(x, ChernVector):
        return x.rank, fields((x.c1, x.c2, x.c3))
    if isinstance(x, Solution):
        return x.vector, x.kernel_dim
    if isinstance(x, (tuple, list)):
        return tuple(fields(v) for v in x)
    if isinstance(x, dict):
        return {k: fields(v) for k, v in x.items()}
    return x
