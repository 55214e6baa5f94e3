from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
import hypothesis.strategies as st

from tautverify.chern import ChernVector
from tautverify.data import Repo
from tautverify.linalg import Inconsistent, Solution, _dot, _number, _support_of, _table, rank, solve_with_left_kernel
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


def dense_rref_rows(rows, width):
    """Reference: Gauss-Jordan elimination that does arithmetic on every entry, zeros included.

    The entries become Fractions first, so that `/` divides exactly.
    """
    rows[:] = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_solve(aug, width):
    """Reference: the solve of [A | b], given densely, read off `dense_rref_rows`.

    An Inconsistent certificate with the first row reading 0 = rhs != 0, else
    a Solution's (vector, kernel_dim) with every free variable 0.
    """
    rows, pivots = dense_rref_rows([list(r[: width + 1]) for r in aug], width)
    bad = next((r for r in rows if all(x == 0 for x in r[:-1]) and r[-1] != 0), None)
    if bad is not None:
        return Inconsistent(bad[-1])
    x = [Fraction(0)] * width
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return tuple(x), width - len(pivots)


def assert_one_pass_matches_dense(width, aug):
    """`solve_with_left_kernel` and `rank` on the dense [A | b] rows `aug`, held to the dense oracle.

    The solve of [A | b | I] is `dense_solve`'s, each kernel vector y has
    y A = 0 computed densely, the kernel is independent and has m - rank
    vectors, and `rank` is the dense pivot count.  Returns the solve and the
    kernel.
    """
    a = mat([r[:width] for r in aug])
    sol, kernel = solve_with_left_kernel(a, _support_of([r[width] for r in aug]), width)
    assert fields(sol) == dense_solve(aug, width)
    pivots = dense_rref_rows([list(r[:width]) for r in aug], width)[1]
    assert rank(a, width) == len(pivots)
    ys = [_from_support(y, len(aug)) for y in kernel]
    for y in ys:
        assert any(y) and all(sum(Fraction(y[i]) * r[j] for i, r in enumerate(aug)) == 0 for j in range(width))
    assert len(dense_rref_rows([list(y) for y in ys], len(aug))[1]) == len(kernel) == len(aug) - len(pivots)
    return sol, kernel
