"""Exact linear algebra over the rationals.

The arithmetic runs on Python ints, so all results are exact and every
comparison in the test suite is a strict equality.  An exact vector is kept
as its *support*: a tuple of ``(index, numerator, denominator)`` int triples
for its nonzero entries, ascending in index, in lowest terms with positive
denominators.  This is the one exact-vector format: a matrix is a sequence of
row supports with a stated width, and elimination, ranks and solves (the
right-hand side included) take supports.  One parser, `_ratio`, turns a
number (an int, a Fraction or a rational string; never a bool or a float)
into an int pair where a data file or a kernel entry point reads it, so load
builds supports without a Fraction round trip.  One constructor, `_number`,
turns an int pair back into an exact value where one leaves the kernels or
is read as a value at load (through `as_fraction`): an int when the value is
integral, a Fraction only when it is not (``Fraction(n) == n``, with equal
hash and str).  Every keyed sum of products in the package (map images,
basis reductions, alias expansions, gluing restrictions, class arithmetic,
polynomial term collection) goes through one keyed integer accumulator,
`_combine`, which normalises once per key; every scalar sum (dot products,
pairings, the lambda^2 readout, the series inverse) is one plain loop,
`_pair_sum` (inlined in `_dot`), over one running denominator.  `_dot` reads
its right operand as a table from index to int pair (`_table`), so an
operand paired many times, such as a family's values, is turned into one
once.  Elimination is one fraction-free forward pass, `_eliminate`, whose
row-clearing step is written once; it builds no Fraction.  Every entry point
runs it once and reads it: `rank` the pivot count, `det` the signed pivot
product, and `solve_exact` and `solve_with_left_kernel` one back-substitution,
`_back_substitute`, of b's column over Q, or else a zero row's inconsistency
witness.  `solve_with_left_kernel` eliminates [A | b | I]: the rows that A's
part reduces to zero carry a left null space basis in the identity block.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionError

# an exact value: an int if it is integral, else a Fraction whose denominator is > 1
Number = int | Fraction
Vector = tuple[Number, ...]
Support = tuple[tuple[int, int, int], ...]
_ZERO = 0
# an int or a rational string with an unsigned denominator: the fast path of `_ratio`
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")


def _ratio(x) -> tuple[int, int]:
    """An int, a Fraction or a rational string as (numerator, denominator) in lowest terms.

    The one numeric parser: every number read from a definition or golden
    file, and every coefficient a kernel entry point is handed, goes through
    it.  Ints, Fractions and strings like ``"-31/10"`` take a fast path; any
    other string goes to `Fraction`, so decimals, whitespace and a zero
    denominator behave as they do there.  A bool or a float is not an exact
    rational and raises TypeError.
    """
    kind = type(x)
    if kind is int:
        return x, 1
    if kind is Fraction:
        return x.as_integer_ratio()
    if kind is str:
        m = _RATIONAL.fullmatch(x)
        if m:
            n, d = int(m[1]), int(m[2] or 1)
            if d:
                g = gcd(n, d)
                return n // g, d // g
    if kind is not bool and isinstance(x, (int, Fraction, str)):
        return Fraction(x).as_integer_ratio()
    raise TypeError(f"exact rational expected, got {kind.__name__}: {x!r}")


def _number(n: int, d: int) -> Number:
    """The exact value n / d of an int pair in lowest terms with d > 0: n if d == 1, else a Fraction."""
    return n if d == 1 else Fraction(n, d)


def as_fraction(x) -> Number:
    """An int, a Fraction or a rational string (see `_ratio`) as an exact value.

    The value is an int when it is integral and a Fraction, whose
    denominator is then greater than 1, when it is not; so an integral
    Fraction comes back as an int.
    """
    return _number(*_ratio(x))


def _support_of(xs: Iterable) -> Support:
    """The nonzero entries of a vector of numbers (see `_ratio`) as (index, numerator, denominator)."""
    return tuple((i, n, d) for i, (n, d) in enumerate(map(_ratio, xs)) if n)


def _combine(terms: Iterable[tuple[int, int, Iterable]]) -> tuple[tuple[object, int, int], ...]:
    """The sum of cn/cd * v over `terms` (cn, cd, v), each v given by (key, n, d) int terms with d > 0.

    Returns (key, numerator, denominator) triples sorted by key, in lowest
    terms, with zero sums dropped.  This is the one keyed summation loop:
    each scaled entry goes straight into its key's numerator over a running
    common denominator, and each key is normalised once.
    """
    acc: dict = {}
    for cn, cd, vs in terms:
        for k, n, d in vs:
            n, d = n * cn, d * cd
            slot = acc.get(k)
            if slot is None:
                acc[k] = [n, d]
            elif slot[1] == d:
                slot[0] += n
            else:
                g = gcd(slot[1], d)
                slot[0], slot[1] = slot[0] * (d // g) + n * (slot[1] // g), slot[1] // g * d
    out = []
    for k, (n, d) in sorted(acc.items()):
        if n:
            g = gcd(n, d)
            out.append((k, n // g, d // g))
    return tuple(out)


def _pair_sum(ratios: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of n / d over int pairs with d > 0, as a pair in lowest terms."""
    num, den = 0, 1
    for n, d in ratios:
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
    g = gcd(num, den)
    return num // g, den // g


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n / d, for d != 0, as a pair in lowest terms with a positive denominator."""
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // g, d // g


def _ratio_sum(ratios: Iterable[tuple[int, int]]) -> Number:
    """Exact sum of n / d over int pairs with d > 0."""
    return _number(*_pair_sum(ratios))


def _table(s: Support) -> dict[int, tuple[int, int]]:
    """A support as a table from index to its (numerator, denominator) pair: the right operand of `_dot`."""
    return {i: (n, d) for i, n, d in s}


def _dot(xs: Support, table: dict[int, tuple[int, int]]) -> Number:
    """Exact sum of x_i * y_i over the indices of `xs` that the table of y (see `_table`) holds."""
    num, den = 0, 1
    for i, n, d in xs:
        r = table.get(i)
        if r:
            n, d = n * r[0], d * r[1]
            if d == den:
                num += n
            else:
                g = gcd(den, d)
                num, den = num * (d // g) + n * (den // g), den // g * d
    g = gcd(num, den)
    return _number(num // g, den // g)


def _transpose(rows: Sequence[Support], width: int) -> list[Support]:
    """The `width` columns, as supports, of the matrix with these rows."""
    cols: list[list] = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        for j, n, d in row:
            cols[j].append((i, n, d))
    return [tuple(c) for c in cols]


class Solution:
    """One exact solution of A x = b, plus the dimension of ker A."""

    __slots__ = ("vector", "kernel_dim")

    def __init__(self, vector: Vector, kernel_dim: int):
        self.vector, self.kernel_dim = vector, kernel_dim

    @property
    def unique(self) -> bool:
        return self.kernel_dim == 0


class Inconsistent:
    """Certificate of inconsistency: an eliminated row reading 0 = rhs with rhs != 0."""

    __slots__ = ("witness_rhs",)

    def __init__(self, witness_rhs: Number):
        self.witness_rhs = witness_rhs

    def __eq__(self, other):
        if other.__class__ is not Inconsistent:
            return NotImplemented
        return self.witness_rhs == other.witness_rhs


def _eliminate(rows: Sequence[Support], width: int) -> tuple[list, list, list[int], int]:
    """Fraction-free forward elimination, on the leftmost `width` columns, of rows given as supports.

    Each row is cleared of denominators once and kept as ints (a map from
    column) times a rational scale.  Per column, the first row at or below
    the next pivot position with an entry there is swapped up.  Each row R
    with R[c] = f below that pivot row P (pivot p) becomes (p/g) R - (f/g) P
    over its content, g = gcd(p, f), and its scale keeps it equal to
    R - (f/p) P over Q.  The rows past the last pivot are zero on those
    columns.  Returns the int rows, their scales, the pivot columns and the
    swap count.
    """
    dens = [lcm(*[d for _, _, d in row]) for row in rows]
    ints = [{j: n * (den // d) for j, n, d in row} for row, den in zip(rows, dens)]
    scales = [(1, den) for den in dens]
    pivots: list[int] = []
    swaps, m = 0, len(ints)
    for c in range(width):
        r = len(pivots)
        for pivot_row in range(r, m):
            if c in ints[pivot_row]:
                break
        else:
            continue
        swaps += pivot_row != r
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
        p = ints[r][c]
        support = list(ints[r].items())
        for i in range(r + 1, m):
            row = ints[i]
            f = row.get(c)
            if not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, y in support:
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            h = gcd(*row.values())
            ints[i] = {j: x // h for j, x in row.items()} if h > 1 else row
            num, den = scales[i]
            scales[i] = (num * g * h, den * p)
        pivots.append(c)
    return ints, scales, pivots, swaps


def _augmented(rows: Sequence[Support], rhs: Support, width: int) -> list[Support]:
    """The rows of [A | b]: the entry of b on row i goes to column `width` of row i."""
    if rhs and not 0 <= rhs[0][0] <= rhs[-1][0] < len(rows):
        raise DimensionError(f"matrix has {len(rows)} rows, rhs has an entry on row {rhs[-1][0]}")
    b = _table(rhs)
    return [(*row, (width, *b[i])) if i in b else row for i, row in enumerate(rows)]


def _back_substitute(ints: list, scales: list, pivots: list[int], width: int) -> Solution | Inconsistent:
    """The solve of A x = b read off `_eliminate` of [A | b ...], with b in column `width`.

    The first zero row of A's part that keeps an entry in b's column reads
    0 = rhs, and that entry times the row's scale is the witness.  Else
    back-substitution, last pivot first, reads each pivot row's ints, whose
    scale cancels, and sets every free variable to 0.
    """
    r = len(pivots)
    for row, (num, den) in zip(ints[r:], scales[r:]):
        if width in row:
            return Inconsistent(_number(*_lowest(row[width] * num, den)))
    x: dict[int, tuple[int, int]] = {}
    for row, c in zip(reversed(ints[:r]), reversed(pivots)):
        n, d = row.get(width, 0), 1
        for j, y in row.items():
            e = x.get(j)
            if e:
                n, d = n * e[1] - y * e[0] * d, d * e[1]
        x[c] = _lowest(n, d * row[c])
    return Solution(tuple(_number(*x[c]) if c in x else _ZERO for c in range(width)), width - r)


def solve_exact(rows: Sequence[Support], rhs: Support, width: int) -> Solution | Inconsistent:
    """Solve A x = b exactly for A given by its rows as supports over `width` columns.

    The right-hand side b is a support over the rows: an entry on a row that
    A lacks raises DimensionError.  Returns a Solution carrying one exact
    solution (the one with all free variables set to 0) and the kernel
    dimension, or an Inconsistent certificate if elimination produces a row
    reading 0 = nonzero: one forward pass on [A | b], then `_back_substitute`.
    """
    ints, scales, pivots, _ = _eliminate(_augmented(rows, rhs, width), width)
    return _back_substitute(ints, scales, pivots, width)


def solve_with_left_kernel(
    rows: Sequence[Support], rhs: Support, width: int
) -> tuple[Solution | Inconsistent, list[Support]]:
    """`solve_exact`, plus a basis of the left null space of A, from one forward pass.

    Eliminates [A | b | I] on A's columns.  The row operations are recorded
    in the identity block, so each row that A's part reduces to zero carries
    in that block, times its scale, a y with y A = 0, and those rows span the
    left null space (McConnell, Mehlhorn, Naeher & Schweitzer, "Certifying
    algorithms", 2011).  Any basis of the left null space uses the same rows,
    so this one gives the redundant rows as a canonical basis would.
    """
    shift = width + 1
    augmented = [(*row, (shift + i, 1, 1)) for i, row in enumerate(_augmented(rows, rhs, width))]
    ints, scales, pivots, _ = _eliminate(augmented, width)
    kernel = [
        tuple((j - shift, *_lowest(x * num, den)) for j, x in sorted(row.items()) if j >= shift)
        for row, (num, den) in zip(ints[len(pivots) :], scales[len(pivots) :])
    ]
    return _back_substitute(ints, scales, pivots, width), kernel


def rank(rows: Sequence[Support], width: int) -> int:
    """The rank of the matrix with these rows over `width` columns: the pivot count of one forward pass."""
    return len(_eliminate(rows, width)[2])


def det(rows: Sequence[Sequence[Number]]) -> Number:
    """The determinant of a square matrix given as rows of numbers (see `_ratio`): its signed pivot product."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("det needs a square matrix")
    ints, scales, pivots, swaps = _eliminate([_support_of(row) for row in rows], n)
    num, den = (-1) ** swaps, 1
    for row, c, (s, t) in zip(ints, pivots, scales):
        num, den = num * row[c] * s, den * t
    return _number(*_lowest(num, den)) if len(pivots) == n else _ZERO
