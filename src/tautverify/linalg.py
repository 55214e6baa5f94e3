"""Exact linear algebra over the rationals.

The arithmetic runs on Python ints, so all results are exact and every
comparison in the test suite is a strict equality.  An exact vector is kept
as its *support*: a tuple of ``(index, numerator, denominator)`` int triples
for its nonzero entries, ascending in index, in lowest terms with positive
denominators.  This is the one exact-vector format: a matrix is a sequence of
row supports with a stated width, and elimination, ranks and solves (the
right-hand side included) take supports.  There is no separate kernel or
row-space routine: a check reads ranks, a solve's kernel dimension and the
left null space that `solve_with_left_kernel` gets from its one elimination.
One parser, `_ratio`, turns a number (an int, a Fraction or a rational
string; never a bool or a float) into an int pair, at the point where a data
file or a kernel entry point reads it, so load builds supports without a
Fraction round trip.  One constructor, `_number`, turns an int pair back
into an exact value where one leaves the kernels (a dot product, a sum of
ratios, the entries of a solution, an
inconsistency witness) or is read as a value at load (golden values, family
values, stored relations and count constants, through `as_fraction`): an
int when the value is integral, a Fraction only when it is not.  The two
agree as values, since ``Fraction(n) == n``, ``hash(Fraction(n)) ==
hash(n)`` and ``str(Fraction(n)) == str(n)``, and an int costs no
normalising constructor and compares without Fraction's ABC check.
Every keyed sum of products in the package (map images, basis reductions,
divisor alias expansions, special images, gluing restrictions and their
right-hand sides, class arithmetic, polynomial term collection) goes through
one keyed integer accumulator, `_combine`: it adds each scaled entry into
its key's numerator over a running common denominator and normalises once
per key; supports are keyed by index and `poly` terms by exponent tuple.
Every scalar sum (dot products, pairings, the lambda^2 readout, the series
inverse) is one plain loop, `_pair_sum` (inlined in `_dot`), keeping a
running numerator over one denominator; `_dot` reads its right operand as a
table from index to int pair (`_table`), so an operand paired many times,
such as a family's values, is turned into one once.  Elimination
(`_rref_rows`) is Gauss-Jordan on rows cleared of denominators; it builds no
Fraction.  A solve takes its right-hand side as a support over the rows,
like every other vector.  `solve_with_left_kernel` eliminates [A | b | I]
once, and the identity block of the rows that A's part reduces to zero is a
basis of the left null space, so a solve that also wants the redundant rows
runs one elimination, not a second one on the transpose.
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


def det3(rows: Sequence[Sequence[Number]]) -> Number:
    """Determinant of a 3x3 matrix given as three rows (used by the basis check)."""
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise DimensionError("det3 needs a 3x3 matrix")
    ((a, b, c), (d, e, f), (g, h, i)) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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


def _rref_rows(rows: Sequence[Support], width: int) -> tuple[list[Support], list[int]]:
    """Reduced row echelon form, on the leftmost `width` columns, of rows given as supports.

    Entries at column `width` and above (an augmented part, if any) are
    carried along.  Pivots are scaled to 1 and cleared above and below; this
    is the canonical normalization fixed by the design decisions, so each
    input has one output.  Returns the reduced rows as supports, zero rows
    included, and the pivot columns.  The work is in ints: each row is
    cleared of denominators once and kept as a map from column to int times a
    rational scale.  Clearing pivot row P (pivot p) from a row R with R[c] =
    f is R = (p/g) R - (f/g) P, g = gcd(p, f), then R is divided by its
    content; only rows with f != 0 and only P's nonzero entries are touched.
    At the end a pivot row is x / pivot and any other row x times its scale,
    exactly what eliminating over Q gives.
    """
    ints: list[dict[int, int]] = []
    scales = []
    for row in rows:
        den = lcm(*(d for _, _, d in row))
        ints.append({j: n * (den // d) for j, n, d in row})
        scales.append((1, den))
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(ints)) if c in ints[i]), None)
        if pivot_row is None:
            continue
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
        p = ints[r][c]
        support = list(ints[r].items())
        for i, row in enumerate(ints):
            f = row.get(c)
            if i == r or not f:
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
        r += 1
        if r == len(ints):
            break
    out = []
    for i, row in enumerate(ints):
        num, den = (1, row[pivots[i]]) if i < r else scales[i]
        if den < 0:
            num, den = -num, -den
        reduced = []
        for j, x in sorted(row.items()):
            x *= num
            g = gcd(x, den)
            reduced.append((j, x // g, den // g))
        out.append(tuple(reduced))
    return out, pivots


def _augmented(rows: Sequence[Support], rhs: Support, width: int) -> list[Support]:
    """The rows of [A | b]: the entry of b on row i goes to column `width` of row i."""
    if rhs and not 0 <= rhs[0][0] <= rhs[-1][0] < len(rows):
        raise DimensionError(f"matrix has {len(rows)} rows, rhs has an entry on row {rhs[-1][0]}")
    b = _table(rhs)
    out = []
    for i, row in enumerate(rows):
        e = b.get(i)
        out.append((*row, (width, *e)) if e else row)
    return out


def _read_solution(reduced: list[Support], pivots: list[int], width: int) -> Solution | Inconsistent:
    """The Solution or Inconsistent certificate that [A | b ...], reduced on A's `width` columns, holds."""
    for row in reduced[len(pivots) :]:
        if row and row[0][0] == width:
            return Inconsistent(_number(row[0][1], row[0][2]))
    x = [_ZERO] * width
    for row, c in zip(reduced, pivots):
        for j, n, d in row:
            if j >= width:
                if j == width:
                    x[c] = _number(n, d)
                break
    return Solution(tuple(x), width - len(pivots))


def solve_exact(rows: Sequence[Support], rhs: Support, width: int) -> Solution | Inconsistent:
    """Solve A x = b exactly for A given by its rows as supports over `width` columns.

    The right-hand side b is a support over the rows: an entry on a row that
    A lacks raises DimensionError.  Returns a Solution carrying one exact
    solution (the one with all free variables set to 0) and the kernel
    dimension, or an Inconsistent certificate if elimination produces a row
    reading 0 = nonzero.
    """
    reduced, pivots = _rref_rows(_augmented(rows, rhs, width), width)
    return _read_solution(reduced, pivots, width)


def solve_with_left_kernel(
    rows: Sequence[Support], rhs: Support, width: int
) -> tuple[Solution | Inconsistent, list[Support]]:
    """`solve_exact`, plus a basis of the left null space of A, from one elimination.

    Eliminates [A | b | I] on A's columns.  The row operations are recorded
    in the identity block, so each row that A's part reduces to zero carries
    in that block a y with y A = 0, and those rows span the left null space
    (McConnell, Mehlhorn, Naeher & Schweitzer, "Certifying algorithms", 2011).
    Any basis of the left null space uses the same rows, so this one gives
    the redundant rows as a canonical basis would.
    """
    augmented = [(*row, (width + 1 + i, 1, 1)) for i, row in enumerate(_augmented(rows, rhs, width))]
    reduced, pivots = _rref_rows(augmented, width)
    shift = width + 1
    kernel = [tuple((j - shift, n, d) for j, n, d in row if j >= shift) for row in reduced[len(pivots) :]]
    return _read_solution(reduced, pivots, width), kernel


def rank(rows: Sequence[Support], width: int) -> int:
    """The rank of the matrix with these rows over `width` columns: its pivot count after one elimination."""
    return len(_rref_rows(rows, width)[1])
