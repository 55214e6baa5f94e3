"""Exact linear algebra over the rationals.

Values enter and leave as `fractions.Fraction`, so all results are exact and
every comparison in the test suite is a strict equality, but the arithmetic
runs on Python ints.  An exact vector's nonzero entries are kept once as its
*support*: a tuple of ``(index, numerator, denominator)`` int triples,
ascending in index, in lowest terms with positive denominators.  Every sum of
products in the package (dot products, map images, basis reductions, class
arithmetic, series products, polynomial term collection) goes through one
keyed integer accumulator, `_accumulate`: it adds numerators per key over a
running common denominator and normalises once per key.  `_dot` and
`_combine` feed it products of supports (keyed by index), and `poly` feeds it
terms keyed by exponent tuple; `_combine` returns a support, so chained
kernel calls build no Fraction in between.  Elimination (`_rref_rows`) is
Gauss-Jordan on rows cleared of denominators; it skips zeros and builds one
Fraction per output entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionError

Vector = tuple[Fraction, ...]
Support = tuple[tuple[int, int, int], ...]
_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce ints/strings like ``"-31/10"`` to Fraction. Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


def as_vector(xs: Iterable) -> Vector:
    return tuple(as_fraction(x) for x in xs)


def _support_of(xs: Iterable) -> Support:
    """The nonzero entries of a vector of Fractions or ints as (index, numerator, denominator)."""
    return tuple((i, x.numerator, x.denominator) for i, x in enumerate(xs) if x)


def _from_support(s: Support, width: int) -> Vector:
    """The dense vector of length `width` whose nonzero entries are `s`."""
    v = [_ZERO] * width
    for i, n, d in s:
        v[i] = Fraction(n, d)
    return tuple(v)


def _accumulate(terms: Iterable[tuple[object, int, int]]) -> tuple[tuple[object, int, int], ...]:
    """The sums of n / d per key over (key, n, d) int terms with d > 0.

    Returns (key, numerator, denominator) triples sorted by key, in lowest
    terms, with zero sums dropped.  This is the one exact summation loop:
    each key keeps a numerator over a running common denominator.
    """
    acc: dict = {}
    for k, n, d in terms:
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


def _ratio_sum(ratios: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of n / d over int pairs with d > 0."""
    total = _accumulate((0, n, d) for n, d in ratios)
    return Fraction(total[0][1], total[0][2]) if total else _ZERO


def _dot(xs: Support, ys: Support) -> Fraction:
    """Exact sum of x_i * y_i over the indices that both supports hold."""
    right = {i: (n, d) for i, n, d in ys}
    return _ratio_sum((n * right[i][0], d * right[i][1]) for i, n, d in xs if i in right)


def _combine(terms: Iterable[tuple[int, int, Support]]) -> Support:
    """Support of the sum of n/d * v over `terms` (n, d, support of v)."""
    return _accumulate((i, cn * n, cd * d) for cn, cd, vs in terms for i, n, d in vs)


@dataclass(frozen=True)
class QMatrix:
    """Immutable rectangular matrix of exact rationals."""

    entries: tuple[Vector, ...]

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise DimensionError("ragged rows in matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "QMatrix":
        return cls(tuple(as_vector(r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "QMatrix":
        return QMatrix(tuple(zip(*self.entries))) if self.entries else QMatrix(())

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionError(f"matrix has {self.cols} columns, vector has {len(v)}")
        vs = _support_of(v)
        return tuple(_dot(_support_of(row), vs) for row in self.entries)

    def det3(self) -> Fraction:
        """Determinant of a 3x3 matrix (used by the basis check)."""
        if self.rows != 3 or self.cols != 3:
            raise DimensionError("det3 needs a 3x3 matrix")
        ((a, b, c), (d, e, f), (g, h, i)) = self.entries
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True)
class RrefResult:
    reduced: QMatrix
    pivot_columns: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class Solution:
    """One exact solution of A x = b, plus the dimension of ker A."""

    vector: Vector
    kernel_dim: int

    @property
    def unique(self) -> bool:
        return self.kernel_dim == 0


@dataclass(frozen=True)
class Inconsistent:
    """Certificate of inconsistency: an eliminated row reading 0 = rhs with rhs != 0."""

    witness_coeffs: Vector
    witness_rhs: Fraction


def _rref_rows(rows: list[list[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form on the leftmost `width` columns.

    Columns beyond `width` (an augmented part, if any) are carried along.
    Pivots are scaled to 1 and cleared above and below; this is the canonical
    normalization fixed by the design decisions, so each input has one output.
    The work is in ints: each row is cleared of denominators once and kept as
    ints times a rational scale.  Clearing pivot row P (pivot p) from a row R
    with R[c] = f is R = (p/g) R - (f/g) P, g = gcd(p, f), then R is divided
    by its content; only rows with f != 0 and, when p/g is 1, only P's nonzero
    entries are touched.  At the end a pivot row is x / pivot and any other
    row x times its scale, exactly what eliminating over Q gives.
    """
    dens = [lcm(*(x.denominator for x in row if x)) for row in rows]
    ints = [[x.numerator * (den // x.denominator) if x else 0 for x in row] for row, den in zip(rows, dens)]
    scales = [(1, den) for den in dens]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(ints)) if ints[i][c]), None)
        if pivot_row is None:
            continue
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
        p = ints[r][c]
        support = [(j, y) for j, y in enumerate(ints[r]) if y]
        for i, row in enumerate(ints):
            f = row[c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                row = [a * x for x in row]
            for j, y in support:
                row[j] -= b * y
            h = gcd(*row)
            ints[i] = [x // h for x in row] if h > 1 else row
            num, den = scales[i]
            scales[i] = (num * g * h, den * p)
        pivots.append(c)
        r += 1
        if r == len(ints):
            break
    for i, row in enumerate(ints):
        num, den = (1, row[pivots[i]]) if i < r else scales[i]
        rows[i] = [Fraction(x * num, den) if x else _ZERO for x in row]
    return rows, pivots


def mat_rref(m: QMatrix) -> RrefResult:
    """Unique reduced row echelon form with pivot columns and rank."""
    rows = [list(r) for r in m.entries]
    rows, pivots = _rref_rows(rows, m.cols)
    reduced = QMatrix(tuple(tuple(r) for r in rows))
    return RrefResult(reduced, tuple(pivots), len(pivots))


def solve_exact(a: QMatrix, b: Sequence) -> Solution | Inconsistent:
    """Solve A x = b exactly.

    Returns a Solution carrying one exact solution (the one with all free
    variables set to 0) and the kernel dimension, or an Inconsistent
    certificate row if elimination produces 0 = nonzero.
    """
    bvec = as_vector(b)
    if len(bvec) != a.rows:
        raise DimensionError(f"matrix has {a.rows} rows, rhs has {len(bvec)}")
    rows = [list(r) + [bvec[i]] for i, r in enumerate(a.entries)]
    rows, pivots = _rref_rows(rows, a.cols)
    for row in rows:
        if row[-1] and not any(row[:-1]):
            return Inconsistent(tuple(row[:-1]), row[-1])
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return Solution(tuple(x), a.cols - len(pivots))


def kernel_basis(a: QMatrix) -> list[Vector]:
    """Canonical basis of the right null space of A.

    For each free column f the basis vector has a 1 in position f, the
    negated reduced-row entries in the pivot positions, and 0 elsewhere.
    Vectors are ordered by free column index; empty iff full column rank.
    """
    res = mat_rref(a)
    pivset = set(res.pivot_columns)
    basis: list[Vector] = []
    for f in range(a.cols):
        if f in pivset:
            continue
        v = [_ZERO] * a.cols
        v[f] = _ONE
        for r, c in enumerate(res.pivot_columns):
            v[c] = -res.reduced.entries[r][f]
        basis.append(tuple(v))
    return basis


def row_space_rref(vectors: Sequence[Sequence[Fraction]]) -> QMatrix:
    """Canonical form of the span of `vectors`: RREF with zero rows dropped.

    Two families span the same subspace iff their canonical forms are equal.
    """
    if not vectors:
        return QMatrix(())
    res = mat_rref(QMatrix.from_rows(vectors))
    keep = tuple(r for r in res.reduced.entries if any(r))
    return QMatrix(keep)
