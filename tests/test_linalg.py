from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from tautverify.errors import DimensionError
from tautverify.linalg import (
    Inconsistent,
    QMatrix,
    Solution,
    _combine,
    _dot,
    _from_support,
    _rref_rows,
    _support_of,
    kernel_basis,
    mat_rref,
    row_space_rref,
    solve_exact,
)
from tautverify.poly import _collect, _exps_from_powers, monomial_degree
from tautverify.rings import apply_hom

from conftest import _small_rationals, rationals, sparse_rationals


def mat(rows):
    return QMatrix.from_rows(rows)


def identity(n):
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=1, max_size=5)
).map(mat)

# (width, rows): up to 5 x 5 matrices about half zero, each row with 1-3 augmented columns
sparse_augmented = st.tuples(st.integers(1, 5), st.integers(1, 3)).flatmap(
    lambda wk: st.tuples(
        st.just(wk[0]),
        st.lists(st.lists(sparse_rationals, min_size=sum(wk), max_size=sum(wk)), min_size=1, max_size=5),
    )
)

# small integer entries with many zeros give both droppable and essential rows
full_column_rank = st.integers(1, 3).flatmap(
    lambda c: st.lists(st.lists(st.integers(-2, 2), min_size=c, max_size=c), min_size=c, max_size=6)
).map(mat).filter(lambda m: mat_rref(m).rank == m.cols)


def test_rref_identity():
    m = identity(3)
    res = mat_rref(m)
    assert res.reduced == m
    assert res.pivot_columns == (0, 1, 2)
    assert res.rank == 3


def test_rref_zero_matrix():
    m = mat([[0, 0]] * 4)
    res = mat_rref(m)
    assert res.reduced == m
    assert res.pivot_columns == ()
    assert res.rank == 0


def test_rref_rank_deficient():
    res = mat_rref(mat([[1, 2], [2, 4], [1, 0]]))
    assert res.rank == 2
    assert res.reduced.entries[0] == (F(1), F(0))
    assert res.reduced.entries[1] == (F(0), F(1))


@given(matrices)
def test_rref_idempotent(m):
    once = mat_rref(m).reduced
    assert mat_rref(once).reduced == once


@given(matrices)
def test_rref_pivots_normalized(m):
    res = mat_rref(m)
    for r, c in enumerate(res.pivot_columns):
        col = [res.reduced.entries[i][c] for i in range(m.rows)]
        assert col[r] == 1
        assert all(x == 0 for i, x in enumerate(col) if i != r)


def test_solve_identity():
    b = [F(3), F(-1, 2), F(7)]
    sol = solve_exact(identity(3), b)
    assert isinstance(sol, Solution)
    assert sol.vector == tuple(b)
    assert sol.unique


def test_solve_f31_subsystem():
    # multiplicity system with m, n pinned: unknowns (m, n, k, l)
    a = mat([
        [18, 72, -6, 0],
        [30, 80, 6, 0],
        [0, 0, -3, 12],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    sol = solve_exact(a, [252, 388, 27, 7, 2])
    assert isinstance(sol, Solution) and sol.unique
    assert sol.vector == (F(7), F(2), F(3), F(3))


def test_solve_h4plus_system():
    a = mat([
        [36, 4608, -24, 0],
        [30, 3360, 6, 0],
        [0, 0, -3, 12],
        [0, 0, -1, -2],
    ])
    sol = solve_exact(a, [18432, 16896, 2304, -528])
    assert isinstance(sol, Solution) and sol.unique
    assert sol.vector == (F(320), F(2), F(96), F(216))


def test_solve_inconsistent_certificate():
    sol = solve_exact(mat([[1, 1], [1, 1]]), [1, 2])
    assert isinstance(sol, Inconsistent)
    assert all(x == 0 for x in sol.witness_coeffs)
    assert sol.witness_rhs != 0


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_exact(identity(2), [1, 2, 3])


@given(matrices, st.data())
def test_solve_exactness(m, data):
    x0 = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    b = m.mul_vec(x0)
    sol = solve_exact(m, b)
    assert isinstance(sol, Solution)
    assert m.mul_vec(sol.vector) == b


def test_kernel_invertible():
    assert kernel_basis(mat([[1, 2], [3, 4]])) == []


def test_kernel_one_relation():
    (v,) = kernel_basis(mat([[1, 1]]))
    # canonical normalization puts 1 at the free column
    assert v == (F(-1), F(1))


@given(matrices)
def test_kernel_members_annihilated(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - mat_rref(m).rank
    zero = tuple(F(0) for _ in range(m.rows))
    for v in basis:
        assert m.mul_vec(v) == zero


def test_row_space_canonical_form():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    b = [[F(1), F(1), F(2)], [F(2), F(1), F(3)]]
    assert row_space_rref(a) == row_space_rref(b)
    c = [[F(1), F(1), F(2)], [F(2), F(2), F(4)]]
    assert row_space_rref(a) != row_space_rref(c)


def test_ragged_rows_rejected():
    with pytest.raises(DimensionError):
        QMatrix.from_rows([[1, 2], [1]])


@given(full_column_rank)
def test_left_kernel_support_is_the_droppable_rows(m):
    # the rows some left-kernel vector uses are exactly those whose removal keeps full column rank
    used = {i for v in kernel_basis(m.transpose()) for i, x in enumerate(v) if x != 0}
    droppable = {
        i for i in range(m.rows) if mat_rref(QMatrix(m.entries[:i] + m.entries[i + 1 :])).rank == m.cols
    }
    assert used == droppable


def dense_rref_rows(rows, width):
    """Reference: Gauss-Jordan elimination that does arithmetic on every entry, zeros included."""
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


def assert_elimination_matches_dense(width, aug):
    m = mat([r[:width] for r in aug])
    res = mat_rref(m)
    rows, pivots = dense_rref_rows([list(r) for r in m.entries], width)
    assert res.reduced.entries == tuple(map(tuple, rows))
    assert res.pivot_columns == tuple(pivots)

    # augmented columns are carried along, not eliminated
    got = _rref_rows([list(r) for r in aug], width)
    assert got == dense_rref_rows([list(r) for r in aug], width)
    assert all(type(x) is F for r in res.reduced.entries + tuple(got[0]) for x in r)

    rows, pivots = dense_rref_rows([r[: width + 1] for r in aug], width)
    bad = next((r for r in rows if all(x == 0 for x in r[:-1]) and r[-1] != 0), None)
    if bad is not None:
        expected = Inconsistent(tuple(bad[:-1]), bad[-1])
    else:
        x = [F(0)] * width
        for r, c in enumerate(pivots):
            x[c] = rows[r][-1]
        expected = Solution(tuple(x), width - len(pivots))
    got = solve_exact(m, [r[width] for r in aug])
    assert got == expected
    return got


@given(sparse_augmented)
def test_sparse_elimination_matches_dense_oracle(case):
    assert_elimination_matches_dense(*case)


# denominators 7, 11, 13 and 97, negative pivots that do not divide the entries
# below them, and rows that end as 0 = rhs after several eliminations, so the
# integer rows' content division and per-row scales all take part
_LARGE_DENOMINATOR_SYSTEMS = [
    (
        3,
        [
            [F(1, 7), F(2, 11), F(3, 13), F(5, 97), F(-1, 7)],
            [F(-2, 7), F(-1, 13), F(0), F(1, 11), F(0)],
            [F(3, 97), F(4, 7), F(6, 11), F(-2, 13), F(9, 97)],
        ],
        True,
    ),
    (
        2,
        [[F(1, 7), F(3, 11), F(1, 97)], [F(2, 7), F(6, 11), F(5, 13)]],
        False,
    ),
    (
        3,
        [
            _R1 := [F(0), F(-3, 11), F(2, 13), F(1, 7), F(4, 97)],
            _R2 := [F(5, 7), F(0), F(-1, 97), F(2, 11), F(0)],
            # two rank-deficient rows whose augmented parts break the combination
            [F(1, 2) * x + 3 * y for x, y in zip(_R1[:3], _R2)] + [F(1, 13), F(1, 97)],
            [-2 * x + F(7, 11) * y for x, y in zip(_R1[:3], _R2)] + [F(0), F(5, 7)],
        ],
        False,
    ),
    (
        2,
        [[F(-13, 11), F(7, 97), F(1, 2)], [F(26, 11), F(-14, 97), F(-1)], [F(-11, 13), F(97, 7), F(0)]],
        True,
    ),
]


@pytest.mark.parametrize("width, aug, consistent", _LARGE_DENOMINATOR_SYSTEMS)
def test_large_denominators_match_dense_oracle(width, aug, consistent):
    got = assert_elimination_matches_dense(width, aug)
    assert isinstance(got, Solution) is consistent


def test_basis_m31_pullback_matches_dense_oracle(repo):
    # the shipped theta-star pullback matrix, denominators up to 300, both ways round
    m31 = repo.space("M31")
    theta = repo.hom("theta_star")
    rows = [apply_hom(theta, m31.basis_class(2, lbl)).coeffs for lbl in m31.codim2_basis]
    assert max(x.denominator for r in rows for x in r) == 300
    for m in (mat(rows), mat(rows).transpose()):
        assert_elimination_matches_dense(m.cols, [list(r) + [F(1, 7 + i)] for i, r in enumerate(m.entries)])


def test_small_rationals_are_every_bounded_fraction():
    # enumerated as coprime (numerator, denominator) pairs, without Fraction's normalisation
    pairs = {(n, d) for d in range(1, 13) for n in range(-6 * d, 6 * d + 1) if gcd(n, d) == 1}
    assert sorted((x.numerator, x.denominator) for x in _small_rationals) == sorted(pairs)


# kernel inputs: mostly zero or small, plus ints and large coprime denominators,
# so that the running denominator of a sum both matches and differs term by term
kernel_entries = st.one_of(
    sparse_rationals,
    st.sampled_from([*range(-6, 7), *(F(n, d) for d in (7, 11, 13, 97) for n in range(-100, 101, 9))]),
)
kernel_terms = st.integers(0, 5).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.lists(st.tuples(kernel_entries, st.lists(kernel_entries, min_size=w, max_size=w)), max_size=8),
    )
)

# keyed terms as the polynomials feed them: exponent-tuple keys that repeat,
# with monomials of degree 0 to 4, summed up to a maximum degree of 0 to 3
_KEYS = [
    _exps_from_powers(p)
    for p in ({}, {"psi": 1}, {"lam": 1}, {"psi": 2}, {"psi": 1, "lam": 1}, {"lam2": 1}, {"kappa3": 1, "psi": 1})
]
keyed_terms = st.tuples(st.integers(0, 3), st.lists(st.tuples(st.sampled_from(_KEYS), kernel_entries), max_size=12))


def _normalised_fractions(xs):
    return all(type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1 for x in xs)


def _is_support_of(s, xs):
    """`s` lists exactly the nonzero entries of `xs`, ascending, in lowest terms with positive denominators."""
    return [i for i, _, _ in s] == [i for i, x in enumerate(xs) if x] and all(
        type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1 and F(n, d) == xs[i] for i, n, d in s
    )


@given(kernel_terms, st.lists(st.tuples(kernel_entries, kernel_entries), max_size=16), keyed_terms)
@example((0, []), [], (0, []))
@example((3, [(0, [1, 2, 3]), (F(1, 2), [0, 0, 0])]), [(0, 5), (F(1, 7), 0)], (1, [(_KEYS[1], F(1, 2)), (_KEYS[1], F(-1, 2))]))
@example((2, [(2, [1, -3]), (-1, [2, -6])]), [(2, 3), (-3, 2)], (1, [(_KEYS[1], 0), (_KEYS[3], 5), (_KEYS[2], F(1, 7))]))
def test_kernel_matches_plain_fraction_sums(case, pairs, keyed):
    width, terms = case
    combined = _combine((F(c).numerator, F(c).denominator, _support_of(v)) for c, v in terms)
    expected = tuple(sum((F(c) * F(v[i]) for c, v in terms), F(0)) for i in range(width))
    assert _is_support_of(combined, expected)
    assert _from_support(combined, width) == expected
    assert _normalised_fractions(_from_support(combined, width))

    dot = _dot(_support_of([x for x, _ in pairs]), _support_of([y for _, y in pairs]))
    assert dot == sum((F(x) * F(y) for x, y in pairs), F(0))
    assert _normalised_fractions([dot])

    # the same accumulator keyed by exponent tuple: zero sums and monomials
    # above the maximum degree are dropped, the rest sorted by key
    max_degree, monomials = keyed
    collected = _collect(((e, F(c).numerator, F(c).denominator) for e, c in monomials), max_degree)
    sums = {}
    for e, c in monomials:
        if monomial_degree(e) <= max_degree:
            sums[e] = sums.get(e, F(0)) + F(c)
    assert [(e, F(n, d)) for e, n, d in collected] == sorted((e, c) for e, c in sums.items() if c)
    assert all(type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1 for _, n, d in collected)


@given(st.lists(kernel_entries, max_size=12))
@example([])
@example([0, F(2, 4), -3, F(0), F(-9, 6)])
def test_support_lists_exactly_the_nonzero_entries(xs):
    s = _support_of(xs)
    assert _is_support_of(s, xs)
    assert _from_support(s, len(xs)) == tuple(F(x) for x in xs)
