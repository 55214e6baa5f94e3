from fractions import Fraction as F
from itertools import permutations
from math import gcd

import pytest
from hypothesis import event, example, given
import hypothesis.strategies as st

from tautverify.checks import Run, _parts_basis_m31
from tautverify.errors import DimensionError
from tautverify.linalg import (
    Inconsistent,
    Solution,
    _combine,
    _dot,
    _ratio,
    _support_of,
    _table,
    as_fraction,
    det,
    rank,
    solve_exact,
    solve_with_left_kernel,
)
from tautverify.poly import _collect, _exps_from_powers, monomial_degree
from tautverify.rings import apply_hom

from conftest import (
    _from_support,
    _small_rationals,
    assert_one_pass_matches_dense,
    coeffs,
    dense_rref_rows,
    dense_solve,
    fields,
    is_exact_value,
    mat,
    mul_vec,
    rationals,
    sparse_rationals,
)


def identity(n):
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def dense(rows, width):
    return [list(_from_support(r, width)) for r in rows]


# --- oracles: canonical kernel and row-space forms, built on the dense
# reference elimination, the reference for the rank and membership criterion
# of the basis check and for the left kernel of the one forward pass


def kernel_basis(rows, width):
    """Canonical basis of the right null space of A, given by its rows over `width` columns.

    For each free column f the basis vector has a 1 in position f, the
    negated reduced-row entries in the pivot positions, and 0 elsewhere.
    Vectors are ordered by free column index; empty iff full column rank.
    """
    reduced, pivots = dense_rref_rows(dense(rows, width), width)
    basis = []
    for f in range(width):
        if f not in pivots:
            v = [0] * width
            v[f] = 1
            for row, c in zip(reduced, pivots):
                v[c] = -row[f]
            basis.append(_support_of(v))
    return basis


def left_kernel(rows):
    """Canonical basis of the left null space of A (the y with y A = 0): the right null space of the transpose."""
    width = 1 + max((row[-1][0] for row in rows if row), default=-1)
    return kernel_basis(mat(zip(*dense(rows, width))), len(rows))


def row_space_rref(rows, width):
    """Canonical form of the span of `rows`: dense RREF with zero rows dropped, so equal iff the spans are."""
    return tuple(tuple(row) for row in dense_rref_rows(dense(rows, width), width)[0] if any(row))


# (rows as supports, width)
matrices = st.integers(1, 5).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=1, max_size=5).map(mat), st.just(c)
    )
)

# (width, rows): up to 5 x 5 matrices about half zero, each row with 1-3 augmented columns
sparse_augmented = st.tuples(st.integers(1, 5), st.integers(1, 3)).flatmap(
    lambda wk: st.tuples(
        st.just(wk[0]),
        st.lists(st.lists(sparse_rationals, min_size=sum(wk), max_size=sum(wk)), min_size=1, max_size=5),
    )
)

# small integer entries with many zeros give both droppable and essential rows
full_column_rank = st.integers(1, 3).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=c, max_size=c), min_size=c, max_size=6).map(mat), st.just(c)
    )
).filter(lambda m: rank(*m) == m[1])


def test_one_pass_identity():
    # A = I: the solve is b itself, and no row reduces to zero
    b = [F(3), F(-1, 2), F(7)]
    sol, kernel = assert_one_pass_matches_dense(3, [[int(i == j) for j in range(3)] + [x] for i, x in enumerate(b)])
    assert fields(sol) == (tuple(b), 0)
    assert kernel == []


def test_one_pass_zero_matrix():
    # every row of A = 0 is a zero row, so the left kernel is the identity block
    sol, kernel = assert_one_pass_matches_dense(2, [[0, 0, 0]] * 4)
    assert fields(sol) == ((0, 0), 2)
    assert kernel == identity(4)


def test_one_pass_rank_deficient():
    # row 1 is twice row 0, so its zero row records y = (-2, 1, 0); row 2
    # becomes the second pivot row after a swap
    sol, kernel = assert_one_pass_matches_dense(2, [[1, 2, 1], [2, 4, 2], [1, 0, 3]])
    assert fields(sol) == ((3, -1), 0)
    assert kernel == [((0, -2, 1), (1, 1, 1))]
    # a pivot of 2 leaves the scale 1/2 on the zero row, which reads 0 = -3/2
    sol, kernel = assert_one_pass_matches_dense(2, [[2, 4, 1], [3, 6, 0]])
    assert sol == Inconsistent(F(-3, 2))
    assert kernel == left_kernel(mat([[2, 4], [3, 6]])) == [((0, -3, 2), (1, 1, 1))]


@given(matrices, st.data())
def test_one_pass_solves_a_consistent_system(m, data):
    # b = A x0: back-substitution finds a solution, and it solves A x = b
    rows, width = m
    b = mul_vec(rows, data.draw(st.lists(rationals, min_size=width, max_size=width)))
    sol, _ = assert_one_pass_matches_dense(width, [[*r, x] for r, x in zip(dense(rows, width), b)])
    assert isinstance(sol, Solution)
    assert mul_vec(rows, sol.vector) == b


@given(matrices, st.data())
def test_one_pass_reads_the_witness_or_the_solve(m, data):
    # an arbitrary b: a zero row that keeps an entry in b's column is the witness
    rows, width = m
    b = data.draw(st.lists(sparse_rationals, min_size=len(rows), max_size=len(rows)))
    sol, kernel = assert_one_pass_matches_dense(width, [[*r, x] for r, x in zip(dense(rows, width), b)])
    event("inconsistent" if isinstance(sol, Inconsistent) else "consistent")
    assert row_space_rref(kernel, len(rows)) == row_space_rref(left_kernel(rows), len(rows))


def test_solve_identity():
    b = [F(3), F(-1, 2), F(7)]
    sol = solve_exact(identity(3), _support_of(b), 3)
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
    sol = solve_exact(a, _support_of([252, 388, 27, 7, 2]), 4)
    assert isinstance(sol, Solution) and sol.unique
    assert sol.vector == (F(7), F(2), F(3), F(3))


def test_solve_h4plus_system():
    a = mat([
        [36, 4608, -24, 0],
        [30, 3360, 6, 0],
        [0, 0, -3, 12],
        [0, 0, -1, -2],
    ])
    sol = solve_exact(a, _support_of([18432, 16896, 2304, -528]), 4)
    assert isinstance(sol, Solution) and sol.unique
    assert sol.vector == (F(320), F(2), F(96), F(216))


def test_solve_inconsistent_certificate():
    sol = solve_exact(mat([[1, 1], [1, 1]]), _support_of([1, 2]), 2)
    assert isinstance(sol, Inconsistent)
    assert sol.witness_rhs != 0


def _det_by_permutations(rows):
    """Leibniz's formula: the sum over permutations p of sign(p) times the product of rows[k][p[k]]."""
    n = len(rows)
    total = F(0)
    for p in permutations(range(n)):
        term = F((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)))
        for k in range(n):
            term *= rows[k][p[k]]
        total += term
    return total


# n x n matrices, n = 1 to 4, about half of whose entries are zero
square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(sparse_rationals, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(square_matrices)
# every entry nonzero, so each of the six products, and each sign, counts
@example([[2, -3, F(1, 2)], [5, 7, -1], [F(-4, 3), 6, 11]])
# a zero row, and a singular matrix with no zero row
@example([[1, 2, 3], [0, 0, 0], [4, 5, 6]])
@example([[F(1, 2), 1, 2], [1, 2, 4], [3, F(-1, 3), 0]])
# pivots that need a row swap: one swap, then two
@example([[0, 1], [1, 0]])
@example([[0, 0, 2, 1], [0, 0, 1, 3], [F(5, 7), 1, 0, 0], [1, 2, 0, F(-1, 2)]])
@example([[F(-3, 11)]])
def test_det_matches_the_permutation_expansion(rows):
    got = det(rows)
    event("singular" if got == 0 else "regular")
    assert is_exact_value(got)
    assert got == _det_by_permutations(rows)


def test_det_examples():
    # the 4 x 4 matrix needs two row swaps, which leave the sign as it is
    assert det([[2, -3, F(1, 2)], [5, 7, -1], [F(-4, 3), 6, 11]]) == F(1040, 3)
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 2, 1], [0, 0, 1, 3], [F(5, 7), 1, 0, 0], [1, 2, 0, F(-1, 2)]]) == F(15, 7)
    assert det([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
    assert det([]) == 1


@pytest.mark.parametrize(
    "rows", [((1, 2),), ((1, 2, 3), (4, 5), (6, 7, 8)), ((1, 2, 3),) * 4, ((1, 2, 3, 4),) * 3]
)
def test_det_needs_a_square_matrix(rows):
    with pytest.raises(DimensionError, match="^det needs a square matrix$"):
        det(rows)


def test_solve_dimension_mismatch():
    # the rhs is a support over the rows: an entry on a third row of a two-row matrix
    with pytest.raises(DimensionError):
        solve_exact(identity(2), ((0, 1, 1), (2, 3, 1)), 2)


def test_rows_with_no_columns():
    # a matrix with rows but no columns: every row is zero, so the left
    # kernel is the whole row space and a nonzero rhs is inconsistent
    assert left_kernel([(), (), ()]) == [((0, 1, 1),), ((1, 1, 1),), ((2, 1, 1),)]
    assert solve_with_left_kernel([(), (), ()], (), 0)[1] == left_kernel([(), (), ()])
    assert fields(solve_exact([(), ()], _support_of([0, 0]), 0)) == ((), 0)
    assert solve_exact([()], _support_of([1]), 0) == Inconsistent(F(1))


@given(matrices, st.data())
def test_solve_exactness(m, data):
    rows, width = m
    x0 = data.draw(st.lists(rationals, min_size=width, max_size=width))
    b = mul_vec(rows, x0)
    sol = solve_exact(rows, _support_of(b), width)
    assert isinstance(sol, Solution)
    assert mul_vec(rows, sol.vector) == b


def test_kernel_invertible():
    assert kernel_basis(mat([[1, 2], [3, 4]]), 2) == []


def test_kernel_one_relation():
    (v,) = kernel_basis(mat([[1, 1]]), 2)
    # canonical normalization puts 1 at the free column
    assert v == ((0, -1, 1), (1, 1, 1))


@given(matrices)
def test_kernel_members_annihilated(m):
    rows, width = m
    basis = kernel_basis(rows, width)
    assert len(basis) == width - rank(rows, width)
    zero = tuple(F(0) for _ in rows)
    for v in basis:
        assert mul_vec(rows, _from_support(v, width)) == zero


def test_row_space_canonical_form():
    a = mat([[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    b = mat([[F(1), F(1), F(2)], [F(2), F(1), F(3)]])
    assert row_space_rref(a, 3) == row_space_rref(b, 3)
    c = mat([[F(1), F(1), F(2)], [F(2), F(2), F(4)]])
    assert row_space_rref(a, 3) != row_space_rref(c, 3)


@given(full_column_rank)
def test_left_kernel_support_is_the_droppable_rows(m):
    # the rows some left-kernel vector uses are exactly those whose removal keeps full column rank
    rows, width = m
    used = {i for v in left_kernel(rows) for i, _, _ in v}
    assert used == droppable_rows(rows, width)


def droppable_rows(rows, width):
    """The rows whose removal keeps a matrix of full column rank at full column rank."""
    return {i for i in range(len(rows)) if rank(rows[:i] + rows[i + 1 :], width) == width}


@given(st.one_of(full_column_rank, matrices), st.data())
def test_one_elimination_solves_and_finds_the_left_kernel(m, data):
    # the solve of [A | b | I] agrees with the dense oracle, its kernel is a
    # basis of the left null space, spanning what the dense oracle's does, and
    # for A of full column rank the rows its kernel uses are the droppable ones
    rows, width = m
    if data.draw(st.booleans()):
        b = mul_vec(rows, data.draw(st.lists(rationals, min_size=width, max_size=width)))
    else:
        b = data.draw(st.lists(sparse_rationals, min_size=len(rows), max_size=len(rows)))
    _, kernel = assert_one_pass_matches_dense(width, [[*r, x] for r, x in zip(dense(rows, width), b)])
    assert row_space_rref(kernel, len(rows)) == row_space_rref(left_kernel(rows), len(rows))
    if rank(rows, width) == width:
        assert {i for y in kernel for i, _, _ in y} == droppable_rows(rows, width)


def assert_elimination_matches_dense(width, aug):
    _, kernel = assert_one_pass_matches_dense(width, aug)
    assert all(_is_support_of(y, _from_support(y, len(aug))) for y in kernel)
    # augmented columns are carried along, not eliminated
    assert rank(mat(aug), width) == rank(mat([r[:width] for r in aug]), width)

    got = solve_exact(mat([r[:width] for r in aug]), _support_of([r[width] for r in aug]), width)
    assert fields(got) == dense_solve(aug, width)
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


# systems that a forward pass and back-substitution decide, as (width, [A | b], expected)
_BACK_SUBSTITUTION_SYSTEMS = [
    # column 1 is free and left of the pivot in column 2, so x_1 is 0
    (3, [[1, 2, 1, 4], [0, 0, 3, 6], [2, 4, 5, 14]], ((2, 0, 2), 1)),
    # the last row reads 0 = rhs only after the rows above have both cleared
    # it, the first after a swap; the witness keeps the row's scale
    (3, [[0, 1, 1, 2], [1, 1, 0, 1], [F(1, 3), F(2, 3), F(1, 3), 3]], Inconsistent(2)),
    (3, [[0, 2, -1, 1], [-3, 1, 0, 2], [6, 0, 1, F(1, 5)], [3, 5, -2, 0]], Inconsistent(F(-13, 5))),
    # negative pivots that do not divide the entries below them
    (2, [[-2, 3, 1], [5, -7, F(1, 2)]], ((F(17, 2), 6), 0)),
    (3, [[-3, 2, 0, 1], [2, -5, 1, 0], [0, 4, -7, F(-1, 3)]], ((F(-7, 15), F(-1, 5), F(-1, 15)), 0)),
]


@pytest.mark.parametrize(
    "width, aug, expected",
    [*_BACK_SUBSTITUTION_SYSTEMS, *((w, aug, None) for w, aug, _ in _LARGE_DENOMINATOR_SYSTEMS)],
    ids=[
        "free_column",
        "late_zero_row",
        "late_zero_row_negative_pivots",
        "negative_pivots_2x2",
        "negative_pivots_3x3",
        *(f"large_denominators_{i}" for i in range(len(_LARGE_DENOMINATOR_SYSTEMS))),
    ],
)
def test_back_substitution_matches_dense_oracle(width, aug, expected):
    got = fields(solve_exact(mat([r[:width] for r in aug]), _support_of([r[width] for r in aug]), width))
    assert got == dense_solve(aug, width)
    if expected is not None:
        assert got == expected


def test_basis_m31_pullback_matches_dense_oracle(repo):
    # the shipped theta-star pullback matrix, denominators up to 300, both ways round
    m31 = repo.space("M31")
    theta = repo.hom("theta_star")
    rows = [coeffs(apply_hom(theta, m31.basis_class(2, lbl))) for lbl in m31.codim2_basis]
    assert all(is_exact_value(x) for r in rows for x in r)
    assert max(x.denominator for r in rows for x in r) == 300
    for m in (rows, list(zip(*rows))):
        assert_elimination_matches_dense(len(m[0]), [list(r) + [F(1, 7 + i)] for i, r in enumerate(m)])


@given(st.one_of(sparse_augmented, matrices.map(lambda m: (m[1], dense(*m)))))
@example((2, [[0, 0]] * 3))
@example((0, [[], []]))
def test_rank_is_the_pivot_count_of_the_dense_oracle(case):
    # on the leftmost `width` columns; an augmented part is carried along
    width, rows = case
    assert rank(mat(rows), width) == len(dense_rref_rows([list(r) for r in rows], width)[1])


def _kernel_span_matches_with(repo, gens):
    """The basis_m31 check's kernel_span_matches part, with `gens` as the relation generators."""
    m31 = repo.space("M31")
    stated = {k: dict(zip(m31.codim2_basis, _from_support(g, 16))) for k, g in zip(("alpha", "beta", "gamma"), gens)}
    expected = {**repo.golden["basis_m31"], "relation_generators": stated}
    return next(actual for name, _, actual in _parts_basis_m31(Run(repo), expected) if name == "kernel_span_matches")


@given(st.data())
def test_basis_criterion_matches_the_canonical_span_equality(repo, data):
    # ker theta* is spanned by three classes iff each dies under theta*, they
    # have rank 3, and 3 = 16 - rank theta*: the check's criterion must agree
    # with comparing the canonical row spaces of the classes and of the
    # transpose's kernel, on kernel combinations, dependent triples and
    # triples with one class off the kernel
    m31, theta = repo.space("M31"), repo.hom("theta_star")
    rows = [theta.images[2][1][lbl] for lbl in m31.codim2_basis]
    kernel = left_kernel(rows)
    assert len(kernel) == 3

    def combination(vectors):
        cs = data.draw(st.lists(rationals, min_size=len(vectors), max_size=len(vectors)))
        return _combine((c.numerator, c.denominator, v) for c, v in zip(cs, vectors))

    gens = [combination(kernel) for _ in range(3)]
    kind = data.draw(st.sampled_from(["kernel", "dependent", "off_kernel"]))
    if kind == "dependent":
        gens[2] = combination(gens[:2])
    elif kind == "off_kernel":
        i, label = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 15))
        gens[i] = _combine(((1, 1, gens[i]), (*_ratio(data.draw(rationals.filter(bool))), ((label, 1, 1),))))
    expected = row_space_rref(kernel, 16) == row_space_rref(gens, 16)
    event(f"{kind}: {expected}")
    assert _kernel_span_matches_with(repo, gens) is expected


def test_basis_criterion_tells_a_spanning_triple_from_one_that_is_not(repo):
    m31, theta = repo.space("M31"), repo.hom("theta_star")
    kernel = left_kernel([theta.images[2][1][lbl] for lbl in m31.codim2_basis])
    assert _kernel_span_matches_with(repo, kernel) is True
    # two copies of one kernel vector, and psi^2, which theta* does not kill
    assert _kernel_span_matches_with(repo, [kernel[0], kernel[0], kernel[1]]) is False
    assert _kernel_span_matches_with(repo, [kernel[0], kernel[1], ((0, 1, 1),)]) is False


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
    for p in ({}, {"psi": 1}, {"lam1": 1}, {"psi": 2}, {"psi": 1, "lam1": 1}, {"lam2": 1}, {"kappa3": 1, "psi": 1})
]
keyed_terms = st.tuples(st.integers(0, 3), st.lists(st.tuples(st.sampled_from(_KEYS), kernel_entries), max_size=12))


def _normalised_values(xs):
    return all(is_exact_value(x) and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1 for x in xs)


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
    assert _normalised_values(_from_support(combined, width))

    dot = _dot(_support_of([x for x, _ in pairs]), _table(_support_of([y for _, y in pairs])))
    assert dot == sum((F(x) * F(y) for x, y in pairs), F(0))
    assert _normalised_values([dot])

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


# a rational string as a data file may write it: an optional sign, leading
# zeros, and a denominator that need not be reduced
rational_strings = st.builds(
    lambda sign, zeros, n, d: f"{sign}{'0' * zeros}{n}" + ("" if d is None else f"/{'0' * zeros}{d}"),
    st.sampled_from(["", "-"]),
    st.integers(0, 3),
    st.integers(0, 10**30),
    st.none() | st.integers(1, 10**6),
)


@given(st.one_of(st.integers(), rational_strings, st.fractions()))
@example("-0")
@example("0/7")
@example("0012/0018")
@example("-6/4")
def test_ratio_agrees_with_fraction(x):
    n, d = _ratio(x)
    assert type(n) is int and type(d) is int
    assert (n, d) == (F(x).numerator, F(x).denominator)
    assert is_exact_value(as_fraction(x)) and as_fraction(x) == F(x)


@pytest.mark.parametrize(
    "x",
    ["1.5", "-.25", "1e3", " 1/2 ", "\t-3\n", "+3", "1_000", "1/0", "1/00", "-0/0", "3/-4", "", "/2", "1/", "x"],
)
def test_ratio_leaves_other_strings_to_fraction(x):
    # decimals, whitespace, signs, underscores and zero denominators parse, or
    # fail with the same exception type, exactly as Fraction does
    try:
        expected = F(x)
    except (ValueError, ZeroDivisionError) as exc:
        for parse in (_ratio, as_fraction):
            with pytest.raises(type(exc)):
                parse(x)
    else:
        assert _ratio(x) == (expected.numerator, expected.denominator)
        assert as_fraction(x) == expected


@pytest.mark.parametrize("x", [1.5, 2.0, float("nan"), None, [1], True, False])
def test_ratio_rejects_what_is_not_an_exact_rational(x):
    # a JSON true is not the number 1, and a float is not exact
    for parse in (_ratio, as_fraction):
        with pytest.raises(TypeError, match="exact rational expected"):
            parse(x)
    with pytest.raises(TypeError):
        _support_of([0, x])
