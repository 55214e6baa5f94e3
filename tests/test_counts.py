import json
import shutil
from fractions import Fraction as F
from importlib import resources

import pytest

from tautverify.counts import CountRegistry, _freeze, theta_pullback
from tautverify.data import Repo
from tautverify.errors import DataError, UnknownNameError

from conftest import is_exact_value


def _counts_file():
    return json.loads(resources.files("tautverify").joinpath("data", "counts.json").read_text())


@pytest.mark.parametrize("d, expected", [(1, 8), (2, 72), (3, 288)])
def test_abel_degree(d, expected):
    # the one-variable difference map (x, y) -> (d+1)x - dy
    assert theta_pullback(d + 1, -d)[1] == expected


@pytest.mark.parametrize("d1, d2, expected", [(3, 1, 18), (1, 1, 2), (2, 3, 72)])
def test_mixed_degree(d1, d2, expected):
    # the two-variable difference map (x, y) -> d1 x - d2 y
    assert theta_pullback(d1, -d2)[1] == expected


def test_degree_formulas_agree():
    # in genus 2 the pairing gives the closed form 2 a^2 b^2 it replaced, over both signs of a and b
    for a in (*range(-6, 0), *range(1, 7)):
        for b in (*range(-6, 0), *range(1, 7)):
            assert theta_pullback(a, b)[1] == 2 * a * a * b * b, (a, b)


def test_mixed_symmetric():
    # swapping the factors swaps f1 and f2 and keeps the degree
    for a in range(1, 7):
        for b in range(1, 7):
            (f1, f2, diagonal), degree = theta_pullback(a, -b)
            assert theta_pullback(-b, a) == ((f2, f1, diagonal), degree)


def test_a_map_that_is_not_finite_is_rejected():
    for a, b in ((1, 0), (0, -1), (0, 0)):
        with pytest.raises(ValueError, match="is not finite"):
            theta_pullback(a, b)


@pytest.mark.parametrize("g, triple", [(2, (1, 1, 1)), (3, (2, 2, 1)), (4, (3, 3, 1))])
def test_correspondence_class(g, triple):
    # the Scorza correspondence is the pullback of theta under (x, y) -> x - y
    assert theta_pullback(1, -1, g)[0] == triple


def test_elliptic_mult_degree_counts_torsion(repo):
    # one formula, d^2, under both heads
    for head in ("ell_mult_deg", "torsion"):
        assert [repo.counts.eval_expr((head, d)) for d in (1, 2, 3)] == [1, 4, 9]


def test_triple_point_degree(repo):
    # counts.json states the total as two fiber parts 3x - y and a diagonal part 3x - 2y
    total, parts = repo.counts.get("scorza_triple_total"), repo.counts.terms("scorza_triple_total")
    assert (total, parts) == (108, (18, 18, 72))
    assert total == sum(parts)


def test_theta_counts(repo):
    count = lambda head, g: repo.counts.eval_expr((head, g))
    assert count("even_theta", 2) == 10
    assert count("odd_theta", 2) == 6
    assert count("even_theta", 1) == 3
    assert count("odd_theta", 4) == 120
    assert count("hyp_weierstrass", 4) == 10


def test_registry_values(repo):
    expected = {
        "T1_F31_fibers": 72,
        "T2_F31_fibers": 80,
        "V1_pairs_per_side": 384,
        "V1_H4plus": 4608,
        "V2_case_even_tail": 1440,
        "V2_case_odd_tail": 1280,
        "V2_case_interior": 640,
        "V2_H4plus": 3360,
        "scorza_triple_total": 108,
    }
    exprs = {e["id"]: _freeze(e["expr"]) for e in _counts_file()["constants"]}
    for cid, value in expected.items():
        assert repo.counts.get(cid) == value
        assert repo.counts.eval_expr(exprs[cid]) == value


def test_registry_unknown_id(repo):
    with pytest.raises(UnknownNameError, match="^unknown count constant 'no_such_constant'$"):
        repo.counts.get("no_such_constant")
    with pytest.raises(UnknownNameError, match="^unknown count constant 'no_such_constant'$"):
        repo.counts.terms("no_such_constant")


def test_terms_are_the_values_of_the_top_level_arguments():
    constants = [
        {"id": "a", "value": 6, "expr": ["mul", 2, 3]},
        {"id": "b", "value": 10, "expr": ["add", ["ref", "a"], ["sub", ["torsion", 2], "0"]]},
        {"id": "c", "value": 1, "expr": 1},
    ]
    registry = CountRegistry({"constants": constants})
    assert registry.terms("a") == (2, 3)
    assert registry.terms("b") == (6, 4)
    # a constant stated as a number has no terms
    assert registry.terms("c") == ()


def test_sides_decomposition(repo):
    # the two-tail family total is the sum of its three stated cases
    total = repo.counts.get("V2_H4plus")
    cases = [repo.counts.get(f"V2_case_{c}") for c in ("even_tail", "odd_tail", "interior")]
    assert total == sum(cases)


@pytest.mark.parametrize(
    "expr, value",
    [
        (["add", "1/2", "1/2"], 1),
        (["sub", "7/3", "1/3"], 2),
        (["mul", "3/4", ["torsion", 2]], 3),
        (["mul", "3/4", 2], F(3, 2)),
        (["sub", ["odd_theta", 2], 1], 5),
    ],
)
def test_a_count_expression_is_an_int_where_it_is_integral(expr, value):
    # Fraction arithmetic can give an integral Fraction; the registry hands back an int
    registry = CountRegistry({"constants": [{"id": "c", "value": str(value), "expr": expr}]})
    got = registry.eval_expr(_freeze(expr))
    assert got == value and is_exact_value(got)
    assert registry.get("c") == value


@pytest.mark.parametrize(
    "expr, error",
    [
        (["ref", "a", "junk"], "ref takes exactly 1 argument"),
        (["ref"], "ref takes exactly 1 argument"),
        (["sub", 2, 1, 1], "sub takes exactly 2 arguments"),
    ],
)
def test_ref_takes_exactly_one_argument_as_sub_takes_two(expr, error):
    # an extra argument is an error, not dropped
    constants = [{"id": "a", "value": 1, "expr": 1}, {"id": "b", "value": 1, "expr": expr}]
    with pytest.raises(DataError, match=f"^{error}$"):
        CountRegistry({"constants": constants})


def test_a_ref_with_an_extra_argument_fails_load_naming_counts_json(tmp_path):
    data_dir = tmp_path / "data"
    with resources.as_file(resources.files("tautverify").joinpath("data")) as src:
        shutil.copytree(src, data_dir)
    raw = _counts_file()
    next(c for c in raw["constants"] if c["id"] == "V1_H4plus")["expr"][2].append("junk")
    (data_dir / "counts.json").write_text(json.dumps(raw))
    with pytest.raises(DataError, match="^counts.json: ref takes exactly 1 argument$"):
        Repo(data_dir)
