import json
from fractions import Fraction as F
from importlib import resources

import pytest

from tautverify.counts import (
    CountRegistry,
    _freeze,
    abel_difference_degree,
    even_theta_count,
    mixed_difference_degree,
    odd_theta_count,
    scorza_correspondence_class,
    scorza_triple_degree,
)
from tautverify.errors import UnknownNameError

from conftest import is_exact_value


def _counts_file():
    return json.loads(resources.files("tautverify").joinpath("data", "counts.json").read_text())


@pytest.mark.parametrize("d, expected", [(1, 8), (2, 72), (3, 288)])
def test_abel_degree(d, expected):
    assert abel_difference_degree(d) == expected


@pytest.mark.parametrize("d1, d2, expected", [(3, 1, 18), (1, 1, 2), (2, 3, 72)])
def test_mixed_degree(d1, d2, expected):
    assert mixed_difference_degree(d1, d2) == expected


def test_degree_formulas_agree():
    for d in range(1, 11):
        assert abel_difference_degree(d) == mixed_difference_degree(d + 1, d)


def test_mixed_symmetric():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            assert mixed_difference_degree(d1, d2) == mixed_difference_degree(d2, d1)


def test_nonpositive_rejected():
    with pytest.raises(ValueError):
        abel_difference_degree(0)
    with pytest.raises(ValueError):
        mixed_difference_degree(1, 0)
    with pytest.raises(ValueError):
        scorza_correspondence_class(1)


@pytest.mark.parametrize("g, triple", [(2, (1, 1, 1)), (3, (2, 2, 1)), (4, (3, 3, 1))])
def test_correspondence_class(g, triple):
    assert scorza_correspondence_class(g) == tuple(F(x) for x in triple)


def test_triple_point_degree():
    total, parts = scorza_triple_degree()
    assert (total, parts) == (108, (18, 18, 72))
    assert total == sum(parts)


def test_theta_counts():
    assert even_theta_count(2) == 10
    assert odd_theta_count(2) == 6
    assert even_theta_count(1) == 3
    assert odd_theta_count(4) == 120


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
    with pytest.raises(UnknownNameError):
        repo.counts.get("no_such_constant")


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
