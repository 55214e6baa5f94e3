"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every comparison is an exact rational equality (tolerance zero).  Run with
``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import json
from fractions import Fraction as F
from importlib import resources

from hypothesis import given
import hypothesis.strategies as st

from tautverify.checks import Run, run_check, solve_multiplicities
from tautverify.counts import _freeze, theta_pullback
from tautverify.grr import grr_spin_character, jet_bundles, lambda2_values
from tautverify.linalg import Solution, _support_of, rank, solve_exact
from tautverify.poly import TruncatedPoly
from tautverify.rings import apply_hom, divisor_product, reduce_to_basis, special_expand
from tautverify.series import exp_scaled, todd_inverse
from tautverify.surfaces import evaluate

from conftest import assert_one_pass_matches_dense, coeffs, mat, mul_vec, rationals


def _line(num: int, name: str, ok: bool):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({name}) failed"


def test_criterion_01_theorem1_reproduction(repo):
    m31, run = repo.space("M31"), Run(repo)
    hyp_parts, f_parts = run.parts("hyp31"), run.parts("f31")
    ok = (
        run.cls("Hyp31_theorem") == m31.from_dict(2, repo.golden["hyp31"]["class"])
        and run.cls("F31_theorem") == m31.from_dict(2, repo.golden["f31"]["class"])
        and run.cls("F31_theorem").coeff("kappa2") == 3
        and all(e == a for _, e, a in hyp_parts + f_parts)
    )
    _line(1, "pointed genus-3 classes", ok)


def test_criterion_02_theorem2_reproduction(repo):
    run = Run(repo)
    parts = run.parts("h4plus")
    expected = (2448, -542, -1608, 276, 32, 178, 336, 276, 576, -4, 12, -60, -144)
    ok = coeffs(run.cls("H4plus_theorem")) == tuple(F(x) for x in expected) and all(e == a for _, e, a in parts)
    _line(2, "genus-4 even-theta class", ok)


def test_criterion_03_multiplicity_systems(repo):
    sol31, red31, _ = solve_multiplicities("F31", Run(repo))
    sol4, red4, _ = solve_multiplicities("H4plus", Run(repo))
    ok = (
        sol31 == {"m": 7, "n": 2, "k": 3, "l": 3, "j": 12}
        and sol4 == {"m": 320, "n": 2, "k": 96, "l": 216}
        and len(red31) >= 1
        and len(red4) >= 1
    )
    _line(3, "multiplicity systems with redundant constraint", ok)


def test_criterion_04_basis_proof(repo):
    result = run_check("basis_m31", repo)
    ok = (
        result.passed
        and "pullback_rank: 13" in result.expected
        and "kernel_dim: 3" in result.expected
    )
    _line(4, "degree-2 basis proof", ok)


def test_criterion_05_special_class_expansions(repo):
    ok = run_check("prop4", repo).passed and run_check("prop4_alt_route", repo).passed
    _line(5, "special-class expansions plus alternative route", ok)


def test_criterion_06_intersection_tables(repo):
    result = run_check("surface_tables", repo)
    overrides = []
    for sid in ("S1", "S2", "S3", "T1", "T2", "T3", "V1", "V2", "V3", "V4"):
        for label, provenance in repo.functional(sid).provenance.items():
            if provenance == "override":
                overrides.append((sid, label))
    ok = result.passed and overrides == [("T2", "psi*d21")]
    _line(6, "family intersection tables, single override", ok)


def test_criterion_07_jet_pipeline_values(repo):
    spin = grr_spin_character(4)
    jets = jet_bundles()
    (_, j2), (_, j5) = jets["J2_spin"], jets["J5_canonical"]
    lambda2 = lambda2_values(repo, jets)
    ok = (
        spin.coeff({"kappa1": 1}) == F(-1, 24)
        and spin.coeff({"kappa3": 1}) == F(7, 5760)
        and (j2.c1.coeff({"psi": 1}), j2.c2.coeff({"psi": 2}), j2.c3.coeff({"psi": 3}))
        == (F(9, 2), F(23, 4), F(15, 8))
        and (j5.c1.coeff({"psi": 1}), j5.c2.coeff({"psi": 2}), j5.c3.coeff({"psi": 3}))
        == (21, 175, 735)
        and lambda2["SH4_minus"] == F(177, 4)
        and lambda2["H4_minus"] == 5310
        and lambda2["H4"] == F(15771, 2)
        and lambda2["H4_plus"] == 2448
        and lambda2["H4_plus"] == repo.golden["h4plus"]["class"]["lam^2"]
    )
    _line(7, "pushforward character, jet classes, lambda^2 values", ok)


def test_criterion_08_relation_hygiene(repo):
    m31, m4 = repo.space("M31"), repo.space("M4")
    pullback_zero = apply_hom(repo.hom("j3_star"), repo.formal_class("kappa2_relation_M4")).is_zero()
    reductions_zero = all(
        reduce_to_basis(repo.space(sid), rel).is_zero()
        for sid in ("M31", "M4", "M22")
        for rel in repo.space(sid).relations
    )
    functionals_annihilate = all(
        evaluate(repo.functional(sid), reduce_to_basis(space, rel)) == 0
        for space, ids in ((m31, ("S1", "S2", "S3", "T1", "T2", "T3")), (m4, ("V1", "V2", "V3", "V4")))
        for sid in ids
        for rel in space.relations
    )
    ok = (
        pullback_zero
        and reductions_zero
        and functionals_annihilate
        and run_check("relation_hygiene", repo).passed
    )
    _line(8, "relation hygiene", ok)


def test_criterion_09_pushforwards(repo):
    m3, run = repo.space("M3"), Run(repo)
    push = repo.hom("p_star_pushforward")
    wtheta = divisor_product(repo.catalog_class("W31"), repo.catalog_class("Theta31"))
    ok = (
        apply_hom(push, run.cls("Hyp31_theorem"))
        == repo.catalog_class("Hyp3_M3").scale(8)
        and apply_hom(push, wtheta)
        == m3.from_dict(1, {"lam": 1120, "d0": -108, "d1": -320})
        and apply_hom(push, run.cls("F31_theorem"))
        == m3.from_dict(1, {"lam": 308, "d0": -32, "d1": -76})
    )
    _line(9, "point-forgetting pushforwards", ok)


def test_criterion_10_enumerative(repo):
    counts = json.loads(resources.files("tautverify").joinpath("data", "counts.json").read_text())
    exprs = {e["id"]: _freeze(e["expr"]) for e in counts["constants"]}
    counts_ok = all(
        repo.counts.get(cid) == value
        and repo.counts.eval_expr(exprs[cid]) == value
        for cid, value in (
            ("T1_F31_fibers", 72),
            ("V1_pairs_per_side", 384),
            ("V1_H4plus", 4608),
            ("V2_case_even_tail", 1440),
            ("V2_case_odd_tail", 1280),
            ("V2_case_interior", 640),
            ("V2_H4plus", 3360),
        )
    )
    ok = (
        [theta_pullback(d + 1, -d)[1] for d in (1, 2, 3)] == [8, 72, 288]
        and [theta_pullback(d1, -d2)[1] for d1, d2 in ((3, 1), (1, 1), (2, 3))] == [18, 2, 72]
        and all(theta_pullback(1, -1, g)[0] == (g - 1, g - 1, 1) for g in (2, 3, 4))
        and repo.counts.get("scorza_triple_total") == 108
        and repo.counts.terms("scorza_triple_total") == (18, 18, 72)
        and counts_ok
    )
    _line(10, "enumerative degrees and fiber counts", ok)


# --- criterion 11: randomized property suites (fixed seed via the profile) ---


@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(rationals, min_size=5, max_size=5),
)
def _prop_one_pass_matches_dense(rows, b):
    assert_one_pass_matches_dense(4, [[*r, x] for r, x in zip(rows, b)])


@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(rationals, min_size=4, max_size=4),
)
def _prop_solve_and_kernel_exact(rows, x0):
    m = mat(rows)
    b = mul_vec(m, x0)
    sol = solve_exact(m, _support_of(b), 4)
    assert isinstance(sol, Solution)
    assert mul_vec(m, sol.vector) == b
    assert sol.kernel_dim == 4 - rank(m, 4)


def _make_product_properties(repo):
    @given(st.sampled_from(["M31", "M4", "M22"]), st.data())
    def _prop_bilinear_symmetric(space_id, data):
        space = repo.space(space_id)
        n = len(space.divisor_basis)
        draw_vec = lambda: space.from_dict(
            1, dict(zip(space.divisor_basis, data.draw(st.lists(rationals, min_size=n, max_size=n))))
        )
        a, b, c = draw_vec(), draw_vec(), draw_vec()
        t = data.draw(rationals)
        assert divisor_product(a, b) == divisor_product(b, a)
        assert divisor_product(a - b.scale(-t), c) == divisor_product(a, c) - divisor_product(b, c).scale(-t)

    return _prop_bilinear_symmetric


def _hom_law_everywhere(repo):
    for hid in ("j3_star", "theta_star"):
        hom = repo.hom(hid)
        dom = hom.domain
        for i, a in enumerate(dom.divisor_basis):
            for b in dom.divisor_basis[i:]:
                lhs = apply_hom(hom, divisor_product(dom.basis_class(1, a), dom.basis_class(1, b)))
                rhs = divisor_product(
                    apply_hom(hom, dom.basis_class(1, a)),
                    apply_hom(hom, dom.basis_class(1, b)),
                )
                if lhs != rhs:
                    return False
    return True


def test_criterion_11_property_suites(repo):
    _prop_one_pass_matches_dense()
    _prop_solve_and_kernel_exact()
    _make_product_properties(repo)()
    integrand = todd_inverse(6) * exp_scaled(F(1, 2), 6)
    even = all(integrand.coeff({"psi": k}) == 0 for k in (1, 3, 5))
    ok = even and _hom_law_everywhere(repo)
    _line(11, "randomized exact property suites", ok)
