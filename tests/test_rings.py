import json
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tautverify.data import Repo
from tautverify.errors import (
    DegreeError,
    MissingImageError,
    SpaceMismatchError,
    UnknownLabelError,
    UnknownNameError,
)
from tautverify.linalg import _support_of
from tautverify.rings import (
    TautClass,
    apply_hom,
    divisor_product,
    expand_divisor,
    reduce_to_basis,
    solve_boundary_class,
    special_expand,
)

from conftest import coeffs, is_exact_value, rationals, sparse_rationals


def cls(space, degree, coeffs):
    return space.from_dict(degree, coeffs)


def as_mapping(c):
    basis = c.space.basis(c.degree)
    return {basis[i]: F(n, d) for i, n, d in c.support}


# --- basis content -----------------------------------------------------


def test_m31_basis_is_the_sixteen_classes(repo):
    m31 = repo.space("M31")
    assert m31.divisor_basis == ("psi", "lam", "d0", "d11", "d21")
    assert m31.codim2_basis == (
        "psi^2", "psi*lam", "psi*d0", "psi*d11", "psi*d21",
        "lam^2", "lam*d0", "lam*d21",
        "d0^2", "d0*d11", "d0*d21",
        "d11^2", "d11*d21", "d21^2",
        "d01a", "kappa2",
    )


def test_m4_basis_is_the_thirteen_classes(repo):
    m4 = repo.space("M4")
    assert m4.codim2_basis == (
        "lam^2", "lam*d0", "lam*d1", "lam*d2",
        "d0^2", "d0*d1", "d1^2", "d1*d2", "d2^2",
        "d00", "d01a", "gamma1", "d1|1",
    )


def test_m22_basis_is_the_fourteen_products(repo):
    m22 = repo.space("M22")
    assert len(m22.codim2_basis) == 14
    assert all(lbl in m22.product_pairs for lbl in m22.codim2_basis)
    # the seven remaining formal products all rewrite into the basis
    non_basis = set(m22.product_pairs) - set(m22.codim2_basis)
    assert non_basis == {
        "psi1^2", "psi1*d0_12", "psi2*d0_12", "d0_12*d1_1",
        "d1_1^2", "d1_1*d1_12", "d1_12^2",
    }
    assert non_basis == set(m22.codim2_supports) - set(m22.codim2_basis)


# --- products and reduction ---------------------------------------------


def test_m4_d0_d2_rewrites(repo):
    m4 = repo.space("M4")
    prod = divisor_product(m4.basis_class(1, "d0"), m4.basis_class(1, "d2"))
    assert prod == cls(m4, 2, {"lam*d2": 10, "d1*d2": -2})


def test_m22_psi1_d012_vanishes(repo):
    m22 = repo.space("M22")
    prod = divisor_product(m22.basis_class(1, "psi1"), m22.basis_class(1, "d0_12"))
    assert prod.is_zero()


def test_product_with_zero(repo):
    m31 = repo.space("M31")
    assert divisor_product(m31.zero(1), m31.basis_class(1, "psi")).is_zero()


def test_divisor_pairing_display(repo):
    # the Weierstrass-times-bitangent product in the sixteen-class basis
    m31 = repo.space("M31")
    prod = divisor_product(repo.catalog_class("W31"), repo.catalog_class("Theta31"))
    assert prod == cls(m31, 2, repo.golden["pushforwards"]["wtheta_product_m31"])


def test_reduce_lam_d11(repo):
    m31 = repo.space("M31")
    reduced = reduce_to_basis(m31, {"lam*d11": 1})
    assert reduced == cls(m31, 2, {"psi*d11": F(-1, 5), "d0*d11": F(1, 10), "d11*d21": F(1, 5)})


def test_reduce_getzler_relation(repo):
    m22 = repo.space("M22")
    formal = {"psi1*d1_1": 1, "psi2*d1_1": 1, "d1_1^2": 1}
    assert reduce_to_basis(m22, formal).is_zero()


def test_reduce_idempotent_on_canonical(repo):
    m31 = repo.space("M31")
    c = m31.from_dict(2, repo.golden["f31"]["class"])
    assert reduce_to_basis(m31, as_mapping(c)) == c


def test_reduce_rejects_unknown_label(repo):
    with pytest.raises(UnknownLabelError):
        reduce_to_basis(repo.space("M31"), {"kappa2*psi": 1})


def test_special_times_divisor_rejected(repo):
    # products involving the extra degree-2 symbols are never defined
    with pytest.raises(UnknownLabelError):
        reduce_to_basis(repo.space("M31"), {"d01a*d0": 1})


def test_all_relations_reduce_to_zero(repo):
    for sid in ("M31", "M4", "M22"):
        space = repo.space(sid)
        for rel in space.relations:
            assert reduce_to_basis(space, rel).is_zero()


def test_space_and_degree_mismatch(repo):
    m31, m4 = repo.space("M31"), repo.space("M4")
    with pytest.raises(SpaceMismatchError):
        divisor_product(m4.basis_class(1, "lam"), m31.basis_class(1, "psi"))
    with pytest.raises(DegreeError):
        divisor_product(m31.from_dict(2, repo.golden["hyp31"]["class"]), m31.basis_class(1, "psi"))


def test_classes_need_degree_1_or_2(repo):
    m31 = repo.space("M31")
    for make in (lambda: m31.basis_class(3, "psi^2"), lambda: m31.from_dict(3, {}), lambda: m31.zero(0)):
        with pytest.raises(DegreeError, match=r"^degree must be 1 or 2, got [03]$"):
            make()


def test_expand_divisor_resolves_aliases(repo):
    m21 = repo.space("M21")
    assert expand_divisor(m21, {"lam": 1, "d0": 2}) == cls(m21, 1, {"d0": "21/10", "d1": "1/5"})
    assert expand_divisor(m21, {"lam": 0}).is_zero()


def test_expand_divisor_rejects_unknown_label(repo):
    # even with coefficient 0: the label is checked before anything is summed
    with pytest.raises(UnknownLabelError, match=r"^'psi2' is not a divisor label of M21$"):
        expand_divisor(repo.space("M21"), {"lam": 1, "psi2": 0})


def test_class_arithmetic_needs_one_space_object(repo):
    m31, m4 = repo.space("M31"), repo.space("M4")
    with pytest.raises(SpaceMismatchError, match=r"cannot combine \(M31, degree 1\) with \(M4, degree 1\)"):
        m31.basis_class(1, "psi") - m4.basis_class(1, "lam")
    # spaces compare by identity: the same space loaded twice is two spaces
    with pytest.raises(SpaceMismatchError):
        m31.zero(2) - Repo().space("M31").zero(2)


@given(st.data())
def test_product_bilinear_symmetric(repo, data):
    space = repo.space(data.draw(st.sampled_from(["M31", "M4", "M22"])))
    n = len(space.divisor_basis)
    vec = lambda: space.from_dict(
        1, dict(zip(space.divisor_basis, data.draw(st.lists(rationals, min_size=n, max_size=n))))
    )
    a, b, c = vec(), vec(), vec()
    t = data.draw(rationals)
    assert divisor_product(a, b) == divisor_product(b, a)
    left = divisor_product(a - b.scale(-t), c)
    right = divisor_product(a, c) - divisor_product(b, c).scale(-t)
    assert left == right


@given(st.data())
def test_classes_made_by_the_kernel_keep_their_true_support(repo, data):
    # a class built from kernel output carries the support the kernel gave;
    # it must be the one its coefficients have
    space = repo.space(data.draw(st.sampled_from(["M31", "M4", "M22"])))

    def draw(degree):
        labels = space.basis(degree)
        coeffs = data.draw(st.lists(sparse_rationals, min_size=len(labels), max_size=len(labels)))
        return space.from_dict(degree, dict(zip(labels, coeffs)))

    a, b, t = draw(1), draw(1), data.draw(sparse_rationals)
    x, y = draw(2), draw(2)
    made = [
        a - b.scale(t), a - b, a.scale(t), x - y.scale(t), x - y, x.scale(t), space.zero(2),
        divisor_product(a, b), reduce_to_basis(space, as_mapping(x)),
        space.basis_class(1, space.divisor_basis[-1]), space.basis_class(2, space.codim2_basis[0]),
        *(special_expand(space, name) for name in space.special_expansions),
    ]
    for c in made:
        assert c.support == _support_of(coeffs(c))
        assert all(is_exact_value(v) for v in coeffs(c))


# --- special expansions ---------------------------------------------------


def test_gamma2_expansion_entries(repo):
    m31 = repo.space("M31")
    g2 = special_expand(m31, "gamma2")
    assert g2.coeff("psi^2") == F(15, 2)
    assert g2.coeff("psi*lam") == -21
    assert g2.coeff("lam^2") == F(101, 2)
    assert g2.coeff("kappa2") == F(-1, 2)


def test_d00_expansion_entries(repo):
    m31 = repo.space("M31")
    d00 = special_expand(m31, "d00")
    expected = cls(
        m31,
        2,
        {
            "psi^2": -12, "psi*d11": -24, "lam^2": -372, "lam*d0": 72, "lam*d21": 120,
            "d0^2": -3, "d0*d21": -12, "d11^2": -12, "d21^2": -12, "kappa2": 12,
        },
    )
    assert d00 == expected


def test_m22_kappa2_expansion(repo):
    # stated form: squares of the three point classes plus boundary corrections
    m22 = repo.space("M22")
    formal = {
        "psi1^2": 1, "psi2^2": 1, "d0_12^2": 1,
        "d0*d1_1": F(3, 25), "d0*d1_12": F(3, 25), "d0^2": F(1, 100),
    }
    assert reduce_to_basis(m22, formal) == special_expand(m22, "kappa2")


def test_m22_kappa2_from_hodge_product(repo):
    # the expansion also arises as lam*(lam + d1_1 + d1_12) plus the squares
    m22 = repo.space("M22")
    lam = cls(m22, 1, {"d0": F(1, 10), "d1_1": F(1, 5), "d1_12": F(1, 5)})
    shifted = lam - cls(m22, 1, {"d1_1": -1, "d1_12": -1})
    squares = reduce_to_basis(m22, {"psi1^2": 1, "psi2^2": 1, "d0_12^2": 1})
    assert divisor_product(lam, shifted) == special_expand(m22, "kappa2") - squares


def test_unknown_special(repo):
    with pytest.raises(UnknownLabelError):
        special_expand(repo.space("M31"), "d99")


# --- catalog ---------------------------------------------------------------


def test_catalog_theta_null(repo):
    m4 = repo.space("M4")
    assert repo.catalog_class("Theta_null_M4") == cls(m4, 1, {"lam": 34, "d0": -4, "d1": -14, "d2": -18})


def test_catalog_pencil_divisor(repo):
    m4 = repo.space("M4")
    assert repo.catalog_class("T_M4") == cls(m4, 1, {"lam": 264, "d0": -30, "d1": -96, "d2": -128})


def test_catalog_zero_class(repo):
    z = repo.space("M31").zero(2)
    assert z.is_zero() and coeffs(z) == (0,) * 16


def test_coeff_reads_every_basis_label_of_every_catalog_class(repo):
    catalog = json.loads(resources.files("tautverify").joinpath("data", "catalog.json").read_text())
    for name in catalog["classes"]:
        c = repo.catalog_class(name)
        for i, label in enumerate(c.space.basis(c.degree)):
            got = c.coeff(label)
            assert is_exact_value(got) and got == coeffs(c)[i], (name, label)


def test_coeff_rejects_unknown_label(repo):
    c = repo.catalog_class("Theta_null_M4")
    with pytest.raises(UnknownLabelError, match=r"^'nope' is not a degree-1 basis label of M4$"):
        c.coeff("nope")
    with pytest.raises(UnknownLabelError, match=r"^'lam\^2' is not a degree-1 basis label of M4$"):
        c.coeff("lam^2")


def test_basis_class_rejects_an_unknown_label_as_from_dict_does(repo):
    m31 = repo.space("M31")
    for degree in (1, 2):
        assert m31.basis_class(degree, m31.basis(degree)[-1]) == m31.from_dict(degree, {m31.basis(degree)[-1]: 1})
        with pytest.raises(UnknownLabelError) as made:
            m31.basis_class(degree, "mystery")
        with pytest.raises(UnknownLabelError) as read:
            m31.from_dict(degree, {"mystery": 1})
        assert str(made.value) == str(read.value) == f"'mystery' is not a degree-{degree} basis label of M31"


def test_catalog_unknown_name(repo):
    with pytest.raises(UnknownNameError):
        repo.catalog_class("NoSuchClass")


# --- homomorphisms ----------------------------------------------------------


def test_theta_star_divisor_images(repo):
    m31, m22 = repo.space("M31"), repo.space("M22")
    theta = repo.hom("theta_star")
    img = apply_hom(theta, m31.basis_class(1, "d21"))
    assert img == cls(m22, 1, {"psi2": -1, "d1_12": 1})


def test_pushforward_table_entries(repo):
    m31, m3 = repo.space("M31"), repo.space("M3")
    push = repo.hom("p_star_pushforward")
    assert apply_hom(push, m31.basis_class(2, "psi*d21")) == cls(m3, 1, {"d1": 3})
    assert apply_hom(push, m31.basis_class(2, "lam^2")).is_zero()
    assert apply_hom(push, m31.basis_class(2, "kappa2")) == cls(
        m3, 1, {"lam": 12, "d0": -1, "d1": -1}
    )


def test_apply_hom_to_zero(repo):
    for hid in ("theta_star", "p_star_pushforward"):
        hom = repo.hom(hid)
        assert apply_hom(hom, hom.domain.zero(2)).is_zero()


def test_hom_law_on_generator_pairs(repo):
    # pullbacks are ring maps: image of a product equals product of images
    for hid in ("j3_star", "theta_star", "p_pullback_m3"):
        hom = repo.hom(hid)
        dom = hom.domain
        for i, a in enumerate(dom.divisor_basis):
            for b in dom.divisor_basis[i:]:
                via_product = apply_hom(hom, divisor_product(dom.basis_class(1, a), dom.basis_class(1, b)))
                direct = divisor_product(
                    apply_hom(hom, dom.basis_class(1, a)),
                    apply_hom(hom, dom.basis_class(1, b)),
                )
                assert via_product == direct, (hid, a, b)


def test_hom_space_mismatch(repo):
    m4 = repo.space("M4")
    with pytest.raises(SpaceMismatchError, match="class on M4 given to theta_star"):
        apply_hom(repo.hom("theta_star"), m4.basis_class(1, "lam"))


def test_formal_missing_image(repo):
    with pytest.raises(MissingImageError):
        apply_hom(repo.hom("j3_star"), {"mystery": F(1)})


HOM_CASES = (
    ("theta_star", "M31", "M22"),
    ("j3_star", "M4", "M31"),
    ("p_pullback_m3", "M3", "M31"),
    ("p_star_pushforward", "M31", "M3"),
)


@given(st.data())
def test_apply_hom_matches_reference_sum(repo, data):
    # each map against a sum of its stored images, degree by degree; a ring
    # map's product images are taken from divisor_product of its divisor
    # images afresh
    hid, dom_id, cod_id = data.draw(st.sampled_from(HOM_CASES))
    hom, dom, cod = repo.hom(hid), repo.space(dom_id), repo.space(cod_id)
    assert hom.domain is dom and hom.codomain is cod

    def draw(labels):
        return dict(zip(labels, data.draw(st.lists(sparse_rationals, min_size=len(labels), max_size=len(labels)))))

    def check(formal, degree, images):
        # a mapping is read as degree 2; a degree-1 input is given as a class
        out_degree, stored = hom.images[degree]
        assert set(stored) == set(images)
        n = len(cod.basis(out_degree))
        reference = tuple(sum((x * coeffs(images[k])[i] for k, x in formal.items()), F(0)) for i in range(n))
        inputs = [formal] if degree == 2 else []
        if set(formal) <= set(dom.basis(degree)):
            inputs.append(dom.from_dict(degree, formal))
        for c in inputs:
            out = apply_hom(hom, c)
            assert (out.space, out.degree, coeffs(out)) == (cod, out_degree, reference)
            assert all(is_exact_value(x) for x in coeffs(out))
        if degree == 2:
            with pytest.raises(MissingImageError) as err:
                apply_hom(hom, {**formal, "mystery": F(1)})
            assert str(err.value) == f"{hid}: no image for label 'mystery'"

    def stored(degree):
        out_degree, images = hom.images[degree]
        return {k: TautClass(cod, out_degree, s) for k, s in images.items()}

    if hid == "p_star_pushforward":
        # a table map sends degree 2 to degree 1 and acts on nothing else
        assert set(hom.images) == {2} and hom.images[2][0] == 1
        check(draw(dom.codim2_basis), 2, stored(2))
        return
    assert set(hom.images) == {1, 2} and hom.images[1][0] == 1 and hom.images[2][0] == 2
    divisors = stored(1)
    check(draw(dom.divisor_basis), 1, divisors)
    products = {
        label: divisor_product(divisors[a], divisors[b])
        for label, (a, b) in dom.product_pairs.items()
    }
    specials = {k: c for k, c in stored(2).items() if k not in products}
    check(draw(list(products) + list(specials)), 2, {**specials, **products})


def test_every_label_read_rejects_an_unknown_label_with_coefficient_0(repo):
    # the zero coefficient is skipped only after its label is found
    m31 = repo.space("M31")
    for read, known, error in (
        (lambda formal: m31.from_dict(2, formal), "psi^2", UnknownLabelError),
        (lambda formal: reduce_to_basis(m31, formal), "psi^2", UnknownLabelError),
        (lambda formal: expand_divisor(m31, formal), "psi", UnknownLabelError),
        (lambda formal: apply_hom(repo.hom("j3_star"), formal), "lam^2", MissingImageError),
    ):
        with pytest.raises(error, match="'mystery'"):
            read({known: 1, "mystery": 0})


def test_j3_star_on_relation_class(repo):
    rel = repo.formal_class("kappa2_relation_M4")
    assert apply_hom(repo.hom("j3_star"), rel).is_zero()


# --- boundary Weierstrass solves --------------------------------------------


def test_gluing_columns_put_factor_2_after_factor_1(repo):
    # a column is over M12's divisor basis followed by M21's, so a factor-2
    # label lands past M12's two divisors: "2:d0" is M21's d0 (its index 1)
    # at index 3, and M12's alias psi1 = d0/12 + d0_12
    gluing = repo.gluing("xi_star_m31")
    assert [f.divisor_basis for f in gluing.factors] == [("d0", "d0_12"), ("psi", "d0", "d1")]
    assert dict(zip(gluing.domain_labels, gluing.columns)) == {
        "psi*d11": ((0, 1, 12), (1, 1, 1)),
        "d0*d11": ((0, 1, 1), (3, 1, 1)),
        "d11^2": ((0, -1, 12), (1, -1, 1), (2, -1, 1)),
        "d11*d21": ((1, 1, 1), (4, 1, 1)),
    }


def test_w2_solve_m31(repo):
    pres, reduced, sol = solve_boundary_class(repo.gluing("xi_star_m31"), repo.catalog_class("W21"))
    assert sol.unique
    assert pres == {
        "psi*d11": F(-9, 5),
        "d0*d11": F(-1, 10),
        "d11^2": F(-3),
        "d11*d21": F(-6, 5),
    }
    # the stated class is the presentation itself: every label is a basis label
    assert reduced == repo.space("M31").from_dict(2, repo.golden["w2_lemmas"]["m31_presentation"])


def test_w2_solve_needs_the_divisor_on_the_weierstrass_factor(repo):
    # the genus-1 boundary locus pulls back from factor 2, the genus-2 space
    with pytest.raises(SpaceMismatchError, match="Weierstrass divisor lives on M12, factor is M21"):
        solve_boundary_class(repo.gluing("xi_star_m31"), repo.space("M12").basis_class(1, "d0"))


def test_w2_solve_m4_reduces_to_catalog(repo):
    m4 = repo.space("M4")
    pres, reduced, sol = solve_boundary_class(repo.gluing("xi_star_m4"), repo.catalog_class("W21"))
    assert sol.unique
    assert pres == {"d0*d2": F(-1, 10), "d1*d2": F(-6, 5), "d2^2": F(-3)}
    assert reduced == cls(m4, 2, {"lam*d2": -1, "d1*d2": -1, "d2^2": -3})
