import json
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tautverify.data import SURFACE_IDS
from tautverify.errors import DataError, SpaceMismatchError, UnknownLabelError
from tautverify.rings import divisor_product, special_expand
from tautverify.surfaces import (
    SurfaceFunctional,
    base_lattice,
    evaluate,
    evaluate_formal_products,
    pair_on_surface,
)

from conftest import _from_support, coeffs, is_exact_value, rationals, sparse_rationals

SURFACE_TABLES = Path(__file__).parent / "data" / "surface_tables.txt"
SHOW_TABLES = Path(__file__).resolve().parent.parent / "scripts" / "show_tables.py"


def family_file(sid):
    """The raw definition file of a family: the oracles read its vectors, not the functional."""
    path = resources.files("tautverify").joinpath("data", "surfaces", f"{sid.lower()}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_pair_fiber_self_intersection(repo):
    s1 = repo.functional("S1")
    assert pair_on_surface(s1, [1, 0], [1, 0]) == 0
    assert pair_on_surface(s1, [1, 0], [0, 1]) == 1


def gram_entries(surface):
    n = len(surface.lattice_labels)
    return [_from_support(row, n) for row in surface.gram]


def test_lattice_invariants(repo):
    # diagonal self-intersection 2-2g = -2 on the genus-2 square families
    for sid in ("T2", "V2"):
        surface = repo.functional(sid)
        d = surface.lattice_labels.index("D")
        assert gram_entries(surface)[d][d] == -2
    # boundary divisors on the five-pointed genus-0 base square to -1
    v4 = repo.functional("V4")
    assert all(gram_entries(v4)[i][i] == -1 for i in range(len(v4.lattice_labels)))
    # fiber classes square to zero on every product base
    for sid in ("S1", "S2", "S3", "T1"):
        gram = gram_entries(repo.functional(sid))
        assert gram[0][0] == 0 and gram[1][1] == 0


@pytest.mark.parametrize("genus", [0, 1, 2, 3, 7])
def test_each_base_kind_builds_a_symmetric_gram_matrix(genus):
    # the diagonals are the self-intersections: fibers 0, the curve square's
    # diagonal 2 - 2g, H^2 = 1, S^2 = -9 and E0^2 = -1, and each D_ij^2 = -1
    for kind, params, diagonal in (
        ("curve_product", {}, [0, 0]),
        ("curve_square", {"genus": genus}, [0, 0, 2 - 2 * genus]),
        ("cubic_pencil_blowup", {}, [1, -9, -1]),
        ("m05", {}, [-1] * 10),
    ):
        labels, gram = base_lattice(kind, **params)
        assert list(map(tuple, gram)) == list(zip(*gram)), kind
        assert [gram[i][i] for i in range(len(labels))] == diagonal, kind


@pytest.mark.parametrize(
    "base",
    [{"kind": "curve_cube"}, {"kind": "curve_square"}, {"kind": "curve_product", "genus": 2}],
    ids=["unknown_kind", "curve_square_without_genus", "curve_product_with_genus"],
)
def test_a_base_off_the_four_kinds_is_rejected(base):
    with pytest.raises(DataError, match="^base/kind: no base "):
        base_lattice(**base)


@pytest.mark.parametrize("genus", ["3/2", -1])
def test_a_genus_that_is_not_an_integer_at_least_0_is_rejected(genus):
    with pytest.raises(DataError, match="^base/genus: a genus is an integer >= 0"):
        base_lattice("curve_square", genus=genus)


def test_pair_blowup_lattice(repo):
    # lam against d2 on the pencil family over the blown-up plane
    v3 = repo.functional("V3")
    assert pair_on_surface(v3, [3, -1, 0], [-3, 1, -1]) == -1


def test_pair_disjoint_boundary_divisors(repo):
    v4 = repo.functional("V4")
    d24 = [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    d35 = [0, 0, 0, 0, 0, 0, 0, 0, 1, 0]
    assert pair_on_surface(v4, d24, d35) == 1


@given(st.data())
def test_sparse_arithmetic_matches_dense_formulas(repo, data):
    surface = repo.functional(data.draw(st.sampled_from(SURFACE_IDS)))
    n = len(surface.lattice_labels)
    vec = lambda k: data.draw(st.lists(sparse_rationals, min_size=k, max_size=k))
    v, w, t = vec(n), vec(n), data.draw(sparse_rationals)
    gram = gram_entries(surface)
    pairing = pair_on_surface(surface, v, w)
    assert pairing == sum((v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n)), F(0))

    space = surface.space
    k = len(space.codim2_basis)
    x, y = vec(k), vec(k)
    a, b = space.from_dict(2, dict(zip(space.codim2_basis, x))), space.from_dict(2, dict(zip(space.codim2_basis, y)))
    total, diff, scaled = coeffs(a - b.scale(-1)), coeffs(a - b), coeffs(a.scale(t))
    assert total == tuple(p + q for p, q in zip(x, y))
    assert diff == tuple(p - q for p, q in zip(x, y))
    assert scaled == tuple(t * p for p in x)
    assert all(is_exact_value(z) for z in (pairing, *total, *diff, *scaled))


def test_functional_s1_nonzero_entries(repo):
    f = repo.functional("S1")
    nonzero = {k: v for k, v in f.values.items() if v != 0}
    assert nonzero == {
        "psi*d0": -2, "psi*d21": 1, "d0^2": 8,
        "d0*d11": -2, "d0*d21": -2, "d11*d21": 1,
        "gamma1": 2, "gamma2": -1,
    }


def test_functional_t3_stated_entries(repo):
    f = repo.functional("T3")
    assert f.values["d01a"] == 12
    assert f.values["kappa2"] == 1
    assert f.values["d0*d11"] == -12
    assert f.values["d11^2"] == 1
    assert f.values["d11*d21"] == 1
    assert f.values["gamma1"] == 12


def test_functional_v4_entries(repo):
    f = repo.functional("V4")
    assert f.values["d2^2"] == 1
    assert f.values["d1*d2"] == -2
    assert f.values["d1|1"] == 1
    assert f.values["gamma1"] == -2
    assert all(f.values[lbl] == 0 for lbl in ("lam^2", "lam*d0", "lam*d1", "lam*d2"))


def test_functional_provenance_tags(repo):
    f = repo.functional("T2")
    assert f.provenance["psi*d21"] == "override"
    assert f.provenance["psi^2"] == "derived"
    assert f.provenance["kappa2"] == "direct"
    assert repo.functional("V2").provenance["d1|1"] == "derived"


def test_evaluate_big_pairings(repo):
    m4 = repo.space("M4")
    theta_t = divisor_product(repo.catalog_class("Theta_null_M4"), repo.catalog_class("T_M4"))
    assert evaluate(repo.functional("V1"), theta_t) == 18432
    m31 = repo.space("M31")
    w_theta = divisor_product(repo.catalog_class("W31"), repo.catalog_class("Theta31"))
    assert evaluate(repo.functional("T2"), w_theta) == 388


def test_evaluate_zero(repo):
    m31 = repo.space("M31")
    assert evaluate(repo.functional("S3"), m31.zero(2)) == 0


def test_evaluate_space_mismatch(repo):
    m4 = repo.space("M4")
    with pytest.raises(SpaceMismatchError):
        evaluate(repo.functional("S1"), repo.catalog_class("Hyp4"))


@given(st.data())
def test_evaluate_linear(repo, data):
    sid = data.draw(st.sampled_from(["S1", "S2", "T2", "V2", "V4"]))
    f = repo.functional(sid)
    space = f.space
    n = len(space.codim2_basis)
    coeffs_a = data.draw(st.lists(rationals, min_size=n, max_size=n))
    coeffs_b = data.draw(st.lists(rationals, min_size=n, max_size=n))
    t = data.draw(rationals)
    a = space.from_dict(2, dict(zip(space.codim2_basis, coeffs_a)))
    b = space.from_dict(2, dict(zip(space.codim2_basis, coeffs_b)))
    assert evaluate(f, a - b.scale(-t)) == evaluate(f, a) + t * evaluate(f, b)


def test_relation_annihilation_via_lattice(repo):
    m31, m4 = repo.space("M31"), repo.space("M4")
    for sid in ("S1", "S2", "S3", "T1", "T2", "T3"):
        for rel in m31.relations:
            assert evaluate_formal_products(repo.functional(sid), rel) == 0
    for sid in ("V1", "V2", "V3", "V4"):
        for rel in m4.relations:
            assert evaluate_formal_products(repo.functional(sid), rel) == 0


def test_formal_products_read_the_family_space(repo):
    # V1 is a family over M4: its own products pair through the lattice, and
    # an M31 product is not a label there
    v1 = repo.functional("V1")
    assert v1.space is repo.space("M4")
    assert evaluate_formal_products(v1, {"d0^2": 2}) == 2 * v1.derived["d0^2"]
    with pytest.raises(UnknownLabelError, match="'psi\\^2' is not a formal divisor product on M4"):
        evaluate_formal_products(v1, {"psi^2": 1})


def test_formal_products_with_non_integral_lattice_values(repo):
    # S1 with every restriction entry halved: psi*d21 = d11*d21 = 1/4, and
    # the stated values all name labels that are not products
    raw, space = family_file("S1"), repo.space("M31")
    restrictions = {gen: [F(x, 2) for x in vec] for gen, vec in raw["restrictions"].items()}
    f = SurfaceFunctional("S1", space, raw["base"], restrictions, {}, raw["direct_values"], {})
    assert f.derived["psi*d21"] == f.derived["d11*d21"] == F(1, 4)
    gram = [[0, 1], [1, 0]]  # the curve product's, stated here for the oracle

    def lattice_value(a, b):
        v, w = restrictions[a], restrictions[b]
        return sum(v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))

    formal = {"psi*d21": F(1, 3), "d11*d21": 5, "psi*d0": F(-2, 7), "d0^2": F(3, 4)}
    expected = sum(F(c) * lattice_value(*space.product_pairs[label]) for label, c in formal.items())
    assert evaluate_formal_products(f, formal) == expected == F(125, 42)


def test_derived_values_cover_every_formal_product(repo):
    # the lattice value of each formal product, in the basis or not, is kept at load
    for sid in SURFACE_IDS:
        f, restrictions = repo.functional(sid), family_file(sid)["restrictions"]
        for label, (a, b) in f.space.product_pairs.items():
            assert f.derived[label] == pair_on_surface(f, restrictions[a], restrictions[b]), (sid, label)


def test_relation_annihilation_via_functional(repo):
    # the reduced relation class is zero, so every functional kills it
    from tautverify.rings import reduce_to_basis

    m31 = repo.space("M31")
    reduced = reduce_to_basis(m31, m31.relations[0])
    for sid in ("S1", "S2", "S3", "T1", "T2", "T3"):
        assert evaluate(repo.functional(sid), reduced) == 0


def test_audit_s1_all_match(repo):
    f = repo.functional("S1")
    products = [lbl for lbl in f.values if lbl in repo.space("M31").product_pairs]
    assert products and all(f.provenance[lbl] == "derived" and f.values[lbl] == f.derived[lbl] for lbl in products)


def test_audit_t2_single_override(repo):
    f = repo.functional("T2")
    assert f.provenance["psi*d21"] == "override"
    assert f.derived["psi*d21"] == -2
    assert f.values["psi*d21"] == -6
    for lbl in ("psi^2", "d21^2", "d11^2"):
        assert f.provenance[lbl] == "derived" and f.values[lbl] == f.derived[lbl]
    assert f.provenance["kappa2"] == "direct" and "kappa2" not in f.derived


def test_audit_v2_lattice_specials_match(repo):
    f = repo.functional("V2")
    for lbl, value in (("d1^2", 16), ("d2^2", -2), ("d1|1", 6)):
        assert (f.provenance[lbl], f.values[lbl], f.derived[lbl]) == ("derived", value, value)


def test_single_override_across_all_surfaces(repo):
    overrides = []
    for sid in ("S1", "S2", "S3", "T1", "T2", "T3", "V1", "V2", "V3", "V4"):
        for label, provenance in repo.functional(sid).provenance.items():
            if provenance == "override":
                overrides.append((sid, label))
    assert overrides == [("T2", "psi*d21")]


def _fresh_lattice_value(f, raw, label):
    if label in f.space.codim2_index and label in f.space.product_pairs:
        a, b = f.space.product_pairs[label]
        return pair_on_surface(f, raw["restrictions"][a], raw["restrictions"][b])
    if label in raw["special_products"]:
        return sum((pair_on_surface(f, v, w) for v, w in raw["special_products"][label]), F(0))
    return None


def test_audit_derived_values_come_from_the_lattice(repo):
    # the lattice values kept at load must each equal a fresh pairing, and a
    # value is an override exactly where it differs from its lattice value
    for sid in SURFACE_IDS:
        f, raw = repo.functional(sid), family_file(sid)
        assert list(f.provenance) == list(f.values)
        for label, value in f.values.items():
            fresh = _fresh_lattice_value(f, raw, label)
            assert f.derived.get(label) == fresh, (sid, label)
            assert (f.provenance[label] == "override") == (fresh is not None and fresh != value), (sid, label)
    t2 = repo.functional("T2")
    assert (t2.derived["psi*d21"], t2.values["psi*d21"]) == (-2, -6)


def test_audit_label_with_direct_value_and_special_product(repo):
    # an off-basis label: the stated value stays effective, and since the
    # lattice value differs, the provenance marks it as an override
    raw, space = family_file("S1"), repo.space("M31")
    pair = (raw["restrictions"]["d0"], raw["restrictions"]["psi"])
    f = SurfaceFunctional(
        "S1", space, raw["base"], raw["restrictions"], raw["overrides"],
        raw["direct_values"], {"d1|1": [pair]},
    )
    assert "d1|1" not in space.codim2_index
    lattice = pair_on_surface(f, *pair)
    assert lattice != raw["direct_values"]["d1|1"]
    assert (f.values["d1|1"], f.derived["d1|1"]) == (raw["direct_values"]["d1|1"], lattice)
    assert f.provenance["d1|1"] == "override"


def test_stated_value_equal_to_its_lattice_value_reads_derived(repo):
    # whichever field states it: here a direct value on an off-basis label
    raw, space = family_file("S1"), repo.space("M31")
    pair = (raw["restrictions"]["d0"], raw["restrictions"]["psi"])
    lattice = pair_on_surface(repo.functional("S1"), *pair)
    f = SurfaceFunctional(
        "S1", space, raw["base"], raw["restrictions"], raw["overrides"],
        {**raw["direct_values"], "d1|1": lattice}, {"d1|1": [pair]},
    )
    assert "d1|1" not in space.codim2_index
    assert (f.values["d1|1"], f.derived["d1|1"], f.provenance["d1|1"]) == (lattice, lattice, "derived")


def test_t3_kappa2_consistent_with_two_node_expansion(repo):
    # the stated kappa2 value on the chain family follows from the vanishing
    # of the two-node class: evaluating its expansion must give zero
    m31 = repo.space("M31")
    assert evaluate(repo.functional("T3"), special_expand(m31, "d00")) == 0


def test_show_tables_matches_oracle():
    # every value, its provenance and each override note, byte for byte
    out = subprocess.run([sys.executable, str(SHOW_TABLES)], capture_output=True, check=True).stdout
    assert out == SURFACE_TABLES.read_bytes()
