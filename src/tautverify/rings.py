"""Data-driven models of the graded ring pieces and the maps between them.

A RingSpace is a pure data object: an ordered divisor basis, an ordered
codimension-two basis, rewrite rules sending divisor aliases and non-basis
formal divisor products into the bases, relation vectors that must reduce to
zero, and expansions of special codimension-two symbols.  Every coefficient
lives in a definition file; this module only implements the bilinear
expansion, the basis reduction, the homomorphism rules and the node-smoothing
solves.

Classes, maps and gluing restrictions hold the RingSpace objects they live
on, so no function takes a space beside an object that already names it.
Spaces compare by identity: two spaces are the same only if they are one
loaded object.

Degree-2 classes are vectors over the codim-2 basis.  Formal inputs (plain
mappings from labels to rationals) may also mention non-basis product labels
and, where a map stores them, special symbols.  Each divisor label's and
product label's vector, a ring map's degree-2 images and a gluing
restriction's columns are built as supports once at load, straight from the
int pairs of the file's numbers, so applying any map is one loop over stored
images; a product of two divisor classes reads the product of each pair of
generators from a table indexed by their basis positions.
A class is stored as its support only (its nonzero coefficients as int
triples, see `linalg`); its dense Fraction coefficients are derived from the
support when first read.  Every reduction, product, map image, class sum
and linear solve walks supports through the `linalg` kernels, and a class
made by a kernel holds the support the kernel returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    DataError,
    DegreeError,
    MissingImageError,
    SpaceMismatchError,
    UnknownLabelError,
)
from .linalg import (
    Inconsistent,
    Solution,
    Support,
    _combine,
    _from_support,
    _ratio,
    _transpose,
    as_fraction,
    solve_exact,
)

Formal = Mapping[str, Fraction]


def product_label(basis_index: Mapping[str, int], a: str, b: str) -> str:
    """Canonical label of the formal product of two divisor generators."""
    if basis_index[a] > basis_index[b]:
        a, b = b, a
    return f"{a}^2" if a == b else f"{a}*{b}"


class TautClass:
    """Exact rational coefficient vector over one graded piece of one space.

    `support` lists the nonzero coefficients as (index, numerator,
    denominator) ints, so two classes are equal iff their supports are.  A
    plain slotted class, not a dataclass: kernels build hundreds per run.
    """

    __slots__ = ("space", "degree", "support", "_coeffs")

    def __init__(self, space: "RingSpace", degree: int, support: Support):
        self.space, self.degree, self.support = space, degree, support

    def __eq__(self, other):
        if other.__class__ is not TautClass:
            return NotImplemented
        return (self.space, self.degree, self.support) == (other.space, other.degree, other.support)

    def __hash__(self):
        return hash((self.space, self.degree, self.support))

    def __repr__(self) -> str:
        return f"TautClass(space={self.space!r}, degree={self.degree!r}, support={self.support!r})"

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Every coefficient over the basis of the class's degree, as Fractions, built on first read."""
        try:
            return self._coeffs
        except AttributeError:
            self._coeffs = _from_support(self.support, len(self.space.basis(self.degree)))
            return self._coeffs

    def coeff(self, label: str) -> Fraction:
        return self.coeffs[self.space.basis_index(self.degree)[label]]

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "TautClass") -> "TautClass":
        return self._plus(other, 1)

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self._plus(other, -1)

    def _plus(self, other: "TautClass", sign: int) -> "TautClass":
        _check_same(self, other)
        return TautClass(self.space, self.degree, _combine(((1, 1, self.support), (sign, 1, other.support))))

    def scale(self, c) -> "TautClass":
        return TautClass(self.space, self.degree, _combine(((*_ratio(c), self.support),)))


def _check_same(a: TautClass, b: TautClass):
    if a.space is not b.space or a.degree != b.degree:
        raise SpaceMismatchError(
            f"cannot combine ({a.space.id}, degree {a.degree}) with ({b.space.id}, degree {b.degree})"
        )


@dataclass(frozen=True, eq=False)
class RingSpace:
    """One moduli space: bases, product rewrites, relations, special expansions."""

    id: str
    divisor_basis: tuple[str, ...]
    codim2_basis: tuple[str, ...]
    divisor_index: Mapping[str, int]
    codim2_index: Mapping[str, int]
    # basis label or alias divisor symbol (e.g. psi_i on the two-pointed
    # genus-1 space) -> the support of its vector over divisor_basis
    divisor_supports: Mapping[str, Support]
    relations: tuple[dict[str, Fraction], ...]
    # special symbol -> the support of its vector over codim2_basis; bare int
    # tuples, so that a space and its classes form no reference cycle and a
    # dropped load is freed at once
    special_expansions: Mapping[str, Support]
    # (gen_a, gen_b) pairs for every canonical product label
    product_pairs: Mapping[str, tuple[str, str]]
    # basis label or reduced product label -> the support of its vector over
    # codim2_basis
    codim2_supports: Mapping[str, Support]
    # [i][j] -> the support of the product of divisor generators i and j, as in
    # codim2_supports, or None where no product is defined
    product_supports: Sequence[Sequence[Support | None]]

    def __repr__(self) -> str:
        return f"RingSpace({self.id!r})"

    def basis(self, degree: int) -> tuple[str, ...]:
        if degree == 1:
            return self.divisor_basis
        if degree == 2:
            return self.codim2_basis
        raise DegreeError(f"degree must be 1 or 2, got {degree}")

    def basis_index(self, degree: int) -> Mapping[str, int]:
        self.basis(degree)  # rejects a degree other than 1 or 2
        return self.divisor_index if degree == 1 else self.codim2_index

    def zero(self, degree: int) -> TautClass:
        self.basis(degree)  # rejects a degree other than 1 or 2
        return TautClass(self, degree, ())

    def from_dict(self, degree: int, coeffs: Mapping[str, object]) -> TautClass:
        unknown = lambda label: UnknownLabelError(f"{label!r} is not a degree-{degree} basis label of {self.id}")
        return TautClass(self, degree, _labelled_support(self.basis_index(degree), coeffs, unknown))

    def basis_class(self, degree: int, label: str) -> TautClass:
        return self.from_dict(degree, {label: 1})


def _labelled_support(index: Mapping[str, int], coeffs: Mapping[str, object], unknown) -> Support:
    """The support of a vector given by label; a label not in `index` raises `unknown(label)`."""
    entries = []
    for label, c in coeffs.items():
        if label not in index:
            raise unknown(label)
        n, d = _ratio(c)
        if n:
            entries.append((index[label], n, d))
    return tuple(sorted(entries))


def make_space(
    id: str,
    divisor_basis: Sequence[str],
    codim2_basis: Sequence[str],
    product_reductions: Mapping[str, Mapping],
    divisor_reductions: Mapping[str, Mapping],
    relations: Sequence[Mapping],
    special_expansions_formal: Mapping[str, Mapping],
) -> RingSpace:
    """Build and validate a RingSpace from raw definition data."""
    div = tuple(divisor_basis)
    cod = tuple(codim2_basis)
    div_index = {l: i for i, l in enumerate(div)}
    cod_index = {l: i for i, l in enumerate(cod)}
    if len(div_index) != len(div) or len(cod_index) != len(cod):
        raise DataError(f"{id}: duplicate basis labels")

    pairs: dict[str, tuple[str, str]] = {}
    for i, a in enumerate(div):
        for b in div[i:]:
            pairs[product_label(div_index, a, b)] = (a, b)

    supports = {label: ((i, 1, 1),) for i, label in enumerate(cod)}
    for label, vec in product_reductions.items():
        if label not in pairs:
            raise DataError(f"{id}: reduction target {label!r} is not a formal product")
        if label in cod_index:
            raise DataError(f"{id}: basis label {label!r} must not carry a reduction")
        unknown = lambda k: DataError(f"{id}: reduction of {label!r} mentions non-basis label {k!r}")
        supports[label] = _labelled_support(cod_index, vec, unknown)
    # Pic-only auxiliary spaces carry no degree-2 piece; products are not
    # defined there and the completeness requirement is vacuous.
    if cod:
        for label in pairs:
            if label not in supports:
                raise DataError(f"{id}: formal product {label!r} has neither basis slot nor reduction")

    div_supports = {}
    for alias, vec in divisor_reductions.items():
        if alias in div_index:
            raise DataError(f"{id}: basis label {alias!r} must not carry a reduction")
        unknown = lambda k: DataError(f"{id}: divisor reduction of {alias!r} mentions {k!r}")
        div_supports[alias] = _labelled_support(div_index, vec, unknown)
    div_supports.update((label, ((i, 1, 1),)) for i, label in enumerate(div))
    products = [[None] * len(div) for _ in div]
    for label, (a, b) in pairs.items():
        i, j = div_index[a], div_index[b]
        products[i][j] = products[j][i] = supports.get(label)
    space = RingSpace(
        id=id,
        divisor_basis=div,
        codim2_basis=cod,
        divisor_index=div_index,
        codim2_index=cod_index,
        divisor_supports=div_supports,
        relations=tuple({k: as_fraction(v) for k, v in rel.items()} for rel in relations),
        special_expansions={},
        product_pairs=pairs,
        codim2_supports=supports,
        product_supports=products,
    )
    space.special_expansions.update(
        (name, reduce_to_basis(space, formal).support) for name, formal in special_expansions_formal.items()
    )

    for i, (raw, rel) in enumerate(zip(relations, space.relations)):
        if not reduce_to_basis(space, raw).is_zero():
            terms = ", ".join(f"{k}: {v}" for k, v in rel.items())
            raise DataError(f"{id}: relations/{i} {{{terms}}} does not reduce to zero")
    return space


def reduce_to_basis(space: RingSpace, formal: Formal) -> TautClass:
    """Reduce a formal vector over divisor products (and basis labels) to the basis.

    Idempotent on already-reduced input.  Labels must be codim-2 basis labels
    or formal products with a stored rewrite; anything else is an error (in
    particular special-times-divisor products, which these models never need).
    """
    terms = []
    for label, c in formal.items():
        n, d = _ratio(c)
        if n:
            terms.append((n, d, _codim2_support(space, label)))
    return TautClass(space, 2, _combine(terms))


def _codim2_support(space: RingSpace, label: str) -> Support:
    try:
        return space.codim2_supports[label]
    except KeyError:
        raise UnknownLabelError(f"{label!r} cannot be reduced on {space.id}") from None


def expand_divisor(space: RingSpace, coeffs: Formal) -> TautClass:
    """The degree-1 class of a formal vector over divisor basis labels and aliases."""
    terms = []
    for label, c in coeffs.items():
        n, d = _ratio(c)
        if label not in space.divisor_supports:
            raise UnknownLabelError(f"{label!r} is not a divisor label of {space.id}")
        terms.append((n, d, space.divisor_supports[label]))
    return TautClass(space, 1, _combine(terms))


def divisor_product(a: TautClass, b: TautClass) -> TautClass:
    """Bilinear symmetric product of two divisor classes, reduced to the basis."""
    for x in (a, b):
        if x.degree != 1:
            raise DegreeError(f"divisor_product needs degree-1 classes, got degree {x.degree}")
    space = a.space
    if b.space is not space:
        raise SpaceMismatchError(f"cannot multiply a class on {space.id} by a class on {b.space.id}")
    terms = []
    for i, na, da in a.support:
        row = space.product_supports[i]
        for j, nb, db in b.support:
            if row[j] is None:
                label = product_label(space.divisor_index, space.divisor_basis[i], space.divisor_basis[j])
                raise UnknownLabelError(f"{label!r} cannot be reduced on {space.id}")
            terms.append((na * nb, da * db, row[j]))
    return TautClass(space, 2, _combine(terms))


def special_expand(space: RingSpace, symbol: str) -> TautClass:
    """Stored expansion of a special codim-2 symbol in the space's basis."""
    try:
        s = space.special_expansions[symbol]
    except KeyError:
        raise UnknownLabelError(f"no stored expansion of {symbol!r} on {space.id}") from None
    return TautClass(space, 2, s)


@dataclass(frozen=True)
class RingHom:
    """A pullback (ring rule) or pushforward (plain table) between two spaces."""

    id: str
    kind: str  # "ring" | "table"
    domain: RingSpace
    codomain: RingSpace
    divisor_images: Mapping[str, TautClass]  # ring kind: degree 1 -> degree 1
    special_images: Mapping[str, TautClass]  # ring kind: special label -> degree 2
    table_images: Mapping[str, TautClass]  # table kind: codim-2 label -> degree 1
    codim2_images: Mapping[str, TautClass]  # ring kind, built at load: product or special label -> degree 2


def make_hom(
    id: str,
    kind: str,
    domain: RingSpace,
    codomain: RingSpace,
    divisor_images: Mapping[str, Mapping],
    special_images: Mapping[str, Mapping],
    table_images: Mapping[str, Mapping],
    table_unlisted_zero: bool = False,
) -> RingHom:
    """Build and validate a RingHom from raw definition data.

    Special-image vectors may reference the codomain's stored special
    expansions with ``special:<name>`` keys; everything else reduces through
    the codomain's rewrite rules.
    """
    if kind == "ring":
        div: dict[str, TautClass] = {}
        for gen, vec in divisor_images.items():
            if gen not in domain.divisor_index:
                raise DataError(f"{id}: image given for unknown generator {gen!r}")
            div[gen] = expand_divisor(codomain, vec)
        for gen in domain.divisor_basis:
            if gen not in div:
                raise MissingImageError(f"{id}: no image for divisor generator {gen!r}")
        spec: dict[str, TautClass] = {}
        for name, vec in special_images.items():
            spec[name] = _resolve_special_image(codomain, vec)
        for label in domain.codim2_basis:
            if label not in domain.product_pairs and label not in spec:
                raise MissingImageError(f"{id}: no image for special basis label {label!r}")
        codim2 = dict(spec)  # a label that is both a product and a special maps as a product
        for label, (a, b) in domain.product_pairs.items():
            codim2[label] = divisor_product(div[a], div[b])
        return RingHom(id, kind, domain, codomain, div, spec, {}, codim2)
    if kind == "table":
        table: dict[str, TautClass] = {}
        for label, vec in table_images.items():
            if label not in domain.codim2_index:
                raise DataError(f"{id}: table entry for unknown label {label!r}")
            table[label] = codomain.from_dict(1, vec)
        for label in domain.codim2_basis:
            if label not in table:
                if not table_unlisted_zero:
                    raise MissingImageError(f"{id}: no table entry for {label!r}")
                table[label] = codomain.zero(1)
        return RingHom(id, kind, domain, codomain, {}, {}, table, {})
    raise DataError(f"{id}: unknown hom kind {kind!r}")


def _resolve_special_image(codomain: RingSpace, vec: Mapping[str, object]) -> TautClass:
    # special keys are looked up in order, formal labels after all of them
    special, formal = [], []
    for key, c in vec.items():
        n, d = _ratio(c)
        if key.startswith("special:"):
            special.append((n, d, special_expand(codomain, key[len("special:"):]).support))
        elif n:
            formal.append((n, d, key))
    formal_terms = [(n, d, _codim2_support(codomain, key)) for n, d, key in formal]
    return TautClass(codomain, 2, _combine(special + formal_terms))


def apply_hom(hom: RingHom, c: TautClass | Formal) -> TautClass:
    """Apply a stored map to a class.

    Degree-1 classes map through the divisor images, degree-2 classes label
    by label through the images built at load (the product of the divisor
    images for a product label, the stored image for a special label), and
    table (pushforward) maps entry by entry with no product rule, all in one
    loop.  `c` may be a plain mapping of degree 2, in which case it may also
    mention non-basis product labels and any stored special symbol.
    """
    if isinstance(c, TautClass):
        if c.space is not hom.domain:
            raise SpaceMismatchError(f"class on {c.space.id} given to {hom.id} (domain {hom.domain.id})")
        degree = c.degree
        labels = c.space.basis(degree)
        items = [(labels[i], n, d) for i, n, d in c.support]
    else:
        degree = 2
        items = [(k, n, d) for k, (n, d) in ((k, _ratio(v)) for k, v in c.items()) if n]

    if hom.kind == "table":
        if degree != 2:
            raise DegreeError("pushforward tables act on degree-2 classes")
        images, out_degree, missing = hom.table_images, 1, "no table entry for"
    elif degree == 1:
        images, out_degree, missing = hom.divisor_images, 1, "no divisor image for"
    else:
        images, out_degree, missing = hom.codim2_images, 2, "no image for label"
    terms = []
    for label, n, d in items:
        if label not in images:
            raise MissingImageError(f"{hom.id}: {missing} {label!r}")
        terms.append((n, d, images[label].support))
    return TautClass(hom.codomain, out_degree, _combine(terms))


# --- gluing restrictions for the node-smoothing lemmas -----------------------


@dataclass(frozen=True)
class GluingRestriction:
    """Restriction of a boundary-divisor sub-basis to a product of two spaces.

    Images live on the disjoint sum of the Picard groups of the two factors:
    `columns` holds one support per domain label, over the factor-1 divisor
    basis followed by the factor-2 divisor basis.
    """

    id: str
    domain: RingSpace
    domain_labels: tuple[str, ...]
    factors: tuple[RingSpace, RingSpace]
    columns: tuple[Support, ...]
    weierstrass_factors: tuple[int, ...]


def make_gluing(
    id: str,
    domain: RingSpace,
    domain_labels: Sequence[str],
    factors: tuple[RingSpace, RingSpace],
    images: Mapping[str, Mapping[str, object]],
    weierstrass_factors: Sequence[int],
) -> GluingRestriction:
    for fac in weierstrass_factors:
        if fac not in (1, 2):
            raise DataError(f"{id}: weierstrass factor {fac!r} is neither 1 nor 2")
    columns = []
    for label in domain_labels:
        if label not in images:
            raise MissingImageError(f"{id}: no restriction stored for {label!r}")
        terms = []
        for key, c in images[label].items():
            fac_s, _, div_label = key.partition(":")
            if fac_s not in ("1", "2"):
                raise DataError(f"{id}: image key {key!r} of {label!r} names no factor 1 or 2")
            fac = int(fac_s)
            image = expand_divisor(factors[fac - 1], {div_label: c})
            terms.append((1, 1, _on_factor(factors, fac, image.support)))
        columns.append(_combine(terms))
    return GluingRestriction(
        id, domain, tuple(domain_labels), tuple(factors), tuple(columns), tuple(weierstrass_factors)
    )


def _on_factor(factors: Sequence[RingSpace], fac: int, support: Support) -> Support:
    """A vector over factor `fac`'s divisor basis as one over both factors' bases."""
    shift = len(factors[0].divisor_basis) if fac == 2 else 0
    return tuple((shift + i, n, d) for i, n, d in support)


def solve_boundary_class(
    gluing: GluingRestriction, weierstrass: TautClass
) -> tuple[dict[str, Fraction], TautClass, Solution] | Inconsistent:
    """Express a Weierstrass boundary locus in the boundary-divisor sub-basis.

    Sets up the linear system ``sum_i x_i * restriction(label_i) = pullback of
    the genus-2 Weierstrass divisor from the stated factors`` and solves it
    exactly.  Returns the sub-basis presentation, its reduction to the
    canonical codim-2 basis, and the raw solver output (for the uniqueness
    assertion); an inconsistent system returns the solver's certificate.
    """
    height = sum(len(f.divisor_basis) for f in gluing.factors)
    # one row per coordinate; column j is the restriction of domain label j
    rows = _transpose(gluing.columns, height)
    terms = []
    for fac in gluing.weierstrass_factors:
        factor_space = gluing.factors[fac - 1]
        if weierstrass.space is not factor_space:
            raise SpaceMismatchError(
                f"Weierstrass divisor lives on {weierstrass.space.id}, factor is {factor_space.id}"
            )
        terms.append((1, 1, _on_factor(gluing.factors, fac, weierstrass.support)))
    rhs = _from_support(_combine(terms), height)

    sol = solve_exact(rows, rhs, len(gluing.domain_labels))
    if isinstance(sol, Inconsistent):
        return sol
    presentation = {lbl: sol.vector[i] for i, lbl in enumerate(gluing.domain_labels)}
    return presentation, reduce_to_basis(gluing.domain, presentation), sol
