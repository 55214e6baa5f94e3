"""Data-driven models of the graded ring pieces and the maps between them.

A RingSpace holds an ordered divisor basis, an ordered codimension-two
basis, rewrite rules sending divisor aliases and non-basis formal divisor
products into the bases, relation vectors that must reduce to zero, and
expansions of special codimension-two symbols.  Every coefficient lives in a
definition file; this module only implements the bilinear expansion, the
basis reduction, the homomorphism rules and the node-smoothing solves.  Each
space, map and gluing restriction builds and validates itself from its
file's fields in its own constructor.

Classes, maps and gluing restrictions hold the RingSpace objects they live
on, so no function takes a space beside an object that already names it.
Spaces compare by identity: two spaces are the same only if they are one
loaded object.

Labelled numbers become a vector one way: `_labelled` sums c * table[label]
over a table of supports, rejecting a label the table lacks even where c is
0.  Rewrite rules, divisor aliases, `reduce_to_basis`, `expand_divisor`, a
ring map's special images and `apply_hom` on a plain mapping (which may
mention non-basis products and stored special labels) all read labels
through it; `from_dict` alone builds its basis vector directly.  Supports
are built once at load, straight from the int pairs of the file's numbers.
A map keeps one image table per source degree, `images[degree] = (image
degree, {label: support})`, so applying it is one lookup and one loop; a
product of two divisor classes reads the product of each pair of generators
from a table indexed by their basis positions.
A class is stored as its support only (its nonzero coefficients as int
triples, see `linalg`), with no dense view: `coeff` reads one coefficient
as an exact value, an int where integral (see `linalg._number`).  Every
reduction, product, map image, class sum and linear
solve walks supports through the `linalg` kernels, and a class made by a
kernel holds the support the kernel returned.
"""

from __future__ import annotations

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
    Number,
    Solution,
    Support,
    _ZERO,
    _combine,
    _number,
    _ratio,
    _transpose,
    as_fraction,
    solve_exact,
)

Formal = Mapping[str, Number]


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

    __slots__ = ("space", "degree", "support")

    def __init__(self, space: "RingSpace", degree: int, support: Support):
        self.space, self.degree, self.support = space, degree, support

    def __eq__(self, other):
        if other.__class__ is not TautClass:
            return NotImplemented
        return (self.space, self.degree, self.support) == (other.space, other.degree, other.support)

    def __repr__(self) -> str:
        return f"TautClass(space={self.space!r}, degree={self.degree!r}, support={self.support!r})"

    def coeff(self, label: str) -> Number:
        i = self.space.label_position(self.degree, label)
        return next((_number(n, d) for j, n, d in self.support if j == i), _ZERO)

    def is_zero(self) -> bool:
        return not self.support

    def __sub__(self, other: "TautClass") -> "TautClass":
        if self.space is not other.space or self.degree != other.degree:
            raise SpaceMismatchError(
                f"cannot combine ({self.space.id}, degree {self.degree}) with ({other.space.id}, degree {other.degree})"
            )
        return TautClass(self.space, self.degree, _combine(((1, 1, self.support), (-1, 1, other.support))))

    def scale(self, c) -> "TautClass":
        return TautClass(self.space, self.degree, _combine(((*_ratio(c), self.support),)))


class RingSpace:
    """One moduli space: bases, product rewrites, relations, special expansions.

    Built and validated from raw definition data.  Beside the bases, their
    indexes and the stored relations it keeps:
    - `divisor_supports`: basis label or alias divisor symbol (e.g. psi_i on
      the two-pointed genus-1 space) -> the support of its vector over
      divisor_basis;
    - `special_expansions`: special symbol -> the support of its vector over
      codim2_basis; bare int tuples, so that a space and its classes form no
      reference cycle and a dropped load is freed at once;
    - `product_pairs`: (gen_a, gen_b) pairs for every canonical product label;
    - `codim2_supports`: basis label or reduced product label -> the support
      of its vector over codim2_basis;
    - `product_supports`: [i][j] -> the support of the product of divisor
      generators i and j, as in codim2_supports, or None where no product is
      defined.
    """

    # __weakref__: a dropped load must be seen to be freed
    __slots__ = (
        "id", "divisor_basis", "codim2_basis", "divisor_index", "codim2_index", "divisor_supports",
        "relations", "special_expansions", "product_pairs", "codim2_supports", "product_supports",
        "__weakref__",
    )

    def __init__(
        self,
        id: str,
        divisor_basis: Sequence[str],
        codim2_basis: Sequence[str],
        product_reductions: Mapping[str, Mapping],
        divisor_reductions: Mapping[str, Mapping],
        relations: Sequence[Mapping],
        special_expansions: Mapping[str, Mapping],
    ):
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

        cod_units = {label: ((i, 1, 1),) for label, i in cod_index.items()}
        supports = dict(cod_units)
        for label, vec in product_reductions.items():
            if label not in pairs:
                raise DataError(f"{id}: reduction target {label!r} is not a formal product")
            if label in cod_index:
                raise DataError(f"{id}: basis label {label!r} must not carry a reduction")
            unknown = lambda k: DataError(f"{id}: reduction of {label!r} mentions non-basis label {k!r}")
            supports[label] = _labelled(cod_units, vec, unknown)
        # Pic-only auxiliary spaces carry no degree-2 piece; products are not
        # defined there and the completeness requirement is vacuous.
        if cod:
            for label in pairs:
                if label not in supports:
                    raise DataError(f"{id}: formal product {label!r} has neither basis slot nor reduction")

        div_units = {label: ((i, 1, 1),) for label, i in div_index.items()}
        div_supports = dict(div_units)
        for alias, vec in divisor_reductions.items():
            if alias in div_index:
                raise DataError(f"{id}: basis label {alias!r} must not carry a reduction")
            unknown = lambda k: DataError(f"{id}: divisor reduction of {alias!r} mentions {k!r}")
            div_supports[alias] = _labelled(div_units, vec, unknown)
        products = [[None] * len(div) for _ in div]
        for label, (a, b) in pairs.items():
            i, j = div_index[a], div_index[b]
            products[i][j] = products[j][i] = supports.get(label)
        self.id, self.divisor_basis, self.codim2_basis = id, div, cod
        self.divisor_index, self.codim2_index, self.divisor_supports = div_index, cod_index, div_supports
        self.product_pairs, self.codim2_supports, self.product_supports = pairs, supports, products
        self.relations = tuple({k: as_fraction(v) for k, v in rel.items()} for rel in relations)
        self.special_expansions = {
            name: reduce_to_basis(self, formal).support for name, formal in special_expansions.items()
        }

        for i, (raw, rel) in enumerate(zip(relations, self.relations)):
            if not reduce_to_basis(self, raw).is_zero():
                terms = ", ".join(f"{k}: {v}" for k, v in rel.items())
                raise DataError(f"{id}: relations/{i} {{{terms}}} does not reduce to zero")

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

    def label_position(self, degree: int, label: str) -> int:
        """The position of a basis label in the basis of `degree`; another label raises."""
        i = self.basis_index(degree).get(label)
        if i is None:
            raise UnknownLabelError(f"{label!r} is not a degree-{degree} basis label of {self.id}")
        return i

    def zero(self, degree: int) -> TautClass:
        self.basis(degree)  # rejects a degree other than 1 or 2
        return TautClass(self, degree, ())

    def from_dict(self, degree: int, coeffs: Mapping[str, object]) -> TautClass:
        """The class of these coefficients by basis label; another label raises, even at 0."""
        index = self.basis_index(degree)
        entries = []
        for label, c in coeffs.items():
            if label not in index:
                raise UnknownLabelError(f"{label!r} is not a degree-{degree} basis label of {self.id}")
            n, d = _ratio(c)
            if n:
                entries.append((index[label], n, d))
        # a basis vector sums nothing, so its sorted entries are its support
        return TautClass(self, degree, tuple(sorted(entries)))

    def basis_class(self, degree: int, label: str) -> TautClass:
        return TautClass(self, degree, ((self.label_position(degree, label), 1, 1),))


def _labelled(table: Mapping[str, Support], coeffs: Mapping[str, object], unknown) -> Support:
    """The support of the sum of c * table[label] over `coeffs`.

    A label not in `table` raises `unknown(label)`, also where its
    coefficient is 0.
    """
    terms = []
    for label, c in coeffs.items():
        if label not in table:
            raise unknown(label)
        n, d = _ratio(c)
        if n:
            terms.append((n, d, table[label]))
    return _combine(terms)


def reduce_to_basis(space: RingSpace, formal: Formal) -> TautClass:
    """Reduce a formal vector over divisor products (and basis labels) to the basis.

    Idempotent on already-reduced input.  Labels must be codim-2 basis labels
    or formal products with a stored rewrite; anything else is an error (in
    particular special-times-divisor products, which these models never need).
    """
    unknown = lambda label: UnknownLabelError(f"{label!r} cannot be reduced on {space.id}")
    return TautClass(space, 2, _labelled(space.codim2_supports, formal, unknown))


def expand_divisor(space: RingSpace, coeffs: Formal) -> TautClass:
    """The degree-1 class of a formal vector over divisor basis labels and aliases."""
    unknown = lambda label: UnknownLabelError(f"{label!r} is not a divisor label of {space.id}")
    return TautClass(space, 1, _labelled(space.divisor_supports, coeffs, unknown))


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
                raise _no_product(space, i, j)
            terms.append((na * nb, da * db, row[j]))
    return TautClass(space, 2, _combine(terms))


def _no_product(space: RingSpace, i: int, j: int) -> UnknownLabelError:
    """The error for divisor generators i and j of a space that defines no product of them."""
    label = product_label(space.divisor_index, space.divisor_basis[i], space.divisor_basis[j])
    return UnknownLabelError(f"{label!r} cannot be reduced on {space.id}")


def special_expand(space: RingSpace, symbol: str) -> TautClass:
    """Stored expansion of a special codim-2 symbol in the space's basis."""
    if symbol not in space.special_expansions:
        raise UnknownLabelError(f"no stored expansion of {symbol!r} on {space.id}")
    return TautClass(space, 2, space.special_expansions[symbol])


class RingHom:
    """A pullback (ring rule) or pushforward (plain table) between two spaces.

    Built and validated from raw definition data.  A ring map takes
    `divisor_images` and `special_images`, whose vectors may name the
    codomain's special expansions as ``special:<name>``; a table map takes
    `table_images`, one entry per codim-2 basis label.  Any other field is an
    error.  `images` maps each source degree the map acts on to (image
    degree, {label: support of its image}); see the module docstring.
    """

    __slots__ = ("id", "domain", "codomain", "images")

    def __init__(self, id: str, kind: str, domain: RingSpace, codomain: RingSpace, **maps):
        # load has checked `kind`
        build = {"ring": _ring_images, "table": _table_images}[kind]
        self.id, self.domain, self.codomain = id, domain, codomain
        self.images = build(id, domain, codomain, **maps)


def _ring_images(id, domain, codomain, divisor_images, special_images):
    div: dict[str, TautClass] = {}
    for gen, vec in divisor_images.items():
        if gen not in domain.divisor_index:
            raise DataError(f"{id}: image given for unknown generator {gen!r}")
        div[gen] = expand_divisor(codomain, vec)
    for gen in domain.divisor_basis:
        if gen not in div:
            raise MissingImageError(f"{id}: no image for divisor generator {gen!r}")
    table = {**codomain.codim2_supports, **{f"special:{k}": s for k, s in codomain.special_expansions.items()}}
    unknown = lambda label: UnknownLabelError(f"{id}: {label!r} cannot be reduced on {codomain.id}")
    codim2 = {name: _labelled(table, vec, unknown) for name, vec in special_images.items()}
    for label in domain.codim2_basis:
        if label not in domain.product_pairs and label not in codim2:
            raise MissingImageError(f"{id}: no image for special basis label {label!r}")
    # a label that is both a product and a special maps as a product
    for label, (a, b) in domain.product_pairs.items():
        codim2[label] = divisor_product(div[a], div[b]).support
    return {1: (1, {gen: c.support for gen, c in div.items()}), 2: (2, codim2)}


def _table_images(id, domain, codomain, table_images):
    table = {}
    for label, vec in table_images.items():
        if label not in domain.codim2_index:
            raise DataError(f"{id}: table entry for unknown label {label!r}")
        table[label] = codomain.from_dict(1, vec).support
    for label in domain.codim2_basis:
        if label not in table:
            raise MissingImageError(f"{id}: no table entry for {label!r}")
    return {2: (1, table)}


def apply_hom(hom: RingHom, c: TautClass | Formal) -> TautClass:
    """Apply a stored map to a class, or to a plain mapping read as degree 2.

    A class sums the images of its basis labels, each stored at load; a
    mapping reads its labels through `_labelled`.
    """
    degree = 2
    if isinstance(c, TautClass):
        if c.space is not hom.domain:
            raise SpaceMismatchError(f"class on {c.space.id} given to {hom.id} (domain {hom.domain.id})")
        degree = c.degree
    if degree not in hom.images:
        raise DegreeError(f"{hom.id} maps no degree-{degree} class")
    out_degree, images = hom.images[degree]
    if isinstance(c, TautClass):
        labels = c.space.basis(degree)
        support = _combine([(n, d, images[labels[i]]) for i, n, d in c.support])
    else:
        support = _labelled(images, c, lambda label: MissingImageError(f"{hom.id}: no image for label {label!r}"))
    return TautClass(hom.codomain, out_degree, support)


# --- gluing restrictions for the node-smoothing lemmas -----------------------


class GluingRestriction:
    """Restriction of a boundary-divisor sub-basis to a product of two spaces.

    Images live on the disjoint sum of the Picard groups of the two factors:
    `columns` holds one support per domain label, over the factor-1 divisor
    basis followed by the factor-2 divisor basis.
    """

    __slots__ = ("id", "domain", "domain_labels", "factors", "columns", "weierstrass_factors")

    def __init__(
        self,
        id: str,
        domain: RingSpace,
        domain_labels: Sequence[str],
        factors: tuple[RingSpace, RingSpace],
        images: Mapping[str, Mapping[str, object]],
        weierstrass_factors: Sequence[int],
    ):
        for fac in weierstrass_factors:
            if fac not in (1, 2):
                raise DataError(f"{id}: weierstrass factor {fac!r} is neither 1 nor 2")
        # "<factor>:<divisor label or alias>" -> its vector over both factors' bases
        keyed = ((fac, k, s) for fac in (1, 2) for k, s in factors[fac - 1].divisor_supports.items())
        table = {f"{fac}:{k}": _on_factor(factors, fac, s) for fac, k, s in keyed}
        columns = []
        for label in domain_labels:
            if label not in images:
                raise MissingImageError(f"{id}: no restriction stored for {label!r}")
            unknown = lambda key: DataError(f"{id}: image key {key!r} of {label!r} names no factor 1 or 2 label")
            columns.append(_labelled(table, images[label], unknown))
        self.id, self.domain, self.domain_labels, self.factors = id, domain, tuple(domain_labels), tuple(factors)
        self.columns, self.weierstrass_factors = tuple(columns), tuple(weierstrass_factors)


def _on_factor(factors: Sequence[RingSpace], fac: int, support: Support) -> Support:
    """A vector over factor `fac`'s divisor basis as one over both factors' bases."""
    shift = len(factors[0].divisor_basis) if fac == 2 else 0
    return tuple((shift + i, n, d) for i, n, d in support)


def solve_boundary_class(
    gluing: GluingRestriction, weierstrass: TautClass
) -> tuple[dict[str, Number], TautClass, Solution] | Inconsistent:
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

    sol = solve_exact(rows, _combine(terms), len(gluing.domain_labels))
    if isinstance(sol, Inconsistent):
        return sol
    presentation = {lbl: sol.vector[i] for i, lbl in enumerate(gluing.domain_labels)}
    return presentation, reduce_to_basis(gluing.domain, presentation), sol
