"""Two-dimensional test families as linear functionals on codim-2 bases.

Each family is modelled by the numerical-equivalence lattice of its base
surface (a small Gram matrix), restriction vectors for the divisor
generators, and directly stated values for the special classes.  Product
entries are derived from the Gram pairing unless the source table overrides
them.  The functional, built at load, keeps each lattice-derived value beside
the effective one, and its provenance is the one record of the comparison:
a stated value that differs from the lattice value of its label is an
override.

A model and its functional hold the RingSpace of the family's target, so a
class is paired with a functional without naming a space again.  Pairings
run on supports (see `linalg`): the Gram matrix is kept as its row supports,
and a functional keeps the support of its values over the codim-2 basis, so
evaluating a class walks two int supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DataError, DegreeError, DimensionError, SpaceMismatchError, UnknownLabelError
from .linalg import Support, Vector, _combine, _dot, _ratio_sum, _support_of, as_fraction, as_vector
from .rings import RingSpace, TautClass

DERIVED = "derived"
DIRECT = "direct"
OVERRIDE = "override"


@dataclass(frozen=True)
class SurfaceModel:
    id: str
    space: RingSpace
    lattice_labels: tuple[str, ...]
    gram: tuple[Support, ...]  # the rows of the symmetric Gram matrix
    divisor_restrictions: Mapping[str, Vector]
    overrides: Mapping[str, Fraction]  # product label -> stated value
    direct_values: Mapping[str, Fraction]  # special label -> stated value
    # special label -> list of lattice-vector pairs whose Gram pairings sum
    # to the value (for special classes the source computes on the lattice)
    special_products: Mapping[str, tuple[tuple[Vector, Vector], ...]]


@dataclass(frozen=True)
class SurfaceFunctional:
    surface: str
    space: RingSpace
    values: Mapping[str, Fraction]
    provenance: Mapping[str, str]
    derived: Mapping[str, Fraction]  # label -> lattice value: every formal product, basis or not, and special product

    @cached_property
    def support(self) -> Support:
        """The support of the values over the codim-2 basis of the space."""
        return _support_of(self.values[label] for label in self.space.codim2_basis)


def make_surface(
    id: str,
    space: RingSpace,
    lattice: Sequence[str],
    gram_rows: Sequence[Sequence],
    restrictions: Mapping[str, Sequence],
    overrides: Mapping[str, object],
    direct_values: Mapping[str, object],
    special_products: Mapping[str, Sequence],
) -> SurfaceModel:
    labels = tuple(lattice)
    rows = [as_vector(r) for r in gram_rows]
    if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
        raise DataError(f"{id}: gram matrix must be {len(labels)}x{len(labels)}")
    if any(r[j] != rows[j][i] for i, r in enumerate(rows) for j in range(i)):
        raise DataError(f"{id}: gram matrix must be symmetric")
    gram = tuple(_support_of(r) for r in rows)
    restr = {}
    for gen in space.divisor_basis:
        if gen not in restrictions:
            raise DataError(f"{id}: no restriction stored for divisor generator {gen!r}")
        vec = as_vector(restrictions[gen])
        if len(vec) != len(labels):
            raise DataError(f"{id}: restriction of {gen!r} has wrong length")
        restr[gen] = vec
    ov = {k: as_fraction(v) for k, v in overrides.items()}
    for k in ov:
        if k not in space.product_pairs or k not in space.codim2_index:
            raise DataError(f"{id}: override for non-basis product {k!r}")
    dv = {k: as_fraction(v) for k, v in direct_values.items()}
    sp = {}
    for k, pairs in special_products.items():
        sp[k] = tuple((as_vector(p[0]), as_vector(p[1])) for p in pairs)
    return SurfaceModel(id, space, labels, gram, restr, ov, dv, sp)


def pair_on_surface(surface: SurfaceModel, v: Sequence, w: Sequence) -> Fraction:
    """Intersection number v . w on the base surface: v^T Gram w."""
    vv, ww = as_vector(v), as_vector(w)
    if len(vv) != len(surface.lattice_labels) or len(ww) != len(surface.lattice_labels):
        raise DimensionError(f"{surface.id}: lattice vectors must have length {len(surface.lattice_labels)}")
    return _dot(_support_of(vv), _gram_times(surface, _support_of(ww)))


def _gram_times(surface: SurfaceModel, w: Support) -> Support:
    """Gram w; the Gram matrix is symmetric, so this is its rows combined with w's entries."""
    return _combine((n, d, surface.gram[j]) for j, n, d in w)


def _derived_special_value(surface: SurfaceModel, label: str) -> Fraction:
    pairings = [pair_on_surface(surface, v, w) for v, w in surface.special_products[label]]
    return _ratio_sum((p.numerator, p.denominator) for p in pairings)


def surface_functional(surface: SurfaceModel) -> SurfaceFunctional:
    """Build the full functional: every codim-2 basis label gets a value.

    Product labels come from the Gram pairing unless overridden; special
    labels come from lattice computations where the source gives one, and
    from the stated direct values otherwise.  Extra special symbols with
    direct values (used by the multiplicity systems) ride along.  Every
    lattice-derived value is kept too, also where a stated value wins and
    for formal products outside the basis (one Gram product per generator).
    A stated value whose label has a different lattice value is marked
    override, in the basis or not.
    """
    space = surface.space
    values: dict[str, Fraction] = {}
    prov: dict[str, str] = {}
    restr = {gen: _support_of(vec) for gen, vec in surface.divisor_restrictions.items()}
    gram_restr = {gen: _gram_times(surface, vec) for gen, vec in restr.items()}
    derived = {label: _dot(restr[a], gram_restr[b]) for label, (a, b) in space.product_pairs.items()}
    for label in space.codim2_basis:
        if label in space.product_pairs:
            if label in surface.overrides:
                values[label] = surface.overrides[label]
                prov[label] = OVERRIDE if surface.overrides[label] != derived[label] else DERIVED
            else:
                values[label] = derived[label]
                prov[label] = DERIVED
        elif label in surface.special_products:
            values[label] = derived[label] = _derived_special_value(surface, label)
            prov[label] = DERIVED
        elif label in surface.direct_values:
            values[label] = surface.direct_values[label]
            prov[label] = DIRECT
        else:
            raise DataError(f"{surface.id}: codim-2 basis label {label!r} is not covered")
    for label, v in surface.direct_values.items():
        if label not in values:
            values[label] = v
            prov[label] = DIRECT
    for label in surface.special_products:
        if label not in derived:
            derived[label] = _derived_special_value(surface, label)
        if label not in values:
            values[label] = derived[label]
            prov[label] = DERIVED
    for label, p in prov.items():
        if p == DIRECT and label in derived and values[label] != derived[label]:
            prov[label] = OVERRIDE
    return SurfaceFunctional(surface.id, space, values, prov, derived)


def evaluate(functional: SurfaceFunctional, c: TautClass) -> Fraction:
    """Pair the functional with a codim-2 class: sum of value * coefficient."""
    if c.space is not functional.space:
        raise SpaceMismatchError(
            f"class on {c.space.id} evaluated against a functional for {functional.space.id}"
        )
    if c.degree != 2:
        raise DegreeError("evaluate needs a degree-2 class")
    return _dot(c.support, functional.support)


def evaluate_formal_products(functional: SurfaceFunctional, formal: Mapping[str, object]) -> Fraction:
    """Pair a formal divisor-product vector with the family via raw Gram pairings.

    It reads the lattice values built at load, bypassing both the basis
    reduction and any override, so it checks that the lattice data itself
    annihilates the stored ring relations.
    """
    space = functional.space
    coeffs, values = [], []
    for label, c in formal.items():
        c = as_fraction(c)
        if c == 0:
            continue
        if label not in space.product_pairs:
            raise UnknownLabelError(f"{label!r} is not a formal divisor product on {space.id}")
        coeffs.append(c)
        values.append(functional.derived[label])
    return _dot(_support_of(coeffs), _support_of(values))
