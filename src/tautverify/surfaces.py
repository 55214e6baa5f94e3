"""Two-dimensional test families as linear functionals on codim-2 bases.

Each family is given by the numerical-equivalence lattice of its base
surface (a small Gram matrix), restriction vectors for the divisor
generators, and directly stated values for the special classes.  Product
entries are derived from the Gram pairing unless the source table overrides
them.  `make_surface` turns a family file into its one object, the
functional, at load: the restriction and special-product vectors become
supports and are paired there, and the functional keeps only what pairing
needs, the lattice labels and the Gram rows, beside its values.  It keeps
each lattice-derived value beside the effective one, and its provenance is
the one record of the comparison: a stated value that differs from the
lattice value of its label is an override.

A functional holds the RingSpace of the family's target, so a class is
paired with it without naming a space again.  Pairings run on supports (see
`linalg`): the Gram matrix is kept as its row supports, and a functional
keeps the support of its values over the codim-2 basis, so evaluating a
class walks two int supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DataError, DegreeError, DimensionError, SpaceMismatchError, UnknownLabelError
from .linalg import Support, _combine, _dot, _ratio, _ratio_sum, _support_of, _transpose, as_fraction
from .rings import RingSpace, TautClass

DERIVED = "derived"
DIRECT = "direct"
OVERRIDE = "override"


@dataclass(frozen=True)
class SurfaceFunctional:
    """A family as it pairs with classes: its lattice and its value on every label."""

    id: str
    space: RingSpace
    lattice_labels: tuple[str, ...]
    gram: tuple[Support, ...]  # the rows of the symmetric Gram matrix
    values: Mapping[str, Fraction]
    provenance: Mapping[str, str]
    derived: Mapping[str, Fraction]  # label -> lattice value: every formal product, basis or not, and special product

    @cached_property
    def support(self) -> Support:
        """The support of the values over the codim-2 basis of the space."""
        return _support_of(self.values[label] for label in self.space.codim2_basis)


def _gram_times(gram: Sequence[Support], w: Support) -> Support:
    """Gram w; the Gram matrix is symmetric, so this is its rows combined with w's entries."""
    return _combine((n, d, gram[j]) for j, n, d in w)


def _pair(id: str, gram: Sequence[Support], v: Sequence, w: Sequence) -> Fraction:
    vs, ws = _support_of(v), _support_of(w)
    if len(v) != len(gram) or len(w) != len(gram):
        raise DimensionError(f"{id}: lattice vectors must have length {len(gram)}")
    return _dot(vs, _gram_times(gram, ws))


def pair_on_surface(functional: SurfaceFunctional, v: Sequence, w: Sequence) -> Fraction:
    """Intersection number v . w on the base surface: v^T Gram w."""
    return _pair(functional.id, functional.gram, v, w)


def make_surface(
    id: str,
    space: RingSpace,
    lattice: Sequence[str],
    gram_rows: Sequence[Sequence],
    restrictions: Mapping[str, Sequence],
    overrides: Mapping[str, object],
    direct_values: Mapping[str, object],
    special_products: Mapping[str, Sequence],
) -> SurfaceFunctional:
    """Build a family's functional: every codim-2 basis label gets a value.

    Product labels come from the Gram pairing of the divisor restrictions
    unless overridden; special labels come from lattice computations where
    the source gives one (`special_products`: lists of lattice-vector pairs
    whose Gram pairings sum to the value), and from the stated direct values
    otherwise.  Extra special symbols with direct values (used by the
    multiplicity systems) ride along.  Every lattice-derived value is kept
    too, also where a stated value wins and for formal products outside the
    basis (one Gram product per generator).  A stated value whose label has a
    different lattice value is marked override, in the basis or not.
    """
    labels = tuple(lattice)
    gram = tuple(_support_of(r) for r in gram_rows)
    if len(gram_rows) != len(labels) or any(len(r) != len(labels) for r in gram_rows):
        raise DataError(f"{id}: gram matrix must be {len(labels)}x{len(labels)}")
    # supports are canonical, so the rows equal the columns iff the matrix is symmetric
    if list(gram) != _transpose(gram, len(labels)):
        raise DataError(f"{id}: gram matrix must be symmetric")
    restr = {}
    for gen in space.divisor_basis:
        if gen not in restrictions:
            raise DataError(f"{id}: no restriction stored for divisor generator {gen!r}")
        restr[gen] = _support_of(restrictions[gen])
        if len(restrictions[gen]) != len(labels):
            raise DataError(f"{id}: restriction of {gen!r} has wrong length")
    ov = {k: as_fraction(v) for k, v in overrides.items()}
    for k in ov:
        if k not in space.product_pairs or k not in space.codim2_index:
            raise DataError(f"{id}: override for non-basis product {k!r}")
    dv = {k: as_fraction(v) for k, v in direct_values.items()}
    special = {}
    for label, pairs in special_products.items():
        special[label] = _ratio_sum(_ratio(_pair(id, gram, v, w)) for v, w in pairs)

    values: dict[str, Fraction] = {}
    prov: dict[str, str] = {}
    gram_restr = {gen: _gram_times(gram, vec) for gen, vec in restr.items()}
    derived = {label: _dot(restr[a], gram_restr[b]) for label, (a, b) in space.product_pairs.items()}
    for label in space.codim2_basis:
        if label in space.product_pairs:
            if label in ov:
                values[label] = ov[label]
                prov[label] = OVERRIDE if ov[label] != derived[label] else DERIVED
            else:
                values[label] = derived[label]
                prov[label] = DERIVED
        elif label in special:
            values[label] = derived[label] = special[label]
            prov[label] = DERIVED
        elif label in dv:
            values[label] = dv[label]
            prov[label] = DIRECT
        else:
            raise DataError(f"{id}: codim-2 basis label {label!r} is not covered")
    for label, v in dv.items():
        if label not in values:
            values[label] = v
            prov[label] = DIRECT
    for label, v in special.items():
        derived.setdefault(label, v)
        if label not in values:
            values[label] = derived[label]
            prov[label] = DERIVED
    for label, p in prov.items():
        if p == DIRECT and label in derived and values[label] != derived[label]:
            prov[label] = OVERRIDE
    return SurfaceFunctional(id, space, labels, gram, values, prov, derived)


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
