"""Two-dimensional test families as linear functionals on codim-2 bases.

Each family is given by the kind of its base surface, from which
`base_lattice` builds its lattice (labels and a small Gram matrix),
restriction vectors for the divisor generators, and directly stated values
for the special classes.  One rule sets each value: a stated value wins over
the lattice value of its label, and the provenance records how the two
compare, so a stated value that differs from its lattice value is an
override.  A family file becomes one object at load, the
`SurfaceFunctional`, which builds itself: the restriction and
special-product vectors become supports and are paired there, and the
functional keeps only what pairing needs, the lattice labels and the Gram
rows, beside its values and each lattice value.

A functional holds the RingSpace of the family's target, so a class is
paired with it without naming a space again.  Pairings run on supports (see
`linalg`): the Gram matrix is kept as its row supports, and a functional
keeps its values over the codim-2 basis as a table from index to int pair,
built at load, so evaluating a class walks the class's support and looks
each index up in that table.  Values and pairings are exact: an int where
integral, else a Fraction (see `linalg._number`).
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

from .errors import DataError, DegreeError, DimensionError, SpaceMismatchError, UnknownLabelError
from .linalg import Number, Support, _combine, _dot, _ratio, _ratio_sum, _support_of, _table, as_fraction
from .rings import RingSpace, TautClass

DERIVED = "derived"
DIRECT = "direct"
OVERRIDE = "override"


_M05 = tuple(combinations("12345", 2))  # the pairs ij of M0,5bar's ten boundary divisors D_ij, in order
_BASES = {  # every kind but the curve square, whose D^2 = 2 - 2g is built from its genus
    "curve_product": (("f1", "f2"), ((0, 1), (1, 0))),
    "cubic_pencil_blowup": (("H", "S", "E0"), ((1, 0, 0), (0, -9, -1), (0, -1, -1))),
    "m05": (tuple(f"D{i}{j}" for i, j in _M05), [[-1 if p == q else int(not {*p} & {*q}) for q in _M05] for p in _M05]),
}


def base_lattice(kind: str, **params) -> tuple[tuple[str, ...], Sequence[Sequence[int]]]:
    """The lattice labels and Gram matrix of a base surface of one of four kinds (README "Data conventions").

    The curve square's one parameter, its genus, is read by `linalg`'s parser, so a bool is refused;
    on M0,5bar (Keel 1992) D_ij^2 = -1, and D_ij.D_kl is 1 exactly when the pairs are disjoint.
    """
    if kind == "curve_square" and list(params) == ["genus"]:
        g, d = _ratio(params["genus"])
        if d != 1 or g < 0:
            raise DataError(f"base/genus: a genus is an integer >= 0, not {params['genus']!r}")
        return ("f1", "f2", "D"), ((0, 1, 1), (1, 0, 1), (1, 1, 2 - 2 * g))
    if kind in _BASES and not params:
        return _BASES[kind]
    raise DataError(f"base/kind: no base {kind!r} with parameters {list(params)}; the kinds are "
                    "curve_product, curve_square (with its genus), cubic_pencil_blowup and m05")


class SurfaceFunctional:
    """A family as it pairs with classes: its lattice and its value on every label.

    Built from the family's file: every codim-2 basis label gets a value.
    One rule sets every value.  The stated values are `direct_values` plus
    `overrides`, which may name basis products only.  The lattice values are
    the Gram pairing of the divisor restrictions of every formal product and,
    for each `special_products` label, the sum of the Gram pairings of its
    lattice-vector pairs.  Each label of the basis, of the stated values and
    of the special products takes its stated value if it has one, else its
    lattice value; its provenance is direct if it has no lattice value,
    override if the two differ and derived otherwise.  A label has at most
    one stated and one lattice value, and only `overrides` may replace the
    lattice value of a basis label: any other input is a DataError naming
    the label, never dropped.

    `gram` holds the rows of the symmetric Gram matrix, `derived` maps every
    formal product, basis or not, and special product to its lattice value,
    and `table` maps the index of each codim-2 basis label whose value is
    nonzero to that value's (numerator, denominator) pair.  It is built once
    at load and is the right operand of every `evaluate`, so a pairing walks
    the class's support and looks each index up in it.
    """

    __slots__ = ("id", "space", "lattice_labels", "gram", "values", "provenance", "derived", "table")

    def __init__(
        self,
        id: str,
        target_space: RingSpace,
        base: Mapping[str, object],
        restrictions: Mapping[str, Sequence],
        overrides: Mapping[str, object],
        direct_values: Mapping[str, object],
        special_products: Mapping[str, Sequence],
    ):
        space, (labels, gram) = target_space, base_lattice(**base)
        gram = tuple(map(_support_of, gram))
        if stray := sorted(set(restrictions) - set(space.divisor_basis)):
            raise DataError(f"{id}: restrictions for {stray}, which are not divisor generators of {space.id}")
        restr = {}
        for gen in space.divisor_basis:
            if gen not in restrictions:
                raise DataError(f"{id}: no restriction stored for divisor generator {gen!r}")
            restr[gen] = _support_of(restrictions[gen])
            if len(restrictions[gen]) != len(labels):
                raise DataError(f"{id}: restriction of {gen!r} has wrong length")
        stated = {k: as_fraction(v) for k, v in direct_values.items()}
        for k, v in overrides.items():
            if k not in space.product_pairs or k not in space.codim2_index:
                raise DataError(f"{id}: override for non-basis product {k!r}")
            if k in stated:
                raise DataError(f"{id}: {k!r} has both a direct value and an override")
            stated[k] = as_fraction(v)
        # one table of Gram times each restriction, read by every pairing with it
        gram_restr = {gen: _table(_gram_times(gram, vec)) for gen, vec in restr.items()}
        derived = {label: _dot(restr[a], gram_restr[b]) for label, (a, b) in space.product_pairs.items()}
        for label, pairs in special_products.items():
            if label in derived:
                raise DataError(f"{id}: special product for formal product {label!r}")
            derived[label] = _ratio_sum(_ratio(_pair(id, gram, v, w)) for v, w in pairs)

        values: dict[str, Number] = {}
        prov: dict[str, str] = {}
        for label in dict.fromkeys((*space.codim2_basis, *stated, *special_products)):
            lattice_value = derived.get(label)
            value = values[label] = stated.get(label, lattice_value)
            if value is None:
                raise DataError(f"{id}: codim-2 basis label {label!r} is not covered")
            if label not in stated:
                prov[label] = DERIVED
                continue
            prov[label] = DIRECT if lattice_value is None else DERIVED if value == lattice_value else OVERRIDE
            if prov[label] == OVERRIDE and label in space.codim2_index and label not in overrides:
                raise DataError(f"{id}: direct value {value} of {label!r} is not its lattice value {lattice_value}")
        self.id, self.space, self.lattice_labels, self.gram = id, space, labels, gram
        self.values, self.provenance, self.derived = values, prov, derived
        self.table = _table(_support_of(values[label] for label in space.codim2_basis))


def _gram_times(gram: Sequence[Support], w: Support) -> Support:
    """Gram w; the Gram matrix is symmetric, so this is its rows combined with w's entries."""
    return _combine((n, d, gram[j]) for j, n, d in w)


def _pair(id: str, gram: Sequence[Support], v: Sequence, w: Sequence) -> Number:
    vs, ws = _support_of(v), _support_of(w)
    if len(v) != len(gram) or len(w) != len(gram):
        raise DimensionError(f"{id}: lattice vectors must have length {len(gram)}")
    return _dot(vs, _table(_gram_times(gram, ws)))


def pair_on_surface(functional: SurfaceFunctional, v: Sequence, w: Sequence) -> Number:
    """Intersection number v . w on the base surface: v^T Gram w."""
    return _pair(functional.id, functional.gram, v, w)


def evaluate(functional: SurfaceFunctional, c: TautClass) -> Number:
    """Pair the functional with a codim-2 class: sum of value * coefficient."""
    if c.space is not functional.space:
        raise SpaceMismatchError(
            f"class on {c.space.id} evaluated against a functional for {functional.space.id}"
        )
    if c.degree != 2:
        raise DegreeError("evaluate needs a degree-2 class")
    return _dot(c.support, functional.table)


def evaluate_formal_products(functional: SurfaceFunctional, formal: Mapping[str, object]) -> Number:
    """Pair a formal divisor-product vector with the family via raw Gram pairings.

    It reads the lattice values built at load, bypassing both the basis
    reduction and any override, so it checks that the lattice data itself
    annihilates the stored ring relations.
    """
    space = functional.space
    products = []
    for label, c in formal.items():
        n, d = _ratio(c)
        if not n:
            continue
        if label not in space.product_pairs:
            raise UnknownLabelError(f"{label!r} is not a formal divisor product on {space.id}")
        vn, vd = _ratio(functional.derived[label])
        products.append((n * vn, d * vd))
    return _ratio_sum(products)
