"""Loading and validation of the embedded definition data.

All bases, relations, images, catalog classes, families and expected values
live in JSON files in the ``data`` directory beside this module; a
``data_dir`` override may replace the embedded copies bit-for-bit.
Everything is validated once at load and is not changed afterwards, so a
repository can be shared freely between threads; that immutability is a
convention, since the value classes are plain classes that do not forbid
assignment.  Load is the only place where raw JSON becomes values: each
space, map, gluing, family and multiplicity-system file, which must declare
the id it is loaded under, goes whole to its object's constructor as keyword
arguments, with the ids it names resolved to the loaded objects (see
`Repo._resolved`).  So a field's name is its parameter's name, and a missing
or unknown field or id is an error naming the file and the field.  A
``homs/`` file's own ``kind`` (ring, table or gluing, checked first) picks
its class.
Each number is parsed once, where it is read, by the one parser of `linalg`:
definition numbers become the int pairs of supports, and golden numbers,
family values, count constants, stored relations and formal classes become
exact values (an int where integral, else a Fraction; see `linalg._number`),
so a run of the checks parses nothing.  A file is read as bytes and decoded
as strict UTF-8.  Any error raised while a file is turned into objects names
the file: the package's own keep their type, and any other (bytes that are
not UTF-8, a missing key, a float or a bool for a number, a zero
denominator, a value of the wrong type) becomes a DataError.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Mapping, Sequence

from .counts import CountRegistry
from .errors import DataError, DegreeError, SpaceMismatchError, TautVerifyError, UnknownNameError
from .grr import LAMBDA2_LOCI
from .linalg import _RATIONAL, Number, as_fraction
from .rings import GluingRestriction, RingHom, RingSpace, TautClass, special_expand
from .surfaces import SurfaceFunctional

SPACE_IDS = ("M22", "M31", "M3", "M4", "M12", "M21")
# ring maps and gluing restrictions alike: each file's own "kind" picks its class
HOM_IDS = ("theta_star", "j3_star", "p_star_pushforward", "p_pullback_m3", "xi_star_m31", "xi_star_m4")
SURFACE_IDS = ("S1", "S2", "S3", "T1", "T2", "T3", "V1", "V2", "V3", "V4")
SYSTEM_IDS = ("F31", "H4plus")

# each paper result that a check computes and later checks read, by its name:
# the id of that check and of the space of its class, which is of degree 2; the
# golden file states each once, and no catalog class has one of these names
COMPUTED = {
    "Hyp31_theorem": ("hyp31", "M31"),
    "W2_M31": ("w2_lemmas", "M31"),
    "W2_M4": ("w2_lemmas", "M4"),
    "F31_theorem": ("f31", "M31"),
    "H4plus_theorem": ("h4plus", "M4"),
}


def _drop_comment(obj: dict) -> dict:
    obj.pop("comment", None)
    return obj


def _golden_values(node):
    """The golden document with every number as an exact value (see `as_fraction`).

    An int stays as it is.  A string that `_RATIONAL` matches is a number;
    any other string is a label or an anchor.
    """
    kind = type(node)
    if kind is int:
        return node
    if kind is dict:
        return {k: _golden_values(v) for k, v in node.items()}
    if kind is list:
        return [_golden_values(v) for v in node]
    if kind is str and not _RATIONAL.fullmatch(node):
        return node
    return as_fraction(node)


class MultiplicitySystem:
    """A left-hand product decomposed into components, each with an unknown multiplicity.

    Built from a ``systems/`` file, whose fields README "Data conventions"
    describes, with its ids resolved; `pushforward` becomes (map, catalog
    name, catalog class).  Readout rule: a class's rows are its pairing with
    each family, then its image's entries under the pushforward map or its
    `coefficient` at one basis label.
    """

    __slots__ = ("id", "lhs_key", "lhs_factors", "unknowns", "components", "families", "fiber_counts",
                 "pushforward", "coefficient")

    def __init__(
        self,
        id: str,
        lhs_key: str,  # surface-table key of the left-hand product
        lhs_factors: tuple[TautClass, ...],
        unknowns: Sequence[str],
        components: Sequence[Sequence],  # (name, ref); see `Repo._component` for ref
        families: tuple[SurfaceFunctional, ...],
        fiber_counts: Mapping[str, Number],  # family id -> fiber count of the unknown
        pushforward: tuple[RingHom, str, TautClass] | None = None,
        coefficient: Sequence[str] | None = None,  # (codim-2 basis label, lambda^2 value of the unknown)
    ):
        self.id, self.lhs_key, self.lhs_factors, self.families = id, lhs_key, lhs_factors, families
        self.unknowns, self.components = tuple(unknowns), tuple((name, ref) for name, ref in components)
        self.fiber_counts, self.pushforward, self.coefficient = fiber_counts, pushforward, coefficient
        unknown = [name for name, ref in self.components if ref is None]
        if len(unknown) != 1 or len(self.unknowns) != len(self.components):
            raise DataError(f"{id}: needs as many 'unknowns' as 'components', exactly one of them of ref null")
        if (pushforward is None) == (coefficient is None):
            raise DataError(f"{id}: states neither or both of 'pushforward' and 'coefficient'")
        space = lhs_factors[0].space
        if any(c.space is not space for c in lhs_factors):
            raise SpaceMismatchError(f"{id}: left-hand factors on {', '.join(c.space.id for c in lhs_factors)}")
        stray = sorted(set(fiber_counts) - {f.id for f in families})
        if stray:
            raise DataError(f"{id}: fiber counts for {stray}, which are not among its 'families'")
        if coefficient:
            label, locus = coefficient
            if label not in space.codim2_index:
                raise DataError(f"coefficient: {label!r} is not a codim-2 basis label on {space.id}")
            if locus not in LAMBDA2_LOCI:
                raise DataError(f"coefficient: {locus!r} is not one of the lambda^2 values {', '.join(LAMBDA2_LOCI)}")
        if pushforward:
            hom, ref, image = pushforward
            degree = hom.images[sum(c.degree for c in lhs_factors)][0]
            where = f"{id}: pushforward {ref!r} of component {unknown[0]!r}"
            if image.space is not hom.codomain:
                raise SpaceMismatchError(f"{where} lives on {image.space.id}, not on {hom.codomain.id}")
            if image.degree != degree:
                raise DegreeError(f"{where} has degree {image.degree}, not {degree}")


class Repo:
    """One fully loaded, validated set of definitions and expected values."""

    def __init__(self, data_dir: str | os.PathLike | None = None):
        default = os.path.join(os.path.dirname(__file__), "data")
        self._dir = os.fspath(data_dir) if data_dir is not None else default
        self._spaces: dict[str, RingSpace] = {}
        self._homs: dict[str, RingHom] = {}
        self._gluings: dict[str, GluingRestriction] = {}
        self._catalog: dict[str, TautClass] = {}
        self._catalog_sources: dict[str, str] = {}
        self._formal: dict[str, dict[str, Number]] = {}
        self._functionals: dict[str, SurfaceFunctional] = {}
        self._systems: dict[str, MultiplicitySystem] = {}
        self._load()

    # -- raw file access ------------------------------------------------

    def _read(self, relpath: str) -> dict:
        try:
            with open(os.path.join(self._dir, relpath), "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read definition file {relpath!r}: {exc}") from exc
        try:
            # decoded here, not by json.loads, which would also take UTF-16, UTF-32 and a BOM
            return json.loads(raw.decode("utf-8"), object_hook=_drop_comment)
        except UnicodeDecodeError as exc:
            raise DataError(f"definition file {relpath!r} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed JSON in {relpath!r}: {exc}") from exc

    @contextmanager
    def _building(self, relpath: str, id: str | None = None):
        """Read a file, which must declare `id` if one is given; an error while
        building from it names the file, and the package's own keep their type."""
        raw = self._read(relpath)
        try:
            if id is not None and raw["id"] != id:
                raise DataError(f"definition file {relpath!r} declares id {raw['id']!r}, not {id!r}")
            yield raw
        except TautVerifyError as exc:
            if relpath in str(exc):
                raise
            raise type(exc)(f"{relpath}: {exc}") from exc
        except Exception as exc:
            raise DataError(f"malformed definition file {relpath!r}: {type(exc).__name__}: {exc}") from exc

    # -- loading ----------------------------------------------------------

    def _resolved(self, raw: dict) -> dict:
        """A file's fields with each id it names resolved to the loaded object."""
        for key in ("domain", "codomain", "target_space"):
            if key in raw:
                raw[key] = self.space(raw[key])
        for key, find in (("factors", self.space), ("lhs_factors", self.catalog_class), ("families", self.functional)):
            if key in raw:
                raw[key] = tuple(map(find, raw[key]))
        if "components" in raw:
            space, components = raw["lhs_factors"][0].space, enumerate(raw["components"])
            raw["components"] = [(name, self._component(space, i, ref)) for i, (name, ref) in components]
        if "fiber_counts" in raw:
            raw["fiber_counts"] = {sid: self.counts.get(cid) for sid, cid in raw["fiber_counts"].items()}
        if "pushforward" in raw:
            hid, ref = raw["pushforward"]
            raw["pushforward"] = (self.hom(hid), ref, self.catalog_class(ref))
        return raw

    def _component(self, space: RingSpace, i: int, ref: str | None) -> TautClass | str | None:
        """Entry `i` of a system's components: null stays None, ``special:<s>`` and ``basis:<label>`` become a
        class on `space`, and ``class:<n>`` becomes n, a COMPUTED or catalog class of degree 2 on `space`."""
        if ref is None:
            return None
        kind, _, name = ref.partition(":")
        stated = self._catalog.get(name)
        where = (stated.space.id, stated.degree) if stated else (COMPUTED.get(name, (None, None))[1], 2)
        if kind == "special" and name in space.special_expansions:
            return special_expand(space, name)
        if kind == "basis" and name in space.codim2_index:
            return space.basis_class(2, name)
        if kind == "class" and where == (space.id, 2):
            return name
        raise DataError(f"components/{i}: {ref!r} names no degree-2 class on {space.id}")

    def _load(self):
        for sid in SPACE_IDS:
            with self._building(f"spaces/{sid.lower()}.json", sid) as raw:
                self._spaces[sid] = RingSpace(**raw)

        for hid in HOM_IDS:
            with self._building(f"homs/{hid}.json", hid) as raw:
                kind = raw["kind"]
                if kind not in ("ring", "table", "gluing"):
                    raise DataError(f"unknown hom kind {kind!r}, not ring, table or gluing")
                if kind == "gluing":
                    del raw["kind"]
                    self._gluings[hid] = GluingRestriction(**self._resolved(raw))
                else:
                    self._homs[hid] = RingHom(**self._resolved(raw))

        with self._building("catalog.json") as raw:
            for name, entry in raw["classes"].items():
                space = self.space(entry["space"])
                self._catalog[name] = space.from_dict(entry["degree"], entry["coeffs"])
                self._catalog_sources[name] = entry.get("source", "")
            for name, entry in raw["formal_classes"].items():
                self._formal[name] = {k: as_fraction(v) for k, v in entry["coeffs"].items()}

        for sid in SURFACE_IDS:
            with self._building(f"surfaces/{sid.lower()}.json", sid) as raw:
                self._functionals[sid] = SurfaceFunctional(**self._resolved(raw))

        with self._building("counts.json") as raw:
            self.counts = CountRegistry(raw)
        for sid in SYSTEM_IDS:
            with self._building(f"systems/{sid.lower()}.json", sid) as raw:
                self._systems[sid] = MultiplicitySystem(**self._resolved(raw))
        with self._building("golden_checks.json") as raw:
            if type(raw) is not dict:
                raise DataError(f"the golden document must be an object, not {type(raw).__name__}")
            for check_id, block in raw.items():  # a check reads its block by its id
                if type(block) is not dict:
                    raise DataError(f"{check_id}: a check's golden block must be an object, not {type(block).__name__}")
            self.golden = _golden_values(raw)

    # -- accessors --------------------------------------------------------

    @staticmethod
    def _lookup(table: dict, name: str, kind: str):
        try:
            return table[name]
        except KeyError:
            raise UnknownNameError(f"unknown {kind} {name!r}") from None

    def space(self, sid: str) -> RingSpace:
        return self._lookup(self._spaces, sid, "space")

    def hom(self, hid: str) -> RingHom:
        return self._lookup(self._homs, hid, "homomorphism")

    def gluing(self, gid: str) -> GluingRestriction:
        return self._lookup(self._gluings, gid, "gluing restriction")

    def catalog_class(self, name: str) -> TautClass:
        return self._lookup(self._catalog, name, "class")

    def catalog_source(self, name: str) -> str:
        return self._lookup(self._catalog_sources, name, "class")

    def formal_class(self, name: str) -> dict[str, Number]:
        return dict(self._lookup(self._formal, name, "formal class"))

    def functional(self, sid: str) -> SurfaceFunctional:
        return self._lookup(self._functionals, sid, "surface")

    def system(self, sid: str) -> MultiplicitySystem:
        return self._lookup(self._systems, sid, "multiplicity system")
