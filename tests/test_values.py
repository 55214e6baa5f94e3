"""The package's value classes: plain slotted classes, and the value
equality that `Inconsistent` writes out by hand for `checks._finish`."""

from fractions import Fraction as F
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import tautverify
from tautverify.chern import ChernVector
from tautverify.errors import DegreeError
from tautverify.linalg import Inconsistent
from tautverify.poly import TruncatedPoly


def _package_classes():
    for info in pkgutil.iter_modules(tautverify.__path__):
        mod = importlib.import_module(f"tautverify.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                yield f"{info.name}.{name}", obj


def test_checkdef_is_the_only_dataclass():
    # each @dataclass decoration generates and compiles its methods in every
    # fresh process; CheckDef stays one because perfbench/tracer.py rebuilds
    # each check with dataclasses.replace
    found = [name for name, cls in _package_classes() if dataclasses.is_dataclass(cls)]
    assert found == ["checks.CheckDef"]


def test_value_classes_are_slotted():
    value_classes = (
        "linalg.Solution", "linalg.Inconsistent",
        "rings.TautClass", "rings.RingSpace", "rings.RingHom", "rings.GluingRestriction",
        "surfaces.SurfaceFunctional", "poly.TruncatedPoly", "chern.ChernVector",
        "checks.CheckResult", "checks.Report", "data.MultiplicitySystem",
    )
    classes = dict(_package_classes())
    for name in value_classes:
        assert "__slots__" in vars(classes[name]), name


def _poly(powers, coeff):
    return TruncatedPoly.monomial(powers, coeff, 3)


_Z = TruncatedPoly.zero(3)

# the classes that compare by value, as `checks._finish` compares a part's
# two sides: (one object, an equal one built apart, one differing in a
# field, the fields as a tuple)
VALUES = {"Inconsistent": (Inconsistent(F(3, 2)), Inconsistent(F(3, 2)), Inconsistent(F(1)), (F(3, 2),))}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_make_equal_objects(name):
    a, same, other, fields = VALUES[name]
    assert a is not same
    assert a == same and not a != same
    assert a != other and not a == other
    # another type with the same field values is never equal
    assert a != fields and fields != a
    assert a != object()


@pytest.mark.parametrize(
    "cs, text",
    [
        ((_poly({"lam1": 2}, 1), _Z, _poly({"psi": 1}, 1)), "c1 must have pure total degree 1, got 1*lam1^2"),
        (
            (_Z, _poly({"psi": 1}, 2) + _poly({"lam1": 2}, 1), _Z),
            "c2 must have pure total degree 2, got 1*lam1^2 + 2*psi",
        ),
        ((_Z, _Z, _poly({"kappa2": 1}, "1/2")), "c3 must have pure total degree 3, got 1/2*kappa2"),
    ],
)
def test_an_impure_chern_class_raises_the_same_text(cs, text):
    with pytest.raises(DegreeError) as err:
        ChernVector(1, *cs)
    assert str(err.value) == text

