"""Value semantics of the immutable value classes.

Equal instances hash equal, unequal ones differ, assigning or deleting a
field raises ``AttributeError``, and ``copy`` and ``pickle`` give back
an equal instance.
"""

import copy
import pickle

import pytest

from xiaofib.invariants import SurfaceProfile
from xiaofib.lattice import BranchClassResult, DivisorClass
from xiaofib.ledger import ClaimReport
from xiaofib.monodromy import Permutation
from xiaofib.numerology import ChevalleyWeil, CoverParams, FiberClass, Runs, XiaoReport
from xiaofib.polynomials import BiPoly, UnivariatePoly
from xiaofib.record import Record

# (constructor, arguments, arguments of an unequal instance, one field name)
CASES = {
    "Permutation": (Permutation, ((1, 2, 0),), ((2, 0, 1),), "images"),
    "UnivariatePoly": (UnivariatePoly, ((1, 0, 3, 0),), ((1, 0, 3, 1),), "coeffs"),
    "BiPoly": (BiPoly, ((UnivariatePoly((1, 2)), UnivariatePoly(()), UnivariatePoly((0, 3))),),
               ((UnivariatePoly((1, 2)), UnivariatePoly((0, 3))),), "y_coeffs"),
    "DivisorClass": (DivisorClass, ((3, 3, -1),), ((3, -1, 3),), "coeffs"),
    "CoverParams": (CoverParams, (2, 5), (5, 2 ** 13 - 1), "p"),
    "ClaimReport": (ClaimReport, ("id", "anchor", "1", "1", "pass"),
                    ("id", "anchor", "1", "2", "fail"), "status"),
    "FiberClass": (FiberClass, ("finite", 0), ("positive_dimensional", 0), "kind"),
    "XiaoReport": (XiaoReport, ("7/2", True, True, 4), ("7/2", True, False, 4), "meets_ceiling"),
    "Runs": (Runs, (((2, 1), (1, 4)),), (((2, 1), (1, 2)),), "runs"),
    "ChevalleyWeil": (ChevalleyWeil, (Runs(((2, 1), (1, 4))), 4, 2), (Runs(((2, 1), (1, 4))), 4, 3),
                      "sym2_invariant_dim"),
    "BranchClassResult": (BranchClassResult,
                          (DivisorClass((16, 16, -6)), DivisorClass((8, 8, -3)), ((3, 8), (-1, -3)),
                           DivisorClass((16, -6))),
                          (DivisorClass((16, 16, -6)), DivisorClass((8, 8, -2)), ((3, 8), (-1, -3)),
                           DivisorClass((16, -6))),
                          "half"),
    "SurfaceProfile": (SurfaceProfile, (0, 1, 9, 3, 0), (1, 1, 8, 4, 1), "K2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_classes_compare_by_value_and_are_immutable(name):
    cls, args, other_args, field = CASES[name]
    a, b, other = cls(*args), cls(*args), cls(*other_args)
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len({a, b, other}) == 2
    assert a != other and a != args
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert a == b and getattr(a, field) == getattr(b, field)
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and hash(clone) == hash(a)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("finite",), {}),  # too few fields
        (("finite", 0, 1), {}),  # too many fields
        (("finite", 0), {"rank": 1}),  # an unknown keyword
        (("finite",), {"_memo": 1, "dimension": 0}),  # a memo is not a field
        (("finite", 0), {"kind": "finite"}),  # a field by position and by keyword
    ],
)
def test_record_init_binds_fields_as_a_signature_would(args, kwargs):
    assert FiberClass("finite", dimension=0) == FiberClass(dimension=0, kind="finite") == FiberClass("finite", 0)
    with pytest.raises(TypeError, match=r"^FiberClass takes the fields \(kind, dimension\)"):
        FiberClass(*args, **kwargs)


def test_a_subclass_without_slots_of_its_own_keeps_its_bases_fields():
    class Base(Record):
        __slots__ = ("value", "_memo")

    class Derived(Base):
        __slots__ = ()

    assert Derived._fields == ("value",)
    assert Derived(1) == Derived(value=1) and hash(Derived(1)) == hash(Derived(1))
    assert Derived(1) != Derived(2) and len({Derived(1), Derived(2)}) == 2
    assert repr(Derived(2)).endswith("Derived(value=2)")


def test_repr_names_the_fields_and_omits_memos():
    p = Permutation((1, 0))
    p.order()
    assert repr(p) == "Permutation(images=(1, 0))"
    assert repr(CoverParams(2, 5)) == "CoverParams(g=2, p=5)"

