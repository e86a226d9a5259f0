"""Value semantics of the immutable value classes.

Equal instances hash equal, unequal ones differ, assigning or deleting a
field raises ``AttributeError``, and ``copy`` and ``pickle`` give back
an equal instance.
"""

import copy
import pickle

import pytest

from xiaofib.lattice import DivisorClass
from xiaofib.ledger import ClaimReport
from xiaofib.monodromy import Permutation
from xiaofib.numerology import CoverParams
from xiaofib.polynomials import UnivariatePoly

# (constructor, arguments, arguments of an unequal instance, one field name)
CASES = {
    "Permutation": (Permutation, ((1, 2, 0),), ((2, 0, 1),), "images"),
    "UnivariatePoly": (UnivariatePoly, ((1, 0, 3, 0),), ((1, 0, 3, 1),), "coeffs"),
    "DivisorClass": (DivisorClass, ((3, 3, -1),), ((3, -1, 3),), "coeffs"),
    "CoverParams": (CoverParams, (2, 5), (5, 2 ** 13 - 1), "p"),
    "ClaimReport": (ClaimReport, ("id", "anchor", "1", "1", "pass"),
                    ("id", "anchor", "1", "2", "fail"), "status"),
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


def test_repr_names_the_fields_and_omits_memos():
    p = Permutation((1, 0))
    p.order()
    assert repr(p) == "Permutation(images=(1, 0))"
    assert repr(CoverParams(2, 5)) == "CoverParams(g=2, p=5)"
