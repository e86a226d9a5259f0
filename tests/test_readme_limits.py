"""Each number README.md states for an input limit equals the constant that enforces it.

Every statement of the form "`module.NAME` = number" is read back and
compared with the constant, and each limit must be stated at least once,
so the test fails when either side drifts or a statement goes.
"""

import re
from pathlib import Path

from xiaofib import errors, monodromy, numerology, quartic

README = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").split())
MODULES = {"errors": errors, "monodromy": monodromy, "numerology": numerology, "quartic": quartic}
LIMITS = {
    "errors.DEFAULT_MAX_GROUP_ORDER", "errors.MAX_GROUP_CELLS", "errors.ELEMENT_OVERHEAD",
    "monodromy.MAX_BRANCH_POINTS", "numerology.GENUS_LIMIT", "numerology.PRIMALITY_LIMIT",
    "quartic.MAX_FORM_DEGREE",
}
# limits README states in a sentence of their own: pattern -> the constants its numbers name
PHRASED = {
    r"`--max-group-order N` \(default (\d+)\)": ("errors.DEFAULT_MAX_GROUP_ORDER",),
    r"budget of (\d+) x \((\d+) \+ (\d+)\) cells": (
        "errors.DEFAULT_MAX_GROUP_ORDER", "errors.DEFAULT_MAX_GROUP_ORDER", "errors.ELEMENT_OVERHEAD"),
    r"degree at most (\d+) \(`quartic\.MAX_FORM_DEGREE`\)": ("quartic.MAX_FORM_DEGREE",),
}


def number(text: str) -> int:
    """A README numeral: digits, or a power written ``a^b``."""
    base, _, exponent = text.partition("^")
    return int(base) ** int(exponent) if exponent else int(base)


def constant(name: str) -> int:
    module, _, attribute = name.partition(".")
    return getattr(MODULES[module], attribute)


def test_every_stated_limit_equals_its_constant():
    stated = set()
    for module, attribute, value in re.findall(r"`(\w+)\.([A-Z_]+)` = ([0-9^]+)", README):
        name = f"{module}.{attribute}"
        assert number(value) == constant(name), name
        stated.add(name)
    for pattern, names in PHRASED.items():
        found = re.findall(pattern, README)
        assert found, pattern
        for values in found:
            values = (values,) if isinstance(values, str) else values
            assert [number(v) for v in values] == [constant(name) for name in names], pattern
        stated.update(names)
    assert stated == LIMITS
