"""Property tests: Miller-Rabin primality against trial division."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import trial_division_is_odd_prime  # noqa: E402
from xiaofib.numerology import PRIMALITY_LIMIT, is_odd_prime  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.integers(-10, 10**10))
def test_primality_matches_trial_division(n):
    assert is_odd_prime(n) == trial_division_is_odd_prime(n)


@PROPERTY
@given(st.integers(3, 10**12), st.integers(3, 10**12))
def test_products_are_composite(a, b):
    assert a * b < PRIMALITY_LIMIT
    assert not is_odd_prime(a * b)
