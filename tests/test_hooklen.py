"""Hook lengths, irreducible dimensions, and the equivariant dimension sum."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klm import hooklen
from klm.hooklen import (Partition, c_equivariant_sum, check_hook_cell, dim_irrep,
                         equivariant_shape, first_row_hooks_piecewise, grid_cells,
                         hook_lengths, verify_equivariant_sum, verify_hook_factorizations)
from klm.klcoeff import c_positive
from oracles import SYT_ENUMERATION_CAP, count_syt


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 2)).n == 5


def test_partition_is_a_frozen_value():
    with pytest.raises(ValueError, match=r"partition parts must be positive, got \(2, 0\)"):
        Partition((2, 0))
    with pytest.raises(ValueError, match=r"partition parts must weakly decrease, got \(2, 3\)"):
        Partition(parts=(2, 3))
    shape = Partition((3, 2, 2))
    assert len(shape.parts) == 3 and len(Partition(()).parts) == 0
    assert shape._replace(parts=(4, 1)) == Partition((4, 1))
    assert Partition._make([(3, 2, 2)]) == shape and Partition._make([()]).parts == ()
    # _make and _replace build through the same checks as the constructor.
    with pytest.raises(ValueError, match=r"partition parts must weakly decrease, got \(2, 3\)"):
        shape._replace(parts=(2, 3))
    with pytest.raises(ValueError, match=r"partition parts must be positive, got \(0, -1\)"):
        Partition._make([(0, -1)])
    assert shape == Partition((3, 2, 2)) and shape != Partition((3, 2))
    assert hash(shape) == hash(Partition((3, 2, 2)))
    assert repr(shape) == "Partition(parts=(3, 2, 2))"
    with pytest.raises(AttributeError):
        shape.parts = (4,)
    with pytest.raises(AttributeError):
        shape.extra = 1


def test_hook_lengths_examples():
    assert hook_lengths(Partition((2, 1))) == [[3, 1], [1]]
    assert hook_lengths(Partition((5,))) == [[5, 4, 3, 2, 1]]
    assert hook_lengths(Partition((3, 2))) == [[4, 3, 1], [2, 1]]


def test_dim_irrep_examples():
    assert dim_irrep(Partition((2, 2))) == 2
    assert dim_irrep(Partition((3, 2))) == 5
    assert dim_irrep(Partition((7,))) == 1


def test_dim_matches_syt_enumeration():
    def partitions(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    for n in range(1, SYT_ENUMERATION_CAP + 1):
        for parts in partitions(n, n):
            shape = Partition(parts)
            assert dim_irrep(shape) == count_syt(shape)


def test_equivariant_shape_and_sum():
    assert equivariant_shape(2, 3, 1, 1) == Partition((3, 2))
    assert c_equivariant_sum(2, 3, 1) == 5
    assert c_equivariant_sum(1, 3, 1) == 2
    assert c_equivariant_sum(1, 5, 2) == 5
    assert c_equivariant_sum(1, 5, 2) == c_positive(1, 5, 2)


def test_first_row_piecewise():
    shape = equivariant_shape(2, 3, 1, 1)
    assert first_row_hooks_piecewise(2, 3, 1, 1) == hook_lengths(shape)[0]


def test_hook_factorization_grid():
    cert = verify_hook_factorizations(4, 10)
    assert cert.passed, cert.witness


def test_equivariant_sum_grid():
    cert = verify_equivariant_sum(3, 10)
    assert cert.passed, cert.witness


def test_a_wrong_first_row_closed_form_is_witnessed_as_a_fraction(monkeypatch):
    # At (m, d, i, h) = (2, 7, 1, 2) the first-row hooks of (6, 3) multiply to
    # 1260 = 6*7*5!/4.  With 5! read as 121 the closed form is 6*7*121/4.
    assert check_hook_cell(2, 7, 1, 2) is None
    monkeypatch.setattr(hooklen, "factorial", lambda n: math.factorial(n) + 1)
    witness = check_hook_cell(2, 7, 1, 2)
    assert witness["identity"] == "first-row product"
    assert (witness["product"], witness["closed_form"]) == (1260, "2541/2")


def test_every_equivariant_shape_on_the_hooks_grid_is_a_valid_partition():
    # equivariant_shape skips Partition's checks; the validating constructor
    # must accept every shape it builds on the crosscheck grid.
    for m, d, i, h in grid_cells(8, 24):
        shape = equivariant_shape(m, d, i, h)
        assert type(shape) is Partition and Partition(shape.parts) == shape, (m, d, i, h)


@given(st.lists(st.integers(1, 12), max_size=8))
def test_hook_lengths_are_arm_plus_leg_plus_one(parts):
    parts = tuple(sorted(parts, reverse=True))
    # arm: cells right of (r, c); leg: rows below r that reach column c.
    want = [[(p - c - 1) + sum(1 for q in parts[r + 1:] if q > c) + 1 for c in range(p)]
            for r, p in enumerate(parts)]
    assert hook_lengths(Partition(parts)) == want
