"""Integer and rational combinatorial kernels."""

import math
from fractions import Fraction

import pytest

from klm.arith import (IntegrityError, as_integer, binomial, falling_factorial, stirling2,
                       sum_over_lcm)


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(7, 9) == 0
    assert binomial(6, 3) == math.factorial(6) // (math.factorial(3) ** 2)
    assert binomial(4, -1) == 0


def test_binomial_negative_n_is_usage_error():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_exhaustive():
    for n in range(1, 65):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_falling_factorial_examples():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(Fraction(7, 3), 0) == 1
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert all(stirling2(n, n) == 1 for n in range(10))
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0


def test_stirling2_falling_factorial_identity():
    for num in range(-5, 11):
        x = Fraction(num)
        for n in range(11):
            total = sum(stirling2(n, k) * falling_factorial(x, k)
                        for k in range(n + 1))
            assert total == x ** n


def test_as_integer():
    assert as_integer(Fraction(10, 2)) == 5
    with pytest.raises(IntegrityError, match="expected an integer value, got 1/2"):
        as_integer(Fraction(1, 2))


def test_sum_over_lcm():
    assert sum_over_lcm([(1, 2), (1, 3), (-1, 6)]) == Fraction(2, 3)
    assert sum_over_lcm([(3, 4), (-6, 8)]) == 0
    assert sum_over_lcm([]) == 0
    terms = [(n, d) for n in range(-4, 5) for d in range(1, 7)]
    assert sum_over_lcm(terms) == sum((Fraction(n, d) for n, d in terms), Fraction(0))
