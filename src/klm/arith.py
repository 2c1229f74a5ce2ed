"""Exact integer and rational kernels shared by every other module.

All quantities in this package are computed over arbitrary-precision
integers (Python ``int``) and normalized rationals (``fractions.Fraction``);
no floating point enters any computation path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterable


class IntegrityError(RuntimeError):
    """An internal cross-check that should never fail has failed."""


def binomial(n: int, k: int) -> int:
    """Binomial coefficient n choose k.

    Out-of-range k (k < 0 or k > n) returns 0, matching the summation
    convention the closed-form coefficient formulas rely on.  Negative n
    is a usage error; generalized binomials in a parameter live in
    :mod:`klm.polyring`.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def sum_over_lcm(terms: Iterable[tuple[int, int]]) -> Fraction:
    """sum(num/den) over (num, den) pairs with positive integer den.

    The numerators are added in integers over the lcm of the denominators,
    and the one Fraction is built at the end, so the sum pays one gcd
    instead of one per term.
    """
    terms = list(terms)
    common = lcm(*(den for _, den in terms))
    return Fraction(sum(num * (common // den) for num, den in terms), common)


def falling_factorial(x, k: int):
    """Falling factorial (x)_k = x (x-1) ... (x-k+1); empty product is 1.

    x may be an int, a Fraction or a Poly.
    """
    if k < 0:
        raise ValueError(f"falling_factorial requires k >= 0, got k={k}")
    out = 1
    for j in range(k):
        out = out * (x - j)
    return out


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k).

    Satisfies the basis change x^n = sum_k S(n, k) (x)_k.
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 requires nonnegative arguments, got ({n}, {k})")
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def as_integer(x) -> int:
    """Coerce a computed integer-valued rational to int.

    A computed value that is not an integer is an internal fault, not bad
    input, so it raises IntegrityError.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise IntegrityError(f"expected an integer value, got {x}")
        return x.numerator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
