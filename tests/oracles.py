"""Independent exact oracles that only the tests use."""

from fractions import Fraction
from math import factorial


def det_cofactor(rows: list[list]):
    """Cofactor-expansion determinant of a square matrix of scalars or Polys."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    out = 0
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        out = out + sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return out


def multinomial(n: int, parts) -> int:
    """Multinomial coefficient n! / prod(parts!), parts summing to n."""
    if n < 0:
        raise ValueError(f"multinomial requires n >= 0, got n={n}")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to n={n}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out
