"""Independent exact oracles that only the tests use."""

from fractions import Fraction


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
