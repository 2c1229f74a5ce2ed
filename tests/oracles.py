"""Independent exact oracles that only the tests use."""

import random
from fractions import Fraction
from math import factorial, lcm

from klm.arith import binomial, stirling2
from klm.polyring import Poly, TDTable, X, expand_binomial_affine


def as_poly(c) -> Poly:
    """A scalar as a constant Fraction Poly; a Poly passes through."""
    return c if isinstance(c, Poly) else Poly((Fraction(c),))


def as_table(p: Poly) -> TDTable:
    """A Poly in t whose coefficients are Polys in d (or scalars) as a TDTable:
    each row cleared by the lcm of every denominator."""
    rows = [as_poly(c).coeffs for c in p.coeffs]
    den = lcm(*(Fraction(c).denominator for row in rows for c in row))
    return TDTable(([int(c * den) for c in row] for row in rows), den)


def table_coeffs(table: TDTable) -> list[Poly]:
    """The t^k coefficients of a TDTable, k = 0..degree, as Polys in d."""
    return [table.coeff(k) for k in range(table.degree + 1)]


def degrees(rows: list[list]) -> list[list[int]]:
    """The degrees in d of a matrix of Polys in d and scalars (a zero at -1)."""
    return [[as_poly(e).degree for e in row] for row in rows]


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


def symbolic_in_i(spec) -> Poly:
    """The defining sum of f_m or b_m expanded as a polynomial in i whose
    coefficients are Fraction Polys in d (the nested-Fraction reference)."""
    m = spec.m
    i_var = X
    d_var = X  # the inner variable; kept distinct by nesting level
    total = Poly()
    for h in range(m):
        b_ih = expand_binomial_affine(i_var + (h - 1), h)
        # binom(d-i+h, h): affine in i with constant part d+h.
        b_dh = expand_binomial_affine(Poly((d_var + h, Fraction(-1))), h)
        if spec.family == "f":
            pref = expand_binomial_affine(i_var + m, m - h - 1) * Fraction(1, (m - h) * binomial(m, h))
        else:
            pref = Poly((Fraction(1, h + 1), Fraction(h - m + 1, (h + 1) * m)))
        total = total + pref * b_ih * b_dh
    return total


def to_falling_basis(p: Poly) -> list:
    """Coefficients g_k with p(x) = sum_k g_k (x)_k, via Stirling numbers."""
    n = p.degree
    if n < 0:
        return []
    out = [0] * (n + 1)
    for deg, c in enumerate(p.coeffs):
        if not c:
            continue
        for k in range(deg + 1):
            s = stirling2(deg, k)
            if s:
                out[k] = out[k] + c * s
    while out and not out[-1]:
        out.pop()
    return out


SYT_ENUMERATION_CAP = 8


def count_syt(shape) -> int:
    """Standard Young tableaux of the shape, by explicit backtracking.

    Independent of hook products; capped at n <= 8 as a desk-scale oracle.
    """
    if shape.n > SYT_ENUMERATION_CAP:
        raise ValueError(f"SYT enumeration capped at n <= {SYT_ENUMERATION_CAP}")
    parts = shape.parts
    fill = [0] * len(parts)  # cells already placed per row

    def place(value: int) -> int:
        if value > shape.n:
            return 1
        total = 0
        for r in range(len(parts)):
            c = fill[r]
            if c >= parts[r]:
                continue
            if r > 0 and fill[r - 1] <= c:
                continue
            fill[r] += 1
            total += place(value + 1)
            fill[r] -= 1
        return total

    return place(1)


def random_real_rooted(rng: random.Random, max_degree: int = 6) -> Poly:
    """Product of linear factors with small random rational roots."""
    deg = rng.randint(1, max_degree)
    p = Poly((Fraction(1),))
    for _ in range(deg):
        root = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if root == 0:
            root = Fraction(1)
        p = p * (X - root)
    return p
