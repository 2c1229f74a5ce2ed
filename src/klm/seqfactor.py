"""The coefficient sequences f_m(d,i) and b_m(d,i) and their transforms.

f_m carries the KL coefficients through c = binom(d+2m,i+m) binom(d-i-1,i)
f_m(d,i) / binom(d+2m,m); b_m plays the same role for the Z-polynomial.
Both are polynomials in i of degree 2(m-1); expanding them in the falling
factorial basis produces g_{m,k}(d) resp. y_{m,k}(d), and from those the
polynomials G_{m,d}(t), Y_{m,d}(t) whose real-rootedness drives the
d-sequence argument, alongside Q_d(t) and R_d(t).

The h-sum of f_m or b_m has one copy, ``seq_sum``, which adds integer
numerators over one denominator per family and m; ``seq_value``,
``zcoeff.z_positive`` and the symbolic expansion all read it.  That expansion
is integer and exact: seq_sum is a polynomial in (d, i), of degree at most
m - 1 in d and 2(m - 1) in i, so its forward differences in i at i = 0 are
k! g_{m,k}(d) at each d, and each g_{m,k} is interpolated in d from a grid of
d = 0..m - 1.  One point past each bound, at i = 2m - 1 and at d = m, must
agree, or the expansion raises IntegrityError.  The g_{m,k}(d) are the rows
of one TDTable.  The symbolic G and Y are that table with row k times (d)_k;
at an integer d its rows are evaluated and multiplied by the integer (d)_k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial

from . import certificate, klcoeff, zcoeff
from .polyring import (IntegrityError, Poly, TDTable, binomial, exact_str, falling_factorial,
                       forward_differences, horner, interpolate_steps, times_linear)

FAMILIES = ("f", "b")


def _check_family(family: str, m: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"family must be 'f' or 'b', got {family!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def seq_sum(family: str, m: int, d: int, i: int) -> tuple[int, int]:
    """The defining h-sum of f_m(d,i) or b_m(d,i), 0 <= i <= d, as (numerator,
    denominator).  The h-th term is binom(i-1+h, h) binom(d-i+h, h) times
    binom(i+m, m-h-1) / ((m-h) binom(m,h)) for f, whose denominators divide m!,
    and (i(h-m+1) + m) / ((h+1) m) for b, whose denominators divide m m!.
    A family other than f or b, or an m below 1, is a ValueError.

    On every integer d and every i >= 0, d < i too, the numerator is one
    polynomial in (d, i) over a fixed denominator: each binomial is the
    generalized one, exact at every step.  Its degree is at most m - 1 in d,
    which only binom(d-i+h, h) with h < m reads, and at most 2(m - 1) in i.
    """
    _check_family(family, m)
    f = family == "f"
    den = factorial(m) if f else m * factorial(m)
    num = 0
    b_ih_dh = 1  # binom(i-1+h, h) binom(d-i+h, h), 1 at h = 0 even when i = 0
    for h in range(m):
        if h:  # binom(n+h, h) = binom(n+h-1, h-1) (n+h) / h, exact for each factor
            b_ih_dh = b_ih_dh * (i - 1 + h) * (d - i + h) // (h * h)
        if f:
            num += comb(i + m, m - h - 1) * b_ih_dh * (den // ((m - h) * comb(m, h)))
        else:
            num += (i * (h - m + 1) + m) * b_ih_dh * (den // ((h + 1) * m))
    return num, den


def seq_value(family: str, m: int, d: int, i: int) -> Fraction:
    """Direct numeric evaluation of f_m(d,i) or b_m(d,i), from ``seq_sum``."""
    if not 0 <= i <= d:
        raise ValueError(f"sequence index i={i} out of range [0, {d}]")
    return Fraction(*seq_sum(family, m, d, i))


@lru_cache(maxsize=None)
def expand_falling(family: str, m: int) -> TDTable:
    """Falling-factorial coefficients g_{m,k}(d) (family f) or y_{m,k}(d) (family b),
    as the rows k of one integer table in d over one denominator.

    They are read off ``seq_sum`` within its bounds: with n = 2(m - 1), the
    forward differences at i = 0 of its numerators in i = 0..n + 1, at each
    d = 0..m, are k! den g_{m,k}(d), and the (n + 1)-th must vanish; each
    g_{m,k} is interpolated from d = 0..m - 1 and must take its value at
    d = m.  A miss is an IntegrityError naming the family, m and the variable.
    """
    _check_family(family, m)
    n = 2 * (m - 1)
    den = seq_sum(family, m, 0, 0)[1]
    diffs = [forward_differences([seq_sum(family, m, d, i)[0] for i in range(n + 2)])
             for d in range(m + 1)]
    for d, row in enumerate(diffs):
        if row[-1]:
            raise IntegrityError(f"{family}_{m} has degree above {n} in i at d = {d}")
    rows = []
    for k in range(n + 1):
        nums, fact = interpolate_steps([row[k] for row in diffs[:-1]])
        if horner(nums, m) != diffs[m][k] * fact:
            raise IntegrityError(f"g_{k} of {family}_{m} has degree above {m - 1} in d")
        # Row k over den (m - 1)! k! is g_{m,k}; scaled by n! / k!, all share one denominator.
        scale = factorial(n) // factorial(k)
        rows.append([c * scale for c in nums])
    return TDTable(rows, den * fact * factorial(n))


def gy_poly(family: str, m: int, d: int | None = None) -> Poly | TDTable:
    """G_{m,d}(t) (family f) or Y_{m,d}(t) (family b).

    With d None the result is symbolic: a TDTable whose row k holds
    g_{m,k}(d) (d)_k in d.  A numeric d must be at least 1; there each
    row of expand_falling is evaluated at d in integers and multiplied by
    the integer (d)_k over the table's denominator.
    """
    if d is not None and d < 1:
        raise ValueError(f"gy_poly requires d >= 1, got {d}")
    gs = expand_falling(family, m)
    if d is not None:
        return Poly(Fraction(horner(g, d) * falling_factorial(d, k), gs.den)
                    for k, g in enumerate(gs.rows))
    # Row k times (d)_k = d (d - 1) ... (d - k + 1).
    return TDTable((reduce(times_linear, range(0, -k, -1), g)
                    for k, g in enumerate(gs.rows)), gs.den)


def qr_poly(family: str, m: int, d: int) -> Poly:
    """Q_d(t) (family f) or R_d(t) (family b) at the given d.

    Also verifies the exact factorization
    Q_d(t) = sum_k g_{m,k}(d) (d)_k t^k (1+t)^{d-k}, which is how the
    d-sequence test reduces to G_{m,d}, with g_{m,k}(d) (d)_k read from
    ``gy_poly(family, m, d)``: (d)_k vanishes for k > d, so G has no such term.
    """
    if d < 1:
        raise ValueError(f"qr_poly requires d >= 1, got {d}")
    q = Poly(tuple(seq_value(family, m, d, i) * binomial(d, i) for i in range(d + 1)))
    # The t^j coefficient of t^k (1+t)^(d-k) is the integer binom(d-k, j-k).
    gs = gy_poly(family, m, d).coeffs
    alt = Poly(tuple(sum(c * comb(d - k, j - k) for k, c in enumerate(gs[:j + 1]))
                     for j in range(d + 1)))
    if len(gs) > d + 1 or alt != q:
        raise IntegrityError(
            f"factorization identity failed for {family}_{m} at d={d}")
    return q


def base_real_rooted_polys(m: int, d: int) -> tuple[Poly, Poly, Poly]:
    """The three base polynomials whose real-rootedness is already known.

    Returns (KL base, Fibonacci truncation, Z base):
      sum binom(d+2m,i+m) binom(d-i-1,i) t^i,
      sum binom(d-i-1,i) t^i,
      sum binom(d+2m,i+m) binom(d,i) t^i.
    The overall 1/binom(d+2m,m) normalization is omitted; it moves no zeros.
    """
    if m < 1 or d < 1:
        raise ValueError("base polynomials require m, d >= 1")
    fib_trunc = fibonacci_truncation(d)
    kl_base = Poly(tuple(binomial(d + 2 * m, i + m) * c for i, c in enumerate(fib_trunc.coeffs)))
    z_base = Poly(tuple(Fraction(binomial(d + 2 * m, i + m) * binomial(d, i))
                        for i in range(d + 1)))
    return kl_base, fib_trunc, z_base


def fibonacci_truncation(d: int) -> Poly:
    """sum_i binom(d-i-1, i) t^i, the ascending companion of F_d."""
    return Poly(tuple(Fraction(binomial(d - i - 1, i)) for i in range(klcoeff.max_index(d) + 1)))


def fibonacci_poly(d: int) -> Poly:
    """The Fibonacci polynomial F_d(t) = sum_i binom(d-i-1, i) t^{d-2i-1}."""
    if d < 1:
        raise ValueError(f"fibonacci_poly requires d >= 1, got {d}")
    coeffs = [Fraction(0)] * d
    for i, c in enumerate(fibonacci_truncation(d).coeffs):
        coeffs[d - 2 * i - 1] = c
    return Poly(coeffs)


def kl_reformulation_check(m_max: int, d_max: int, jobs: int = 1) -> certificate.Certificate:
    """Check the f/b reformulations of the KL, then the Z, coefficients of each (m, d)."""
    cells = [(side, m, d, i) for m, d in zcoeff.grid_cells(m_max, d_max)
             for side, top in (("kl", klcoeff.max_index(d)), ("z", d)) for i in range(top + 1)]
    return certificate.grid_certificate(f"reformulation m<={m_max} d<={d_max}",
                                        check_reformulation_at, cells, jobs)


def check_reformulation_at(side: str, m: int, d: int, i: int) -> dict | None:
    """One coefficient of the reformulation check; None means both sides agree.

    side "kl": c(m,d,i) binom(d+2m,m) = binom(d+2m,i+m) binom(d-i-1,i) f_m(d,i);
    side "z":  z(m,d,i) binom(d+2m,m) = binom(d+2m,i+m) binom(d,i)     b_m(d,i).

    z is read from the KL polynomials (the from_kl route): the positive closed
    form is ``seq_sum``'s b_m(d,i) times binomials, so it would test only a
    binomial identity.
    """
    if side == "kl":
        lhs, choose, family = klcoeff.kl_coefficient(m, d, i), binomial(d - i - 1, i), "f"
    else:
        lhs, choose, family = zcoeff.z_coefficient(m, d, i, "from_kl"), binomial(d, i), "b"
    lhs *= binomial(d + 2 * m, m)
    rhs = binomial(d + 2 * m, i + m) * choose * seq_value(family, m, d, i)
    if lhs != rhs:
        return {"side": side, "m": m, "d": d, "i": i, "lhs": exact_str(lhs),
                "rhs": exact_str(rhs)}
    return None


def diagonal_value(m: int, d: int) -> Fraction:
    """f_m(d,d), which collapses to binom(m+d-1, m-1)."""
    return seq_value("f", m, d, d)


def verify_diagonal_identities(m_max: int, d_max: int, jobs: int = 1) -> certificate.Certificate:
    """f_m(d,d) = binom(m+d-1, m-1) and G_{m,d}(1) equals the same value."""
    return certificate.grid_certificate(f"diagonal-identities m<={m_max} d<={d_max}",
                                        check_diagonal_at, zcoeff.grid_cells(m_max, d_max),
                                        jobs, {"m_max": m_max, "d_max": d_max})


def check_diagonal_at(m: int, d: int) -> dict | None:
    """The two diagonal identities at one (m, d); None means both hold."""
    want = binomial(m + d - 1, m - 1)
    got = diagonal_value(m, d)
    at_one = sum(gy_poly("f", m, d).coeffs)
    if got != want or at_one != want:
        return {"m": m, "d": d, "f_diagonal": exact_str(got), "G_at_1": exact_str(at_one),
                "binomial": want}
    return None
