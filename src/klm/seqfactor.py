"""The coefficient sequences f_m(d,i) and b_m(d,i) and their transforms.

f_m carries the KL coefficients through c = binom(d+2m,i+m) binom(d-i-1,i)
f_m(d,i) / binom(d+2m,m); b_m plays the same role for the Z-polynomial.
Both are polynomials in i of degree 2(m-1); expanding them in the falling
factorial basis produces g_{m,k}(d) resp. y_{m,k}(d), and from those the
polynomials G_{m,d}(t), Y_{m,d}(t) whose real-rootedness drives the
d-sequence argument, alongside Q_d(t) and R_d(t).

The expansion is symbolic and integer: the defining h-sum becomes one
table of integer coefficients of i^n d^a over a common denominator, and the
Stirling numbers S(n, k) move each column to the falling basis in i, giving
the g_{m,k}(d) as the rows of one TDTable.  The symbolic G and Y are that
table with row k times (d)_k; at an integer d its rows are evaluated and
multiplied by the integer (d)_k.  At numeric arguments the h-sum of f_m or
b_m has one copy, ``seq_sum``, which adds integer numerators over one
denominator per family and m; ``seq_value`` and ``zcoeff.z_positive`` read it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, lcm

from . import certificate, klcoeff, zcoeff
from .polyring import (IntegrityError, Poly, TDTable, binomial, exact_str, falling_factorial,
                       horner, stirling2, times_linear)

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

    The defining h-sum is expanded in (i, d).  With u = d - i its h-th term is
    A_h(i) (u+1)(u+2)...(u+h) / E_h, where A_h has integer coefficients:
      f: A_h = (i+m)_{m-h-1} (i-1+h)_h,   E_h = (m-h) binom(m,h) (m-h-1)! h!^2;
      b: A_h = (i(h-m+1) + m) (i-1+h)_h,  E_h = (h+1) m h!^2.
    Each u^r = sum_a binom(r,a) d^a (-i)^(r-a) lands in one integer table of
    i^n d^a over D = lcm_h E_h; i^n = sum_k S(n,k) (i)_k moves each d^a
    column to the falling basis, and g_{m,k} is row k of the result over D.
    """
    _check_family(family, m)
    terms = []
    for h in range(m):
        a_h = reduce(times_linear, range(h), [1])  # (i-1+h)_h
        if family == "f":
            a_h = reduce(times_linear, range(h + 2, m + 1), a_h)  # (i+m)_{m-h-1}
            den = (m - h) * binomial(m, h) * factorial(m - h - 1) * factorial(h) ** 2
        else:
            a_h = times_linear(a_h, m, h - m + 1)
            den = (h + 1) * m * factorial(h) ** 2
        rising = reduce(times_linear, range(1, h + 1), [1])  # (u+1)...(u+h)
        terms.append((a_h, rising, den))
    common = lcm(*(den for _, _, den in terms))
    table = [[0] * m for _ in range(max(len(a) + len(u) - 1 for a, u, _ in terms))]
    for a_h, rising, den in terms:
        scale = common // den
        for r, c in enumerate(rising):
            for a in range(r + 1):
                w = (-1) ** (r - a) * scale * c * comb(r, a)
                for n, e in enumerate(a_h, r - a):
                    table[n][a] += w * e
    return TDTable(([sum(stirling2(n, k) * table[n][a] for n in range(k, len(table)))
                     for a in range(m)] for k in range(len(table))), common)


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
