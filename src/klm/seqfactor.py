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
multiplied by the integer (d)_k.  The h-sum of f_m or b_m at numeric
arguments adds integer numerators over one denominator per family and m.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, lcm

from .arith import IntegrityError, binomial, falling_factorial, stirling2, sum_over_lcm
from .certificate import Certificate, grid_certificate
from .polyring import Poly, TDTable, horner
# klcoeff and zcoeff are imported where they are used: certify hurwitz-G/Y needs neither.

FAMILIES = ("f", "b")


class SeqSpec(namedtuple("SeqSpec", "family m")):
    """Which sequence family (f or b) at which m."""

    __slots__ = ()

    def __new__(cls, family: str, m: int):
        if family not in FAMILIES:
            raise ValueError(f"family must be 'f' or 'b', got {family!r}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return super().__new__(cls, family, m)

    @classmethod
    def _make(cls, fields):
        # namedtuple's own _make, which _replace calls, skips __new__'s checks.
        return cls(*fields)


def seq_value(spec: SeqSpec, d: int, i: int) -> Fraction:
    """Direct numeric evaluation of f_m(d,i) or b_m(d,i).

    The h-th term's denominator is (m-h) binom(m,h) for f and (h+1) m for
    b, so the sum is over lcm_h((m-h) binom(m,h)) resp. lcm(1..m) m.
    """
    if not 0 <= i <= d:
        raise ValueError(f"sequence index i={i} out of range [0, {d}]")
    m = spec.m
    terms = []
    for h in range(m):
        b_ih = 1 if h == 0 else binomial(i - 1 + h, h)
        b_dh = binomial(d - i + h, h)
        if spec.family == "f":
            terms.append((binomial(i + m, m - h - 1) * b_ih * b_dh, (m - h) * binomial(m, h)))
        else:
            terms.append(((i * (h - m + 1) + m) * b_ih * b_dh, (h + 1) * m))
    return sum_over_lcm(terms)


def _times_linear(p: list[int], c: int, a: int = 1) -> list[int]:
    """The integer polynomial p (ascending) times a x + c."""
    out = [0] * (len(p) + 1)
    for n, e in enumerate(p):
        out[n] += c * e
        out[n + 1] += a * e
    return out


@lru_cache(maxsize=None)
def expand_falling(spec: SeqSpec) -> TDTable:
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
    m = spec.m
    terms = []
    for h in range(m):
        a_h = reduce(_times_linear, range(h), [1])  # (i-1+h)_h
        if spec.family == "f":
            a_h = reduce(_times_linear, range(h + 2, m + 1), a_h)  # (i+m)_{m-h-1}
            den = (m - h) * binomial(m, h) * factorial(m - h - 1) * factorial(h) ** 2
        else:
            a_h = _times_linear(a_h, m, h - m + 1)
            den = (h + 1) * m * factorial(h) ** 2
        rising = reduce(_times_linear, range(1, h + 1), [1])  # (u+1)...(u+h)
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


def gy_poly(spec: SeqSpec, d: int | None = None) -> Poly | TDTable:
    """G_{m,d}(t) (family f) or Y_{m,d}(t) (family b).

    With d None the result is symbolic: a TDTable whose row k holds
    g_{m,k}(d) (d)_k in d.  A numeric d must be at least 1; there each
    row of expand_falling is evaluated at d in integers and multiplied by
    the integer (d)_k over the table's denominator.
    """
    if d is not None and d < 1:
        raise ValueError(f"gy_poly requires d >= 1, got {d}")
    gs = expand_falling(spec)
    if d is not None:
        return Poly(Fraction(horner(g, d) * falling_factorial(d, k), gs.den)
                    for k, g in enumerate(gs.rows))
    # Row k times (d)_k = d (d - 1) ... (d - k + 1).
    return TDTable((reduce(_times_linear, range(0, -k, -1), g)
                    for k, g in enumerate(gs.rows)), gs.den)


def qr_poly(spec: SeqSpec, d: int) -> Poly:
    """Q_d(t) (family f) or R_d(t) (family b) at the given d.

    Also verifies the exact factorization
    Q_d(t) = sum_k g_{m,k}(d) (d)_k t^k (1+t)^{d-k}, which is how the
    d-sequence test reduces to G_{m,d}, with g_{m,k}(d) (d)_k read from
    ``gy_poly(spec, d)``: (d)_k vanishes for k > d, so G has no such term.
    """
    if d < 1:
        raise ValueError(f"qr_poly requires d >= 1, got {d}")
    q = Poly(tuple(seq_value(spec, d, i) * binomial(d, i) for i in range(d + 1)))
    # The t^j coefficient of t^k (1+t)^(d-k) is the integer binom(d-k, j-k).
    gs = gy_poly(spec, d).coeffs
    alt = Poly(tuple(sum(c * comb(d - k, j - k) for k, c in enumerate(gs[:j + 1]))
                     for j in range(d + 1)))
    if len(gs) > d + 1 or alt != q:
        raise IntegrityError(
            f"factorization identity failed for {spec.family}_{spec.m} at d={d}")
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
    top = (d - 1) // 2
    kl_base = Poly(tuple(Fraction(binomial(d + 2 * m, i + m) * binomial(d - i - 1, i))
                         for i in range(top + 1)))
    fib_trunc = fibonacci_truncation(d)
    z_base = Poly(tuple(Fraction(binomial(d + 2 * m, i + m) * binomial(d, i))
                        for i in range(d + 1)))
    return kl_base, fib_trunc, z_base


def fibonacci_truncation(d: int) -> Poly:
    """sum_i binom(d-i-1, i) t^i, the ascending companion of F_d."""
    return Poly(tuple(Fraction(binomial(d - i - 1, i)) for i in range((d - 1) // 2 + 1)))


def fibonacci_poly(d: int) -> Poly:
    """The Fibonacci polynomial F_d(t) = sum_i binom(d-i-1, i) t^{d-2i-1}."""
    if d < 1:
        raise ValueError(f"fibonacci_poly requires d >= 1, got {d}")
    coeffs = [Fraction(0)] * d
    for i in range((d - 1) // 2 + 1):
        coeffs[d - 2 * i - 1] = Fraction(binomial(d - i - 1, i))
    return Poly(coeffs)


def kl_reformulation_check(m_max: int, d_max: int, jobs: int = 1) -> Certificate:
    """Check the f/b reformulations of the KL, then the Z, coefficients of each (m, d)."""
    from .klcoeff import max_index
    from .zcoeff import grid_cells
    cells = [(side, m, d, i) for m, d in grid_cells(m_max, d_max)
             for side, top in (("kl", max_index(d)), ("z", d)) for i in range(top + 1)]
    return grid_certificate(f"reformulation m<={m_max} d<={d_max}",
                            check_reformulation_at, cells, jobs)


def check_reformulation_at(side: str, m: int, d: int, i: int) -> dict | None:
    """One coefficient of the reformulation check; None means both sides agree.

    side "kl": c(m,d,i) binom(d+2m,m) = binom(d+2m,i+m) binom(d-i-1,i) f_m(d,i);
    side "z":  z(m,d,i) binom(d+2m,m) = binom(d+2m,i+m) binom(d,i)     b_m(d,i).

    z is read from the KL polynomials (the from_kl route): the positive closed
    form is b_m(d,i)'s own h-sum times binomials, so it would test only a
    binomial identity.
    """
    from .klcoeff import kl_coefficient
    from .zcoeff import z_coefficient
    if side == "kl":
        lhs, choose, family = kl_coefficient(m, d, i), binomial(d - i - 1, i), "f"
    else:
        lhs, choose, family = z_coefficient(m, d, i, "from_kl"), binomial(d, i), "b"
    lhs *= binomial(d + 2 * m, m)
    rhs = binomial(d + 2 * m, i + m) * choose * seq_value(SeqSpec(family, m), d, i)
    if lhs != rhs:
        return {"side": side, "m": m, "d": d, "i": i, "lhs": str(lhs), "rhs": str(rhs)}
    return None


def diagonal_value(m: int, d: int) -> Fraction:
    """f_m(d,d), which collapses to binom(m+d-1, m-1)."""
    return seq_value(SeqSpec("f", m), d, d)


def verify_diagonal_identities(m_max: int, d_max: int, jobs: int = 1) -> Certificate:
    """f_m(d,d) = binom(m+d-1, m-1) and G_{m,d}(1) equals the same value."""
    from .zcoeff import grid_cells
    return grid_certificate(f"diagonal-identities m<={m_max} d<={d_max}", check_diagonal_at,
                            grid_cells(m_max, d_max), jobs, {"m_max": m_max, "d_max": d_max})


def check_diagonal_at(m: int, d: int) -> dict | None:
    """The two diagonal identities at one (m, d); None means both hold."""
    want = binomial(m + d - 1, m - 1)
    got = diagonal_value(m, d)
    at_one = sum(gy_poly(SeqSpec("f", m), d).coeffs)
    if got != want or at_one != want:
        return {"m": m, "d": d, "f_diagonal": str(got), "G_at_1": str(at_one), "binomial": want}
    return None
