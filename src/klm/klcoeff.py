"""Kazhdan-Lusztig coefficients of uniform matroids by four independent routes.

Writing P_{U_{m,d}}(t) = sum_i c(m,d,i) t^i with deg < d/2, the four routes
are the defining recursion on the coefficients, the hook-length closed form,
an alternating closed form, and a manifestly positive closed form.  All
routes compute in exact rationals and must agree on the nose.  ``ROUTES``
is the one list of them: ``kl_coefficient`` indexes it, ``compare_routes_at``
compares its entries at one (m, d, i), ``verify_four_routes`` runs that over
a grid, and its keys are the CLI's route choices and CSV columns.

Each formula has one copy: the alternating form is (-1)^i binom(d+m, i) times
the proof sum p_m of ``p_sum``, and ``positive_term`` serves the positive form
and the proof identities.  The recursion runs in integers; the hook form, p_m
and q_m add integer numerators over the lcm of their denominators and build
one Fraction at the end (``arith.sum_over_lcm``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .arith import IntegrityError, as_integer, binomial, sum_over_lcm
from .certificate import Certificate, grid_certificate
from .polyring import Poly

def max_index(d: int) -> int:
    """Largest coefficient index of P_{U_{m,d}}: floor((d-1)/2)."""
    return (d - 1) // 2


def _check_range(m: int, d: int, i: int) -> None:
    if m < 1 or d < 1:
        raise ValueError(f"uniform matroid indices must be positive, got m={m}, d={d}")
    if not 0 <= i <= max_index(d):
        raise ValueError(f"coefficient index i={i} out of range [0, {max_index(d)}] for d={d}")


@lru_cache(maxsize=None)
def c_recursive(m: int, d: int, i: int) -> int:
    """Defining recursion for c(m,d,i), memoized over the (k, j) triangle.

    The multinomial (m+d)! / ((m+k)! (i+j-k)! (d-i-j)!) of each term is
    written binom(m+d, d-i-j) binom(m+i+j, m+k), and the first factor is
    taken once per j.  Every index is in range by construction: j < i <= (d-1)/2
    and 2j < k <= i+j.
    """
    _check_range(m, d, i)
    total = (-1) ** i * comb(m + d, i)
    for j in range(i):
        inner = 0
        for k in range(2 * j + 1, i + j + 1):
            term = comb(m + i + j, m + k) * c_recursive(m, k, j)
            inner += -term if k % 2 else term
        total += (-1) ** (i + j) * comb(m + d, d - i - j) * inner
    return total


def c_hook_form(m: int, d: int, i: int, extended_bound: bool = False) -> Fraction:
    """Hook-length closed form, summing over h = 1..min(m, d-2i).

    With extended_bound the sum runs to h = m instead; the tail terms
    cancel pairwise under h <-> s-h, so both bounds give equal values.
    Only defined for i >= 1 (the formula contains (i-1)!).
    """
    _check_range(m, d, i)
    if i < 1:
        raise ValueError("hook-form route requires i >= 1; use another route for i = 0")
    top = m if extended_bound else min(m, d - 2 * i)
    return sum_over_lcm(hook_term(m, d, i, h) for h in range(1, top + 1))


def hook_term(m: int, d: int, i: int, h: int) -> tuple[int, int]:
    """The h-th summand of the hook-length form of c(m,d,i) as (numerator,
    denominator), with e = m+d-i-h:

    (e-i-h+1) (m+d)! / (e (e+1) (i+h) (i+h-1) (e-i)! (h-1)! i! (i-1)!).
    """
    e = m + d - i - h
    return ((e - i - h + 1) * factorial(m + d),
            e * (e + 1) * (i + h) * (i + h - 1)
            * factorial(e - i) * factorial(h - 1) * factorial(i) * factorial(i - 1))


def hook_summand(m: int, d: int, i: int, h: int) -> Fraction:
    """The h-th summand of the hook-length form of c(m,d,i) as a Fraction."""
    return Fraction(*hook_term(m, d, i, h))


def c_alternating(m: int, d: int, i: int) -> Fraction:
    """Alternating closed form for c(m,d,i): (-1)^i binom(d+m, i) p_m(d,i),
    with the alternating h-sum p_m of ``p_sum``."""
    _check_range(m, d, i)
    return (-1) ** i * binomial(d + m, i) * p_sum(m, d, i)


def positive_term(d: int, i: int, h: int) -> int:
    """binom(d-i+h, h+i+1) binom(i-1+h, h), the second factor 1 at h = 0 even
    when i = 0: the positive form's h-th term, and the proof identities' base
    case (h = 0) and telescoping step (h = m)."""
    return binomial(d - i + h, h + i + 1) * (binomial(i - 1 + h, h) if h else 1)


def c_positive(m: int, d: int, i: int) -> Fraction:
    """Manifestly positive closed form for c(m,d,i), binom(d+m, i) / (d-i)
    times the sum of positive_term over h < m."""
    _check_range(m, d, i)
    return Fraction(binomial(d + m, i) * sum(positive_term(d, i, h) for h in range(m)), d - i)


# Route name -> c(m,d,i) as a Fraction, or None where the route states no
# formula (hook at i = 0).  Each entry looks its formula up at call time, so
# a patched module function is the one that runs.
ROUTES = {
    "recursive": lambda m, d, i: Fraction(c_recursive(m, d, i)),
    "hook": lambda m, d, i: c_hook_form(m, d, i) if i >= 1 else None,
    "alternating": lambda m, d, i: c_alternating(m, d, i),
    "positive": lambda m, d, i: c_positive(m, d, i),
}


def kl_coefficient(m: int, d: int, i: int, route: str = "positive") -> int:
    """c(m,d,i) by the requested route, checked to be a nonnegative integer.

    Where the route states no formula, the positive form stands in.  A value
    that is not a nonnegative integer raises IntegrityError.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {tuple(ROUTES)}")
    value = ROUTES[route](m, d, i)
    value = as_integer(ROUTES["positive"](m, d, i) if value is None else value)
    if value < 0:
        raise IntegrityError(f"negative KL coefficient c({m},{d},{i}) = {value} via {route}")
    return value


def kl_poly(m: int, d: int, route: str = "positive") -> Poly:
    """P_{U_{m,d}}(t) assembled from the requested coefficient route, with
    int coefficients."""
    _check_range(m, d, 0)
    return Poly(tuple(kl_coefficient(m, d, i, route) for i in range(max_index(d) + 1)))


# -- proof-internal identities ------------------------------------------------


# Each term of p_sum and q_sum is an integer over a product of factorials,
# and each sum adds its numerators over the lcm of those products.  A term
# with a negative factorial argument is skipped: the paper's sums take
# 1/(negative)! = 0.
def p_sum(m: int, d: int, i: int) -> Fraction:
    """The alternating h-sum p_m from the recursion-consistency proof."""
    return sum_over_lcm(
        ((-1) ** (i + h + 1) * h * factorial(d - h - i + m - 1),
         factorial(h + i) * factorial(m - h) * factorial(d - 2 * i - h))
        for h in range(1, m + 1) if d - h - i + m - 1 >= 0 and d - 2 * i - h >= 0)


def q_sum(m: int, d: int, i: int) -> Fraction:
    """The alternating j-sum q_m paired with p_m; p_m - q_m = 1."""
    return sum_over_lcm(
        ((-1) ** (j + 1) * (i - j) * factorial(m + d - i),
         (i + m) * (j + m) * factorial(j) * factorial(d - i - j) * factorial(m - 1))
        for j in range(min(i, d - i) + 1))


def f_normalized_alternating(m: int, d: int, i: int) -> Fraction:
    """c(m,d,i)/binom(d+m,i) computed from the alternating form."""
    return c_alternating(m, d, i) / binomial(d + m, i)


def f_normalized_hook(m: int, d: int, i: int) -> Fraction:
    """c(m,d,i)/binom(d+m,i) computed from the extended hook form (i >= 1)."""
    return c_hook_form(m, d, i, extended_bound=True) / binomial(d + m, i)


def verify_proof_identities(m_max: int, d_max: int, jobs: int = 1) -> Certificate:
    """Exhaustively check the hypergeometric identities behind the closed forms.

    A pass counts the checks: m_max per (d, i), plus 2(m_max - 1) when i >= 1.
    """
    cells = [(m_max, d, i) for d in range(1, d_max + 1) for i in range(max_index(d) + 1)]
    checked = sum(m_max + (2 * (m_max - 1) if i >= 1 else 0) for _, _, i in cells)
    return grid_certificate(f"proof-identities m<={m_max} d<={d_max}",
                            check_proof_identities_at, cells, jobs, {"checked": checked})


def check_proof_identities_at(m_max: int, d: int, i: int) -> dict | None:
    """The proof identities at one (d, i) for m <= m_max; None means they hold.

    (a) p_m - q_m = 1;
    (b) the normalized coefficient f = c/binom(d+m,i), in both the
        alternating and the hook form, satisfies the telescoping step
        f_{m+1} - f_m = binom(d-i+m, m+i+1) binom(i-1+m, m) / (d-i);
    (c) the base case f_1 = binom(d-i, i+1) / (d-i).
    """
    for m in range(1, m_max + 1):
        if p_sum(m, d, i) - q_sum(m, d, i) != 1:
            return {"identity": "p_m - q_m = 1", "m": m, "d": d, "i": i,
                    "p": str(p_sum(m, d, i)), "q": str(q_sum(m, d, i))}
    if i < 1:
        return None
    base = Fraction(positive_term(d, i, 0), d - i)
    for form, fn in (("alternating", f_normalized_alternating), ("hook", f_normalized_hook)):
        f = {m: fn(m, d, i) for m in range(1, m_max + 1)}
        if f[1] != base:
            return {"identity": "f_1 base case", "form": form, "d": d, "i": i,
                    "got": str(f[1]), "want": str(base)}
        for m in range(1, m_max):
            step = Fraction(positive_term(d, i, m), d - i)
            if f[m + 1] - f[m] != step:
                return {"identity": "recurrence difference", "form": form,
                        "m": m, "d": d, "i": i,
                        "difference": str(f[m + 1] - f[m]), "want": str(step)}
    return None


def grid_cells(m_max: int, d_max: int) -> list[tuple[int, int, int]]:
    """Every coefficient (m, d, i) with m <= m_max and d <= d_max, in grid order."""
    return [(m, d, i) for m in range(1, m_max + 1)
            for d in range(1, d_max + 1) for i in range(max_index(d) + 1)]


def verify_four_routes(m_max: int, d_max: int, jobs: int = 1) -> Certificate:
    """Grid agreement of all four routes, including both hook-form bounds.

    Runs ``compare_routes_at`` on every cell of ``grid_cells(m_max, d_max)``,
    in jobs worker processes when jobs > 1.  It passes with {"checked": the
    number of coefficients}, or fails with the first disagreeing cell in
    grid order.
    """
    return grid_certificate(f"four-route-agreement m<={m_max} d<={d_max}",
                            compare_routes_at, grid_cells(m_max, d_max), jobs)


def compare_routes_at(m: int, d: int, i: int) -> dict | None:
    """One grid cell of the four-route check, with the hook form at both of
    its bounds; None means agreement."""
    values = {route: formula(m, d, i) for route, formula in ROUTES.items()}
    if i >= 1:
        values["hook_extended"] = c_hook_form(m, d, i, extended_bound=True)
    ref = values["recursive"]
    if ref.denominator != 1 or ref < 0:
        return {"m": m, "d": d, "i": i, "reason": "not a nonnegative integer",
                "value": str(ref)}
    for route, val in values.items():
        if val is not None and val != ref:
            return {"m": m, "d": d, "i": i, "route": route,
                    "value": str(val), "recursive": str(ref)}
    return None
