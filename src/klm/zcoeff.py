"""Z-polynomial coefficients of uniform matroids by three routes.

Z_{U_{m,d}}(t) = sum_i z(m,d,i) t^i is assembled from the KL polynomials,
or computed coefficientwise by an alternating closed form and by a positive
closed form.  ``ROUTES`` is the one list of them: ``z_coefficient`` and
``z_poly`` index it, ``compare_routes_at`` compares its entries on one
Z_{U_{m,d}}, ``verify_three_routes`` runs that over a grid, and its keys are
the CLI's CSV columns.  The positive form reads b_m(d,i) from its one h-sum,
``seqfactor.seq_sum``; the m = 1 column specializes to Narayana polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import certificate, seqfactor
from .klcoeff import kl_poly
from .polyring import (ONE, IntegrityError, Poly, X, as_integer, binomial, exact_str,
                       falling_factorial)


def _check_range(m: int, d: int, i: int) -> None:
    if m < 1 or d < 1:
        raise ValueError(f"uniform matroid indices must be positive, got m={m}, d={d}")
    if not 0 <= i <= d:
        raise ValueError(f"Z coefficient index i={i} out of range [0, {d}]")


def _positive_integer(m: int, d: int, i: int, value, route: str) -> int:
    """value as an int, or IntegrityError if it is not a positive integer."""
    value = as_integer(value)
    if value <= 0:
        raise IntegrityError(f"nonpositive Z coefficient z({m},{d},{i}) = {value} via {route}")
    return value


# Memoised: every Z_{U_{m,d}} with d >= k reads P_{U_{m,k}}.
@lru_cache(maxsize=None)
def _kl_row(m: int, k: int) -> tuple[int, ...]:
    """The integer coefficients of P_{U_{m,k}}."""
    return kl_poly(m, k).coeffs


# Memoised: the from_kl route reads Z one coefficient at a time.
@lru_cache(maxsize=None)
def z_from_kl(m: int, d: int) -> Poly:
    """Z_{U_{m,d}}(t) = t^d + sum_k binom(d+m, k+m) t^{d-k} P_{U_{m,k}}(t),
    with int coefficients, each checked to be positive."""
    _check_range(m, d, 0)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    for k in range(1, d + 1):
        pref = binomial(d + m, k + m)
        for j, c in enumerate(_kl_row(m, k)):
            coeffs[d - k + j] += pref * c
    return Poly([_positive_integer(m, d, i, c, "from_kl") for i, c in enumerate(coeffs)])


def z_alternating(m: int, d: int, i: int) -> Fraction:
    """Alternating closed form for z(m,d,i); i = d is a convention, not a value."""
    _check_range(m, d, i)
    if i == d:
        raise ValueError("z_alternating is stated for i <= d-1; z(m,d,d) = 1 by convention")
    # The h-sum over its common denominator m, then one division.  Every
    # index is valid here (d - i - h + m - 1 >= 0 as i < d, h <= m), so
    # math.comb needs no range checks.
    total = 0
    for h in range(1, m + 1):
        total += (-1) ** (h + 1) * h * comb(i + m, m - h) * comb(d - i - h + m - 1, m - 1)
    return Fraction(comb(d + 2 * m, i + m) * comb(d, i) * total, comb(d + 2 * m, m) * m)


def z_positive(m: int, d: int, i: int) -> Fraction:
    """Positive closed form for z(m,d,i), valid on the full range 0 <= i <= d:
    binom(d+m, i+m) binom(d+m, i) b_m(d,i) / binom(d+m, m), with b_m(d,i)
    read from ``seqfactor.seq_sum``."""
    _check_range(m, d, i)
    num, den = seqfactor.seq_sum("b", m, d, i)
    return Fraction(comb(d + m, i + m) * comb(d + m, i) * num, comb(d + m, m) * den)


# Route name -> z(m,d,i) as a Fraction, or an int from from_kl; the
# alternating form is stated for i < d, and z(m,d,d) = 1 by convention.  Each
# entry looks its formula up at call time, so a patched module function is
# the one that runs.
ROUTES = {
    "from_kl": lambda m, d, i: z_from_kl(m, d).coeff(i),
    "alternating": lambda m, d, i: Fraction(1) if i == d else z_alternating(m, d, i),
    "positive": lambda m, d, i: z_positive(m, d, i),
}


def z_coefficient(m: int, d: int, i: int, route: str = "positive") -> int:
    """z(m,d,i) by the requested route, checked to be a positive integer."""
    if route not in ROUTES:
        raise ValueError(f"unknown Z route {route!r}; expected one of {tuple(ROUTES)}")
    _check_range(m, d, i)
    return _positive_integer(m, d, i, ROUTES[route](m, d, i), route)


def z_poly(m: int, d: int, route: str = "positive") -> Poly:
    """Z_{U_{m,d}}(t) assembled from the requested coefficient route, with
    int coefficients."""
    return Poly(tuple(z_coefficient(m, d, i, route) for i in range(d + 1)))


def grid_cells(m_max: int, d_max: int) -> list[tuple[int, int]]:
    """Every (m, d) with m <= m_max and d <= d_max, in grid order."""
    return [(m, d) for m in range(1, m_max + 1) for d in range(1, d_max + 1)]


def verify_three_routes(m_max: int, d_max: int, jobs: int = 1) -> certificate.Certificate:
    """Grid agreement of the three Z routes plus the z^0 = z^d = 1 boundary.

    Runs ``compare_routes_at`` on every cell of ``grid_cells(m_max, d_max)``,
    in jobs worker processes when jobs > 1.  A cell is one polynomial
    Z_{U_{m,d}} with all its coefficients, so a pass carries {"checked":
    m_max * d_max}; a failure carries the first disagreeing cell in grid
    order.
    """
    return certificate.grid_certificate(f"z-three-route-agreement m<={m_max} d<={d_max}",
                                        compare_routes_at, grid_cells(m_max, d_max), jobs)


def compare_routes_at(m: int, d: int) -> dict | None:
    """One (m,d) cell of the three-route check; None means agreement."""
    z = z_from_kl(m, d)
    if z.coeff(0) != 1 or z.coeff(d) != 1:
        return {"m": m, "d": d, "reason": "boundary z^0 = z^d = 1 violated",
                "z0": exact_str(z.coeff(0)), "zd": exact_str(z.coeff(d))}
    for i in range(d + 1):
        ref = z.coeff(i)
        if ref.denominator != 1 or ref <= 0:
            return {"m": m, "d": d, "i": i, "reason": "not a positive integer",
                    "value": exact_str(ref)}
        values = {route: formula(m, d, i) for route, formula in ROUTES.items()}
        if any(val != ref for val in values.values()):
            return {"m": m, "d": d, "i": i,
                    **{route: exact_str(val) for route, val in values.items()}}
    return None


def z_diagonal_symbolic(m: int) -> bool:
    """Check z(m,d,d) = 1 as an exact polynomial identity in d.

    At i = d the prefactor of the positive form is identically 1, so the
    claim reduces to sum_h ((d(h-m+1)+m)/((h+1)m)) * binom(d-1+h, h) = 1
    as a polynomial in d; this reproduces the telescoping computation.
    """
    total = Poly()
    for h in range(m):
        # binom(d-1+h, h) expanded as a polynomial in d.
        b = falling_factorial(X + (h - 1), h) * Fraction(1, factorial(h)) if h else ONE
        linear = X * Fraction(h - m + 1, (h + 1) * m) + Fraction(m, (h + 1) * m)
        total = total + linear * b
    return total == 1


# -- Narayana specialization ---------------------------------------------------


def narayana_ratio(d: int, i: int) -> int:
    """Narayana number binom(d+1, i+1) binom(d+1, i) / (d+1)."""
    val = Fraction(binomial(d + 1, i + 1) * binomial(d + 1, i), d + 1)
    return as_integer(val)


def dyck_peak_counts(n: int) -> list[int]:
    """Counts of Dyck paths of semilength n by number of peaks.

    Entry k-1 counts the paths with k peaks.  The paths are counted by the
    step recursion (an up step, or a down step above the axis, which ends a
    peak after an up step), memoised on (ups left, downs left, height, last
    step up): each state's completions are counted once, by the number of
    peaks they add.
    """
    memo: dict[tuple[int, int, int, bool], list[int]] = {}

    def walk(ups_left: int, downs_left: int, height: int, last_up: bool) -> list[int]:
        # Entry p counts the completions from this state that add p peaks.
        key = (ups_left, downs_left, height, last_up)
        if key not in memo:
            by_peaks = [0] * (n + 1)
            if ups_left == 0 and downs_left == 0:
                by_peaks[0] = 1
            if ups_left:
                for p, c in enumerate(walk(ups_left - 1, downs_left, height + 1, True)):
                    by_peaks[p] += c
            if downs_left and height > 0:
                peak = 1 if last_up else 0
                tail = walk(ups_left, downs_left - 1, height - 1, False)
                # No path has more than n peaks, so the dropped entries are 0.
                for p, c in enumerate(tail[:n + 1 - peak]):
                    by_peaks[p + peak] += c
            memo[key] = by_peaks
        return memo[key]

    return walk(n, n, 0, False)[1:] if n > 0 else []


# The Dyck-path oracle covers d up to here.  Its count is a memoised step
# recursion, not an enumeration, so it could go further; the cap stays because
# every narayana witness records it as "enumerated_up_to".
DYCK_ENUMERATION_CAP = 12


def narayana_check(d_max: int, jobs: int = 1) -> certificate.Certificate:
    """Certify Z_{U_{1,d}} against two independent Narayana oracles.

    The closed ratio covers every d <= d_max; the Dyck-path count by peaks
    additionally covers d <= DYCK_ENUMERATION_CAP.
    """
    cells = [(d, d <= DYCK_ENUMERATION_CAP) for d in range(1, d_max + 1)]
    return certificate.grid_certificate(
        f"narayana z(1,d) d<={d_max}", check_narayana_at, cells, jobs,
        {"d_max": d_max, "enumerated_up_to": min(d_max, DYCK_ENUMERATION_CAP)})


def check_narayana_at(d: int, enumerate_paths: bool) -> dict | None:
    """Z_{U_{1,d}} against the Narayana ratio, and against the Dyck-path
    count when enumerate_paths; None means every coefficient agrees."""
    z = z_from_kl(1, d)
    for i in range(d + 1):
        want = narayana_ratio(d, i)
        if z.coeff(i) != want:
            return {"d": d, "i": i, "z": exact_str(z.coeff(i)), "narayana_ratio": want}
    if enumerate_paths:
        # Z_{U_{1,d}} coefficient i is the count of Dyck paths of
        # semilength d+1 with i+1 peaks.
        counts = dyck_peak_counts(d + 1)
        for i in range(d + 1):
            if z.coeff(i) != counts[i]:
                return {"d": d, "i": i, "z": exact_str(z.coeff(i)), "dyck_peak_count": counts[i]}
    return None
