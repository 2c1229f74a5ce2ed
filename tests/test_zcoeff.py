"""Three routes to the Z coefficients and the Narayana specialization."""

from fractions import Fraction

import pytest

from klm import zcoeff
from klm.klcoeff import kl_poly
from klm.polyring import IntegrityError, Poly
from klm.zcoeff import (dyck_peak_counts, narayana_check, narayana_ratio,
                        verify_three_routes, z_alternating, z_diagonal_symbolic,
                        z_coefficient, z_from_kl, z_poly, z_positive)


def P(*coeffs) -> Poly:
    return Poly(tuple(Fraction(c) for c in coeffs))


def test_z_from_kl_examples():
    assert z_from_kl(1, 2) == P(1, 3, 1)
    assert z_from_kl(2, 3) == P(1, 10, 10, 1)
    assert z_from_kl(1, 3) == P(1, 6, 6, 1)


def test_kl_and_z_polynomials_have_int_coefficients():
    # c(m,d,i) and z(m,d,i) are integers, and the Polys carry them as ints.
    for m in range(1, 4):
        for d in range(1, 9):
            for p in (kl_poly(m, d), z_from_kl(m, d), z_poly(m, d)):
                assert p.coeffs and all(type(c) is int for c in p.coeffs), (m, d, p)


def test_z_alternating_examples():
    assert z_alternating(2, 3, 1) == 10
    assert z_alternating(1, 3, 1) == 6
    assert z_alternating(3, 4, 0) == 1
    with pytest.raises(ValueError):
        z_alternating(2, 3, 3)


def test_z_positive_examples():
    for m in range(1, 7):
        for d in range(1, 9):
            assert z_positive(m, d, d) == 1
            assert z_positive(m, d, 0) == 1
    assert z_positive(2, 3, 1) == 10


def test_z_from_kl_rejects_a_nonpositive_coefficient(monkeypatch):
    # With P = -1 for every k, Z_{U_{1,2}} = -1 - 3t + t^2.
    monkeypatch.setattr(zcoeff, "kl_poly", lambda m, k: P(-1))
    z_from_kl.cache_clear()
    zcoeff._kl_row.cache_clear()
    try:
        with pytest.raises(IntegrityError,
                           match=r"nonpositive Z coefficient z\(1,2,0\) = -1 via from_kl"):
            z_from_kl(1, 2)
    finally:
        z_from_kl.cache_clear()
        zcoeff._kl_row.cache_clear()


def test_z_coefficient_rejects_a_nonpositive_or_fractional_value(monkeypatch):
    monkeypatch.setattr(zcoeff, "z_positive", lambda m, d, i: Fraction(0))
    with pytest.raises(IntegrityError, match=r"nonpositive Z coefficient z\(2,3,1\) = 0 via positive"):
        z_coefficient(2, 3, 1)
    monkeypatch.setattr(zcoeff, "z_positive", lambda m, d, i: Fraction(21, 2))
    with pytest.raises(IntegrityError, match="expected an integer value, got 21/2"):
        z_coefficient(2, 3, 1)


@pytest.mark.parametrize("route", ["from_kl", "alternating", "positive"])
@pytest.mark.parametrize("i", [-1, 4, 5])
def test_z_coefficient_rejects_an_index_outside_0_to_d(route, i):
    with pytest.raises(ValueError, match=rf"Z coefficient index i={i} out of range \[0, 3\]"):
        z_coefficient(2, 3, i, route)


def test_z_coefficient_rejects_an_unknown_route():
    with pytest.raises(ValueError, match="unknown Z route 'guess'"):
        z_coefficient(2, 3, 1, "guess")


def test_three_route_agreement_small_grid():
    cert = verify_three_routes(4, 12)
    assert cert.passed, cert.witness


def test_z_poly_routes_agree():
    for route in ("from_kl", "alternating", "positive"):
        assert z_poly(2, 4, route) == z_from_kl(2, 4)


def test_palindromicity_observed():
    # Observational: computed Z-polynomials are palindromic on this grid.
    for m in range(1, 6):
        for d in range(1, 12):
            z = z_from_kl(m, d)
            assert z.coeffs == tuple(reversed(z.coeffs))


def test_diagonal_symbolic():
    for m in (1, 2, 5, 15):
        assert z_diagonal_symbolic(m)


def test_narayana_examples():
    assert z_from_kl(1, 1) == P(1, 1)
    assert z_from_kl(1, 2) == P(1, 3, 1)
    assert z_from_kl(1, 3) == P(1, 6, 6, 1)
    assert narayana_ratio(3, 1) == 6
    counts = dyck_peak_counts(4)
    assert counts == [1, 6, 6, 1]
    assert sum(dyck_peak_counts(5)) == 42  # Catalan number C_5


def brute_dyck_peak_counts(n: int) -> list[int]:
    """Reference: walk every Dyck path of semilength n, tallying it by peaks."""
    counts = [0] * n

    def walk(ups_left, downs_left, height, last_up, peaks):
        if ups_left == 0 and downs_left == 0:
            counts[peaks - 1] += 1
            return
        if ups_left:
            walk(ups_left - 1, downs_left, height + 1, True, peaks)
        if downs_left and height > 0:
            walk(ups_left, downs_left - 1, height - 1, False, peaks + (1 if last_up else 0))

    if n > 0:
        walk(n, n, 0, False, 0)
    return counts


def test_dyck_counts_match_the_path_walk():
    for n in range(11):
        assert dyck_peak_counts(n) == brute_dyck_peak_counts(n)


def test_narayana_certificate():
    cert = narayana_check(20)
    assert cert.passed, cert.witness
