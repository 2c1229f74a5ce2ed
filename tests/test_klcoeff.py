"""Four independent routes to the KL coefficients and the proof identities."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klm import klcoeff
from klm.arith import binomial
from klm.klcoeff import (c_alternating, c_hook_form, c_positive, c_recursive,
                         hook_summand, hook_term, kl_coefficient, kl_poly, max_index,
                         p_sum, q_sum, verify_four_routes, verify_proof_identities)
from klm.polyring import IntegrityError, Poly

from oracles import multinomial


def test_c_recursive_examples():
    assert c_recursive(1, 1, 0) == 1
    for m in range(1, 11):
        for d in range(1, 11):
            assert c_recursive(m, d, 0) == 1
    assert c_recursive(1, 3, 1) == 2


def test_c_recursive_range_check():
    with pytest.raises(ValueError):
        c_recursive(1, 3, 2)
    with pytest.raises(ValueError):
        c_recursive(0, 3, 0)


def test_c_hook_form_examples():
    assert c_hook_form(2, 3, 1) == 5
    assert c_hook_form(1, 3, 1) == 2
    assert c_hook_form(4, 4, 1) == c_hook_form(4, 4, 1, extended_bound=True)
    with pytest.raises(ValueError):
        c_hook_form(2, 3, 0)


def test_c_alternating_examples():
    assert c_alternating(1, 1, 0) == 1
    assert c_alternating(2, 3, 1) == 5
    assert c_alternating(3, 7, 2) == c_recursive(3, 7, 2)


def test_c_positive_examples():
    assert c_positive(1, 5, 2) == 5
    assert c_positive(2, 3, 1) == 5
    for m in range(1, 8):
        for d in range(1, 8):
            assert c_positive(m, d, 0) == 1


def test_kl_poly_examples():
    assert kl_poly(1, 3) == Poly((Fraction(1), Fraction(2)))
    assert kl_poly(2, 3) == Poly((Fraction(1), Fraction(5)))
    assert kl_poly(1, 5) == Poly((Fraction(1), Fraction(9), Fraction(5)))


def test_kl_poly_rejects_nonpositive_indices():
    for m, d in ((2, 0), (0, 3)):
        with pytest.raises(ValueError, match="uniform matroid indices must be positive"):
            kl_poly(m, d)


def test_kl_poly_degree_and_constant_term():
    for m in range(1, 6):
        for d in range(1, 12):
            p = kl_poly(m, d)
            assert p.degree <= max_index(d)
            assert p.coeff(0) == 1
            assert all(c > 0 and c.denominator == 1 for c in p.coeffs)


def test_extended_bound_invariance_grid():
    for m in range(1, 6):
        for d in range(1, 14):
            for i in range(1, max_index(d) + 1):
                assert c_hook_form(m, d, i) == c_hook_form(m, d, i, extended_bound=True)


def test_route_dispatch():
    for route in ("recursive", "hook", "alternating", "positive"):
        assert kl_coefficient(2, 5, 1, route) == 28
    with pytest.raises(ValueError):
        kl_coefficient(2, 5, 1, "guess")


def test_kl_coefficient_rejects_a_negative_or_fractional_route_value(monkeypatch):
    monkeypatch.setitem(klcoeff.ROUTES, "positive", lambda m, d, i: Fraction(-3))
    with pytest.raises(IntegrityError, match=r"negative KL coefficient c\(2,5,1\) = -3 via positive"):
        kl_coefficient(2, 5, 1)
    monkeypatch.setitem(klcoeff.ROUTES, "positive", lambda m, d, i: Fraction(7, 2))
    with pytest.raises(IntegrityError, match="expected an integer value, got 7/2"):
        kl_coefficient(2, 5, 1)


def test_four_route_agreement_small_grid():
    cert = verify_four_routes(4, 12)
    assert cert.passed, cert.witness


def test_proof_identity_examples():
    assert p_sum(1, 5, 2) - q_sum(1, 5, 2) == 1
    # m=1 base case at (d=7, i=3): both normalized forms give binom(4,4)/4.
    from klm.klcoeff import f_normalized_alternating, f_normalized_hook
    base = Fraction(binomial(4, 4), 4)
    assert f_normalized_alternating(1, 7, 3) == base
    assert f_normalized_hook(1, 7, 3) == base


def test_proof_identities_grid():
    cert = verify_proof_identities(3, 9)
    assert cert.passed, cert.witness


def inv_factorial(n: int) -> Fraction:
    """1/n! with the paper's convention 1/(negative)! = 0."""
    return Fraction(1, factorial(n)) if n >= 0 else Fraction(0)


def test_inv_factorial_convention():
    assert inv_factorial(3) == Fraction(1, 6)
    assert inv_factorial(0) == 1
    assert inv_factorial(-2) == 0


def p_sum_inv_factorial(m, d, i):
    """p_m as the paper writes it: a product of 1/k! factors, 1/(negative)! = 0."""
    return sum((h * (-1) ** (i + h + 1) * factorial(d - h - i + m - 1)
                * inv_factorial(h + i) * inv_factorial(m - h) * inv_factorial(d - 2 * i - h)
                for h in range(1, m + 1) if d - h - i + m - 1 >= 0), Fraction(0))


def q_sum_inv_factorial(m, d, i):
    """q_m as the paper writes it, in the same 1/k! convention."""
    return sum(((-1) ** (j + 1) * (i - j) * factorial(m + d - i)
                * Fraction(1, (i + m) * (j + m))
                * inv_factorial(j) * inv_factorial(d - i - j) * inv_factorial(m - 1)
                for j in range(i + 1)), Fraction(0))


def test_p_and_q_sums_match_their_inv_factorial_form():
    # The proof grid of the benchmark's identities suite: m <= 10, d <= 16.
    for d in range(1, 17):
        for i in range(max_index(d) + 1):
            for m in range(1, 11):
                assert p_sum(m, d, i) == p_sum_inv_factorial(m, d, i), (m, d, i)
                assert q_sum(m, d, i) == q_sum_inv_factorial(m, d, i), (m, d, i)
    # Past the grid, where d - i - j and d - 2i - h go negative.
    for m, d, i in ((1, 3, 2), (3, 4, 3), (2, 5, 4), (4, 6, 6)):
        assert p_sum(m, d, i) == p_sum_inv_factorial(m, d, i)
        assert q_sum(m, d, i) == q_sum_inv_factorial(m, d, i)


def test_multinomial_examples():
    assert multinomial(4, [2, 0, 2]) == 6
    assert multinomial(7, [7]) == 1
    assert multinomial(3, [1, 1, 1]) == 6
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])


def test_multinomial_is_iterated_binomial():
    for n in range(21):
        for a in range(n + 1):
            for b in range(n - a + 1):
                c = n - a - b
                assert multinomial(n, [a, b, c]) == binomial(n, a) * binomial(n - a, b)


def test_recursion_term_is_the_multinomial():
    # c_recursive writes multinomial(m+d; m+k, i+j-k, d-i-j) as
    # binom(m+d, d-i-j) binom(m+i+j, m+k) over its whole index range.
    for m in range(1, 9):
        for d in range(1, 31):
            for i in range(max_index(d) + 1):
                for j in range(i):
                    for k in range(2 * j + 1, i + j + 1):
                        assert (binomial(m + d, d - i - j) * binomial(m + i + j, m + k)
                                == multinomial(m + d, (m + k, i + j - k, d - i - j)))


def c_recursive_multinomial(m, d, i):
    """The defining recursion with one multinomial per term, unmemoised."""
    total = (-1) ** i * binomial(m + d, i)
    for j in range(i):
        for k in range(2 * j + 1, i + j + 1):
            total += ((-1) ** (i + j + k) * multinomial(m + d, (m + k, i + j - k, d - i - j))
                      * c_recursive_multinomial(m, k, j))
    return total


def test_c_recursive_matches_its_multinomial_form():
    for m in range(1, 6):
        for d in range(1, 17):
            for i in range(max_index(d) + 1):
                assert c_recursive(m, d, i) == c_recursive_multinomial(m, d, i), (m, d, i)


# The closed forms with one Fraction per term: references for the sums that
# klcoeff adds as integer numerators over one common denominator.
def c_alternating_per_term(m, d, i):
    total = Fraction(0)
    for h in range(1, m + 1):
        total += (Fraction((-1) ** (h + 1) * h, d - h - i + m)
                  * binomial(d - h - i + m, d - 2 * i - h)
                  * binomial(m + i, m - h))
    return binomial(d + m, i) * total


def hook_summand_per_term(m, d, i, h):
    e = m + d - i - h
    return Fraction((e - i - h + 1) * factorial(m + d),
                    e * (e + 1) * (i + h) * (i + h - 1)
                    * factorial(e - i) * factorial(h - 1) * factorial(i) * factorial(i - 1))


def c_hook_form_per_term(m, d, i, extended_bound=False):
    top = m if extended_bound else min(m, d - 2 * i)
    return sum((hook_summand_per_term(m, d, i, h) for h in range(1, top + 1)), Fraction(0))


def assert_closed_forms_match_per_term(m, d, i):
    assert c_alternating(m, d, i) == c_alternating_per_term(m, d, i), (m, d, i)
    if i >= 1:
        for extended in (False, True):
            assert (c_hook_form(m, d, i, extended)
                    == c_hook_form_per_term(m, d, i, extended)), (m, d, i, extended)
        for h in range(1, m + 1):
            assert hook_summand(m, d, i, h) == hook_summand_per_term(m, d, i, h)
            assert Fraction(*hook_term(m, d, i, h)) == hook_summand_per_term(m, d, i, h)


def test_closed_forms_match_their_per_term_sums_on_the_formulas_grid():
    # The benchmark's formulas suite: m <= 8, d <= 30.
    for m in range(1, 9):
        for d in range(1, 31):
            for i in range(max_index(d) + 1):
                assert_closed_forms_match_per_term(m, d, i)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 20), d=st.integers(1, 60), data=st.data())
def test_closed_forms_match_their_per_term_sums_past_the_grid(m, d, data):
    i = data.draw(st.integers(0, max_index(d)))
    assert_closed_forms_match_per_term(m, d, i)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 20), d=st.integers(1, 60), data=st.data())
def test_p_and_q_sums_match_their_inv_factorial_form_past_the_grid(m, d, data):
    i = data.draw(st.integers(0, max_index(d)))
    assert p_sum(m, d, i) == p_sum_inv_factorial(m, d, i)
    assert q_sum(m, d, i) == q_sum_inv_factorial(m, d, i)
