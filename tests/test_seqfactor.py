"""The f/b coefficient sequences, falling-basis expansions, and G/Y/Q/R."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klm import seqfactor
from klm.arith import IntegrityError, binomial, falling_factorial
from klm.polyring import ONE, Poly, TDTable, X, render
from klm.seqfactor import (FAMILIES, SeqSpec, base_real_rooted_polys, diagonal_value,
                           expand_falling, fibonacci_poly, fibonacci_truncation,
                           gy_poly, kl_reformulation_check, qr_poly, seq_value)
from oracles import as_poly, symbolic_in_i, table_coeffs, to_falling_basis


def P(*coeffs) -> Poly:
    return Poly(tuple(Fraction(c) for c in coeffs))


def test_seq_spec_is_a_frozen_value():
    with pytest.raises(ValueError, match="family must be 'f' or 'b', got 'g'"):
        SeqSpec("g", 2)
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        SeqSpec(family="f", m=0)
    spec = SeqSpec("f", 3)
    assert spec == SeqSpec(family="f", m=3) and spec != SeqSpec("b", 3)
    assert repr(spec) == "SeqSpec(family='f', m=3)"
    # _make and _replace build through the same checks as the constructor.
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        spec._replace(m=0)
    with pytest.raises(ValueError, match="family must be 'f' or 'b', got 'g'"):
        SeqSpec._make(["g", 3])
    with pytest.raises(AttributeError):
        spec.m = 4
    with pytest.raises(AttributeError):
        spec.extra = 1


def test_a_fresh_seq_spec_hits_the_falling_memo():
    expand_falling(SeqSpec("f", 3))
    hits = expand_falling.cache_info().hits
    assert expand_falling(SeqSpec("f", 3)) == expand_falling(SeqSpec("f", 3))
    assert expand_falling.cache_info().hits == hits + 2


def test_seq_value_examples():
    f2 = SeqSpec("f", 2)
    # f_2(d,i) = 1 + (d+2)i/2 - i^2/2, here at d = 2.
    assert [seq_value(f2, 2, i) for i in range(3)] == [1, Fraction(5, 2), 3]
    assert seq_value(f2, 3, 3) == 4  # binom(4,1)
    for m in range(1, 7):
        for d in range(1, 9):
            assert diagonal_value(m, d) == binomial(m + d - 1, m - 1)
            assert seq_value(SeqSpec("b", m), d, d) == 1
    with pytest.raises(ValueError):
        seq_value(f2, 3, 4)


def test_seq_value_matches_quadratic_closed_form():
    f2 = SeqSpec("f", 2)
    for d in range(1, 12):
        for i in range(d + 1):
            assert seq_value(f2, d, i) == 1 + Fraction((d + 2) * i, 2) - Fraction(i * i, 2)


def test_expand_falling_examples():
    d = X
    gs = expand_falling(SeqSpec("f", 2))
    assert table_coeffs(gs) == [ONE, (d + 1) * Fraction(1, 2), as_poly(Fraction(-1, 2))]
    assert gs == TDTable([[2], [1, 1], [-1]], 2)
    ys = expand_falling(SeqSpec("b", 2))
    assert table_coeffs(ys) == [ONE, (d - 1) * Fraction(1, 2), as_poly(Fraction(-1, 2))]


def test_falling_basis_invariants():
    for family in ("f", "b"):
        for m in (1, 2, 3, 8, 15):
            gs = table_coeffs(expand_falling(SeqSpec(family, m)))
            assert len(gs) == 2 * (m - 1) + 1
            assert gs[0] == 1
            lead = Fraction((-1) ** (m - 1), factorial(m - 1) * factorial(m))
            assert gs[-1] == lead
            assert symbolic_in_i(SeqSpec(family, m)).degree == 2 * (m - 1)


def test_falling_round_trip():
    for family in ("f", "b"):
        for m in (1, 2, 3, 5):
            spec = SeqSpec(family, m)
            for d in range(1, 10):
                gs = [g.eval(Fraction(d)) for g in table_coeffs(expand_falling(spec))]
                for i in range(d + 1):
                    expansion = sum(g * falling_factorial(Fraction(i), k)
                                    for k, g in enumerate(gs))
                    assert expansion == seq_value(spec, d, i)


def test_gy_poly_examples():
    d = X
    g = gy_poly(SeqSpec("f", 2))
    assert render(g) == "1 + (d^2/2 + d/2)*t + (-d^2/2 + d/2)*t^2"
    y = gy_poly(SeqSpec("b", 2))
    assert render(y) == "1 + (d^2/2 - d/2)*t + (-d^2/2 + d/2)*t^2"
    assert gy_poly(SeqSpec("f", 2), 3) == P(1, 6, -3)
    # Symbolic and numeric paths agree pointwise.
    for dd in range(1, 8):
        num = gy_poly(SeqSpec("f", 3), dd)
        sym = gy_poly(SeqSpec("f", 3))
        assert num == Poly(tuple(c.eval(Fraction(dd)) for c in table_coeffs(sym)))
    assert g.coeff(1) == d * (d + 1) * Fraction(1, 2)


def test_numeric_gy_poly_rejects_d_below_one():
    for family in ("f", "b"):
        for d in (0, -2):
            with pytest.raises(ValueError, match=f"gy_poly requires d >= 1, got {d}"):
                gy_poly(SeqSpec(family, 2), d)


def test_qr_poly_examples():
    # Q_2 for m=2: coefficients f_2(2,i) * binom(2,i) = [1, 5, 3].
    assert qr_poly(SeqSpec("f", 2), 2) == P(1, 5, 3)
    for family in ("f", "b"):
        for m in (1, 2, 4):
            for d in range(1, 10):
                q = qr_poly(SeqSpec(family, m), d)
                assert q.coeff(0) == 1
    # Q_d(1) = sum_k g_k(d)(d)_k * 2^(d-k) relates G(1) to the diagonal:
    for m in (2, 3, 5):
        for d in range(1, 8):
            assert gy_poly(SeqSpec("f", m), d).eval(Fraction(1)) == diagonal_value(m, d)


def test_base_real_rooted_polys():
    assert fibonacci_truncation(4) == P(1, 2)
    assert fibonacci_poly(3) == P(1, 0, 1)
    kl_base, fib, z_base = base_real_rooted_polys(1, 2)
    assert z_base == P(4, 12, 4)
    assert fib == fibonacci_truncation(2)
    assert kl_base == P(binomial(4, 1) * binomial(1, 0))


def test_reformulation_certificate():
    cert = kl_reformulation_check(3, 10)
    assert cert.passed, cert.witness


def test_qr_poly_checks_its_factorization_against_gy_poly(monkeypatch):
    monkeypatch.setattr(seqfactor, "gy_poly", lambda spec, d=None: gy_poly(spec, d) + X)
    with pytest.raises(IntegrityError, match="factorization identity failed for f_3 at d=5"):
        qr_poly(SeqSpec("f", 3), 5)
    # A term past t^d, which no (1+t)^(d-k) row can hold, fails the check too.
    monkeypatch.setattr(seqfactor, "gy_poly", lambda spec, d=None: gy_poly(spec, d) + X ** (d + 1))
    with pytest.raises(IntegrityError, match="factorization identity failed for f_3 at d=5"):
        qr_poly(SeqSpec("f", 3), 5)


# seq_value and numeric gy_poly with one Fraction per term and at Fraction(d):
# references for seqfactor's common-denominator sums at the integer d.
def seq_value_per_term(spec, d, i):
    m = spec.m
    total = Fraction(0)
    for h in range(m):
        b_ih = 1 if h == 0 else binomial(i - 1 + h, h)
        b_dh = binomial(d - i + h, h)
        if spec.family == "f":
            total += (Fraction(1, (m - h) * binomial(m, h))
                      * binomial(i + m, m - h - 1) * b_ih * b_dh)
        else:
            total += Fraction(i * (h - m + 1) + m, (h + 1) * m) * b_ih * b_dh
    return total


def gy_poly_per_term(spec, d):
    return Poly(tuple(g.eval(Fraction(d)) * falling_factorial(Fraction(d), k)
                      for k, g in enumerate(table_coeffs(expand_falling(spec)))))


def test_seq_value_matches_its_per_term_sum_on_the_crosscheck_grid():
    # Both families over the reform and identities suites: m <= 10, d <= 24.
    for family in ("f", "b"):
        for m in range(1, 11):
            spec = SeqSpec(family, m)
            for d in range(1, 25):
                for i in range(d + 1):
                    assert seq_value(spec, d, i) == seq_value_per_term(spec, d, i), (spec, d, i)


def test_gy_poly_matches_its_fraction_evaluation_on_the_crosscheck_grid():
    # The identities suite's G_{m,d}(1) grid, m <= 10 and d <= 16, for G and Y.
    for family in ("f", "b"):
        for m in range(1, 11):
            spec = SeqSpec(family, m)
            for d in range(1, 17):
                assert gy_poly(spec, d) == gy_poly_per_term(spec, d), (spec, d)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("f", "b")), m=st.integers(1, 20), d=st.integers(1, 60),
       data=st.data())
def test_seq_value_matches_its_per_term_sum_past_the_grid(family, m, d, data):
    spec = SeqSpec(family, m)
    i = data.draw(st.integers(0, d))
    assert seq_value(spec, d, i) == seq_value_per_term(spec, d, i)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(("f", "b")), m=st.integers(1, 20), d=st.integers(1, 60))
def test_gy_poly_matches_its_fraction_evaluation_past_the_grid(family, m, d):
    spec = SeqSpec(family, m)
    assert gy_poly(spec, d) == gy_poly_per_term(spec, d)


def in_lowest_terms(table: TDTable) -> bool:
    """den >= 1 shares no factor with every entry, and no row, nor the
    table, ends in a zero."""
    rows = table.rows
    return (table.den >= 1 and gcd(table.den, *(c for row in rows for c in row)) == 1
            and all(row[-1] for row in rows if row) and (not rows or rows[-1] != ()))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), m=st.integers(1, 12), d=st.integers(1, 80))
def test_the_symbolic_table_evaluates_to_the_numeric_gy_poly(family, m, d):
    # The integer (t, d) table of G or Y, its derivative in t, and the falling
    # table it is built from, against the numeric kernels at one d.
    spec = SeqSpec(family, m)
    table = gy_poly(spec)
    at_d = Poly(tuple(c.eval(Fraction(d)) for c in table_coeffs(table)))
    assert at_d == gy_poly(spec, d) == gy_poly_per_term(spec, d)
    slope = Poly(tuple(c.eval(Fraction(d)) for c in table_coeffs(table.derivative())))
    assert slope == gy_poly(spec, d).derivative()
    assert table.degree == 2 * (m - 1)
    assert in_lowest_terms(table) and in_lowest_terms(table.derivative())
    assert in_lowest_terms(expand_falling(spec))


def test_expand_falling_matches_the_nested_fraction_expansion():
    # The integer (i, d) table against the defining sum expanded in nested
    # Fraction Polys and moved to the falling basis one coefficient at a time.
    for family in ("f", "b"):
        for m in range(1, 13):
            spec = SeqSpec(family, m)
            want = [as_poly(g) for g in to_falling_basis(symbolic_in_i(spec))]
            assert table_coeffs(expand_falling(spec)) == want, spec


def qr_poly_by_fraction_powers(spec, d):
    """sum_k g_{m,k}(d) (d)_k t^k (1+t)^(d-k), each power a Fraction Poly power."""
    alt = Poly()
    for k, c in enumerate(gy_poly(spec, d).coeffs):
        alt = alt + c * X ** k * (ONE + X) ** (d - k)
    return alt


def test_qr_poly_matches_its_fraction_power_expansion():
    # d below, at and past the degree 2(m-1) of G.
    for family in ("f", "b"):
        for m in (1, 3, 6):
            for d in (1, 2, 7, 10, 25, 40):
                spec = SeqSpec(family, m)
                assert qr_poly(spec, d) == qr_poly_by_fraction_powers(spec, d), (spec, d)
