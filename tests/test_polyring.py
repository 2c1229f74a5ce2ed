"""Dense exact polynomial ring, basis changes, and parametric determinants."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from klm.polyring import (ONE, Poly, TDTable, X, cleared, det_fraction, det_parametric,
                          exact_str, expand_binomial_affine, falling_factorial, interpolate,
                          leading_minors, minor_degree_bound, poly_gcd, primitive, render,
                          render_in_d, squarefree_part, times_linear)
from oracles import as_poly, degrees, det_cofactor, to_falling_basis


def P(*coeffs) -> Poly:
    return Poly(tuple(Fraction(c) for c in coeffs))


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(lambda c: P(*c))

# Scalar coefficients as ints or Fractions, and Polys of them one level down.
scalars = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=5, min_value=-6,
                                                     max_value=6))
mixed_polys = st.lists(st.one_of(scalars, st.lists(scalars, max_size=3).map(Poly)),
                       max_size=5).map(Poly)


def all_fraction(c):
    """c with every scalar, nested ones too, made a Fraction."""
    return Poly(tuple(map(all_fraction, c.coeffs))) if isinstance(c, Poly) else Fraction(c)


def test_ring_op_examples():
    assert P(1, 5).eval(Fraction(-1, 5)) == 0
    assert P(1, 3, 0, 1).derivative() == P(3, 0, 3)
    assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)


def test_canonical_trim_and_zero():
    assert P(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert not P(0, 0)
    assert P().degree == -1


@given(small_polys, small_polys, st.fractions(max_denominator=20))
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)


def test_expand_binomial_affine_examples():
    # binom(i-1+h, h) at h=1, k=1 -> i
    assert expand_binomial_affine(X + 0, 1) == X
    # binom(d-i, 1) with d symbolic in the inner layer: keep d numeric here.
    assert expand_binomial_affine(P(5) - X, 1) == P(5, -1)
    # binom(d-i+1, 2) = (d-i+1)(d-i)/2 at d=4: (5-i)(4-i)/2
    got = expand_binomial_affine(P(5, -1), 2)
    assert got == P(10, Fraction(-9, 2), Fraction(1, 2))


def test_to_falling_basis_examples():
    # 1 + (d+2)/2 * i - 1/2 * i^2 with Poly-in-d coefficients.
    d = X
    p = Poly((ONE, (d + 2) * Fraction(1, 2), as_poly(Fraction(-1, 2))))
    gs = [as_poly(g) for g in to_falling_basis(p)]
    assert gs[0] == 1
    assert gs[1] == (d + 1) * Fraction(1, 2)
    assert gs[2] == Fraction(-1, 2)
    assert [as_poly(g) for g in to_falling_basis(P(1))] == [ONE]
    assert to_falling_basis(P(0, 0, 1)) == [Fraction(0), Fraction(1), Fraction(1)]


@given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=6))
def test_falling_basis_round_trip(coeffs):
    p = Poly(tuple(coeffs))
    gs = to_falling_basis(p)
    for x in range(-3, 4):
        assert sum(g * falling_factorial(Fraction(x), k) for k, g in enumerate(gs)) == p.eval(x)


def test_det_parametric_examples():
    d = X
    assert det_parametric([[d, ONE], [Poly(), d]], 2) == d * d
    half = d * (d - 1) * Fraction(1, 2)
    assert det_parametric([[half]], 2) == half


def test_det_parametric_matches_cofactor_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[Poly(tuple(Fraction(rng.randint(-3, 3))
                            for _ in range(rng.randint(1, 4))))
                 for _ in range(n)] for _ in range(n)]
        bound = sum(max((e.degree for e in row if e), default=0) for row in rows)
        assert det_parametric(rows, max(bound, 0)) == as_poly(det_cofactor(rows))


def test_det_fraction_matches_cofactor_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
        assert det_fraction(rows) == det_cofactor(rows)


def random_poly_matrix(rng, n):
    """Polys in d with small rational coefficients; some entries are zero."""
    return [[Poly(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(rng.randint(0, 3))))
             for _ in range(n)] for _ in range(n)]


def cofactor_minor(rows, j) -> Poly:
    return as_poly(det_cofactor([row[:j] for row in rows[:j]]))


def assert_leading_minors_match_cofactor(rows, start=0):
    """At d = start, ..., start + 3, every leading minor of the matrix of
    Polys-in-d, each row cleared to integers there, matches the cofactor."""
    n = len(rows)
    for x in range(start, start + 4):
        mat = []
        for row in rows:
            values = [as_poly(e).eval(x) for e in row]
            scale = lcm(*(v.denominator for v in values))
            mat.append([int(v * scale) for v in values])
        got = leading_minors(mat, range(n + 1))
        assert got == {j: det_cofactor([r[:j] for r in mat[:j]]) for j in range(n + 1)}


def test_leading_minors_match_cofactor_random():
    rng = random.Random(23)
    for _ in range(60):
        rows = random_poly_matrix(rng, rng.randint(1, 5))
        assert_leading_minors_match_cofactor(rows, start=rng.choice([0, 0, 3, -2]))


def test_leading_minors_with_vanishing_pivots():
    d = X
    # The (0,0) pivot d - 1 vanishes at d = 1 only.
    rows = [[d - 1, ONE, d], [d, d * d, ONE], [ONE, d + 2, d - 3]]
    assert_leading_minors_match_cofactor(rows)
    # Pivots that vanish at every point: at order 1, and at order 2 below.
    assert_leading_minors_match_cofactor([[Poly(), ONE], [ONE, Poly()]])
    assert_leading_minors_match_cofactor(
        [[ONE, d, ONE, Poly()], [d, d * d, ONE, d], [ONE, d, ONE, ONE],
         [d, Poly(), ONE - d, d]])
    # Scalar entries and the empty matrix.
    assert leading_minors([[0, 1], [1, 0]], [1, 2]) == {1: 0, 2: -1}
    assert leading_minors([], [0]) == {0: 1}


def test_leading_minors_rejects_bad_orders():
    with pytest.raises(ValueError):
        leading_minors([[1]], [2])
    with pytest.raises(ValueError):
        leading_minors([[1, 1]], [1])


def test_minor_degree_bound_dominates_true_degree():
    rng = random.Random(29)
    for _ in range(80):
        rows = random_poly_matrix(rng, rng.randint(1, 5))
        for j in range(len(rows) + 1):
            assert cofactor_minor(rows, j).degree <= minor_degree_bound(degrees(rows), j)
    # Row maxima (2, 2) and column maxima (2, 0): the column bound 2 wins;
    # the transpose has the row bound 2.  Both bounds are 3 on the last.
    assert minor_degree_bound([[2, 0], [2, 0]], 2) == 2
    assert minor_degree_bound([[2, 2], [0, 0]], 2) == 2
    assert minor_degree_bound([[2, 1], [1, 0]], 2) == 3
    # A zero entry (degree -1) bounds like a constant.
    assert minor_degree_bound([[-1, 1], [1, -1]], 2) == 2


def test_interpolate():
    pts = [(Fraction(k), Fraction(k * k + 1)) for k in range(3)]
    assert interpolate(pts) == P(1, 0, 1)


def test_gcd_and_squarefree():
    p = P(-1, 1) ** 2 * P(2, 1)
    assert poly_gcd(p, p.derivative()) == P(-1, 1)
    assert squarefree_part(p) == P(-1, 1) * P(2, 1) * Fraction(1, 1)


def test_render_examples():
    assert render(P(1, 6, 6, 1)) == "1 + 6*t + 6*t^2 + 1*t^3"
    assert render(P(1, 5)) == "1 + 5*t"
    assert render(P()) == "0"
    assert render(P(1, Fraction(-1, 2))) == "1 - 1/2*t"
    d = X
    g = Poly((ONE, d * (d + 1) * Fraction(1, 2), d * (1 - d) * Fraction(1, 2)))
    assert render(g) == "1 + (d^2/2 + d/2)*t + (-d^2/2 + d/2)*t^2"
    assert render_in_d(d * (d - 1) * Fraction(1, 2)) == "d^2/2 - d/2"
    # The same polynomial as an integer table over 2, and its derivative in t.
    table = TDTable([[2], [0, 1, 1], [0, 1, -1]], 2)
    assert render(table) == render(g)
    assert render(table.derivative()) == "(d^2/2 + d/2) + (-d^2 + d)*t"
    assert render(TDTable([])) == "0"


def test_render_past_4300_digits():
    # CPython's str() refuses an int of more than 4300 digits.
    big, digits = 10 ** 4999 + 7, "1" + "0" * 4998 + "7"
    assert exact_str(-big) == "-" + digits
    assert exact_str(Fraction(big, 3)) == digits + "/3"
    assert exact_str(Fraction(-3, big)) == "-3/" + digits
    assert render(P(1, -big, Fraction(1, big))) == f"1 - {digits}*t + 1/{digits}*t^2"
    assert render_in_d(Poly((Fraction(big, 2), -big))) == f"-{digits}*d + {digits}/2"


def test_td_table_is_kept_in_lowest_terms():
    # 2/4 + (4d + 6d^2)/4 t reduces to (1 + (2d + 3d^2) t) / 2; zeros trim.
    table = TDTable([[2, 0], [0, 4, 6], [], [0]], 4)
    assert (table.rows, table.den) == (((1,), (0, 2, 3)), 2)
    assert table == TDTable([[1], [0, 2, 3]], 2) and table.degree == 1
    assert table.coeff(1) == Poly((0, 1, Fraction(3, 2))) and table.coeff(5) == Poly()
    # The derivative (2d + 3d^2)/2 keeps its denominator; 2 t^2 gives 4 t over 1.
    assert table.derivative() == TDTable([[0, 2, 3]], 2)
    assert TDTable([[], [], [1]], 3).derivative() == TDTable([[], [2]], 3)
    assert TDTable([[0], [2]], 4).derivative() == TDTable([[1]], 2)
    assert (TDTable([], 5).rows, TDTable([], 5).den) == ((), 1)


@given(mixed_polys, mixed_polys)
def test_product_over_mixed_coefficients_equals_the_fraction_product(p, q):
    want = all_fraction(p) * all_fraction(q)
    got = p * q
    assert got == want and hash(got) == hash(want)
    assert render(got) == render(want)
    if all(isinstance(c, int) for c in p.coeffs + q.coeffs):
        assert all(type(c) is int for c in got.coeffs)


# -- the integer coefficient-list kernel ----------------------------------------

int_lists = st.lists(st.integers(-10**6, 10**6), max_size=8)


@given(st.lists(scalars, max_size=8))
def test_cleared_puts_every_coefficient_over_the_least_common_denominator(coeffs):
    nums, den = cleared(coeffs)
    assert all(type(c) is int for c in nums) and type(den) is int
    assert [Fraction(n, den) for n in nums] == [Fraction(c) for c in coeffs]
    assert den == lcm(*(Fraction(c).denominator for c in coeffs))


@given(int_lists)
def test_primitive_divides_by_the_positive_content(cs):
    out = primitive(cs)
    g = gcd(*cs)
    if not g:
        assert out == cs
        return
    assert [c * g for c in out] == cs
    assert gcd(*out) == 1


@given(int_lists, st.integers(-50, 50), st.integers(-50, 50))
def test_times_linear_is_the_poly_product(p, c, a):
    assert Poly(times_linear(p, c, a)) == Poly(p) * Poly((c, a))
    assert Poly(times_linear(tuple(p), c)) == Poly(p) * Poly((c, 1))
    assert all(type(x) is int for x in times_linear(p, c, a))
