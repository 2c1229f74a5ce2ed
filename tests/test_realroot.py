"""Sturm counting, Hurwitz determinants, and n-sequence tests."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klm import realroot
from klm.klcoeff import kl_poly
from klm.polyring import (ONE, IntegrityError, Poly, TDTable, X, det_parametric,
                          minor_degree_bound, poly_gcd, squarefree_part)
from klm.realroot import (NEG_INF, POS_INF, _direct_certificate, _palindromic_half,
                          all_zeros_real_negative,
                          count_real_roots, distinct_real_certificate,
                          hurwitz_delta, hurwitz_deltas, hurwitz_matrix,
                          hurwitz_positivity_symbolic,
                          multiplicity_profile, n_sequence_test, sturm_chain,
                          sturm_count)
from klm.seqfactor import SeqSpec, gy_poly
from klm.zcoeff import z_from_kl
from oracles import as_poly, as_table, degrees, det_cofactor, random_real_rooted


def P(*coeffs) -> Poly:
    return Poly(tuple(Fraction(c) for c in coeffs))


def test_sturm_count_examples():
    assert sturm_count(P(1, 5), NEG_INF, 0) == 1
    assert sturm_count(P(1, 9, 5), NEG_INF, 0) == 2
    assert sturm_count(P(1, 0, 1), NEG_INF, POS_INF) == 0
    assert count_real_roots(P(-1, 0, 1)) == 2


def test_sturm_count_products_of_distinct_linear_factors():
    rng = random.Random(3)
    for _ in range(30):
        j = rng.randint(1, 8)
        roots = rng.sample(range(-20, 21), j)
        p = ONE
        for r in roots:
            p = p * P(-r, 1)
        assert count_real_roots(p) == j
        assert sturm_count(p, NEG_INF, 0) == sum(1 for r in roots if r <= 0)


def test_multiplicity_profile():
    p = P(-1, 1) ** 3 * P(2, 1)
    assert multiplicity_profile(p) == [1, 0, 1]


def test_all_zeros_real_negative_examples():
    assert all_zeros_real_negative(kl_poly(2, 3)).passed
    assert all_zeros_real_negative(z_from_kl(2, 3)).passed
    cert = all_zeros_real_negative(P(1, 0, 1))
    assert not cert.passed and cert.witness is not None
    with pytest.raises(ValueError):
        all_zeros_real_negative(P(0, 1))


def test_hurwitz_delta_numeric():
    # A = (t-1)(t-2): all Hurwitz determinants positive.
    a = P(2, -3, 1)
    assert hurwitz_delta(a, a.derivative(), 1) > 0
    assert hurwitz_delta(a, a.derivative(), 2) > 0
    bad = P(1, 0, 1)
    assert hurwitz_delta(bad, bad.derivative(), 2) <= 0


def test_hurwitz_delta_symbolic_paper_values():
    d = X
    g = gy_poly(SeqSpec("f", 2))
    dg = g.derivative()
    half = Fraction(1, 2)
    want_d2 = (d - 1) ** 2 * d ** 2 * half
    assert hurwitz_delta(g, dg, 1) == want_d2
    want_d4 = (d - 1) ** 2 * d ** 3 * (d ** 3 + 2 * d ** 2 + 9 * d - 8) * Fraction(1, 16)
    assert hurwitz_delta(g, dg, 2) == want_d4
    y = gy_poly(SeqSpec("b", 2))
    want_y4 = (d - 1) ** 2 * d ** 2 * (d ** 4 - 2 * d ** 3 + 9 * d ** 2 - 8 * d) * Fraction(1, 16)
    assert hurwitz_delta(y, y.derivative(), 2) == want_y4


def test_hurwitz_symbolic_matches_numeric_evaluation():
    g = gy_poly(SeqSpec("f", 3))
    sym = hurwitz_delta(g, g.derivative(), 2)
    # Degree in t is stable only for d >= 2(m-1); below that (d)_k kills
    # the leading coefficient and the determinant is normalized differently.
    for dd in range(4, 10):
        num_poly = gy_poly(SeqSpec("f", 3), dd)
        num = hurwitz_delta(num_poly, num_poly.derivative(), 2)
        assert sym.eval(Fraction(dd)) == num


def hurwitz_rows(a, b, k: int) -> list[list]:
    """The Hurwitz matrix of A and B (numeric Polys, or TDTables whose entries
    are Polys in d)."""
    n = a.degree
    return hurwitz_matrix([a.coeff(n - j) for j in range(n + 1)],
                          [b.coeff(n - j) for j in range(n + 1)], k)


def test_hurwitz_deltas_match_single_deltas_and_paper():
    for family in ("f", "b"):
        for m in (2, 3):
            g = gy_poly(SeqSpec(family, m))
            dg = g.derivative()
            k_max = 2 * (m - 1)
            deltas = hurwitz_deltas(g, dg, k_max)
            assert deltas == [hurwitz_delta(g, dg, k) for k in range(1, k_max + 1)]
            # Evaluating from d = 2(m-1) on writes each Delta_2k in d'.
            shift = X + 2 * (m - 1)
            assert hurwitz_deltas(g, dg, k_max, 2 * (m - 1)) == [
                v.eval(shift) for v in deltas]
            rows = hurwitz_rows(g, dg, k_max)
            for k, v in enumerate(deltas, 1):
                assert v.degree <= minor_degree_bound(degrees(rows), 2 * k)
    g = gy_poly(SeqSpec("f", 2))
    in_dprime = hurwitz_deltas(g, g.derivative(), 2, 2)
    assert [str(c) for c in in_dprime[0].coeffs] == ["2", "6", "13/2", "3", "1/2"]
    assert [str(c) for c in in_dprime[1].coeffs] == [
        "13", "60", "233/2", "124", "1265/16", "31", "59/8", "1", "1/16"]


def test_hurwitz_deltas_symbolic_match_cofactor_at_m2():
    for family in ("f", "b"):
        g = gy_poly(SeqSpec(family, 2))
        rows = hurwitz_rows(g, g.derivative(), 2)
        want = [as_poly(det_cofactor([r[:j] for r in rows[:j]])) for j in (2, 4)]
        assert hurwitz_deltas(g, g.derivative(), 2) == want


def test_hurwitz_deltas_numeric_match_cofactor():
    # t^2 + 1 and t^3 have a later pivot that vanishes; so do many of the
    # dense integer polynomials, most of them not real-rooted.
    cases = [(a, a.derivative()) for a in (P(1, 0, 1), P(0, 0, 0, 1))]
    rng = random.Random(31)
    for _ in range(100):
        a = P(*(rng.randint(-3, 3) for _ in range(rng.randint(2, 4))))
        if a.degree >= 1:
            b = a.derivative() if rng.random() < 0.7 else P(*(rng.randint(-2, 2) for _ in range(3)))
            cases.append((a, b))
    for a, b in cases:
        rows = hurwitz_rows(a, b, a.degree)
        want = [Fraction(det_cofactor([r[:2 * k] for r in rows[:2 * k]]))
                for k in range(1, a.degree + 1)]
        got = hurwitz_deltas(a, b, a.degree)
        assert got == want and all(isinstance(v, Fraction) for v in got)


# -- symbolic Hurwitz determinants from the subresultant PRS ----------------------


def elimination_deltas(a, b, k_max: int, shift: int = 0) -> list[Poly]:
    """Delta_2k(A, B) of TDTables from det_parametric alone, without the
    subresultant PRS."""
    rows = hurwitz_rows(a, b, k_max)
    return [det_parametric([r[:2 * k] for r in rows[:2 * k]],
                           minor_degree_bound(degrees(rows), 2 * k)).eval(X + shift)
            for k in range(1, k_max + 1)]


def prs_fallback_points(monkeypatch) -> list[bool]:
    """One entry per sweep point, in order: True where the PRS gave no values."""
    calls = []
    prs = realroot._subresultant_deltas

    def spy(a, b, k_max):
        out = prs(a, b, k_max)
        calls.append(out is None)
        return out
    monkeypatch.setattr(realroot, "_subresultant_deltas", spy)
    return calls


rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
poly_in_d = st.lists(rational, max_size=3).map(lambda cs: Poly(tuple(cs)))


@st.composite
def hurwitz_pairs(draw):
    """(A, B, k_max, shift): TDTables, A of degree 1..6 in t with coefficients
    of degree <= 2 in d, and B = A' or a random B of lower degree in t."""
    a = as_table(Poly(tuple(draw(st.lists(poly_in_d, min_size=2, max_size=7)))))
    assume(a.degree >= 1)
    if draw(st.booleans()):
        b = a.derivative()
    else:
        b = as_table(Poly(tuple(draw(st.lists(poly_in_d, max_size=a.degree)))))
    return a, b, draw(st.integers(1, a.degree)), draw(st.integers(-3, 3))


@settings(max_examples=200, deadline=None)
@given(hurwitz_pairs())
def test_symbolic_hurwitz_deltas_match_the_elimination(case):
    a, b, k_max, shift = case
    assert hurwitz_deltas(a, b, k_max, shift) == elimination_deltas(a, b, k_max, shift)


def T(*coeffs) -> Poly:
    """A polynomial in t whose coefficients are polynomials in d."""
    return Poly(tuple(as_poly(c) for c in coeffs))


def with_derivative(a: Poly) -> tuple[TDTable, TDTable]:
    a = as_table(a)
    return a, a.derivative()


@pytest.mark.parametrize("a, b, fallbacks", [
    # lc(A) = d - 2 vanishes at the sweep point d = 2 only, where lc(B) = 1.
    (as_table(T(1, X + 1, X, X - 2)), as_table(T(X, 1, 1)), [2]),
    # (t - d + 4)(t + 1)(t + 5) has a double zero at d = 3 only.
    (*with_derivative(T(4 - X, 1) * T(1, 1) * T(5, 1)), [3]),
    # (t - d + 3)^2 (t + 1) has a double zero at every d (a triple one at
    # d = 2), so the PRS ends early and every point falls back.
    (*with_derivative(T(3 - X, 1) ** 2 * T(1, 1)), list(range(10))),
], ids=["lc-vanishes", "double-zero-at-one-d", "double-zero-at-every-d"])
def test_symbolic_hurwitz_deltas_fall_back_to_the_elimination(a, b, fallbacks, monkeypatch):
    calls = prs_fallback_points(monkeypatch)
    got = hurwitz_deltas(a, b, a.degree)
    assert [t for t, fell_back in enumerate(calls) if fell_back] == fallbacks
    assert got == elimination_deltas(a, b, a.degree)
    rows = hurwitz_rows(a, b, a.degree)
    assert got == [as_poly(det_cofactor([r[:2 * k] for r in rows[:2 * k]]))
                   for k in range(1, a.degree + 1)]


@pytest.mark.parametrize("t", [0, 4, 8], ids=["first", "middle", "last"])
def test_a_wrong_prs_value_trips_the_spot_check(t, monkeypatch):
    # Delta_4 of G_2 has degree 8 in d', so the sweep runs over d' = 0..8.
    calls = []
    prs = realroot._subresultant_deltas

    def tampered(a, b, k_max):
        out = prs(a, b, k_max)
        calls.append(None)
        return {**out, 4: out[4] + 1} if len(calls) == t + 1 else out
    monkeypatch.setattr(realroot, "_subresultant_deltas", tampered)
    g = gy_poly(SeqSpec("f", 2))
    with pytest.raises(IntegrityError, match=f"leading minors at d = {2 + t} disagree"):
        hurwitz_deltas(g, g.derivative(), 2, 2)


def test_distinct_real_certificate_examples():
    assert distinct_real_certificate(P(2, -3, 1)).passed
    assert not distinct_real_certificate(P(1, 0, 1)).passed
    assert distinct_real_certificate(P(1, 6, -3)).passed  # G_{2,3}


def test_distinct_real_certificate_randomized():
    rng = random.Random(17)
    for _ in range(500):
        if rng.random() < 0.5:
            p = random_real_rooted(rng)
            while p.degree < 1:
                p = random_real_rooted(rng)
        else:
            p = Poly(tuple(Fraction(rng.randint(-5, 5))
                           for _ in range(rng.randint(2, 7))))
            if p.degree < 1:
                continue
        cert = distinct_real_certificate(p)
        # The certificate itself cross-validates against Sturm counting and
        # raises on disagreement; here we only re-assert the pass direction.
        if cert.passed:
            assert count_real_roots(p) == p.degree


def test_hurwitz_positivity_symbolic_small_m():
    for family in ("G", "Y"):
        cert = hurwitz_positivity_symbolic(family, 2)
        assert cert.passed, cert.witness
    cert = hurwitz_positivity_symbolic("G", 3)
    assert cert.passed
    with pytest.raises(ValueError):
        hurwitz_positivity_symbolic("Q", 2)


def test_hurwitz_positivity_paper_dprime_expansions():
    cert = hurwitz_positivity_symbolic("G", 2)
    deltas = cert.witness["delta_coeffs_in_dprime"]
    assert deltas[0] == ["2", "6", "13/2", "3", "1/2"]
    assert deltas[1] == ["13", "60", "233/2", "124", "1265/16", "31", "59/8", "1", "1/16"]
    cert_y = hurwitz_positivity_symbolic("Y", 2)
    assert cert_y.witness["delta_coeffs_in_dprime"][1] == [
        "5", "24", "97/2", "54", "585/16", "63/4", "35/8", "3/4", "1/16"]


def test_n_sequence_examples():
    assert n_sequence_test([Fraction(1), Fraction(2), Fraction(2)], 2).passed
    assert n_sequence_test([Fraction(1)] * 6, 5).passed
    cert = n_sequence_test([Fraction(1), Fraction(0), Fraction(1)], 2)
    assert not cert.passed


def test_n_sequence_zero_root_reported_distinctly():
    # Gamma[(1+t)^1] = t has a zero root; policy: fail, flagged as such.
    cert = n_sequence_test([Fraction(0), Fraction(1)], 1)
    assert not cert.passed
    assert cert.witness.get("reason") == "zero root"


# -- the integer chain against the Fraction reference -----------------------------


def reference_sturm(p: Poly) -> list[Poly]:
    """Euclidean Sturm chain of (p, p') over Fraction, without rescaling."""
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        r = chain[-2].rem(chain[-1])
        if not r:
            break
        chain.append(-r)
    return chain


def reference_count(p: Poly, a, b) -> int:
    """Distinct real roots of squarefree_part(p) in (a, b]; p(a), p(b) != 0."""
    def variations(x):
        vals = []
        for q in reference_sturm(squarefree_part(p)):
            if x == NEG_INF:
                vals.append(q.leading * (-1) ** q.degree)
            elif x == POS_INF:
                vals.append(q.leading)
            else:
                vals.append(q.eval(Fraction(x)))
        signs = [v > 0 for v in vals if v]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)
    return variations(a) - variations(b)


def assert_positive_multiples(chain: list[Poly], ref: list[Poly]) -> None:
    assert len(chain) == len(ref)
    for got, want in zip(chain, ref):
        ratio = Fraction(got.leading) / want.leading
        assert ratio > 0 and got == want * ratio


def reference_profile(p: Poly) -> list[int]:
    """The multiplicity profile by iterated Fraction gcds."""
    out = []
    while p.degree >= 1:
        g = poly_gcd(p, p.derivative())
        out.append(p.degree - g.degree)
        p = g
    return [out[k] - (out[k + 1] if k + 1 < len(out) else 0) for k in range(len(out))]


small = st.integers(-6, 6)
nonzero = small.filter(bool)
linear = st.builds(lambda a, b: P(b, a), nonzero, small)
quadratic = st.builds(lambda a, b, c: P(c, b, a), nonzero, small, small)
factor_power = st.builds(lambda f, k: f ** k, st.one_of(linear, quadratic),
                         st.integers(1, 3))


def _product(fs, scale):
    out = ONE * scale
    for f in fs:
        out = out * f
    return out


# Products of repeated linear and quadratic factors with a scale of either sign,
# and dense integer polynomials whose roots nothing controls.
factored = st.builds(_product, st.lists(factor_power, min_size=1, max_size=4),
                     st.sampled_from([-3, -1, 1, 2]))
dense = st.lists(st.integers(-20, 20), min_size=2, max_size=9).map(lambda cs: P(*cs))


@settings(max_examples=300, deadline=None)
@given(st.one_of(factored, dense))
def test_integer_chain_matches_fraction_reference(p):
    assume(p.degree >= 1 and p.eval(Fraction(0)) != 0)
    chain = sturm_chain(p)
    assert all(isinstance(c, int) for q in chain for c in q.coeffs)
    assert_positive_multiples(chain, reference_sturm(p))
    last = chain[-1]
    assert last * (1 / Fraction(last.leading)) == poly_gcd(p, p.derivative())
    assert p.degree - last.degree == squarefree_part(p).degree
    assert sturm_count(p, NEG_INF, 0) == reference_count(p, NEG_INF, 0)
    assert sturm_count(p, 0, POS_INF) == reference_count(p, 0, POS_INF)
    assert count_real_roots(p) == reference_count(p, NEG_INF, POS_INF)
    assert multiplicity_profile(p) == reference_profile(p)
    assert multiplicity_profile(p, last) == reference_profile(p)


def test_sturm_chain_elements_are_positive_multiples():
    # -(t+1)^2 (t-3): a negative leading coefficient and a repeated root.
    p = -(P(1, 1) ** 2) * P(-3, 1)
    assert_positive_multiples(sturm_chain(p), reference_sturm(p))
    # Degrees 4, 3, 1, 0: the step past the gap divides by an element with a
    # negative leading coefficient, raised to the odd power 3.
    p = P(-3, 2, 0, 0, -3)
    chain = sturm_chain(p)
    assert [q.degree for q in chain] == [4, 3, 1, 0] and chain[2].leading < 0
    assert_positive_multiples(chain, reference_sturm(p))


# -- certificate branches the bench grids never reach -----------------------------


@pytest.mark.parametrize("p, passed, witness", [
    (P(1, 1) ** 2 * P(3, 1), True, {"distinct_zeros": 2, "multiplicities": [1, 1]}),
    (P(1, 1) * P(-2, 1), False, {"distinct_zeros": 2, "negative_real_zeros": 1,
                                 "coeffs": ["-2", "-1", "1"]}),
    (P(1, 0, 1), False, {"distinct_zeros": 2, "negative_real_zeros": 0,
                         "coeffs": ["1", "0", "1"]}),
    # Palindromic: a constant, -1 alone, -1 doubled (W(-2) = 0), a simple
    # odd case, and a pair on the unit circle.
    (P(3), True, {"distinct_zeros": 0, "multiplicities": []}),
    (P(2, 2), True, {"distinct_zeros": 1, "multiplicities": [1]}),
    (P(1, 2, 1), True, {"distinct_zeros": 1, "multiplicities": [0, 1]}),
    (P(1, 4, 4, 1), True, {"distinct_zeros": 3, "multiplicities": [3]}),
    (P(1, 1, 1), False, {"distinct_zeros": 2, "negative_real_zeros": 0,
                         "coeffs": ["1", "1", "1"]}),
])
def test_all_zeros_real_negative_branches(p, passed, witness):
    cert = all_zeros_real_negative(p)
    assert (cert.passed, cert.witness) == (passed, witness)


# -- the palindromic half ---------------------------------------------------------


def _reciprocal_pair(r: Fraction) -> Poly:
    """(t - r)(t - 1/r), palindromic; a double zero at r = 1 or r = -1."""
    return P(1, -(r + 1 / r), 1)


def _mirrored(half: list, middle: bool) -> Poly:
    """The palindromic polynomial whose low coefficients are half; with
    middle, half's last entry is its one middle coefficient (even degree)."""
    return Poly(tuple(half + half[-1 - middle::-1]))


ratio = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
palindromic_factor = st.one_of(
    st.builds(_reciprocal_pair, ratio),
    st.builds(lambda k: P(1, 1) ** k, st.integers(0, 3)),
    # t^2 + c t + 1: zeros on the unit circle for |c| < 2 (t^2 + t + 1 at
    # c = 1), a double zero at c = 2, an irrational reciprocal pair beyond.
    st.builds(lambda c: P(1, c, 1), st.integers(-5, 5)),
)
palindromic_product = st.builds(
    _product, st.lists(palindromic_factor, min_size=1, max_size=5),
    st.sampled_from([-3, -1, 1, 2, Fraction(1, 2), Fraction(-5, 3)]))
palindromic_dense = st.builds(
    _mirrored,
    st.lists(st.one_of(st.integers(-20, 20), st.builds(Fraction, st.integers(-9, 9),
                                                       st.integers(1, 5))),
             min_size=1, max_size=6).filter(lambda half: half[0] != 0),
    st.booleans())


@settings(max_examples=400, deadline=None)
@given(st.one_of(palindromic_product, palindromic_dense, factored, dense))
def test_palindromic_half_gives_the_direct_certificate(p):
    assume(p and p.eval(Fraction(0)) != 0)
    assert all_zeros_real_negative(p, "p") == _direct_certificate(p, "p")
    w = _palindromic_half(p)
    if p.degree < 1 or p.coeffs != p.coeffs[::-1]:
        assert w is None
        return
    # den * p(t) = (1 + t)^e t^h W(t + 1/t), den the lcm of p's denominators.
    den = lcm(*(Fraction(c).denominator for c in p.coeffs))
    for t in (Fraction(2), Fraction(-3, 2), Fraction(5, 7)):
        assert den * p.eval(t) == ((1 + t) ** (p.degree % 2) * t ** w.degree
                                   * w.eval(t + 1 / t))


def test_every_z_is_settled_on_its_half_with_the_direct_certificate(monkeypatch):
    # Z_{U_{m,d}} is palindromic with simple negative zeros, so the halved
    # path settles each one and never reaches the direct chain.
    zs = [z_from_kl(m, d) for m in range(1, 9) for d in range(1, 41)]
    zs += [z_from_kl(m, d) for m in (2, 3) for d in range(41, 61)]
    direct = [_direct_certificate(z, "z") for z in zs]
    monkeypatch.setattr(realroot, "_direct_certificate", None)
    assert [all_zeros_real_negative(z, "z") for z in zs] == direct
    assert all(c.passed for c in direct)


def test_n_sequence_positive_branch():
    # Gamma[(1+t)^2] = 2 - 3t + t^2 = (t-1)(t-2): both zeros positive.
    cert = n_sequence_test([Fraction(2), Fraction(-3, 2), Fraction(1)], 2)
    assert cert.passed
    assert cert.witness == {"degree": 2, "distinct_zeros": 2, "sign": "positive"}
