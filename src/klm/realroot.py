"""Exact real-rootedness certification.

Every real-zero count comes from one census, ``_census``, which builds one
integer Sturm chain per polynomial: the remainder sequence of (p, p') run as
a primitive pseudo-remainder sequence (Collins 1967; Brown-Traub 1971) on
``polyring``'s integer coefficient lists.  Each step scales by a positive
power of |lc| and divides out the content (``polyring.primitive``), so every
element is a positive multiple of the true Sturm remainder and sign
variations stay exact.  The chain need not start from a squarefree p: its
sign variations count the distinct real zeros in (a, b] for endpoints that
are not zeros, and its last element is gcd(p, p'), which gives the
distinct-zero count and seeds the multiplicity profile.  The census reads the
variations at -inf, at each cut and at +inf, and every certificate and
``sturm_count`` take their counts from it.  A palindromic polynomial (every
Z-polynomial; Proudfoot-Xu-Young 2018) is certified on the census of its
half in t + 1/t when that shows only simple negative zeros.
Borchardt-Hermite Hurwitz determinants give an independent
distinct-real-zeros criterion, which ``hurwitz_positivity_symbolic`` reads in
the shifted parameter d' = d - 2(m-1).  All of them are leading minors of
one Hurwitz matrix, and ``hurwitz_deltas`` computes them the same way for a
numeric polynomial and for (t, d) tables: from their values at integer
points of d, where A(d) and B(d) are evaluated once from the integer rows of
their tables, one subresultant PRS (Collins 1967) gives every determinant,
and the elimination of the integer Hurwitz matrix of the same values checks
it at the first, middle and last point and stands in where the PRS gives
none.  Each determinant is interpolated up to its degree bound and checked at
the next point.  The n-sequence test completes the toolbox.
"""

from __future__ import annotations

from fractions import Fraction

from . import seqfactor
from .certificate import Certificate, judge
from .polyring import (IntegrityError, Poly, TDTable, X, binomial, cleared, exact_str, horner,
                       interpolate_steps, leading_minors, minor_degree_bound, primitive)

NEG_INF = "-inf"
POS_INF = "+inf"


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^(deg a - deg b + 1) * (a mod b), ascending integer coefficients."""
    lead, db = b[-1], len(b) - 1
    steps = len(a) - db
    r = list(a)
    for k in range(steps - 1, -1, -1):
        c = r[k + db]
        r = [lead * x for x in r[:k + db]]
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    if lead < 0 and steps % 2:
        r = [-x for x in r]
    while r and not r[-1]:
        r.pop()
    return r


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of (p, p') over the integers, each element primitive.

    Every element is a positive multiple of the signed Euclidean remainder,
    and the last one is gcd(p, p') up to a scalar.
    """
    if not p:
        raise ValueError("Sturm chain of the zero polynomial")
    cur = primitive(cleared(p.coeffs)[0])
    chain = [cur]
    if len(cur) > 1:
        chain.append(primitive([k * c for k, c in enumerate(cur) if k]))
        while len(chain[-1]) > 1:
            r = _pseudo_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(primitive([-c for c in r]))
    return [Poly(cs) for cs in chain]


def _sign_at(p: Poly, x) -> int:
    """The sign of p at x: an int, a Fraction, or one of the sentinels
    NEG_INF and POS_INF, where the leading term decides."""
    cs = p.coeffs
    if x == NEG_INF:
        v = cs[-1] * (-1) ** (p.degree % 2)
    elif x == POS_INF:
        v = cs[-1]
    else:
        v = horner(cs, x)
    return (v > 0) - (v < 0)


def _census(p: Poly, *cuts) -> tuple[int, list[int], Poly]:
    """The real-zero census of p (degree >= 1) from one Sturm chain: the
    number of distinct zeros, the number of distinct real zeros in each gap
    (-inf, c_1], ..., (c_k, +inf) of the ascending cuts, none a zero of p,
    and gcd(p, p') up to a scalar."""
    chain = sturm_chain(p)
    variations = []
    for x in (NEG_INF, *cuts, POS_INF):
        signs = [s for s in (_sign_at(q, x) for q in chain) if s]
        variations.append(sum(a != b for a, b in zip(signs, signs[1:])))
    gaps = [v - w for v, w in zip(variations, variations[1:])]
    return p.degree - chain[-1].degree, gaps, chain[-1]


def _deflate(p: Poly, root: Fraction) -> tuple[Poly, int]:
    """Remove every (x - root) factor; returns (quotient, multiplicity)."""
    mult = 0
    lin = X - root
    while p.degree >= 1 and p.eval(root) == 0:
        p, _ = p.divmod(lin)
        mult += 1
    return p, mult


def sturm_count(p: Poly, a, b) -> int:
    """Distinct real roots of p in (a, b], endpoints rational or +/-inf.

    Rational endpoints that happen to be roots are removed exactly by
    deflation first: a root at a is outside the half-open interval, a
    root at b is inside and re-counted after deflation.
    """
    if not p:
        raise ValueError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    extra = 0
    if a != NEG_INF and p.eval(Fraction(a)) == 0:
        p, _ = _deflate(p, Fraction(a))
    if b != POS_INF and p.eval(Fraction(b)) == 0:
        p, _ = _deflate(p, Fraction(b))
        extra = 1
    if p.degree == 0:
        return extra
    _, (_, inside, _), _ = _census(p, a, b)
    return inside + extra


def multiplicity_profile(p: Poly, gcd_pp: Poly | None = None) -> list[int]:
    """Number of distinct roots of each multiplicity >= 1.

    gcd_pp is gcd(p, p') up to a scalar, such as the last element of
    sturm_chain(p), when the caller already has it.  The iterated gcds
    below it are taken only while they are non-constant.
    """
    out = []
    while p.degree >= 1:
        if gcd_pp is None:
            gcd_pp = sturm_chain(p)[-1]
        out.append(p.degree - gcd_pp.degree)
        p, gcd_pp = gcd_pp, None
    # out[k] counts roots of multiplicity > k; convert to exact counts
    return [out[k] - (out[k + 1] if k + 1 < len(out) else 0) for k in range(len(out))]


def _palindromic_half(p: Poly) -> Poly | None:
    """W with p(t) = (1 + t)^e t^h W(t + 1/t), e = deg p mod 2, h = deg W,
    or None when p (of degree >= 1) is not palindromic.

    Each zero s of W gives the two zeros of t^2 - s t + 1 in p, so p has
    deg p distinct negative zeros exactly when W(-2) != 0 (for odd degree,
    -1 stays a simple zero) and W has deg W distinct zeros in (-inf, -2).
    W is scaled by a positive integer, which moves none of its zeros.
    """
    cs = p.coeffs
    n = len(cs) - 1
    if n < 1 or cs != cs[::-1]:
        return None
    q = cleared(cs)[0]
    if n % 2:
        # Divide by 1 + t; an odd palindromic polynomial vanishes at -1.
        for i in range(1, n):
            q[i] -= q[i - 1]
        q.pop()
    h = (len(q) - 1) // 2
    # W(s) = q_h + sum_j q_{h+j} T_j(s) with T_j(t + 1/t) = t^j + t^-j:
    # T_1 = s, T_{j+1} = s T_j - T_{j-1}, T_0 = 2.
    w = [q[h]] + [0] * h
    prev, cur = [2], [0, 1]
    for j in range(1, h + 1):
        for k, c in enumerate(cur):
            w[k] += q[h + j] * c
        nxt = [0] + cur
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
    return Poly(w)


def all_zeros_real_negative(p: Poly, subject: str | None = None) -> Certificate:
    """Certify that every complex zero of p is real and negative.

    A palindromic p of degree n >= 1 is settled on its half W of degree
    about n/2 when that shows n distinct negative zeros; every other case
    (a multiple zero, a zero off the negative axis, a non-palindromic p)
    goes to the direct chain of ``_direct_certificate``.
    """
    subject = subject or "polynomial"
    if not p:
        raise ValueError("zero polynomial has no zero locus to certify")
    if p.coeff(0) == 0:
        raise ValueError("p(0) = 0: a zero root fails 'only negative zeros' by definition")
    w = _palindromic_half(p)
    if w is not None and _sign_at(w, -2) != 0 and _census(w, -2)[1][0] == w.degree:
        return judge(subject, "sturm", None, {
            "distinct_zeros": p.degree, "multiplicities": [p.degree]})
    return _direct_certificate(p, subject)


def _direct_certificate(p: Poly, subject: str) -> Certificate:
    """all_zeros_real_negative on p's own chain, p nonzero with p(0) != 0.

    One census counts the distinct zeros and the distinct negative ones;
    multiplicities cannot move a zero off the negative axis.
    """
    distinct, (negative, _), gcd_pp = _census(p, 0)
    if negative == distinct:
        return judge(subject, "sturm", None, {
            "distinct_zeros": distinct,
            "multiplicities": multiplicity_profile(p, gcd_pp)})
    return judge(subject, "sturm", {
        "distinct_zeros": distinct, "negative_real_zeros": negative,
        "coeffs": [exact_str(c) for c in p.coeffs]})


# -- Hurwitz determinants ------------------------------------------------------


def hurwitz_matrix(a_desc: list, b_desc: list, k: int) -> list[list]:
    """The 2k x 2k interleaved-coefficient matrix of the two lists: row 2r
    is a_desc shifted right by r, row 2r + 1 is b_desc shifted by r, and
    the rest is 0."""
    return [[desc[j - r] if 0 <= j - r < len(desc) else 0 for j in range(2 * k)]
            for r in range(k) for desc in (a_desc, b_desc)]


def _subresultant_deltas(a: list[int], b: list[int], k_max: int) -> dict[int, int] | None:
    """{2k: Delta_2k(A, B)} for k <= k_max from the subresultant PRS of integer
    A (coefficients a, ascending, degree n) and B (formal degree n - 1).

    Delta_2k = eps_k lc(A) psc_{n-k}(A, B), eps_k = (-1)^(k(k-1)/2), and in
    the normal case psc_{n-k} is the leading coefficient of R_{k+1}, where
    R_1 = A, R_2 = B, R_3 = prem(A, B) and R_{i+2} = prem(R_i, R_{i+1}) / lc(R_i)^2
    exactly (Collins 1967).  None unless lc(A) != 0 and every R_{k+1} has
    degree n - k: a degree gap needs the elimination.
    """
    n = len(a) - 1
    if not a[-1]:
        return None
    out, prev, cur = {}, a, b
    for k in range(1, k_max + 1):
        if len(cur) != n - k + 1 or not cur[-1]:
            return None
        out[2 * k] = (-1) ** (k * (k - 1) // 2) * a[-1] * cur[-1]
        if k < k_max:
            # Every step drops one degree, so _pseudo_rem's |lc|^2 is lc^2.
            scale = prev[-1] ** 2 if k > 1 else 1
            prev, cur = cur, [c // scale for c in _pseudo_rem(prev, cur)]
    return out


def _table(p: Poly | TDTable) -> TDTable:
    """p itself, or a numeric Poly as constant rows over its own denominator."""
    if isinstance(p, TDTable):
        return p
    nums, den = cleared(p.coeffs)
    return TDTable(([c] for c in nums), den)


def hurwitz_deltas(a: Poly | TDTable, b: Poly | TDTable, k_max: int, shift: int = 0) -> list:
    """Hurwitz determinants [Delta_2, ..., Delta_2K](A, B) for K = k_max, exact.

    The 2k x 2k Hurwitz matrix is the leading block of the 2K x 2K one, so
    every Delta_2k is a leading principal minor of one matrix.  Each Delta_2k
    is interpolated, as an exact polynomial in d - shift, from its values at
    d = shift, shift + 1, ... up to its degree bound, and must take its value
    at the next point, or IntegrityError is raised.  A(d) and B(d) are
    evaluated once per point from the integer rows of their TDTables (a
    numeric Poly enters as constant rows, so its sweep has two points).
    When deg B < deg A, one subresultant PRS of A(d), B(d) gives every
    value; the elimination of the integer Hurwitz matrix of A(d), B(d)
    checks it at the first, middle and last point, and stands in wherever
    lc(A)(d) = 0 or the PRS has a degree gap.  Numeric Polys give Fractions,
    TDTables polynomials in d.
    """
    symbolic = isinstance(a, TDTable) or isinstance(b, TDTable)
    a, b = _table(a), _table(b)
    if a.degree < 0:
        raise ValueError("Hurwitz determinants need a nonzero leading coefficient")
    if k_max < 1:
        raise ValueError(f"Hurwitz index k must be >= 1, got {k_max}")
    n = a.degree
    prs = b.degree < n
    a_rows, b_rows = a.rows, (b.rows + ((),) * n)[:n + 1]  # B's rows for t^0..t^n
    degrees = hurwitz_matrix([len(r) - 1 for r in a_rows[::-1]],
                             [len(r) - 1 for r in b_rows[::-1]], k_max)
    # Each Delta_2k is swept to ends[2k], one point past its degree bound.
    ends = {2 * k: minor_degree_bound(degrees, 2 * k) + 1 for k in range(1, k_max + 1)}
    top = max(ends.values())
    values: dict[int, list[int]] = {j: [] for j in ends}
    for t in range(top + 1):
        x = shift + t
        a_x = [horner(cs, x) for cs in a_rows]
        b_x = [horner(cs, x) for cs in b_rows]
        # B at its formal degree n - 1.
        got = _subresultant_deltas(a_x, b_x[:n], k_max) if prs else None
        if got is None or t in (0, top // 2, top):
            wanted = [j for j in ends if t <= ends[j]]
            ref = leading_minors(hurwitz_matrix(a_x[::-1], b_x[::-1], k_max), wanted)
            if got is not None and any(got[j] != v for j, v in ref.items()):
                raise IntegrityError(f"leading minors at d = {x} disagree with elimination")
            got = ref
        for j, ys in values.items():
            if t <= ends[j]:
                ys.append(got[j])
    deltas = []
    for k, ys in enumerate(values.values(), 1):
        # Delta_2k of the integer rows is (den_a den_b)^k times the true one.
        scale = (a.den * b.den) ** k
        delta = interpolate_steps(ys[:-1], scale)
        nums, den = cleared(delta.coeffs)
        if horner(nums, len(ys) - 1) * scale != ys[-1] * den:
            raise IntegrityError(f"Delta_{2 * k} interpolated up to d = {shift + len(ys) - 2} "
                                 f"misses its value at d = {shift + len(ys) - 1}")
        deltas.append(delta)
    return deltas if symbolic else [v.coeff(0) for v in deltas]


def hurwitz_delta(a: Poly, b: Poly, k: int):
    """Hurwitz determinant Delta_2k(A, B), exact: a Fraction for numeric
    Polys, a polynomial in d for TDTables."""
    return hurwitz_deltas(a, b, k)[-1]


def hurwitz_positivity_symbolic(family: str, m: int) -> Certificate:
    """Symbolic reproduction of the Hurwitz positivity argument for G or Y.

    For d >= 2(m-1), every Delta_2k(.,.') with 1 <= k <= 2(m-1), written in
    d' = d - 2(m-1), must have strictly positive coefficients; the finitely
    many small cases d < 2(m-1) are settled by direct Sturm tests.
    """
    if m < 2:
        raise ValueError("the Hurwitz argument starts at m = 2")
    if family not in ("G", "Y"):
        raise ValueError(f"family must be G or Y, got {family!r}")
    seq = "f" if family == "G" else "b"
    subject = f"hurwitz-{family} m={m}"

    sym = seqfactor.gy_poly(seq, m)  # a TDTable: polynomial in t, integer rows in d
    # Evaluated at d = 2(m-1) + j, so every Delta_2k comes out in d'.
    deltas = hurwitz_deltas(sym, sym.derivative(), 2 * (m - 1), 2 * (m - 1))
    expansions = []
    for k, shifted in enumerate(deltas, 1):
        for idx, c in enumerate(shifted.coeffs):
            if not c > 0:
                return judge(subject, "hurwitz", {
                    "k": k, "coefficient_index": idx, "value": exact_str(c),
                    "delta_in_dprime": [exact_str(x) for x in shifted.coeffs]})
        expansions.append([exact_str(c) for c in shifted.coeffs])

    small_cases = []
    for d in range(1, 2 * (m - 1)):
        g = seqfactor.gy_poly(seq, m, d)
        if g.degree < 1:
            small_cases.append({"d": d, "degree": g.degree, "real_rooted": True})
            continue
        distinct, (real,), _ = _census(g)
        ok = real == distinct
        small_cases.append({"d": d, "degree": g.degree, "real_rooted": ok})
        if not ok:
            return judge(subject, "hurwitz", {
                "small_case_d": d, "coeffs": [exact_str(c) for c in g.coeffs]})
    return judge(subject, "hurwitz", None, {
        "delta_coeffs_in_dprime": expansions, "small_cases": small_cases})


# -- n-sequence test -------------------------------------------------------------


def n_sequence_test(gamma: list[Fraction], d: int, subject: str | None = None) -> Certificate:
    """Test whether Gamma is a d-sequence via Gamma[(1+t)^d].

    Passes iff all zeros of sum_i Gamma_i binom(d,i) t^i are real and of
    one sign.  A zero root fails and is reported distinctly, since the
    same-sign criterion does not address it.
    """
    subject = subject or "sequence"
    if len(gamma) != d + 1:
        raise ValueError(f"expected {d + 1} sequence entries, got {len(gamma)}")
    p = Poly(tuple(Fraction(g) * binomial(d, i) for i, g in enumerate(gamma)))
    if not p:
        return judge(subject, "nseq", {"reason": "transform is identically zero"})
    if p.degree == 0:
        return judge(subject, "nseq", None, {"degree": 0})
    if p.coeff(0) == 0:
        return judge(subject, "nseq", {
            "reason": "zero root", "coeffs": [exact_str(c) for c in p.coeffs]})
    # p(0) != 0, so one census counts both half-lines.
    distinct, (neg, pos), _ = _census(p, 0)
    if neg == distinct or pos == distinct:
        return judge(subject, "nseq", None, {
            "degree": p.degree, "distinct_zeros": distinct,
            "sign": "negative" if neg == distinct else "positive"})
    return judge(subject, "nseq", {
        "degree": p.degree, "negative": neg, "positive": pos,
        "distinct": distinct, "coeffs": [exact_str(c) for c in p.coeffs]})
