"""Dense exact polynomial arithmetic.

A :class:`Poly` is a polynomial in one variable with ascending Fraction (or
int) coefficients.  A :class:`TDTable` is a polynomial in t whose
coefficients are polynomials in a parameter d, as one integer table over one
denominator.

Also here: exact determinants.  One fraction-free Bareiss elimination over
the integers (Bareiss 1968) serves them all: with row swaps it gives the
determinant of a Fraction matrix; without them its diagonal holds every
leading principal minor of an integer matrix.  A determinant of Polys-in-d
is evaluated at integer points, eliminated there and interpolated back
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm

from .arith import IntegrityError


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def _trimmed(xs) -> tuple:
    """xs as a tuple without its trailing zeros (falsy entries)."""
    xs = list(xs)
    while xs and not xs[-1]:
        xs.pop()
    return tuple(xs)


class Poly:
    """Dense univariate polynomial, coefficients ascending by degree.

    The zero polynomial has an empty coefficient tuple.  Coefficients are
    ints or Fractions; the ring operations only add and multiply them, so a
    reference computation may also nest Polys in another variable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trimmed(coeffs)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if _is_scalar(other):
            if not other:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if _is_scalar(other):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        # Int zeros keep an integer product integer; a Fraction promotes its sums.
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        if _is_scalar(other):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Poly")
        out = Poly((Fraction(1),))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "Poly":
        """Formal derivative with respect to this Poly's own variable."""
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def eval(self, x):
        """Evaluate by Horner's rule; x may be a scalar or a Poly."""
        out = Fraction(0) if _is_scalar(x) else 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- Euclidean structure (Fraction coefficients only) --------------------

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / Fraction(other.leading)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            if c:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quo), Poly(rem[: other.degree if other.degree > 0 else 0])

    def rem(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]


ONE = Poly((Fraction(1),))
X = Poly((Fraction(0), Fraction(1)))


class TDTable:
    """A polynomial in t whose coefficients are polynomials in d: rows[k]
    holds the ascending integer coefficients in d of den times the t^k
    coefficient.  den is positive and shares no factor with every entry,
    and neither a row nor the table ends in a zero.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows, den: int = 1):
        rows = _trimmed(_trimmed(r) for r in rows)
        g = gcd(den, *(c for r in rows for c in r))
        self.rows = tuple(tuple(c // g for c in r) for r in rows)
        self.den = den // g

    @property
    def degree(self) -> int:
        """Degree in t, with the zero polynomial at -1."""
        return len(self.rows) - 1

    def coeff(self, k: int) -> Poly:
        """The t^k coefficient as a Poly in d (zero past the degree)."""
        row = self.rows[k] if 0 <= k <= self.degree else ()
        return Poly(Fraction(c, self.den) for c in row)

    def derivative(self) -> "TDTable":
        """Formal derivative in t."""
        return TDTable(([k * c for c in r] for k, r in enumerate(self.rows) if k), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TDTable):
            return NotImplemented
        return (self.rows, self.den) == (other.rows, other.den)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals (Euclid with content stripping)."""
    a, b = _primitive(p), _primitive(q)
    while b:
        a, b = b, _primitive(a.rem(b))
    if a and a.leading != 1:
        a = a * (1 / Fraction(a.leading))
    return a


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), carrying exactly the distinct roots of p."""
    if not p:
        raise ValueError("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = p.divmod(g)
    if r:
        raise IntegrityError("gcd does not divide its polynomial")
    return q


def _primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with gcd 1 (sign preserved)."""
    if not p:
        return p
    den = lcm(*(Fraction(c).denominator for c in p.coeffs))
    num = reduce(gcd, (abs(Fraction(c).numerator) for c in p.coeffs))
    scale = Fraction(den, num)
    return Poly(tuple(c * scale for c in p.coeffs))


def expand_binomial_affine(a: Poly, k: int) -> Poly:
    """Generalized binomial coefficient C(a, k) = prod_{j<k}(a - j) / k!.

    a is a Poly, typically affine; the result is expanded in the monomial
    basis.
    """
    if k < 0:
        raise ValueError(f"expand_binomial_affine requires k >= 0, got {k}")
    out = ONE
    for j in range(k):
        out = out * (a - j)
    return out * Fraction(1, factorial(k))


# -- exact determinants ------------------------------------------------------


def _bareiss(mat: list[list[int]], swap: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of an integer matrix, in place (Bareiss 1968).

    Returns the pivots and the sign of the row permutation.  Every pivot is
    an exact minor.  Without swaps the k-th pivot is the leading
    (k+1) x (k+1) minor and elimination stops at the first zero pivot; with
    swaps a zero pivot is replaced from below where possible, and the sign
    times the last pivot is the determinant.
    """
    n = len(mat)
    sign, prev, pivots = 1, 1, []
    for k in range(n):
        if swap and not mat[k][k]:
            for r in range(k + 1, n):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
        piv = mat[k][k]
        pivots.append(piv)
        if not piv:
            break
        tail = mat[k][k + 1:]
        for row in mat[k + 1:]:
            c = row[k]
            row[k + 1:] = [(x * piv - c * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = piv
    return pivots, sign


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a square Fraction matrix.

    Rows are cleared to integers, then Bareiss elimination with row swaps
    keeps every intermediate an exact minor.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    mat: list[list[int]] = []
    scale = 1
    for r in rows:
        fr = [Fraction(c) for c in r]
        den = lcm(*(c.denominator for c in fr))
        scale *= den
        mat.append([int(c * den) for c in fr])
    pivots, sign = _bareiss(mat, swap=True)
    return Fraction(sign * pivots[-1], scale)


def interpolate_steps(ys: list[int], den: int) -> Poly:
    """The polynomial taking ys[t] / den at t = 0, 1, ..., len(ys) - 1.

    Newton forward differences, then sum_k diff_k (t)_k / k! by Horner in
    the falling factorials, all over the integers scaled by (len(ys)-1)!.
    """
    n = len(ys) - 1
    diffs = list(ys)
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    acc: list[int] = []
    fact = 1  # n! / k!
    for k in range(n, -1, -1):
        # acc <- acc * (t - k) + diffs[k] * n! / k!
        acc = [a - k * b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += diffs[k] * fact
        fact *= k or 1
    return Poly(tuple(Fraction(c, den * fact) for c in acc))


def interpolate(points: list[tuple[Fraction, Fraction]]) -> Poly:
    """Exact Lagrange interpolation (Newton form) through distinct points."""
    xs = [p[0] for p in points]
    dd = [p[1] for p in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    out = Poly()
    for i in range(n - 1, -1, -1):
        out = out * (X - xs[i]) + dd[i]
    return out


def minor_degree_bound(degrees: list[list[int]], j: int) -> int:
    """Degree bound of the j x j leading minor of a matrix with the given entry
    degrees in d (a zero's -1 counts as 0): the lesser of the row-sum and
    column-sum bounds."""
    degs = [[max(e, 0) for e in row[:j]] for row in degrees[:j]]
    return min(sum(map(max, degs)), sum(map(max, zip(*degs))))


def horner(cs, x: int) -> int:
    """The integer polynomial with ascending coefficients cs, evaluated at x."""
    v = 0
    for c in reversed(cs):
        v = v * x + c
    return v


def leading_minors(mat: list[list[int]], orders) -> dict[int, int]:
    """The leading principal minors of a square integer matrix, by order.

    One Bareiss pass without row swaps puts every leading minor on the
    diagonal; past a zero pivot the larger orders come from det_fraction on
    their leading block.
    """
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant of a non-square matrix")
    if any(not 0 <= j <= n for j in orders):
        raise ValueError(f"leading minor orders must lie in [0, {n}]")
    pivots, _ = _bareiss([list(r) for r in mat], swap=False)
    return {j: (pivots[j - 1] if j else 1) if j <= len(pivots) else
            det_fraction([r[:j] for r in mat[:j]]).numerator for j in orders}


def det_parametric(rows: list[list], degree_bound: int) -> Poly:
    """Exact determinant of a square matrix of Polys-in-d (or scalars).

    Evaluated at the integer points 0..degree_bound, eliminated there by
    det_fraction and interpolated back; degree_bound must dominate the true
    determinant degree.
    """
    return interpolate([(Fraction(x), det_fraction([[e.eval(x) if isinstance(e, Poly) else e
                                                     for e in row] for row in rows]))
                        for x in range(degree_bound + 1)])


# -- canonical text rendering ------------------------------------------------


def _signed_sum(terms) -> str:
    """(negative, body) terms joined as 'a + b - c', or '0' for none."""
    out = ""
    for neg, body in terms:
        out += (" - " if neg else " + ") + body if out else ("-" if neg else "") + body
    return out or "0"


def render_in_d(p: Poly) -> str:
    """Compact rendering in descending powers of d, e.g. 'd^2/2 + d/2'."""
    terms = []
    for k in range(p.degree, -1, -1):
        c = Fraction(p.coeff(k))
        if c and k == 0:
            terms.append((c < 0, str(abs(c))))
        elif c:
            var, num, den = ("d" if k == 1 else f"d^{k}"), abs(c.numerator), c.denominator
            body = var if num == 1 else f"{num}*{var}"
            terms.append((c < 0, body + (f"/{den}" if den != 1 else "")))
    return _signed_sum(terms)


def render(p: Poly | TDTable, var: str = "t") -> str:
    """Canonical ascending rendering, e.g. '1 + 6*t + 6*t^2 + 1*t^3'; a
    TDTable's coefficients render in d, e.g. '1 + (d^2/2 + d/2)*t'."""
    terms = []
    for k in range(p.degree + 1):
        c = p.coeff(k)
        if isinstance(c, Poly) and c.degree < 1:  # a constant in d renders as a number
            c = c.coeff(0)
        if c:
            power = "" if k == 0 else "*" + (var if k == 1 else f"{var}^{k}")
            if isinstance(c, Poly):
                terms.append((False, f"({render_in_d(c)}){power}"))
            else:
                terms.append((c < 0, f"{abs(Fraction(c))}{power}"))
    return _signed_sum(terms)
