"""Formula-free ground truth from the lattice of flats.

Characteristic polynomials come from the recursive Mobius definition,
never from a closed form; KL polynomials are read off the defining
identity t^d P(1/t) = sum_F chi_{M_F}(t) P_{M^F}(t); Z-polynomials come
from their defining sum.  A brute-force closure audit validates, at tiny
scale, the structural facts the rank-grouped fast path relies on.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import certificate, klcoeff, zcoeff
from .polyring import Poly, binomial, exact_str


def flat_count(m: int, d: int, k: int) -> int:
    """The flats of rank k of U_{m,d}: the binom(m+d, k) subsets of size k < d,
    and at rank d the whole ground set."""
    if k == d:
        return 1
    if 0 <= k < d:
        return binomial(m + d, k)
    return 0


@lru_cache(maxsize=None)
def _mobius_by_rank(m: int, d: int) -> tuple[tuple[int, ...], int]:
    """Mobius values mu(bottom, F) per proper rank, plus the top value.

    Computed by the recursive definition mu(0,F) = -sum_{G < F} mu(0,G);
    the interval below a proper rank-k flat is Boolean, so a rank-k flat
    has binom(k, j) flats of rank j below it.
    """
    proper = [0] * d
    for k in range(d):
        if k == 0:
            proper[0] = 1
        else:
            proper[k] = -sum(binomial(k, j) * proper[j] for j in range(k))
    top = -sum(binomial(m + d, k) * proper[k] for k in range(d))
    if d == 0:
        top = 1
    return tuple(proper), top


def char_poly(m: int, d: int) -> Poly:
    """chi(t) of U_{m,d} = sum_F mu(bottom, F) t^{rank - rank F}, grouped by
    rank; m = 0 gives the Boolean lattice of the free matroid."""
    if m < 0 or d < 0:
        raise ValueError(f"invalid uniform matroid U_{{{m},{d}}}")
    proper, top = _mobius_by_rank(m, d)
    coeffs = [0] * (d + 1)
    for k in range(d):
        coeffs[d - k] += binomial(m + d, k) * proper[k]
    coeffs[0] += top
    return Poly(coeffs)


@lru_cache(maxsize=None)
def kl_defining(m: int, d: int) -> tuple[Poly, bool]:
    """P_{U_{m,d}}(t) from the defining identity, with a consistency flag.

    R(t) = sum over nonempty flats of chi_{M_F}(t) P_{M^F}(t) equals
    t^d P(1/t) - P(t).  The high half of R determines P (deg P < d/2);
    the flag reports whether the low half then equals -P and the middle
    coefficient (even d) vanishes, which the identity forces.
    """
    if m < 1 or d < 1:
        raise ValueError(f"kl_defining requires m, d >= 1, got m={m}, d={d}")
    r = Poly()
    for k in range(1, d):
        # Localization at a rank-k flat is the free matroid on k elements;
        # contraction is U_{m, d-k}.  binom(m+d, k) flats share each rank.
        chi = char_poly(0, k)
        p_contr = kl_defining(m, d - k)[0] if d - k >= 1 else Poly((1,))
        r = r + binomial(m + d, k) * (chi * p_contr)
    r = r + char_poly(m, d)

    half = (d - 1) // 2
    coeffs = tuple(r.coeff(d - j) for j in range(half + 1))
    p = Poly(coeffs)
    consistent = all(r.coeff(j) == -coeffs[j] for j in range(half + 1))
    if d % 2 == 0 and r.coeff(d // 2) != 0:
        consistent = False
    return p, consistent


def z_defining(m: int, d: int) -> Poly:
    """Z_{U_{m,d}}(t) = sum_F t^{rk M_F} P_{M^F}(t), grouped by flat rank."""
    if m < 1 or d < 1:
        raise ValueError(f"z_defining requires m, d >= 1, got m={m}, d={d}")
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    for k in range(d):
        p_contr = kl_defining(m, d - k)[0]
        mult = binomial(m + d, k)
        for j, c in enumerate(p_contr.coeffs):
            coeffs[k + j] += mult * c
    return Poly(coeffs)


# -- explicit-closure audit ----------------------------------------------------


def _elements(s: int) -> list[int]:
    """The elements of the subset with bitmask s, in ascending order."""
    return [x for x in range(s.bit_length()) if s >> x & 1]


def _submasks(s: int):
    """Every subset of the bitmask s, from s itself down to the empty set."""
    g = s
    while True:
        yield g
        if not g:
            return
        g = (g - 1) & s


class ExplicitLattice:
    """Lattice of flats built from the raw rank function by subset closure.

    A subset of the ground set {0, ..., n-1} is an int bitmask with bit x set
    when x belongs to it.  ``ranks`` holds rank_fn of every subset, read once;
    ``masks`` lists the flats by size, then lexicographically, ``flats`` as frozensets.
    """

    def __init__(self, n: int, d: int):
        if n > 20:
            raise ValueError("explicit closure is a tiny-scale audit path")
        self.n, self.d = n, d
        self.ranks = [self.rank_fn(s) for s in range(1 << n)]
        bits = [1 << x for x in range(n)]
        self.masks = [s for size in range(n + 1) for s in map(sum, combinations(bits, size))
                      if self._is_flat(s, bits)]

    def rank_fn(self, s: int) -> int:
        return min(s.bit_count(), self.d)

    def _is_flat(self, s: int, bits: list[int]) -> bool:
        """s equals its closure: no element outside s keeps the rank when added.
        The test stops at the first element that does."""
        ranks, r = self.ranks, self.ranks[s]
        return all(ranks[s | b] != r for b in bits if not s & b)

    @property
    def flats(self) -> list[frozenset[int]]:
        return [frozenset(_elements(s)) for s in self.masks]

    def counts_by_rank(self) -> list[int]:
        out = [0] * (self.d + 1)
        for f in self.masks:
            out[self.rank_fn(f)] += 1
        return out

    def char_poly(self) -> Poly:
        """chi from the honest Mobius recursion over the explicit flat poset."""
        flat_set = set(self.masks)
        mu: dict[int, int] = {}
        for f in self.masks:  # by size, so every flat below f comes first
            below = [g for g in _submasks(f) if g != f and g in flat_set]
            mu[f] = 1 if not below else -sum(mu[g] for g in below)
        coeffs = [0] * (self.d + 1)
        for f in self.masks:
            coeffs[self.d - self.rank_fn(f)] += mu[f]
        return Poly(coeffs)

    def interval_counts(self):
        """Yield (f, flats inside f, [flats above f of rank k, k+1, ..., d]) for
        each flat f of rank k below the top, by subset and superset sums over
        the flat indicator, one pass per element.  ``above[s]`` packs the flats
        above s of rank r into bits [r w, (r+1) w), w = n + 1 bits holding up to 2^n."""
        ranks, size, w = self.ranks, 1 << self.n, self.n + 1
        inside, above = [0] * size, [0] * size
        for f in self.masks:
            inside[f], above[f] = 1, 1 << (w * ranks[f])
        for bit in (1 << x for x in range(self.n)):
            for s in range(size):
                if s & bit:
                    inside[s] += inside[s ^ bit]
                else:
                    above[s] += above[s | bit]
        for f in self.masks:
            if f != size - 1:
                yield f, inside[f], [above[f] >> (w * r) & (1 << w) - 1
                                     for r in range(ranks[f], self.d + 1)]


def restriction_contraction_audit(n_max: int, jobs: int = 1) -> certificate.Certificate:
    """Exhaustively validate the fast path's structural facts for every m + d <= n_max."""
    if n_max > 12:
        raise ValueError("audit is exhaustive over subsets; n_max capped at 12")
    cells = [(n - d, d) for n in range(1, n_max + 1) for d in range(1, n + 1)]
    return certificate.grid_certificate(f"restriction-contraction-audit m+d<={n_max}",
                                        audit_matroid, cells, jobs, {"matroids": len(cells)})


def audit_matroid(m: int, d: int) -> dict | None:
    """Audit the explicit lattice of U_{m,d} against the rank-grouped facts.

    Proper flats are exactly the subsets of size < d; every proper flat's
    lower interval is Boolean; and the upper interval of a rank-k flat
    matches the rank-grouped flat counts of U_{m, d-k}.  Works on bitmasks,
    with the interval sizes from ``ExplicitLattice.interval_counts``.  None
    means the audit passes.
    """
    lat = ExplicitLattice(m + d, d)
    universe = (1 << (m + d)) - 1
    expected = {s for s in range(universe + 1) if s.bit_count() < d}
    expected.add(universe)
    flats = set(lat.masks)
    if flats != expected:
        return {"m": m, "d": d, "reason": "flat set mismatch",
                "extra": sorted(map(_elements, flats - expected)),
                "missing": sorted(map(_elements, expected - flats))}
    wants: dict[int, list[int]] = {}
    for f, inside, counts in lat.interval_counts():
        k = lat.ranks[f]
        # Restriction to f: flats of the matroid restricted to f are the
        # flats contained in f; Boolean means all 2^k subsets appear.
        if inside != 2 ** k:
            return {"m": m, "d": d, "flat": _elements(f),
                    "reason": "restriction lattice not Boolean",
                    "flats_inside": inside}
        # Contraction by f: upper interval, ranks shifted down by k,
        # compared against the rank-grouped counts of U_{m, d-k}.
        if k not in wants:
            wants[k] = [flat_count(m, d - k, j) for j in range(d - k + 1)]
        if counts != wants[k]:
            return {"m": m, "d": d, "flat": _elements(f),
                    "reason": "contraction lattice mismatch",
                    "counts": counts, "expected": wants[k]}
    return None


def verify_oracle_agreement(total_max: int, jobs: int = 1) -> certificate.Certificate:
    """kl_defining and z_defining match the closed-form routes for m+d <= total_max."""
    cells = [(m, d) for m in range(1, total_max) for d in range(1, total_max - m + 1)]
    return certificate.grid_certificate(f"oracle-agreement m+d<={total_max}",
                                        check_oracle_pair, cells, jobs, {"pairs": len(cells)})


def check_oracle_pair(m: int, d: int) -> dict | None:
    """One (m, d) of the oracle agreement; None means oracle and closed forms agree."""
    p, consistent = kl_defining(m, d)
    if not consistent:
        return {"m": m, "d": d, "reason": "defining identity inconsistent"}
    closed_form = klcoeff.kl_poly(m, d)
    if p != closed_form:
        return {"m": m, "d": d, "reason": "KL mismatch",
                "oracle": [exact_str(c) for c in p.coeffs],
                "closed_form": [exact_str(c) for c in closed_form.coeffs]}
    if z_defining(m, d) != zcoeff.z_from_kl(m, d):
        return {"m": m, "d": d, "reason": "Z mismatch"}
    return None
