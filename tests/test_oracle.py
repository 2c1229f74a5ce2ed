"""Lattice-of-flats oracle: characteristic, KL, and Z polynomials from axioms."""

from fractions import Fraction
from itertools import combinations

import pytest

from klm.klcoeff import kl_poly
from klm.oracle import (ExplicitLattice, RankedLattice, char_poly, kl_defining,
                        restriction_contraction_audit, verify_oracle_agreement,
                        z_defining)
from klm.polyring import Poly
from klm.zcoeff import z_from_kl


def P(*coeffs) -> Poly:
    return Poly(tuple(Fraction(c) for c in coeffs))


def test_char_poly_examples():
    assert char_poly(RankedLattice(1, 2)) == P(2, -3, 1)
    for k in range(6):
        assert char_poly(RankedLattice(0, k)) == P(-1, 1) ** k
    for m in range(4):
        for d in range(1, 6):
            assert char_poly(RankedLattice(m, d)).eval(Fraction(1)) == 0


def test_ranked_lattice_is_a_frozen_value():
    for m, d in ((-1, 2), (1, -2)):
        with pytest.raises(ValueError, match=rf"invalid uniform matroid U_{{{m},{d}}}"):
            RankedLattice(m, d)
    lat = RankedLattice(m=2, d=3)
    assert lat == RankedLattice(2, 3) and lat != RankedLattice(3, 2)
    assert {lat, RankedLattice(2, 3)} == {lat}
    assert (lat.rank, lat.ground, lat.flat_count(1), lat.flat_count(3)) == (3, 5, 5, 1)
    assert repr(lat) == "RankedLattice(m=2, d=3)"
    # _make and _replace build through the same checks as the constructor.
    with pytest.raises(ValueError, match=r"invalid uniform matroid U_{2,-1}"):
        lat._replace(d=-1)
    with pytest.raises(ValueError, match=r"invalid uniform matroid U_{-1,3}"):
        RankedLattice._make([-1, 3])
    with pytest.raises(AttributeError):
        lat.d = 4
    with pytest.raises(AttributeError):
        lat.extra = 1


def test_kl_defining_examples():
    p, consistent = kl_defining(1, 2)
    assert p == P(1) and consistent
    assert kl_defining(2, 3)[0] == P(1, 5)
    for m in range(1, 11):
        p, consistent = kl_defining(m, 1)
        assert p == P(1) and consistent


def test_z_defining_examples():
    assert z_defining(1, 2) == P(1, 3, 1)
    assert z_defining(2, 3) == P(1, 10, 10, 1)
    assert z_defining(3, 1) == P(1, 1)


def test_explicit_lattice_structure():
    lat = ExplicitLattice(3, 2)  # U_{1,2}
    proper = [f for f in lat.flats if len(f) < 3]
    assert sorted(map(sorted, proper)) == [[], [0], [1], [2]]
    free = ExplicitLattice(3, 3)  # U_{0,3}
    assert len(free.flats) == 8


def closure_flats(n: int, d: int) -> list[frozenset[int]]:
    """Reference: flats of U_{n-d,d} by frozenset subset closure of min(|S|, d)."""
    def rank(s):
        return min(len(s), d)
    flats = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if frozenset(x for x in range(n) if rank(s | {x}) == rank(s)) == s:
                flats.append(s)
    return flats


def test_bitmask_flats_match_frozenset_closure():
    for n in range(1, 9):
        for d in range(1, n + 1):
            lat = ExplicitLattice(n, d)
            assert lat.flats == closure_flats(n, d)
            assert lat.counts_by_rank() == [RankedLattice(n - d, d).flat_count(k)
                                            for k in range(d + 1)]


def full_closure_masks(lat: ExplicitLattice) -> list[int]:
    """Reference: the subsets equal to their whole closure {x : rank(s | x) = rank(s)},
    read from the lattice's own rank table, by size and then lexicographically."""
    n, ranks = lat.n, lat.ranks
    closed = [s for s in range(1 << n)
              if sum(1 << x for x in range(n) if ranks[s | 1 << x] == ranks[s]) == s]
    return sorted(closed, key=lambda s: (s.bit_count(), [x for x in range(n) if s >> x & 1]))


def test_flats_match_the_full_closure_of_a_scrambled_rank_table(monkeypatch):
    # A rank table that is no matroid's: the flat test still stops only where
    # the whole closure would differ from s.
    monkeypatch.setattr(ExplicitLattice, "rank_fn",
                        lambda self, s: (s * 2654435761 >> 5) % (self.d + 1))
    for n in range(1, 9):
        for d in range(1, n + 1):
            lat = ExplicitLattice(n, d)
            assert lat.masks == full_closure_masks(lat), (n, d)


def test_explicit_char_matches_fast_path():
    for n in range(1, 9):
        for d in range(1, n + 1):
            assert ExplicitLattice(n, d).char_poly() == char_poly(RankedLattice(n - d, d))


def test_oracle_matches_closed_forms():
    for m in range(1, 5):
        for d in range(1, 9):
            p, consistent = kl_defining(m, d)
            assert consistent
            assert p == kl_poly(m, d)
            assert z_defining(m, d) == z_from_kl(m, d)


def test_audit_certificate():
    cert = restriction_contraction_audit(8)
    assert cert.passed, cert.witness


@pytest.mark.parametrize("jobs", [1, 2])
def test_audit_fails_on_a_wrong_rank_function(jobs, monkeypatch):
    # Rank capped at d+1 instead of d: in U_{1,1} the singletons become flats.
    monkeypatch.setattr(ExplicitLattice, "rank_fn",
                        lambda self, s: min(s.bit_count(), self.d + 1))
    cert = restriction_contraction_audit(6, jobs)
    assert not cert.passed
    assert cert.witness == {"m": 1, "d": 1, "reason": "flat set mismatch",
                            "extra": [[0], [1]], "missing": []}


@pytest.mark.parametrize("jobs", [1, 2])
def test_audit_fails_on_wrong_contraction_counts(jobs, monkeypatch):
    # One rank-1 flat too many in the rank-grouped counts of U_{0,2}: the
    # flats counted above the empty flat of U_{0,2} no longer match them.
    real = RankedLattice.flat_count
    monkeypatch.setattr(RankedLattice, "flat_count", lambda self, k: (
        real(self, k) + (self.m == 0 and self.d == 2 and k == 1)))
    cert = restriction_contraction_audit(4, jobs)
    assert not cert.passed
    assert cert.witness == {"m": 0, "d": 2, "flat": [], "reason": "contraction lattice mismatch",
                            "counts": [1, 2, 1], "expected": [1, 3, 1]}


def test_agreement_certificate():
    cert = verify_oracle_agreement(16)
    assert cert.passed, cert.witness


def submask_interval_counts(lat: ExplicitLattice) -> dict:
    """Reference: for each flat f below the top, the flats inside f and the
    flats above f by rank, found by enumerating the submasks of f and of its
    complement."""
    def submasks(s):
        g = s
        while True:
            yield g
            if not g:
                return
            g = (g - 1) & s

    flats, universe = set(lat.masks), (1 << lat.n) - 1
    out = {}
    for f in lat.masks:
        if f == universe:
            continue
        k = lat.rank_fn(f)
        counts = [0] * (lat.d - k + 1)
        for g in submasks(universe ^ f):
            if f | g in flats:
                counts[lat.rank_fn(f | g) - k] += 1
        out[f] = (sum(1 for g in submasks(f) if g in flats), counts)
    return out


def test_subset_sums_match_submask_enumeration():
    for n in range(1, 9):
        for d in range(1, n + 1):  # every U_{m,d} with m + d <= 8
            lat = ExplicitLattice(n, d)
            got = {f: (inside, counts) for f, inside, counts in lat.interval_counts()}
            assert got == submask_interval_counts(lat), (n - d, d)
            assert list(got) == [f for f in lat.masks if f != (1 << n) - 1]


def test_subset_sums_match_submask_enumeration_on_a_non_matroid_rank(monkeypatch):
    # Monotone but no matroid's: element 0 is a loop, so every flat holds it,
    # and element 2 counts twice.  The flats below a flat are then not all its
    # subsets, so a sum that miscounts a mask would show.
    monkeypatch.setattr(ExplicitLattice, "rank_fn",
                        lambda self, s: min((s >> 1).bit_count() + (s >> 2 & 1), self.d))
    for n in range(1, 9):
        for d in range(1, n + 1):
            lat = ExplicitLattice(n, d)
            got = {f: (inside, counts) for f, inside, counts in lat.interval_counts()}
            assert got == submask_interval_counts(lat), (n, d)


def test_rank_table_reads_the_rank_function_once_per_subset(monkeypatch):
    calls = []
    real = ExplicitLattice.rank_fn
    monkeypatch.setattr(ExplicitLattice, "rank_fn",
                        lambda self, s: calls.append(s) or real(self, s))
    lat = ExplicitLattice(5, 3)
    assert calls == list(range(32)) and lat.ranks == [min(s.bit_count(), 3) for s in calls]
