"""One grid runner: the library verify functions and `klm verify` share it."""

import concurrent.futures
import os
from fractions import Fraction

import pytest

from klm import cli, hooklen, klcoeff, oracle, seqfactor, zcoeff
from klm.certificate import Certificate, grid_certificate, judge, map_cells

# Every certificate `klm verify` prints: (suite, position in its output, the
# library call the CLI makes at (m_max, d_max), the pass witness at (3, 8)).
GRID_CHECKS = {
    "formulas-60": ("formulas", 0, lambda m, d: klcoeff.verify_four_routes(m, d),
                    {"checked": 60}),
    "z-formulas-24": ("z-formulas", 0, lambda m, d: zcoeff.verify_three_routes(m, d),
                      {"checked": 24}),
    "hooks-60": ("hooks", 0, lambda m, d: hooklen.verify_hook_factorizations(m, d),
                 {"checked": 60}),
    "hooks-36": ("hooks", 1, lambda m, d: hooklen.verify_equivariant_sum(m, d),
                 {"checked": 36}),
    "oracle-pairs": ("oracle", 0, lambda m, d: oracle.verify_oracle_agreement(m + d),
                     {"pairs": 55}),
    "oracle-matroids": ("oracle", 1,
                        lambda m, d: oracle.restriction_contraction_audit(min(10, m + d)),
                        {"matroids": 55}),
    "identities-108": ("identities", 0, lambda m, d: klcoeff.verify_proof_identities(m, d),
                       {"checked": 108}),
    "identities-diagonal": ("identities", 1,
                            lambda m, d: seqfactor.verify_diagonal_identities(m, d),
                            {"m_max": 3, "d_max": 8}),
    "narayana-dyck": ("narayana", 0, lambda m, d: zcoeff.narayana_check(d),
                      {"d_max": 8, "enumerated_up_to": 8}),
    "reform-192": ("reform", 0, lambda m, d: seqfactor.kl_reformulation_check(m, d),
                   {"checked": 192}),
}


def _fails_from(n: int, start: int) -> dict | None:
    """A module-level worker (it pickles by name) failing at every n >= start."""
    return {"n": n} if n >= start else None


def test_certificate_validates_and_compares_field_by_field():
    with pytest.raises(ValueError, match="unknown certificate method 'guess'"):
        Certificate("s", "guess", "pass")
    with pytest.raises(ValueError, match="verdict must be 'pass' or 'fail', got 'maybe'"):
        Certificate("s", "sturm", "maybe")
    with pytest.raises(ValueError, match="a failing certificate must carry a witness"):
        Certificate(subject="s", method="sturm", verdict="fail")
    assert Certificate._fields == ("subject", "method", "verdict", "witness")
    cert = Certificate("s", "sturm", "fail", {"d": 3})
    assert cert == Certificate(subject="s", method="sturm", verdict="fail",
                               witness={"d": 3})
    for field, other in (("subject", "t"), ("method", "nseq"), ("witness", {"d": 4})):
        assert cert != Certificate(**{**cert.to_json(), field: other})
    assert cert != Certificate("s", "sturm", "pass", {"d": 3})
    assert cert != cert.to_json()
    assert not cert.passed and Certificate("s", "identity", "pass").passed
    assert Certificate("s", "identity", "pass").to_json() == {
        "subject": "s", "method": "identity", "verdict": "pass", "witness": None}
    assert repr(cert) == ("Certificate(subject='s', method='sturm', verdict='fail', "
                          "witness={'d': 3})")
    # _make and _replace build through the same checks as the constructor.
    with pytest.raises(ValueError, match="a failing certificate must carry a witness"):
        Certificate("s", "sturm", "pass")._replace(verdict="fail")
    with pytest.raises(ValueError, match="unknown certificate method 'guess'"):
        Certificate._make(["s", "guess", "pass", None])
    with pytest.raises(AttributeError):
        cert.verdict = "pass"
    with pytest.raises(AttributeError):
        cert.millis = 7
    with pytest.raises(TypeError):
        hash(cert)
    assert judge("s", "sturm", {"d": 3}, {"d": 1}) == cert
    assert judge("s", "sturm", None, {"d": 1}) == Certificate("s", "sturm", "pass", {"d": 1})


def test_grid_checks_cover_every_verify_certificate():
    assert sorted((suite, k) for suite, k, _, _ in GRID_CHECKS.values()) == sorted(
        (suite, k) for suite in cli.VERIFY_SUITES
        for k in range(len(cli.run_verify(suite, 1, 1, 1))))


@pytest.mark.parametrize("case", GRID_CHECKS)
def test_library_and_cli_report_the_same_grid(case):
    suite, position, verify, witness = GRID_CHECKS[case]
    lib = verify(3, 8)
    via_cli = cli.run_verify(suite, 3, 8, 1)[position]
    assert lib.passed and via_cli.passed
    assert (lib.subject, lib.witness) == (via_cli.subject, via_cli.witness)
    assert lib.witness == witness


@pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
def test_two_jobs_match_one_job(suite):
    assert cli.run_verify(suite, 3, 8, 2) == cli.run_verify(suite, 3, 8, 1)


def test_grid_stops_at_the_first_failure_with_one_job():
    seen = []

    def worker(n):
        seen.append(n)
        return _fails_from(n, 3)

    cert = grid_certificate("grid", worker, [(n,) for n in range(10)])
    assert (cert.verdict, cert.witness, seen) == ("fail", {"n": 3}, [0, 1, 2, 3])
    cert = grid_certificate("grid", worker, [(n,) for n in range(3)])
    assert (cert.verdict, cert.witness) == ("pass", {"checked": 3})


def test_grid_reports_the_first_failure_in_grid_order_with_two_jobs():
    cells = [(n, 7) for n in range(40)]
    assert map_cells(_fails_from, cells, 2) == [_fails_from(*cell) for cell in cells]
    cert = grid_certificate("grid", _fails_from, cells, jobs=2)
    assert (cert.verdict, cert.witness) == ("fail", {"n": 7})


@pytest.mark.parametrize("jobs, n_cells, cpus, pool", [
    (10**6, 3, 8, {"max_workers": 2, "chunksize": 1}),
    (10**6, 100, 4, {"max_workers": 4, "chunksize": 6}),
    (3, 100, 8, {"max_workers": 3, "chunksize": 8}),
    (10**6, 100, None, None),
    (10**6, 2, 8, None),
    (10**6, 1, 8, None),
], ids=["cells", "cpus", "jobs", "cpu-count-unknown", "two-cells", "one-cell"])
def test_map_cells_starts_no_more_workers_than_cells_or_cpus(jobs, n_cells, cpus, pool,
                                                             monkeypatch):
    made = []

    class RecordingPool:
        """Records what map_cells asks of the pool and maps in this process."""

        def __init__(self, max_workers):
            made.append({"max_workers": max_workers})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            made[-1]["chunksize"] = chunksize
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cells = [(n, 7) for n in range(n_cells)]
    assert map_cells(_fails_from, cells, jobs) == [_fails_from(*cell) for cell in cells]
    assert made == ([] if pool is None else [pool])


def test_empty_grid_passes_with_nothing_checked():
    for jobs in (1, 2):
        cert = grid_certificate("empty", _fails_from, [], jobs)
        assert (cert.verdict, cert.witness) == ("pass", {"checked": 0})
    assert hooklen.verify_hook_factorizations(1, 2).witness == {"checked": 0}


def _wrong_from_d(fn, d_min, bump):
    """fn, but with bump applied to its result at every d >= d_min."""
    def wrong(m, d, *rest, **kw):
        value = fn(m, d, *rest, **kw)
        return bump(value) if d >= d_min else value
    return wrong


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_positive_kl_form_gives_the_first_cell_witness(jobs, monkeypatch):
    monkeypatch.setattr(klcoeff, "c_positive",
                        _wrong_from_d(klcoeff.c_positive, 5, lambda v: v + 1))
    cert = klcoeff.verify_four_routes(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"m": 1, "d": 5, "i": 0, "route": "positive",
                            "value": "2", "recursive": "1"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_positive_z_form_gives_the_first_cell_witness(jobs, monkeypatch):
    monkeypatch.setattr(zcoeff, "z_positive",
                        _wrong_from_d(zcoeff.z_positive, 4, lambda v: v + 1))
    cert = zcoeff.verify_three_routes(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"m": 1, "d": 4, "i": 0, "from_kl": "1",
                            "alternating": "1", "positive": "2"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_hook_closed_form_gives_the_first_cell_witness(jobs, monkeypatch):
    monkeypatch.setattr(hooklen, "first_row_hooks_piecewise",
                        _wrong_from_d(hooklen.first_row_hooks_piecewise, 5,
                                      lambda v: v[:-1] + [v[-1] + 1]))
    cert = hooklen.verify_hook_factorizations(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"m": 1, "d": 5, "i": 1, "h": 1, "shape": [4, 2],
                            "identity": "first-row piecewise values",
                            "piecewise": [5, 4, 2, 2], "hooks": [5, 4, 2, 1]}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_recursion_gives_the_first_equivariant_cell_witness(jobs, monkeypatch):
    monkeypatch.setattr(hooklen, "c_recursive",
                        _wrong_from_d(hooklen.c_recursive, 5, lambda v: v + 1))
    cert = hooklen.verify_equivariant_sum(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"m": 1, "d": 5, "i": 1, "dimension_sum": 9, "recursive": 10}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_q_sum_gives_the_first_proof_identity_witness(jobs, monkeypatch):
    monkeypatch.setattr(klcoeff, "q_sum", _wrong_from_d(klcoeff.q_sum, 5, lambda v: v + 1))
    cert = klcoeff.verify_proof_identities(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"identity": "p_m - q_m = 1", "m": 1, "d": 5, "i": 0,
                            "p": "1", "q": "1"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_hook_step_gives_the_first_recurrence_witness(jobs, monkeypatch):
    # f_3 off by one from d = 6: the base case and the step f_2 - f_1 still
    # hold, and the step f_3 - f_2 = binom(7, 4) / 5 = 7 reads 8.
    real = klcoeff.f_normalized_hook
    monkeypatch.setattr(klcoeff, "f_normalized_hook",
                        lambda m, d, i: real(m, d, i) + (m == 3 and d >= 6))
    cert = klcoeff.verify_proof_identities(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"identity": "recurrence difference", "form": "hook",
                            "m": 2, "d": 6, "i": 1, "difference": "8", "want": "7"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_diagonal_value_gives_the_first_diagonal_witness(jobs, monkeypatch):
    monkeypatch.setattr(seqfactor, "seq_value",
                        _wrong_from_d(seqfactor.seq_value, 5, lambda v: v + 1))
    cert = seqfactor.verify_diagonal_identities(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"m": 1, "d": 5, "f_diagonal": "2", "G_at_1": "1", "binomial": 1}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_f_sequence_gives_the_first_reformulation_witness(jobs, monkeypatch):
    monkeypatch.setattr(seqfactor, "seq_value",
                        _wrong_from_d(seqfactor.seq_value, 4, lambda v: v + 1))
    cert = seqfactor.kl_reformulation_check(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"side": "kl", "m": 1, "d": 4, "i": 0, "lhs": "6", "rhs": "12"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_z_from_kl_gives_the_first_z_reformulation_witness(jobs, monkeypatch):
    # The Z side reads the from_kl route, so a wrong Z assembly is caught.
    monkeypatch.setattr(zcoeff, "z_from_kl",
                        _wrong_from_d(zcoeff.z_from_kl, 4, lambda p: p + Fraction(1)))
    cert = seqfactor.kl_reformulation_check(3, 8, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"side": "z", "m": 1, "d": 4, "i": 0, "lhs": "12", "rhs": "6"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_z_oracle_gives_the_first_oracle_pair_witness(jobs, monkeypatch):
    monkeypatch.setattr(oracle, "z_defining",
                        _wrong_from_d(oracle.z_defining, 4, lambda p: p + Fraction(1)))
    cert = oracle.verify_oracle_agreement(11, jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"m": 1, "d": 4, "reason": "Z mismatch"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_wrong_narayana_ratio_gives_the_first_narayana_witness(jobs, monkeypatch):
    real = zcoeff.narayana_ratio
    monkeypatch.setattr(zcoeff, "narayana_ratio", lambda d, i: real(d, i) + (d >= 4))
    cert = zcoeff.narayana_check(8, jobs=jobs)
    assert cert.verdict == "fail"
    assert cert.witness == {"d": 4, "i": 0, "z": "1", "narayana_ratio": 2}
