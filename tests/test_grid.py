"""One grid runner: the library verify functions and `klm verify` share it."""

import pytest

from klm import cli, hooklen, klcoeff, zcoeff
from klm.certificate import grid_certificate, map_cells

GRID_CHECKS = {
    "formulas": klcoeff.verify_four_routes,
    "z-formulas": zcoeff.verify_three_routes,
    "hooks": hooklen.verify_hook_factorizations,
}


def _fails_from(n: int, start: int) -> dict | None:
    """A module-level worker (it pickles by name) failing at every n >= start."""
    return {"n": n} if n >= start else None


def _without_millis(certs) -> list[dict]:
    return [{k: v for k, v in c.to_json().items() if k != "millis"} for c in certs]


@pytest.mark.parametrize("suite, checked", [("formulas", 60), ("z-formulas", 24),
                                            ("hooks", 60)])
def test_library_and_cli_report_the_same_grid(suite, checked):
    lib = GRID_CHECKS[suite](3, 8)
    via_cli = cli.run_verify(suite, 3, 8, 1)[0]
    assert lib.passed and via_cli.passed
    assert (lib.subject, lib.witness) == (via_cli.subject, via_cli.witness)
    assert lib.witness == {"checked": checked}


@pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
def test_two_jobs_match_one_job(suite):
    assert (_without_millis(cli.run_verify(suite, 3, 8, 2))
            == _without_millis(cli.run_verify(suite, 3, 8, 1)))


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
