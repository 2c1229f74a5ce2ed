"""Machine-checkable verdict records, and the one routine that runs every grid."""

from __future__ import annotations

import os
from collections import namedtuple

METHODS = ("sturm", "hurwitz", "nseq", "identity")


class Checked:
    """A mixin, listed before a namedtuple base, whose ``_make`` (and so
    ``_replace``, which calls it) builds through the subclass's ``__new__``:
    namedtuple's own ``_make`` skips ``__new__``'s checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Certificate(Checked, namedtuple("Certificate", "subject method verdict witness")):
    """Outcome of one verification or certification run.

    A failing certificate always carries a reproducible witness: the exact
    operands of the first counterexample found.
    """

    __slots__ = ()

    def __new__(cls, subject: str, method: str, verdict: str,
                witness: dict | None = None):
        if method not in METHODS:
            raise ValueError(f"unknown certificate method {method!r}")
        if verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be 'pass' or 'fail', got {verdict!r}")
        if verdict == "fail" and witness is None:
            raise ValueError("a failing certificate must carry a witness")
        return super().__new__(cls, subject, method, verdict, witness)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return self._asdict()


def judge(subject: str, method: str, failure: dict | None,
          witness: dict | None = None) -> Certificate:
    """The certificate that fails with failure, the counterexample, or else
    passes with witness."""
    if failure is not None:
        return Certificate(subject, method, "fail", failure)
    return Certificate(subject, method, "pass", witness)


# -- grids -----------------------------------------------------------------------


def map_cells(worker, cells: list[tuple], jobs: int = 1) -> list:
    """[worker(*cell) for cell in cells], across worker processes when jobs > 1.

    The first cell always runs in this process, so every module a cell needs
    has executed, and its memos hold that cell's values, before a pool forks:
    the workers inherit them instead of executing each module again.  The
    pool starts every worker up front, so it gets no more than jobs, the
    number of remaining cells or the number of CPUs; when that is one or
    none, the remaining cells run here too.  Results keep grid order.  A worker run in another
    process must be a module-level function, so that it pickles by name.
    """
    results = [worker(*cell) for cell in cells[:1]]
    rest = cells[1:]
    workers = min(jobs, len(rest), os.cpu_count() or 1)
    if workers <= 1:
        return results + [worker(*cell) for cell in rest]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(rest) // (workers * 4))
        return results + list(pool.map(worker, *zip(*rest), chunksize=chunk))


def grid_certificate(subject: str, worker, cells: list[tuple], jobs: int = 1,
                     witness: dict | None = None) -> Certificate:
    """An identity certificate for a grid; worker(*cell) is None or the cell's failure.

    It passes with witness, by default {"checked": len(cells)}, or fails with
    the failure of the first failing cell in grid order.  At jobs = 1 the
    cells run in order and the run stops at that cell; at jobs > 1 every
    cell runs.
    """
    results = ((worker(*cell) for cell in cells) if jobs <= 1
               else map_cells(worker, cells, jobs))
    failure = next((f for f in results if f is not None), None)
    return judge(subject, "identity", failure,
                 {"checked": len(cells)} if witness is None else witness)
