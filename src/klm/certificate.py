"""Machine-checkable verdict records emitted by every verification run."""

from __future__ import annotations

import time
from dataclasses import dataclass

METHODS = ("sturm", "hurwitz", "nseq", "multiplier", "identity")


@dataclass
class Certificate:
    """Outcome of one verification or certification run.

    A failing certificate always carries a reproducible witness: the exact
    operands of the first counterexample found.
    """

    subject: str
    method: str
    verdict: str
    witness: dict | None = None
    millis: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown certificate method {self.method!r}")
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be 'pass' or 'fail', got {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("a failing certificate must carry a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "method": self.method,
            "verdict": self.verdict,
            "witness": self.witness,
            "millis": self.millis,
        }


class Stopwatch:
    """Wall-clock helper so certificates can report their timing."""

    def __init__(self):
        self.start = time.monotonic()

    def millis(self) -> int:
        return int((time.monotonic() - self.start) * 1000)

    def done(self, subject: str, method: str, failure: dict | None,
             witness: dict | None = None) -> Certificate:
        """Build a pass/fail certificate; failure is the counterexample or None."""
        if failure is not None:
            return Certificate(subject, method, "fail", failure, self.millis())
        return Certificate(subject, method, "pass", witness, self.millis())
