"""The benchmark's workloads: the klm commands each one runs, and the
references their outputs are checked against.

Every reference is computed here, independently of the code being timed:
grid sizes and polynomial degrees from the paper's formulas, the printed
m=2 Hurwitz expansions, and, for fresh ``compute`` results, the
lattice-of-flats oracle in ``klm.oracle``, which uses no closed form.
Grid bounds are fixed per size, so every seed does the same work; the seed
only orders the commands and, in ``replay``, picks the replayed records and
the fresh (m, d).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass
class Command:
    """One klm invocation; ``--jobs`` and ``--cache`` are added when it runs."""

    argv: list[str]
    # Returns a description of the first disagreement with the reference, or None.
    check: Callable[[str], str | None]
    units: int  # certificates or grid cells the output covers
    recorded: str | None = None  # replay: the stored stdout it must equal byte for byte


def _json_lines(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _max_index(d: int) -> int:
    """deg P_{U_{m,d}} = floor((d-1)/2), as the paper states."""
    return (d - 1) // 2


def _range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


# -- roots: certify kl-roots / z-roots -----------------------------------------


def roots_check(target: str, ms: list[int], ds: list[int]) -> Callable[[str], str | None]:
    """Every cell of the grid passes, once, and its witness's multiplicity
    profile accounts for exactly deg Z = d or deg P = floor((d-1)/2)."""

    def check(out: str) -> str | None:
        want = {f"{target} m={m} d={d}": d for m in ms for d in ds}
        recs = _json_lines(out)
        if len(recs) != len(want):
            return f"{target}: {len(recs)} certificates for {len(want)} cells"
        for rec in recs:
            d = want.pop(rec.get("subject"), None)
            if d is None:
                return f"{target}: unexpected or repeated subject {rec.get('subject')!r}"
            if rec.get("verdict") != "pass" or rec.get("method") != "sturm":
                return f"{rec['subject']}: verdict {rec.get('verdict')!r}"
            mult = rec["witness"]["multiplicities"]
            degree = sum((k + 1) * n for k, n in enumerate(mult))
            expected = d if target == "z-roots" else _max_index(d)
            if degree != expected or rec["witness"]["distinct_zeros"] != sum(mult):
                return (f"{rec['subject']}: multiplicities {mult} give degree "
                        f"{degree}, expected {expected}")
        return None

    return check


def roots_commands(size: str) -> list[Command]:
    grids = {"full": (("z-roots", "2..6", "1..24"), ("kl-roots", "2..6", "3..34")),
             "tiny": (("z-roots", "2..3", "1..6"), ("kl-roots", "2..3", "3..8"))}[size]
    out = []
    for target, m, d in grids:
        ms, ds = _range(m), _range(d)
        out.append(Command(["certify", target, "--m", m, "--d", d, "--json"],
                           roots_check(target, ms, ds), len(ms) * len(ds)))
    return out


# -- hurwitz: certify hurwitz-G / hurwitz-Y --------------------------------------

# The m = 2 expansions of Delta_2k in d' = d - 2(m-1) printed in the paper.
PAPER_M2 = {
    ("G", 0): ["2", "6", "13/2", "3", "1/2"],
    ("G", 1): ["13", "60", "233/2", "124", "1265/16", "31", "59/8", "1", "1/16"],
    ("Y", 1): ["5", "24", "97/2", "54", "585/16", "63/4", "35/8", "3/4", "1/16"],
}


def hurwitz_check(family: str, ms: list[int]) -> Callable[[str], str | None]:
    """Every m passes with 2(m-1) expansions of strictly positive coefficients,
    every small case d < 2(m-1) is real-rooted, and m = 2 matches the paper."""

    def check(out: str) -> str | None:
        recs = _json_lines(out)
        if [r.get("subject") for r in recs] != [f"hurwitz-{family} m={m}" for m in ms]:
            return f"hurwitz-{family}: subjects {[r.get('subject') for r in recs]}"
        for m, rec in zip(ms, recs):
            if rec.get("verdict") != "pass":
                return f"{rec['subject']}: verdict {rec.get('verdict')!r}"
            expansions = rec["witness"]["delta_coeffs_in_dprime"]
            if len(expansions) != 2 * (m - 1):
                return f"{rec['subject']}: {len(expansions)} expansions"
            if not all(Fraction(c) > 0 for e in expansions for c in e):
                return f"{rec['subject']}: a non-positive coefficient"
            small = rec["witness"]["small_cases"]
            if ([c["d"] for c in small] != list(range(1, 2 * (m - 1)))
                    or not all(c["real_rooted"] for c in small)):
                return f"{rec['subject']}: small cases {small}"
            if m == 2:
                for (fam, k), want in PAPER_M2.items():
                    if fam == family and expansions[k] != want:
                        return f"{rec['subject']}: Delta_{2 * k + 2} is {expansions[k]}"
        return None

    return check


def hurwitz_commands(size: str) -> list[Command]:
    m = {"full": "2..4", "tiny": "2..3"}[size]
    return [Command(["certify", f"hurwitz-{family}", "--m", m, "--json"],
                    hurwitz_check(family, _range(m)), len(_range(m)))
            for family in ("G", "Y")]


# -- crosscheck: the verify suites ---------------------------------------------


def suite_witnesses(suite: str, m_max: int, d_max: int) -> list[dict]:
    """The passing witnesses each suite must print, counts derived here."""
    ds = range(1, d_max + 1)
    ms = range(1, m_max + 1)
    if suite == "formulas":
        return [{"checked": m_max * sum(_max_index(d) + 1 for d in ds)}]
    if suite == "z-formulas":
        return [{"checked": m_max * d_max}]
    if suite == "hooks":
        cells = sum(min(m, d - 2 * i) for m in ms for d in ds
                    for i in range(1, _max_index(d) + 1))
        return [{"checked": cells}, {"checked": m_max * sum(_max_index(d) for d in ds)}]
    if suite == "oracle":
        total, audit = m_max + d_max, min(10, m_max + d_max)
        return [{"pairs": total * (total - 1) // 2}, {"matroids": audit * (audit + 1) // 2}]
    if suite == "identities":
        proofs = sum(m_max + (2 * (m_max - 1) if i >= 1 else 0)
                     for d in ds for i in range(_max_index(d) + 1))
        return [{"checked": proofs}, {"d_max": d_max, "m_max": m_max}]
    if suite == "narayana":
        return [{"d_max": d_max, "enumerated_up_to": min(d_max, 12)}]
    if suite == "reform":
        return [{"checked": m_max * sum(_max_index(d) + 1 + d + 1 for d in ds)}]
    raise ValueError(f"unknown suite {suite!r}")


def _cells(witness: dict) -> int:
    if "enumerated_up_to" in witness:  # narayana: one Z_{U_{1,d}} per d
        return witness["d_max"]
    if "m_max" in witness:  # diagonal identities: one cell per (m, d)
        return witness["m_max"] * witness["d_max"]
    return next(iter(witness.values()))


def suite_check(suite: str, want: list[dict]) -> Callable[[str], str | None]:
    """Every certificate passes with exactly the grid count computed here,
    so a grid that silently shrinks fails."""

    def check(out: str) -> str | None:
        recs = _json_lines(out)
        got = [r.get("witness") for r in recs]
        if any(r.get("verdict") != "pass" for r in recs) or got != want:
            return f"verify {suite}: witnesses {got}, expected {want}"
        return None

    return check


CROSSCHECK = {
    "full": {"formulas": (8, 30), "z-formulas": (8, 30), "oracle": (8, 12),
             "identities": (10, 16), "hooks": (8, 24), "narayana": (4, 20),
             "reform": (6, 24)},
    "tiny": {"formulas": (3, 8), "z-formulas": (3, 8), "oracle": (3, 5),
             "identities": (3, 8), "hooks": (3, 8), "narayana": (2, 8),
             "reform": (3, 8)},
}


def crosscheck_commands(size: str) -> list[Command]:
    out = []
    for suite, (m_max, d_max) in CROSSCHECK[size].items():
        want = suite_witnesses(suite, m_max, d_max)
        out.append(Command(["verify", suite, "--m-max", str(m_max), "--d-max", str(d_max),
                            "--json"], suite_check(suite, want),
                           sum(_cells(w) for w in want)))
    return out


# -- replay: a pre-grown run cache ----------------------------------------------

REPLAY = {
    # record grid (m, d) for compute, record grid for certify, fresh m range,
    # replays and fresh commands per pass
    "full": {"compute": (20, 40), "certify": (10, 20), "fresh_m": (21, 40),
             "replays": 80, "fresh": 20},
    "tiny": {"compute": (3, 5), "certify": (2, 5), "fresh_m": (4, 6),
             "replays": 8, "fresh": 4},
}


def record_argvs(size: str) -> list[list[str]]:
    """Distinct compute and certify commands, like a user's default cache,
    in a fixed mixed order (the same file for every seed)."""
    p = REPLAY[size]
    (cm, cd), (zm, zd) = p["compute"], p["certify"]
    argvs = []
    for kind in ("kl", "z"):
        for m in range(1, cm + 1):
            for d in range(1, cd + 1):
                argvs.append(["compute", kind, "--m", str(m), "--d", str(d)]
                             + (["--json"] if (m + d) % 2 else []))
    for target in ("kl-roots", "z-roots"):
        for m in range(1, zm + 1):
            for d in range(1, zd + 1):
                argvs.append(["certify", target, "--m", str(m), "--d", str(d), "--json"])
    random.Random(0).shuffle(argvs)
    return argvs


def grow_cache(argvs: list[list[str]], path: Path, scratch: Path) -> list[str]:
    """Write one cache record per command to ``path`` and return each
    command's stdout.

    Each record is produced by ``klm.cli.main`` in this process against an
    empty cache, so the file holds exactly what the CLI itself appends,
    without the quadratic cost of growing it through lookups.
    """
    import klm.cli
    outs = []
    with path.open("w") as cache:
        for argv in argvs:
            scratch.unlink(missing_ok=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = klm.cli.main(argv + ["--cache", str(scratch)])
            if code != 0:
                raise RuntimeError(f"pre-growing the cache: {argv} exited {code}")
            cache.write(scratch.read_text())
            outs.append(buf.getvalue())
    scratch.unlink(missing_ok=True)
    return outs


def compute_check(kind: str, m: int, d: int) -> Callable[[str], str | None]:
    """A fresh compute result equals the lattice-of-flats oracle."""
    from klm import oracle
    if kind == "kl":
        poly, consistent = oracle.kl_defining(m, d)
        if not consistent:
            raise RuntimeError(f"oracle inconsistent at m={m} d={d}")
    else:
        poly = oracle.z_defining(m, d)
    want = [Fraction(c) for c in poly.coeffs]

    def check(out: str) -> str | None:
        recs = _json_lines(out)
        if (len(recs) != 1 or [recs[0].get(k) for k in ("kind", "m", "d")] != [kind, m, d]
                or [Fraction(c) for c in recs[0]["coeffs"]] != want):
            return f"compute {kind} m={m} d={d}: {out.strip()[:200]} != oracle {want}"
        return None

    return check


def replay_commands(rng: random.Random, size: str, cache: Path,
                    scratch: Path) -> list[Command]:
    """Grow ``cache`` and return the pass's command stream: replays of
    records at seeded positions (one per equal stratum of the file) and fresh
    compute kl|z misses at seeded (m, d), in seeded order."""
    p = REPLAY[size]
    argvs = record_argvs(size)
    outs = grow_cache(argvs, cache, scratch)
    n, k = len(argvs), p["replays"]
    picks = [rng.randrange(s * n // k, (s + 1) * n // k) for s in range(k)]
    stream = [Command(argvs[i], lambda out: None, 1, recorded=outs[i]) for i in picks]
    lo, hi = p["fresh_m"]
    pool = [(kind, m, d) for kind in ("kl", "z") for m in range(lo, hi + 1)
            for d in range(1, p["compute"][1] + 1)]
    for kind, m, d in rng.sample(pool, p["fresh"]):
        stream.append(Command(["compute", kind, "--m", str(m), "--d", str(d), "--json"],
                              compute_check(kind, m, d), 1))
    rng.shuffle(stream)
    return stream


GRID_WORKLOADS = {"roots": roots_commands, "hurwitz": hurwitz_commands,
                  "crosscheck": crosscheck_commands}
