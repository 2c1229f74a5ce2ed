"""Command-line surface: compute, verify, certify.

Subcommands wrap the library modules; results render as canonical text or
as JSON with big integers serialized as decimal strings.  Every run is
recorded in an append-only JSON-lines cache keyed by a content hash of the
command; re-running an identical command replays the stored payload byte
for byte.

Up to its last line the module imports the standard library alone; each
command imports the engine modules it runs when it runs.  Started as ``python -m klm.cli``, the
module answers a cache hit before any engine module loads, so a hit costs an
interpreter, argparse and one scan of the cache file, and a miss loads only
its own command's modules (``compute kl`` never loads ``hooklen``,
``oracle``, ``seqfactor`` or ``realroot``).  ``import klm.cli``, and with it
the ``klm`` console script, still loads every engine module: the last line
of the module imports them all (ROADMAP item F moves the front into its own
module and retires that line).
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import sys
import time

ENGINE_VERSION = "klm-0.3.0"
DEFAULT_CACHE = ".klm-cache.jsonl"

COMPUTE_KINDS = ("kl", "z", "char", "G", "Y", "Q", "R")
# The keys of klcoeff.ROUTES, spelled out because the front imports no engine
# module.
KL_ROUTES = ("recursive", "hook", "alternating", "positive")
VERIFY_SUITES = ("formulas", "z-formulas", "hooks", "oracle", "identities",
                 "narayana", "reform")
CERTIFY_TARGETS = ("kl-roots", "z-roots", "dseq-f", "dseq-b",
                   "hurwitz-G", "hurwitz-Y")


class UsageError(Exception):
    pass


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- cache -----------------------------------------------------------------------


def cache_path(args) -> str:
    """The run cache file of args' command: --cache, $KLM_CACHE or the default.

    A directory, or a path whose parent directory is missing, is a usage
    error, raised before the command runs or prints anything.
    """
    path = args.cache or os.environ.get("KLM_CACHE", DEFAULT_CACHE)
    if os.path.isdir(path):
        raise UsageError(f"cache path {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"cache path {path!r} is in a directory that does not exist")
    return path


def run_key(command: str, params: dict) -> str:
    blob = _emit_json({"engine": ENGINE_VERSION, "command": command, "params": params})
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_lookup(path, key: str) -> dict | None:
    """The record stored under key, skipping lines that are not replayable.

    Only a line that contains the key is parsed.  A torn or hand-edited line,
    or a record without a text payload and an integer exit code, is never a
    replayable record, so it is passed over rather than failing every later
    command.
    """
    needle = key.encode()
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        for line in fh:
            if needle not in line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if (isinstance(rec, dict) and rec.get("key") == key
                    and isinstance(rec.get("payload"), str)
                    and type(rec.get("exit")) is int):
                return rec
    return None


def cache_append(path, record: dict) -> None:
    """Append one record line, first ending a torn last line if there is one.

    The check and the write happen under an exclusive ``flock``, and the line
    goes to an ``O_APPEND`` descriptor in one write, so records appended by
    concurrent runs never interleave.
    """
    line = (_emit_json(record) + "\n").encode()
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":
            line = b"\n" + line
        while line:
            line = line[os.write(fd, line):]
    finally:
        os.close(fd)


def run_params(args) -> dict | None:
    """The parameters that key the run record of args' command.

    None for ``verify --csv``: a hit there still writes the CSV, which needs
    the engine, so ``cmd_verify`` replays the same command without ``--csv``.
    """
    if args.command == "compute":
        return {"kind": args.kind, "m": args.m, "d": args.d, "route": args.route,
                "symbolic_d": args.symbolic_d, "json": args.json}
    if args.command == "verify":
        if args.csv:
            return None
        return {"suite": args.suite, "m_max": args.m_max, "d_max": args.d_max,
                "json": args.json}
    return {"target": args.target, "m": args.m, "d": args.d, "json": args.json}


def replay(args) -> int | None:
    """Print the cached payload of args' command and return its exit code.

    None when the cache holds no record for it.
    """
    params = run_params(args)
    if params is None:
        return None
    hit = cache_lookup(cache_path(args), run_key(args.command, params))
    if hit is None:
        return None
    sys.stdout.write(hit["payload"])
    return hit["exit"]


def record_run(args, produce) -> int:
    """Produce, print and record a fresh run of args' command.

    produce() returns (payload_text, exit_code).
    """
    start = time.monotonic()
    payload, code = produce()
    sys.stdout.write(payload)
    params = run_params(args)
    cache_append(cache_path(args), {
        "key": run_key(args.command, params), "command": args.command,
        "params": params, "payload": payload, "exit": code,
        "millis": int((time.monotonic() - start) * 1000), "jobs": args.jobs})
    return code


# -- arguments -------------------------------------------------------------------


def parse_range(text: str) -> list[int]:
    """'2..6' -> [2,...,6]; '4' -> [4]."""
    lo, sep, hi = text.partition("..")
    try:
        out = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise UsageError(f"expected an integer or lo..hi, got {text!r}") from None
    if not out:
        raise UsageError(f"empty range {text!r}")
    return out


def positive_int(text: str) -> int:
    """An argparse type for counts and grid bounds: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; ``args.command`` names the subcommand to run."""
    top = argparse.ArgumentParser(prog="klm",
                                  description="Kazhdan-Lusztig and Z-polynomials of "
                                              "uniform matroids, exactly")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON payloads")
        p.add_argument("--jobs", type=positive_int, default=1, help="worker processes")
        p.add_argument("--cache", default=None, help="run-record cache path "
                       "(default $KLM_CACHE or .klm-cache.jsonl)")

    pc = sub.add_parser("compute", help="compute one polynomial")
    pc.add_argument("kind", choices=COMPUTE_KINDS)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--d", type=int, default=None)
    pc.add_argument("--route", default="positive", choices=KL_ROUTES)
    pc.add_argument("--symbolic-d", action="store_true", dest="symbolic_d",
                    help="leave d symbolic (kinds G and Y)")
    common(pc)

    pv = sub.add_parser("verify", help="run a cross-check grid")
    pv.add_argument("suite", choices=VERIFY_SUITES)
    pv.add_argument("--m-max", type=positive_int, default=4, dest="m_max")
    pv.add_argument("--d-max", type=positive_int, default=10, dest="d_max")
    pv.add_argument("--csv", default=None, help="write per-route CSV rows here")
    common(pv)

    pz = sub.add_parser("certify", help="emit certificates for a target family")
    pz.add_argument("target", choices=CERTIFY_TARGETS)
    pz.add_argument("--m", required=True, help="m or lo..hi")
    pz.add_argument("--d", default=None, help="d or lo..hi")
    common(pz)
    return top


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with ``--m -1..2`` read as
    ``--m=-1..2`` (and the same for ``--d``).

    argparse takes a value that starts with '-' and is not a plain negative
    number for an option, and would report that --m expected one argument;
    joined, the value reaches ``check_indices``, which names the bad index.
    """
    joined: list[str] = []
    for tok in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--m", "--d") and tok[:1] == "-" and tok[1:2].isdigit():
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return build_parser().parse_args(joined)


def check_args(args) -> None:
    """Reject an argument that args' command would ignore, a missing --d, and
    an index below what the engine accepts.

    Runs before the cache is read and before any engine module loads, so an
    exception raised while the command runs is an internal fault.
    """
    if args.command == "compute":
        if args.symbolic_d and args.kind not in ("G", "Y"):
            raise UsageError(f"--symbolic-d applies to kinds G and Y, not {args.kind}")
        if args.symbolic_d and args.d is not None:
            raise UsageError(f"compute {args.kind} takes --d or --symbolic-d, not both")
        if args.d is None and not args.symbolic_d:
            raise UsageError(f"compute {args.kind} requires --d"
                             + (" or --symbolic-d" if args.kind in ("G", "Y") else ""))
    if args.command == "certify":
        if args.target.startswith("hurwitz") and args.d is not None:
            raise UsageError(f"certify {args.target} covers every d and takes no --d")
        if not args.target.startswith("hurwitz") and args.d is None:
            raise UsageError(f"certify {args.target} requires --d")
    if args.command != "verify":
        check_indices(args)


def check_indices(args) -> None:
    """Reject an m or d below what the engine accepts, in the engine's words."""
    if args.command == "certify":
        ms = parse_range(args.m)
        if args.target.startswith("hurwitz"):
            if ms[0] < 2:
                raise UsageError("the Hurwitz argument starts at m = 2")
            return
        # Ranges ascend, so the first cell holds the least m and d.
        kind, m, d = args.target, ms[0], parse_range(args.d)[0]
        if kind.startswith("dseq") and d < 1:
            raise UsageError(f"{kind} requires d >= 1, got {d}")
    else:
        kind, m, d = args.kind, args.m, args.d
    if kind in ("kl", "z", "kl-roots", "z-roots"):
        if m < 1 or d < 1:
            raise UsageError(f"uniform matroid indices must be positive, got m={m}, d={d}")
    elif kind == "char":
        if m < 0 or d < 0:
            raise UsageError(f"invalid uniform matroid U_{{{m},{d}}}")
    elif m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    elif d is not None and d < 1:
        raise UsageError(f"{'gy' if kind in ('G', 'Y') else 'qr'}_poly requires d >= 1, got {d}")


def _exit_code(run, args) -> int | None:
    """run(args), with bad input reported as a usage error (exit 2) and any
    other fault, a ValueError included, as an internal error (exit 3)."""
    try:
        return run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


# -- JSON rendering --------------------------------------------------------------


def _coeff_str(c) -> str:
    from fractions import Fraction

    from .polyring import Poly, render_in_d
    if isinstance(c, Poly):
        return render_in_d(c)
    return str(Fraction(c))


def poly_payload(kind: str, m: int, d: int | None, p: Poly) -> dict:
    return {"kind": kind, "m": m, "d": d, "coeffs": [_coeff_str(c) for c in p.coeffs]}


# -- certify cells ---------------------------------------------------------------
# Each cell imports what it calls; run_certify has loaded those modules before
# the --jobs pool forks, so in a worker the imports are dictionary lookups.


def _cell_kl_root(m, d):
    from .klcoeff import kl_poly
    from .realroot import all_zeros_real_negative
    return all_zeros_real_negative(kl_poly(m, d), f"kl-roots m={m} d={d}")


def _cell_z_root(m, d):
    from .realroot import all_zeros_real_negative
    from .zcoeff import z_from_kl
    return all_zeros_real_negative(z_from_kl(m, d), f"z-roots m={m} d={d}")


def _cell_dseq(family, m, d):
    from .realroot import n_sequence_test
    from .seqfactor import SeqSpec, seq_value
    spec = SeqSpec(family, m)
    gamma = [seq_value(spec, d, i) for i in range(d + 1)]
    return n_sequence_test(gamma, d, f"dseq-{family} m={m} d={d}")


def _cell_hurwitz(family, m):
    from .realroot import hurwitz_positivity_symbolic
    return hurwitz_positivity_symbolic(family, m)


# -- compute ---------------------------------------------------------------------


def compute_poly(kind: str, m: int, d: int | None, route: str,
                 symbolic_d: bool) -> tuple[Poly, int | None]:
    if kind == "kl":
        from .klcoeff import kl_poly
        return kl_poly(m, d, route), d
    if kind == "z":
        from .zcoeff import z_from_kl
        return z_from_kl(m, d), d
    if kind == "char":
        from .oracle import RankedLattice, char_poly
        return char_poly(RankedLattice(m, d)), d
    from .seqfactor import SeqSpec, gy_poly, qr_poly
    if kind in ("G", "Y"):
        spec = SeqSpec("f" if kind == "G" else "b", m)
        return gy_poly(spec, None if symbolic_d else d), None if symbolic_d else d
    spec = SeqSpec("f" if kind == "Q" else "b", m)
    return qr_poly(spec, d), d


def cmd_compute(args) -> int:
    def produce():
        p, d = compute_poly(args.kind, args.m, args.d, args.route, args.symbolic_d)
        if args.json:
            return _emit_json(poly_payload(args.kind, args.m, d, p)) + "\n", 0
        from .polyring import render
        return render(p) + "\n", 0

    return record_run(args, produce)


# -- verify ----------------------------------------------------------------------


def run_verify(suite: str, m_max: int, d_max: int, jobs: int) -> list[Certificate]:
    if suite == "formulas":
        from . import klcoeff
        return [klcoeff.verify_four_routes(m_max, d_max, jobs)]
    if suite == "z-formulas":
        from . import zcoeff
        return [zcoeff.verify_three_routes(m_max, d_max, jobs)]
    if suite == "hooks":
        from . import hooklen
        return [hooklen.verify_hook_factorizations(m_max, d_max, jobs),
                hooklen.verify_equivariant_sum(m_max, d_max, jobs)]
    if suite == "oracle":
        from . import oracle
        return [oracle.verify_oracle_agreement(m_max + d_max, jobs),
                oracle.restriction_contraction_audit(min(10, m_max + d_max), jobs)]
    if suite == "identities":
        from . import klcoeff, seqfactor
        return [klcoeff.verify_proof_identities(m_max, d_max, jobs),
                seqfactor.verify_diagonal_identities(m_max, d_max, jobs)]
    if suite == "narayana":
        from . import zcoeff
        return [zcoeff.narayana_check(d_max, jobs=jobs)]
    if suite == "reform":
        from . import seqfactor
        return [seqfactor.kl_reformulation_check(m_max, d_max, jobs)]
    raise UsageError(f"unknown verify suite {suite!r}")


def _format_certs(certs: list[Certificate], as_json: bool) -> tuple[str, int]:
    lines = []
    code = 0
    for c in certs:
        if as_json:
            lines.append(_emit_json(c.to_json()))
        else:
            lines.append(f"{c.subject}: {c.verdict}"
                         + (f" witness={_emit_json(c.witness)}" if not c.passed else ""))
        if not c.passed:
            code = 1
    return "\n".join(lines) + "\n", code


def write_routes_csv(path: str, suite: str, m_max: int, d_max: int) -> None:
    """Regression CSV: one row per (m,d,i), one column per entry of the
    suite's route table, empty where a route states no formula."""
    import csv

    from . import klcoeff, zcoeff
    if suite == "formulas":
        routes, cells = klcoeff.ROUTES, klcoeff.grid_cells(m_max, d_max)
    else:
        routes = zcoeff.ROUTES
        cells = [(m, d, i) for m, d in zcoeff.grid_cells(m_max, d_max) for i in range(d + 1)]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["m", "d", "i", *routes])
        for m, d, i in cells:
            values = (formula(m, d, i) for formula in routes.values())
            out.writerow([m, d, i, *("" if v is None else str(v) for v in values)])


def cmd_verify(args) -> int:
    if args.csv:
        if args.suite not in ("formulas", "z-formulas"):
            raise UsageError("--csv is supported for the formulas and z-formulas suites")
        # Stdout and the run record are those of the same command without
        # --csv, replayed or fresh; the CSV is written either way.
        code = execute(argparse.Namespace(**{**vars(args), "csv": None}))
        write_routes_csv(args.csv, args.suite, args.m_max, args.d_max)
        return code
    return record_run(args, lambda: _format_certs(
        run_verify(args.suite, args.m_max, args.d_max, args.jobs), args.json))


# -- certify ---------------------------------------------------------------------


def run_certify(target: str, ms: list[int], ds: list[int], jobs: int) -> list[Certificate]:
    """The certificates of target's grid, in grid order.

    Each target imports its engine modules before map_cells starts the --jobs
    pool, so the forked workers inherit them instead of importing them again.
    """
    from .certificate import map_cells
    if target == "kl-roots":
        from . import klcoeff, realroot  # noqa: F401
        return map_cells(_cell_kl_root, [(m, d) for m in ms for d in ds], jobs)
    if target == "z-roots":
        from . import realroot, zcoeff  # noqa: F401
        return map_cells(_cell_z_root, [(m, d) for m in ms for d in ds], jobs)
    if target in ("dseq-f", "dseq-b"):
        from . import realroot, seqfactor  # noqa: F401
        family = target[-1]
        return map_cells(_cell_dseq, [(family, m, d) for m in ms for d in ds], jobs)
    if target in ("hurwitz-G", "hurwitz-Y"):
        from . import realroot, seqfactor  # noqa: F401
        family = target[-1]
        return map_cells(_cell_hurwitz, [(family, m) for m in ms], jobs)
    raise UsageError(f"unknown certify target {target!r}")


def cmd_certify(args) -> int:
    ms = parse_range(args.m)
    ds = parse_range(args.d) if args.d is not None else []

    return record_run(args, lambda: _format_certs(
        run_certify(args.target, ms, ds, args.jobs), args.json))


# -- entry point -------------------------------------------------------------------

COMMANDS = {"compute": cmd_compute, "verify": cmd_verify, "certify": cmd_certify}


def run_fresh(args) -> int:
    """Run args' command on a cache miss: compute, print and record it."""
    return COMMANDS[args.command](args)


def execute(args) -> int:
    """Replay args' command from the cache, or run it fresh."""
    check_args(args)
    code = replay(args)
    return run_fresh(args) if code is None else code


def main(argv: list[str] | None = None) -> int:
    return _exit_code(execute, parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

# `import klm.cli`, and with it the `klm` console script, loads every engine
# layer: the tests and perfbench/tracer.py wrap functions in all of them.
# `python -m klm.cli` has exited above and loads only what its command runs.
from . import hooklen, klcoeff, oracle, realroot, seqfactor, zcoeff  # noqa: E402,F401
