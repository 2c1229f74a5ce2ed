"""Command-line surface: compute, verify, certify.

Subcommands wrap the library modules; results render as canonical text or
as JSON with big integers serialized as decimal strings.  ``execute`` is the
one run path: it checks the arguments, keys the command by a content hash
(the SHA-256 of its canonical JSON, from CPython's built-in hash module, so
no launch loads OpenSSL; ``--csv`` is not part of the key) and looks the key
up in an append-only JSON-lines run cache.  A hit prints the stored payload
byte for byte and never opens the cache for writing; a miss first checks
that the cache can take its record, then produces, prints and records it.  A
``verify --csv`` run then writes its table, hit or miss.

The engine modules are bound once, below, as ``import klm`` registered them:
unexecuted.  Under ``python -m klm.cli`` and ``import klm.cli`` (the ``klm``
console script) alike, a hit executes none of them and a miss only its
command's.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time

# The run key's SHA-256 comes from CPython's built-in hash module, the one
# hashlib falls back to without OpenSSL: importing hashlib would load
# libcrypto (about 3 MB of resident memory) into every launch for one digest.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a build that leaves the built-in SHA-256 out
        from hashlib import sha256

from . import (certificate, hooklen, klcoeff, oracle, polyring, realroot, seqfactor,
               zcoeff)

ENGINE_VERSION = "klm-0.3.0"
DEFAULT_CACHE = ".klm-cache.jsonl"

# The keys of klcoeff.ROUTES, spelled out because reading them there would
# execute klcoeff before the cache lookup.
KL_ROUTES = ("recursive", "hook", "alternating", "positive")


class UsageError(Exception):
    pass


class _DefaultRoute(str):
    """--route's default, told apart from a route typed for a kind it does not
    apply to; it keys a run as the plain string does."""


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- cache -----------------------------------------------------------------------


def writable_path(label: str, path: str) -> str:
    """path, or a usage error naming label if it is empty, is a directory or
    sits in a directory that does not exist."""
    if not path:
        raise UsageError(f"{label} is empty")
    if os.path.isdir(path):
        raise UsageError(f"{label} {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"{label} {path!r} is in a directory that does not exist")
    return path


def cache_path(args) -> str:
    """The run cache file of args' command: --cache, $KLM_CACHE or the default."""
    path = args.cache if args.cache is not None else os.environ.get("KLM_CACHE", DEFAULT_CACHE)
    return writable_path("cache path", path)


def check_writable(label: str, path: str) -> None:
    """A usage error naming label unless the file at path can be written.

    An existing file must open for appending and seek to its end; a new one
    needs a directory that can be written and searched.  Neither check
    creates the file, so a run that fails later leaves none behind.
    """
    try:
        fd = os.open(path, os.O_RDWR | os.O_APPEND)
        try:
            os.lseek(fd, 0, os.SEEK_END)
        finally:
            os.close(fd)
    except FileNotFoundError:
        if not os.access(os.path.dirname(path) or ".", os.W_OK | os.X_OK):
            raise UsageError(f"{label} {path!r} is in a directory that cannot be "
                             "written") from None
    except OSError as exc:
        raise UsageError(f"{label} {path!r} cannot be written: "
                         f"{exc.strerror or exc}") from None


def run_key(command: str, params: dict) -> str:
    """The hex SHA-256 of the canonical JSON of the engine version, command and
    params: the key of the command's run record.

    The digest is the standard SHA-256 whichever module computes it, so the
    keys of existing caches stay valid.
    """
    blob = _emit_json({"engine": ENGINE_VERSION, "command": command, "params": params})
    return sha256(blob.encode()).hexdigest()


def cache_lookup(path, key: str) -> dict | None:
    """The record stored under key, skipping lines that are not replayable.

    Only a line that contains the key is parsed.  A torn, hand-edited or
    too deeply nested line, or a record without an ASCII text payload and an
    exit code of 0 or 1, is never one that klm wrote, so it is passed over
    rather than failing every later command.  A path that cannot be opened
    is a usage error; it opens without blocking, so a FIFO reads as empty
    and is refused when the miss checks that it can be written.
    """
    needle = key.encode()
    try:
        fh = open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise UsageError(f"cache path {path!r} cannot be read: "
                         f"{exc.strerror or exc}") from None
    with fh:
        for line in fh:
            if needle not in line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError):
                continue
            if (isinstance(rec, dict) and rec.get("key") == key
                    and isinstance(rec.get("payload"), str) and rec["payload"].isascii()
                    and type(rec.get("exit")) is int and rec["exit"] in (0, 1)):
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


# Parsed arguments that leave the payload as it is: the command keys the run on
# its own, and ``verify --csv`` shares the record of plain ``verify``.
UNKEYED = ("command", "jobs", "cache", "csv")


def run_params(args) -> dict:
    """The parameters that key the run record of args' command: every parsed
    argument except those of ``UNKEYED``."""
    return {k: v for k, v in vars(args).items() if k not in UNKEYED}


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
    pc.add_argument("kind", choices=COMPUTE)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--d", type=int, default=None)
    pc.add_argument("--route", default=_DefaultRoute("positive"), choices=KL_ROUTES)
    pc.add_argument("--symbolic-d", action="store_true", dest="symbolic_d",
                    help="leave d symbolic (kinds G and Y)")
    common(pc)

    pv = sub.add_parser("verify", help="run a cross-check grid")
    pv.add_argument("suite", choices=VERIFY)
    pv.add_argument("--m-max", type=positive_int, default=4, dest="m_max")
    pv.add_argument("--d-max", type=positive_int, default=10, dest="d_max")
    pv.add_argument("--csv", default=None, help="write per-route CSV rows here")
    common(pv)

    pz = sub.add_parser("certify", help="emit certificates for a target family")
    pz.add_argument("target", choices=CERTIFY)
    pz.add_argument("--m", required=True, help="m or lo..hi")
    pz.add_argument("--d", default=None, help="d or lo..hi")
    common(pz)
    return top


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with ``--m -1..2`` read as
    ``--m=-1..2`` (and the same for ``--d``).

    argparse takes a value that starts with '-' and is not a plain negative
    number for an option, and would report that --m expected one argument;
    joined, the value reaches ``check_args``, which names the bad index.
    """
    joined: list[str] = []
    for tok in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--m", "--d") and tok[:1] == "-" and tok[1:2].isdigit():
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return build_parser().parse_args(joined)


def check_args(args) -> None:
    """Reject an argument that args' command would ignore, a missing --d, an
    index below what the engine accepts (in the engine's words), a grid bound
    that leaves a verify suite nothing to check, and a --csv the command cannot
    write or that names the run cache (the table would wipe it).

    Runs before the cache is read and before any engine module executes, so an
    exception raised while the command runs is an internal fault.
    """
    if args.command == "verify":
        if args.suite == "hooks" and args.d_max < 3:
            raise UsageError(f"the hook grids start at d = 3, got --d-max {args.d_max}")
        if args.csv is not None:
            if args.suite not in ("formulas", "z-formulas"):
                raise UsageError("--csv is supported for the formulas and z-formulas suites")
            writable_path("csv path", args.csv)
            cache = cache_path(args)
            both = os.path.exists(args.csv) and os.path.exists(cache)
            if os.path.realpath(args.csv) == os.path.realpath(cache) or (
                    both and os.path.samefile(args.csv, cache)):
                raise UsageError(f"csv path {args.csv!r} is the run cache {cache!r}")
            check_writable("csv path", args.csv)
        return
    if args.command == "compute":
        if args.kind != "kl" and not isinstance(args.route, _DefaultRoute):
            raise UsageError(f"--route applies to kind kl, not {args.kind}")
        if args.symbolic_d and args.kind not in ("G", "Y"):
            raise UsageError(f"--symbolic-d applies to kinds G and Y, not {args.kind}")
        if args.symbolic_d and args.d is not None:
            raise UsageError(f"compute {args.kind} takes --d or --symbolic-d, not both")
        if args.d is None and not args.symbolic_d:
            raise UsageError(f"compute {args.kind} requires --d"
                             + (" or --symbolic-d" if args.kind in ("G", "Y") else ""))
        kind, m, d = args.kind, args.m, args.d
    else:
        hurwitz = args.target.startswith("hurwitz")
        if hurwitz and args.d is not None:
            raise UsageError(f"certify {args.target} covers every d and takes no --d")
        if not hurwitz and args.d is None:
            raise UsageError(f"certify {args.target} requires --d")
        ms = parse_range(args.m)
        if hurwitz:
            if ms[0] < 2:
                raise UsageError("the Hurwitz argument starts at m = 2")
            return
        # Ranges ascend, so the first cell holds the least m and d.
        kind, m, d = args.target, ms[0], parse_range(args.d)[0]
        if kind.startswith("dseq") and d < 1:
            raise UsageError(f"{kind} requires d >= 1, got {d}")
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


# -- compute ---------------------------------------------------------------------

# Each table below maps a subcommand's choices, in their --help order, to
# functions that read the engine only when called, so building the tables
# executes no engine module.

# Kind -> its polynomial at (m, d, route); d is None for a symbolic d (G and
# Y, a TDTable), and route applies to kl alone.
COMPUTE = {
    "kl": lambda m, d, route: klcoeff.kl_poly(m, d, route),
    "z": lambda m, d, route: zcoeff.z_from_kl(m, d),
    "char": lambda m, d, route: oracle.char_poly(m, d),
    "G": lambda m, d, route: seqfactor.gy_poly("f", m, d),
    "Y": lambda m, d, route: seqfactor.gy_poly("b", m, d),
    "Q": lambda m, d, route: seqfactor.qr_poly("f", m, d),
    "R": lambda m, d, route: seqfactor.qr_poly("b", m, d),
}


def produce_compute(args) -> tuple[str, int]:
    """The polynomial as text, or as JSON with one string per coefficient of
    t^k (rendered in d for a symbolic d)."""
    p = COMPUTE[args.kind](args.m, args.d, args.route)
    if not args.json:
        return polyring.render(p) + "\n", 0
    coeffs = ([polyring.exact_str(c) for c in p.coeffs] if args.d is not None
              else [polyring.render_in_d(p.coeff(k)) for k in range(p.degree + 1)])
    return _emit_json({"kind": args.kind, "m": args.m, "d": args.d, "coeffs": coeffs}) + "\n", 0


# -- verify ----------------------------------------------------------------------


# Suite -> its certificates at (m_max, d_max, jobs).
VERIFY = {
    "formulas": lambda m, d, jobs: [klcoeff.verify_four_routes(m, d, jobs)],
    "z-formulas": lambda m, d, jobs: [zcoeff.verify_three_routes(m, d, jobs)],
    "hooks": lambda m, d, jobs: [hooklen.verify_hook_factorizations(m, d, jobs),
                                 hooklen.verify_equivariant_sum(m, d, jobs)],
    "oracle": lambda m, d, jobs: [oracle.verify_oracle_agreement(m + d, jobs),
                                  oracle.restriction_contraction_audit(min(10, m + d), jobs)],
    "identities": lambda m, d, jobs: [klcoeff.verify_proof_identities(m, d, jobs),
                                      seqfactor.verify_diagonal_identities(m, d, jobs)],
    "narayana": lambda m, d, jobs: [zcoeff.narayana_check(d, jobs=jobs)],
    "reform": lambda m, d, jobs: [seqfactor.kl_reformulation_check(m, d, jobs)],
}


def run_verify(suite: str, m_max: int, d_max: int, jobs: int) -> list[certificate.Certificate]:
    """The certificates of suite's grids."""
    return VERIFY[suite](m_max, d_max, jobs)


def _format_certs(certs: list[certificate.Certificate], as_json: bool) -> tuple[str, int]:
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
            out.writerow([m, d, i, *("" if v is None else polyring.exact_str(v) for v in values)])


def produce_verify(args) -> tuple[str, int]:
    return _format_certs(run_verify(args.suite, args.m_max, args.d_max, args.jobs), args.json)


# -- certify ---------------------------------------------------------------------


def _cell_roots(kind, m, d):
    """The real-root certificate of the polynomial that ``compute kind`` prints."""
    return realroot.all_zeros_real_negative(COMPUTE[kind](m, d, "positive"),
                                            f"{kind}-roots m={m} d={d}")


def _cell_dseq(family, m, d):
    gamma = [seqfactor.seq_value(family, m, d, i) for i in range(d + 1)]
    return realroot.n_sequence_test(gamma, d, f"dseq-{family} m={m} d={d}")


# Target -> its module-level cell worker, which a --jobs pool pickles by name,
# and its cells over the --m and --d ranges (ms, ds), in grid order.
CERTIFY = {
    "kl-roots": lambda ms, ds: (_cell_roots, [("kl", m, d) for m in ms for d in ds]),
    "z-roots": lambda ms, ds: (_cell_roots, [("z", m, d) for m in ms for d in ds]),
    "dseq-f": lambda ms, ds: (_cell_dseq, [("f", m, d) for m in ms for d in ds]),
    "dseq-b": lambda ms, ds: (_cell_dseq, [("b", m, d) for m in ms for d in ds]),
    "hurwitz-G": lambda ms, ds: (realroot.hurwitz_positivity_symbolic, [("G", m) for m in ms]),
    "hurwitz-Y": lambda ms, ds: (realroot.hurwitz_positivity_symbolic, [("Y", m) for m in ms]),
}


def run_certify(target: str, ms: list[int], ds: list[int],
                jobs: int) -> list[certificate.Certificate]:
    """The certificates of target's grid, in grid order."""
    return certificate.map_cells(*CERTIFY[target](ms, ds), jobs)


def produce_certify(args) -> tuple[str, int]:
    ds = parse_range(args.d) if args.d is not None else []
    return _format_certs(run_certify(args.target, parse_range(args.m), ds, args.jobs),
                         args.json)


# -- entry point -------------------------------------------------------------------

# Command -> produce(args), which computes the command's (payload, exit code).
PRODUCE = {"compute": produce_compute, "verify": produce_verify, "certify": produce_certify}


def execute(args) -> int:
    """Run args' command: print its cached payload, or produce, print and
    record it; then write a verify run's --csv table, hit or miss."""
    check_args(args)
    path, params = cache_path(args), run_params(args)
    key = run_key(args.command, params)
    hit = cache_lookup(path, key)
    if hit is not None:
        sys.stdout.write(hit["payload"])
        code = hit["exit"]
    else:
        check_writable("cache path", path)
        start = time.monotonic()
        payload, code = PRODUCE[args.command](args)
        sys.stdout.write(payload)
        cache_append(path, {
            "key": key, "command": args.command, "params": params, "payload": payload,
            "exit": code, "millis": int((time.monotonic() - start) * 1000),
            "jobs": args.jobs})
    if args.command == "verify" and args.csv:
        write_routes_csv(args.csv, args.suite, args.m_max, args.d_max)
    return code


def main(argv: list[str] | None = None) -> int:
    """Run argv's command, with bad input reported as a usage error (exit 2)
    and any other fault, a ValueError included, as an internal error (exit 3)."""
    args = parse_args(argv)
    try:
        return execute(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
