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

The module imports the standard library alone; each command imports the
engine modules it runs when it runs.  Started as ``python -m klm.cli``, the
module answers a cache hit before any engine module loads, so a hit costs an
interpreter, argparse and one scan of the cache file, and a miss loads only
its own command's modules (``compute kl`` never loads ``hooklen``,
``oracle``, ``seqfactor`` or ``realroot``).  ``import klm.cli``, and with it
the ``klm`` console script, registers every engine module in ``sys.modules``
without executing it (``importlib.util.LazyLoader``): a module executes on
the first access to one of its attributes, so the console script's hit
executes none and its miss only its command's modules, as under ``-m``.
A ``--jobs`` grid forks its workers only after its first cell has run here
(``certificate.map_cells``), so they inherit the modules that cell executed.
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
    rather than failing every later command.
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
    pc.add_argument("kind", choices=COMPUTE_KINDS)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--d", type=int, default=None)
    pc.add_argument("--route", default=_DefaultRoute("positive"), choices=KL_ROUTES)
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
    index below what the engine accepts (in the engine's words), and a --csv
    the command cannot write or that names the run cache (the table would wipe it).

    Runs before the cache is read and before any engine module loads, so an
    exception raised while the command runs is an internal fault.
    """
    if args.command == "verify":
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


# -- certify cells ---------------------------------------------------------------


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


# -- compute ---------------------------------------------------------------------


def compute_poly(kind: str, m: int, d: int | None, route: str) -> Poly | TDTable:
    """The polynomial of kind at (m, d); d is None for a symbolic d (G and Y, a TDTable)."""
    if kind == "kl":
        from .klcoeff import kl_poly
        return kl_poly(m, d, route)
    if kind == "z":
        from .zcoeff import z_from_kl
        return z_from_kl(m, d)
    if kind == "char":
        from .oracle import RankedLattice, char_poly
        return char_poly(RankedLattice(m, d))
    from .seqfactor import SeqSpec, gy_poly, qr_poly
    if kind in ("G", "Y"):
        return gy_poly(SeqSpec("f" if kind == "G" else "b", m), d)
    return qr_poly(SeqSpec("f" if kind == "Q" else "b", m), d)


def produce_compute(args) -> tuple[str, int]:
    """The polynomial as text, or as JSON with one string per coefficient of
    t^k (rendered in d for a symbolic d)."""
    from .polyring import render, render_in_d
    p = compute_poly(args.kind, args.m, args.d, args.route)
    if not args.json:
        return render(p) + "\n", 0
    coeffs = ([str(c) for c in p.coeffs] if args.d is not None
              else [render_in_d(p.coeff(k)) for k in range(p.degree + 1)])
    return _emit_json({"kind": args.kind, "m": args.m, "d": args.d, "coeffs": coeffs}) + "\n", 0


# -- verify ----------------------------------------------------------------------


def run_verify(suite: str, m_max: int, d_max: int, jobs: int) -> list[Certificate]:
    """The certificates of suite's grids."""
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


def produce_verify(args) -> tuple[str, int]:
    return _format_certs(run_verify(args.suite, args.m_max, args.d_max, args.jobs), args.json)


# -- certify ---------------------------------------------------------------------


def run_certify(target: str, ms: list[int], ds: list[int], jobs: int) -> list[Certificate]:
    """The certificates of target's grid, in grid order."""
    from .certificate import map_cells
    if target == "kl-roots":
        return map_cells(_cell_kl_root, [(m, d) for m in ms for d in ds], jobs)
    if target == "z-roots":
        return map_cells(_cell_z_root, [(m, d) for m in ms for d in ds], jobs)
    if target in ("dseq-f", "dseq-b"):
        family = target[-1]
        return map_cells(_cell_dseq, [(family, m, d) for m in ms for d in ds], jobs)
    if target in ("hurwitz-G", "hurwitz-Y"):
        from .realroot import hurwitz_positivity_symbolic
        family = target[-1]
        return map_cells(hurwitz_positivity_symbolic, [(family, m) for m in ms], jobs)
    raise UsageError(f"unknown certify target {target!r}")


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


def _register_engine_lazily() -> None:
    """Put every engine module not yet imported into sys.modules and onto the
    klm package, unexecuted: importlib's LazyLoader executes a module on the
    first access to one of its attributes."""
    from importlib.util import LazyLoader, find_spec, module_from_spec
    package = sys.modules[__package__]
    for layer in ("arith", "polyring", "certificate", "klcoeff", "zcoeff", "hooklen",
                  "oracle", "seqfactor", "realroot"):
        name = f"{__package__}.{layer}"
        if name not in sys.modules:
            spec = find_spec(name)
            spec.loader = LazyLoader(spec.loader)
            module = sys.modules[name] = module_from_spec(spec)
            setattr(package, layer, module)
            spec.loader.exec_module(module)


# `import klm.cli`, and with it the `klm` console script, registers every
# engine module, because the tests and perfbench/tracer.py look each one up in
# sys.modules to wrap its functions.  `python -m klm.cli` has exited above.
_register_engine_lazily()
