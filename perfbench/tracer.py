"""Trace one klm CLI command, per layer, in its own process.

    python3 perfbench/tracer.py SPANS.jsonl RUN_ID -- <klm arguments>

Imports ``klm.cli``, wraps the public functions named in ``LAYERS`` in their
defining module and in every ``klm.*`` module that bound the same name with
``from .x import f``, then runs ``klm.cli.main`` with stdout captured.  The
captured stdout is written back out unchanged so the caller checks it as it
checks the CLI's.  Spans (name, start, end, parent, run id) are kept in
memory and written as JSONL when the command ends, after one header line of
counters.

A function entered again while it is already open (the recursion of
``c_recursive`` and ``kl_defining``) gets no span of its own: the inner entry
is only counted, and its time stays in the outermost span's self time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter

# Layer -> public functions whose calls the traced run times.  ``arith`` and
# ``certificate`` are left out: their functions run millions of times below
# the stage level, so a wrapper would mostly time itself.
LAYERS = {
    "cli": ("cache_lookup", "cache_append", "run_certify", "run_verify"),
    "klcoeff": ("c_recursive", "compare_routes_at", "verify_proof_identities",
                "kl_poly"),
    "zcoeff": ("z_from_kl", "compare_routes_at", "narayana_check"),
    "oracle": ("kl_defining", "restriction_contraction_audit"),
    "hooklen": ("check_hook_cell", "verify_equivariant_sum"),
    "seqfactor": ("gy_poly", "seq_value", "kl_reformulation_check"),
    "polyring": ("poly_gcd", "squarefree_part", "det_parametric", "det_fraction",
                 "interpolate"),
    "realroot": ("all_zeros_real_negative", "sturm_chain", "sturm_count",
                 "multiplicity_profile", "hurwitz_delta", "n_sequence_test"),
}

# lru_cache-memoised functions whose hit ratio is read from cache_info().
MEMOISED = ("klcoeff.c_recursive", "zcoeff.z_from_kl", "oracle.kl_defining")

ROOT_SPAN = "cli.main"


def _count_records(path) -> int:
    try:
        with open(path, "rb") as fh:
            return sum(1 for line in fh if line.strip())
    except FileNotFoundError:
        return 0


class Tracer:
    """In-memory span recorder for one process and one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns]
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.calls: Counter = Counter()
        self.cache_records: list[int] = []
        self.originals: dict = {}
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if self.open[name]:
                return fn(*args, **kwargs)
            if name == "cli.cache_lookup":
                # Counted before the span opens, so the scan is not timed.
                self.cache_records.append(_count_records(args[0]))
            span = [len(self.spans), self.stack[-1] if self.stack else None, name, 0, 0]
            self.spans.append(span)
            self.stack.append(span[0])
            self.open[name] += 1
            span[3] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                self.open[name] -= 1
                self.stack.pop()

        return traced

    def install(self) -> None:
        """Swap the wrappers in wherever klm bound the original functions."""
        import klm.cli  # noqa: F401  (imports every klm module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "klm" or n.startswith("klm."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"klm.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                self.originals[f"{layer}.{fname}"] = original
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)

    def memo_counts(self) -> dict:
        out = {}
        for name in MEMOISED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                stats = info()
                out[name] = [stats.hits, stats.misses]
        return out

    def dump(self, path) -> None:
        header = {"run": self.run_id, "calls": dict(self.calls),
                  "memo": self.memo_counts(), "cache_records": self.cache_records,
                  "missing": self.missing}
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "run": self.run_id}) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.jsonl RUN_ID -- <klm arguments>", file=sys.stderr)
        return 2
    spans_path, run_id, klm_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    import klm.cli
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            code = tracer.wrap(ROOT_SPAN, klm.cli.main)(klm_args)
    finally:
        sys.stdout.write(captured.getvalue())
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
