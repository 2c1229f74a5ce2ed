"""End-to-end and per-layer benchmark of the klm CLI.

    python3 perfbench/run.py --workload roots|hurwitz|crosscheck|replay|all \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Every workload runs the ``klm`` CLI as a user does: a fresh process per
command (``python -m klm.cli``, the checkout's ``src`` first on
``PYTHONPATH``), ``--json``, and a fresh temporary directory and ``--cache``
file per pass.  Every output is checked against a reference computed
independently of the code being timed (see ``workloads.py``).

``--trace 0`` times whole passes, repeated while they fit in ``--seconds``,
and reports the end-to-end metrics in ``BENCHMARK.json`` (see ``timed_run``).
``--trace 1`` runs one pass untraced and then the same pass with every
command under ``tracer.py``, and reports the per-layer metrics.

The last line of stdout is the result object; the line before it holds the
details: machine, seed, pass count, failures and the workload-specific
metrics (``wall_s_jobs2`` on roots, ``cmd_ms_p50``/``cmd_ms_p90`` on replay,
``failed_frac`` everywhere), which stay out of BENCHMARK.json because they
do not exist on every workload or can be 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
WORKLOADS = ("roots", "hurwitz", "crosscheck", "replay")
COMMAND_TIMEOUT_S = 150
REPLAY_LAUNCHES = 4  # a grid pass replays its commands until this many launches are timed
SETUPS_PER_PASS = 3  # grid passes; the replay stream times one every SETUP_EVERY commands
JOBS2_PASS = 1  # the one pass of a timed roots run that is also run at --jobs 2
SETUP_EVERY = 10
# Failures a check may raise on a malformed or tampered output.
CHECK_ERRORS = (ValueError, KeyError, TypeError, AttributeError, IndexError,
                ZeroDivisionError)


@dataclass
class Result:
    code: int
    out: str
    err: str
    secs: float
    rss_mb: float


def launch(cmd: list[str], cwd: Path, env: dict) -> Result:
    """Run one process to completion; wall time and max RSS from os.wait4."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        # The whole session goes, --jobs workers included.
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
        secs = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read().decode(), err.read().decode(),
                      secs, usage.ru_maxrss / 1024)


class Klm:
    """Launches klm commands, plain or under the tracer."""

    def __init__(self, env: dict, spans_dir: Path | None = None, run_id: str = ""):
        self.env = env
        self.spans_dir = spans_dir
        self.run_id = run_id
        self.spans: list[Path] = []

    def __call__(self, argv: list[str], cwd: Path, cache: Path) -> Result:
        argv = argv + ["--cache", str(cache)]
        if self.spans_dir is None:
            return launch([sys.executable, "-m", "klm.cli", *argv], cwd, self.env)
        path = self.spans_dir / f"{len(self.spans)}.jsonl"
        self.spans.append(path)
        return launch([sys.executable, str(BENCH / "tracer.py"), str(path),
                       f"{self.run_id}-{len(self.spans)}", "--", *argv], cwd, self.env)


@dataclass
class Tally:
    """Operations attempted and failed; every command run is one operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, argv: list[str], res: Result, problem: str | None) -> None:
        self.attempted += 1
        if res.code != 0:
            problem = f"exit {res.code}: {res.err.strip()[-300:]}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"klm {' '.join(argv)}: {problem}")


def check(command: workloads.Command, out: str) -> str | None:
    try:
        return command.check(out)
    except CHECK_ERRORS as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def strip_millis(out: str) -> list:
    """Cold outputs without the wall-clock ``millis`` of each certificate."""
    lines = []
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        if isinstance(rec, dict):
            rec.pop("millis", None)
        lines.append(rec)
    return lines


def import_seconds(klm: Klm, cwd: Path) -> float:
    """Wall time of a fresh interpreter plus ``import klm.cli``."""
    res = launch([sys.executable, "-c", "import klm.cli"], cwd, klm.env)
    if res.code != 0:
        raise SystemExit(f"import klm.cli failed: {res.err}")
    return res.secs


def grid_pass(klm: Klm, commands: list[workloads.Command], tmp: Path, tally: Tally,
              first: dict, jobs2: bool) -> dict:
    """Cold pass at --jobs 1 in a fresh cache, the same commands replayed
    against the warm cache until ``REPLAY_LAUNCHES`` launches are timed
    (each replay of all the commands is one ``replay_s`` sample), optionally
    the cold pass again at --jobs 2, and ``SETUPS_PER_PASS`` set-up launches."""
    cold_dir = Path(tempfile.mkdtemp(dir=tmp))
    cache = cold_dir / "cache.jsonl"
    colds = []
    for c in commands:
        res = klm(c.argv + ["--jobs", "1"], cold_dir, cache)
        stripped = strip_millis(res.out)
        problem = check(c, res.out)
        if problem is None and first.setdefault(tuple(c.argv), stripped) != stripped:
            problem = "cold output differs from the run's first pass"
        tally.record(c.argv, res, problem)
        colds.append(res)
    replay_s, rss = [], [r.rss_mb for r in colds]
    for _ in range(-(-REPLAY_LAUNCHES // len(commands))):
        replay_s.append(0.0)
        for c, cold in zip(commands, colds):
            res = klm(c.argv + ["--jobs", "1"], cold_dir, cache)
            tally.record(c.argv, res, None if res.out == cold.out
                         else "replay is not byte-identical to the cold output")
            replay_s[-1] += res.secs
            rss.append(res.rss_mb)
    out = {"wall_s": sum(r.secs for r in colds), "replay_s": replay_s,
           "units": sum(c.units for c in commands)}
    if jobs2:
        par_dir = Path(tempfile.mkdtemp(dir=tmp))
        pars = []
        for c, cold in zip(commands, colds):
            res = klm(c.argv + ["--jobs", "2"], par_dir, par_dir / "cache.jsonl")
            problem = check(c, res.out)
            if problem is None and strip_millis(res.out) != strip_millis(cold.out):
                problem = "--jobs 2 output differs from --jobs 1"
            tally.record(c.argv, res, problem)
            pars.append(res)
        out["wall_s_jobs2"] = sum(r.secs for r in pars)
        rss += [r.rss_mb for r in pars]
    out["peak_rss_mb"] = max(rss)
    out["setup_s"] = [import_seconds(klm, cold_dir) for _ in range(SETUPS_PER_PASS)]
    return out


def replay_pass(klm: Klm, stream: list[workloads.Command], grown: Path, tmp: Path,
                tally: Tally) -> dict:
    """The command stream against a fresh copy of the pre-grown cache."""
    pass_dir = Path(tempfile.mkdtemp(dir=tmp))
    cache = pass_dir / "cache.jsonl"
    shutil.copyfile(grown, cache)
    latencies, replay_s, rss, setup_s = [], 0.0, [], []
    for i, c in enumerate(stream):
        if i % SETUP_EVERY == 0:
            setup_s.append(import_seconds(klm, pass_dir))
        res = klm(c.argv + ["--jobs", "1"], pass_dir, cache)
        if c.recorded is not None:
            problem = (None if res.out == c.recorded
                       else "replay is not byte-identical to the recorded payload")
            replay_s += res.secs
        else:
            problem = check(c, res.out)
        tally.record(c.argv, res, problem)
        latencies.append(res.secs)
        rss.append(res.rss_mb)
    return {"wall_s": sum(latencies), "replay_s": [replay_s], "units": len(stream),
            "latencies": latencies, "peak_rss_mb": max(rss), "setup_s": setup_s}


class Workload:
    """One workload's commands for one seed, and how a pass runs them."""

    def __init__(self, name: str, seed: int, size: str, tmp: Path):
        self.name = name
        self.tmp = tmp
        rng = random.Random(f"{name}:{seed}")
        self.first: dict = {}
        if name == "replay":
            self.grown = tmp / "grown.jsonl"
            self.commands = workloads.replay_commands(rng, size, self.grown,
                                                      tmp / "record.jsonl")
        else:
            self.commands = workloads.GRID_WORKLOADS[name](size)
            rng.shuffle(self.commands)

    def run_pass(self, klm: Klm, tally: Tally, jobs2: bool = False) -> dict:
        if self.name == "replay":
            return replay_pass(klm, self.commands, self.grown, self.tmp, tally)
        return grid_pass(klm, self.commands, self.tmp, tally, self.first,
                         jobs2 and self.name == "roots")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("KLM_CACHE", None)
    return env


def warm_up(env: dict, tmp: Path) -> None:
    """One discarded launch: compiles the .pyc files and proves that the
    children import klm from this checkout's src."""
    res = launch([sys.executable, "-c", "import klm.cli, klm; print(klm.__file__)"],
                 tmp, env)
    where = Path(res.out.strip() or ".").resolve()
    if res.code != 0 or SRC not in where.parents:
        raise SystemExit(f"klm does not import from {SRC}: {res.out}{res.err}")


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def timed_run(work: Workload, env: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Passes repeated while another one of median length still fits in
    ``seconds``.

    ``wall_s`` and ``cells_per_s`` use the cold work of every pass: the mean
    pass wall and total cells over total wall.  Warm replays and set-up
    launches are short and many, and their medians are reported.  A pass is
    kept to a few seconds so that little of the run is left unmeasured at
    its end.  On a shared 2-CPU Xeon VM the speed of the host drifts by
    about 15% over minutes; averaging adjacent runs into one twice or four
    times as long barely narrowed their spread, so longer runs do not remove
    that drift.
    """
    klm = Klm(env)
    passes, lengths = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(work.run_pass(klm, tally, jobs2=len(passes) == JOBS2_PASS))
        now = time.perf_counter()
        lengths.append(now - began)
        if now - start + statistics.median(lengths) > seconds:
            break

    metrics = {
        "wall_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
        "cells_per_s": (sum(p["units"] for p in passes) / sum(p["wall_s"] for p in passes),
                        "1/s"),
        "replay_s": (statistics.median(s for p in passes for s in p["replay_s"]), "s"),
        "setup_s": (statistics.median(s for p in passes for s in p["setup_s"]), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    extra = {"failed_frac": (tally.failed / max(tally.attempted, 1), "ratio")}
    if len(passes) > JOBS2_PASS and "wall_s_jobs2" in passes[JOBS2_PASS]:
        extra["wall_s_jobs2"] = (passes[JOBS2_PASS]["wall_s_jobs2"], "s")
    if work.name == "replay":
        lat = [1000 * s for p in passes for s in p["latencies"]]
        extra["cmd_ms_p50"] = (statistics.median(lat), "ms")
        extra["cmd_ms_p90"] = (p90(lat), "ms")
        extra["cmd_samples"] = (len(lat), "count")
    return metrics, {"passes": len(passes), "units_per_pass": passes[0]["units"],
                     "pass_wall_s": [p["wall_s"] for p in passes], "extra": render(extra)}


def layer_metrics(span_files: list[Path]) -> tuple[dict, dict]:
    """Per-function self time and calls, and the derived layer ratios."""
    calls, self_ns, memo = Counter(), Counter(), Counter()
    records, cert_ns, missing, total_self = [], [], set(), 0
    for path in span_files:
        with path.open() as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        calls.update(header["calls"])
        for name, (hits, misses) in header["memo"].items():
            memo[name, "hits"] += hits
            memo[name, "all"] += hits + misses
        records += header["cache_records"]
        missing.update(header["missing"])
        covered = Counter()
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            own = s["end"] - s["start"] - covered[s["id"]]
            self_ns[s["name"]] += own
            total_self += own
            if s["name"] == "realroot.all_zeros_real_negative":
                cert_ns.append(s["end"] - s["start"])
    metrics = {}
    for layer, names in tracer.LAYERS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            metrics[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
            metrics[f"{name}.calls"] = (calls[name], "count")
    certs = calls["realroot.all_zeros_real_negative"]
    seqs = calls["polyring.poly_gcd"] + calls["realroot.sturm_chain"]
    cert_ms = [ns / 1e6 for ns in cert_ns]
    metrics["realroot.remainder_seqs_per_cert"] = (seqs / certs if certs else 0, "ratio")
    metrics["realroot.cert_ms_p50"] = (statistics.median(cert_ms) if cert_ms else 0, "ms")
    metrics["realroot.cert_ms_p90"] = (p90(cert_ms) if cert_ms else 0, "ms")
    for name in tracer.MEMOISED:
        hits, total = memo[name, "hits"], memo[name, "all"]
        metrics[f"{name}.hit_ratio"] = (hits / total if total else 0, "ratio")
    metrics["cli.cache_records"] = (statistics.median(records) if records else 0, "count")
    return metrics, {"self_s_total": total_self / 1e9, "missing": sorted(missing)}


def traced_run(work: Workload, env: dict, seed: int, tally: Tally) -> tuple[dict, dict]:
    """One untraced pass, then the same pass with every command traced."""
    untraced = work.run_pass(Klm(env), tally)
    spans_dir = Path(tempfile.mkdtemp(dir=work.tmp))
    klm = Klm(env, spans_dir, f"{work.name}-{seed}")
    traced = work.run_pass(klm, tally)
    untraced_wall, traced_wall = (p["wall_s"] + (sum(p["replay_s"]) if work.name != "replay"
                                                  else 0) for p in (untraced, traced))
    metrics, info = layer_metrics(klm.spans)
    metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return metrics, {"passes": 1, "traced_wall_s": traced_wall,
                     "untraced_wall_s": untraced_wall, **info}


def machine(seed: int) -> dict:
    sha = "unknown"  # the checkout the benchmark runs in need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def render(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_workload(name: str, args) -> dict:
    tally = Tally()
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP, prefix=f"{name}-"))
    try:
        env = child_env()
        warm_up(env, tmp)
        work = Workload(name, args.seed, args.size, tmp)
        if args.trace:
            metrics, info = traced_run(work, env, args.seed, tally)
        else:
            metrics, info = timed_run(work, env, args.seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    detail = {"workload": name, "size": args.size, "trace": args.trace,
              "machine": machine(args.seed), "run_count": info.pop("passes"),
              "failures": tally.problems[:10], **info}
    print(json.dumps({"detail": detail}))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": render(metrics)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny grids, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (SRC / "klm" / "cli.py").is_file():
        print(f"no klm sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    results = {name: run_workload(name, args) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
