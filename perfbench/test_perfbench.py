"""Self-test of the benchmark, every workload at tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a tampered payload or reference is counted as a failed operation, that
traced self times sum to no more than the traced wall, and that the
benchmark refuses to run without the klm sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    detail, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["extra"]["failed_frac"]["value"] == 0
    assert set(detail["machine"]) == {"git_sha", "python", "nproc", "cpu", "seed"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    detail, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert detail["missing"] == []
    assert 0 < detail["self_s_total"] <= detail["traced_wall_s"]


def test_roots_trace_counts_three_remainder_sequences_per_certificate():
    _, result = bench("roots", 1)
    assert result["metrics"]["realroot.remainder_seqs_per_cert"]["value"] == 3


class Tampering(run.Klm):
    """Launches klm normally but edits the stdout of the n-th command."""

    def __init__(self, n: int, edit):
        super().__init__(run.child_env())
        self.n, self.edit, self.count = n, edit, 0

    def __call__(self, argv, cwd, cache):
        res = super().__call__(argv, cwd, cache)
        self.count += 1
        if self.count == self.n:
            edited = self.edit(res.out)
            assert edited != res.out, "the edit must change the payload"
            res.out = edited
        return res


def drop_last_line(out: str) -> str:
    return "".join(out.splitlines(keepends=True)[:-1])


def fail_verdict(out: str) -> str:
    return out.replace('"verdict":"pass"', '"verdict":"fail"', 1)


def shrink_count(out: str) -> str:
    return re.sub(r'"(checked|pairs)":(\d+)', lambda m: f'"{m[1]}":{int(m[2]) - 1}', out,
                  count=1)


def bump_coefficient(out: str) -> str:
    return re.sub(r'"coeffs":\["(\d+)', lambda m: f'"coeffs":["{int(m[1]) + 1}', out,
                  count=1)


def first_fresh(work) -> int:
    return next(i for i, c in enumerate(work.commands) if c.recorded is None) + 1


def first_replay(work) -> int:
    return next(i for i, c in enumerate(work.commands) if c.recorded is not None) + 1


# (workload, which command to tamper with, edit); the replays of a grid pass
# follow its cold commands, so command len+1 is the first replay, and the
# --jobs 2 pass follows the REPLAY_LAUNCHES replays (two roots commands each
# replayed twice).
PAYLOAD_CASES = [
    ("roots", lambda w: 1, drop_last_line),
    ("roots", lambda w: len(w.commands) + 1, fail_verdict),
    ("roots", lambda w: len(w.commands) + run.REPLAY_LAUNCHES + 1, drop_last_line),
    ("hurwitz", lambda w: 1, lambda out: out.replace('"13/2"', '"13/3"').replace(
        '"97/2"', '"97/3"')),
    ("crosscheck", lambda w: 1, shrink_count),
    ("crosscheck", lambda w: 1, fail_verdict),
    ("replay", first_replay, lambda out: out + " "),
    ("replay", first_fresh, bump_coefficient),
]


@pytest.mark.parametrize("workload,which,edit", PAYLOAD_CASES)
def test_tampered_payload_is_counted_as_failed(tmp_path, workload, which, edit):
    work = run.Workload(workload, 3, "tiny", tmp_path)
    tally = run.Tally()
    work.run_pass(Tampering(which(work), edit), tally, jobs2=True)
    # A tampered cold output also spoils the comparisons made against it.
    assert 1 <= tally.failed < tally.attempted, tally.problems


def shrink_reference(work) -> None:
    c = work.commands[0]
    if work.name == "roots":
        target, ms, ds = c.argv[1], workloads._range(c.argv[3]), workloads._range(c.argv[5])
        c.check = workloads.roots_check(target, ms, ds[:-1])
    elif work.name == "hurwitz":
        c.check = workloads.hurwitz_check(c.argv[1][-1], workloads._range(c.argv[3])[1:])
    elif work.name == "crosscheck":
        suite, m_max, d_max = c.argv[1], int(c.argv[3]), int(c.argv[5])
        c.check = workloads.suite_check(suite, workloads.suite_witnesses(
            suite, m_max, d_max - 1))
    else:
        replay = work.commands[first_replay(work) - 1]
        replay.recorded = replay.recorded.replace("1", "2", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tampered_reference_is_counted_as_failed(tmp_path, workload):
    work = run.Workload(workload, 3, "tiny", tmp_path)
    shrink_reference(work)
    tally = run.Tally()
    work.run_pass(run.Klm(run.child_env()), tally)
    assert tally.failed == 1, tally.problems


def test_fresh_compute_reference_is_the_oracle():
    check = workloads.compute_check("z", 2, 3)
    assert check('{"coeffs":["1","10","10","1"],"d":3,"kind":"z","m":2}\n') is None
    assert check('{"coeffs":["1","10","11","1"],"d":3,"kind":"z","m":2}\n') is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "roots",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
