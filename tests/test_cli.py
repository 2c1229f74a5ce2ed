"""Command-line surface: rendering, JSON schema, cache replay, exit codes."""

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from klm import cli, klcoeff, realroot, zcoeff
from klm.cli import main, parse_range
from klm.polyring import IntegrityError, Poly


@pytest.fixture
def run_cli(cli_env):
    """Run `python -m klm.cli` in `tmp_path`; return (exit code, stdout, stderr)."""
    def run(args, tmp_path, env_cache=None):
        env = dict(cli_env, KLM_CACHE=str(env_cache or tmp_path / "cache.jsonl"))
        proc = subprocess.run([sys.executable, "-m", "klm.cli", *args],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        return proc.returncode, proc.stdout, proc.stderr
    return run


def test_compute_renderings(tmp_path, run_cli):
    code, out, err = run_cli(["compute", "kl", "--m", "2", "--d", "3"], tmp_path)
    assert code == 0 and out == "1 + 5*t\n", err
    code, out, err = run_cli(["compute", "z", "--m", "1", "--d", "3"], tmp_path)
    assert code == 0 and out == "1 + 6*t + 6*t^2 + 1*t^3\n", err
    code, out, err = run_cli(["compute", "G", "--m", "2", "--symbolic-d"], tmp_path)
    assert code == 0 and out == "1 + (d^2/2 + d/2)*t + (-d^2/2 + d/2)*t^2\n", err


def test_compute_json_schema_and_round_trip(tmp_path, run_cli):
    code, out, err = run_cli(["compute", "kl", "--m", "2", "--d", "6", "--json"], tmp_path)
    assert code == 0, err
    payload = json.loads(out)
    assert payload == {"kind": "kl", "m": 2, "d": 6, "coeffs": ["1", "48", "98"]}
    assert all(isinstance(c, str) for c in payload["coeffs"])
    coeffs = tuple(Fraction(c) for c in payload["coeffs"])
    assert Poly(coeffs) == Poly((Fraction(1), Fraction(48), Fraction(98)))


def test_compute_other_kinds(tmp_path, run_cli):
    code, out, _ = run_cli(["compute", "char", "--m", "1", "--d", "2", "--json"], tmp_path)
    assert json.loads(out)["coeffs"] == ["2", "-3", "1"]
    code, out, err = run_cli(["compute", "Q", "--m", "2", "--d", "2"], tmp_path)
    assert code == 0 and out == "1 + 5*t + 3*t^2\n", err
    code, out, _ = run_cli(["compute", "kl", "--m", "1", "--d", "5",
                            "--route", "recursive"], tmp_path)
    assert out == "1 + 9*t + 5*t^2\n"


def test_usage_errors_exit_2(tmp_path, run_cli):
    assert run_cli(["compute", "kl", "--m", "0", "--d", "3"], tmp_path)[0] == 2
    assert run_cli(["compute", "kl", "--m", "2"], tmp_path)[0] == 2
    assert run_cli(["compute", "nope", "--m", "2", "--d", "3"], tmp_path)[0] == 2
    code, _, err = run_cli(["verify", "formulas", "--m-max", "2", "--d-max", "4",
                            "--csv", "x.csv"], tmp_path)
    assert code == 0, err
    assert run_cli(["verify", "narayana", "--d-max", "4",
                    "--csv", "x.csv"], tmp_path)[0] == 2


def test_verify_suites(tmp_path, run_cli):
    for suite in ("formulas", "z-formulas", "hooks", "identities", "narayana", "reform"):
        code, out, err = run_cli(["verify", suite, "--m-max", "2", "--d-max", "6"], tmp_path)
        assert code == 0, (suite, out, err)
        assert "pass" in out
    code, out, err = run_cli(["verify", "oracle", "--m-max", "2", "--d-max", "6"], tmp_path)
    assert code == 0 and out.count("pass") == 2, err


# The pass witnesses of every verify suite at --m-max 3 --d-max 8.
VERIFY_WITNESSES = {
    "formulas": [{"checked": 60}],
    "z-formulas": [{"checked": 24}],
    "hooks": [{"checked": 60}, {"checked": 36}],
    "oracle": [{"pairs": 55}, {"matroids": 55}],
    "identities": [{"checked": 108}, {"m_max": 3, "d_max": 8}],
    "narayana": [{"d_max": 8, "enumerated_up_to": 8}],
    "reform": [{"checked": 192}],
}


@pytest.mark.parametrize("suite", VERIFY_WITNESSES)
def test_verify_jobs_parallel(suite, tmp_path, run_cli):
    code, out, err = run_cli(["verify", suite, "--m-max", "3", "--d-max", "8",
                              "--jobs", "4", "--json"], tmp_path)
    assert code == 0, err
    certs = [json.loads(line) for line in out.splitlines()]
    assert [(c["verdict"], c["witness"]) for c in certs] == [
        ("pass", w) for w in VERIFY_WITNESSES[suite]]


def test_verify_csv_export(tmp_path, run_cli):
    csv_path = tmp_path / "routes.csv"
    code, _, err = run_cli(["verify", "formulas", "--m-max", "2", "--d-max", "4",
                            "--csv", str(csv_path)], tmp_path)
    assert code == 0, err
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,d,i,recursive,hook,alternating,positive"
    assert "1,3,1,2,2,2,2" in lines


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_text_certify_line_carries_its_witness(jobs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(klcoeff, "kl_poly",
                        lambda m, d, route="positive": Poly((Fraction(1), Fraction(-1))))
    argv = ["certify", "kl-roots", "--m", "2", "--d", "3..4", "--jobs", jobs,
            "--cache", str(tmp_path / "c.jsonl")]
    assert main(argv) == 1
    witness = '{"coeffs":["1","-1"],"distinct_zeros":1,"negative_real_zeros":0}'
    assert capsys.readouterr().out == (f"kl-roots m=2 d=3: fail witness={witness}\n"
                                       f"kl-roots m=2 d=4: fail witness={witness}\n")


def test_certify_targets_and_ranges(tmp_path, run_cli):
    code, out, err = run_cli(["certify", "kl-roots", "--m", "2..3", "--d", "1..6"], tmp_path)
    assert code == 0 and out.count(": pass") == 12, err
    code, out, err = run_cli(["certify", "dseq-f", "--m", "2", "--d", "1..8", "--json"], tmp_path)
    assert code == 0, err
    for line in out.strip().splitlines():
        assert json.loads(line)["verdict"] == "pass"
    code, out, err = run_cli(["certify", "hurwitz-Y", "--m", "2"], tmp_path)
    assert code == 0 and out == "hurwitz-Y m=2: pass\n", err


def test_kl_roots_at_d_zero_names_the_bad_index(tmp_path, run_cli):
    code, out, err = run_cli(["certify", "kl-roots", "--m", "2", "--d", "0"], tmp_path)
    assert (code, out) == (2, "")
    assert "uniform matroid indices must be positive" in err, err


@pytest.mark.parametrize("argv, message", [
    (["compute", "G", "--m", "2", "--d", "0"], "gy_poly requires d >= 1, got 0"),
    (["compute", "Y", "--m", "3", "--d", "-1"], "gy_poly requires d >= 1, got -1"),
    (["certify", "dseq-f", "--m", "2", "--d", "0"], "dseq-f requires d >= 1, got 0"),
    (["certify", "dseq-b", "--m", "2", "--d", "0..3"], "dseq-b requires d >= 1, got 0"),
])
def test_d_below_one_is_a_usage_error(argv, message, tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    assert main(argv + ["--cache", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"usage error: {message}" in err
    assert not cache.exists()


def test_dseq_at_d_zero_exits_2_from_the_console(tmp_path, run_cli):
    code, out, err = run_cli(["certify", "dseq-f", "--m", "2", "--d", "0"], tmp_path)
    assert (code, out) == (2, ""), err
    assert "dseq-f requires d >= 1, got 0" in err
    assert not (tmp_path / "cache.jsonl").exists()


def test_route_choices_are_the_engine_routes():
    """The front spells the routes out, as reading them would execute klcoeff."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    route = next(a for a in commands.choices["compute"]._actions if a.dest == "route")
    assert tuple(route.choices) == cli.KL_ROUTES == tuple(klcoeff.ROUTES)


@pytest.mark.parametrize("command, dest, table, names", [
    ("compute", "kind", cli.COMPUTE, ("kl", "z", "char", "G", "Y", "Q", "R")),
    ("verify", "suite", cli.VERIFY, ("formulas", "z-formulas", "hooks", "oracle",
                                     "identities", "narayana", "reform")),
    ("certify", "target", cli.CERTIFY, ("kl-roots", "z-roots", "dseq-f", "dseq-b",
                                        "hurwitz-G", "hurwitz-Y")),
], ids=["compute", "verify", "certify"])
def test_each_commands_choices_are_its_tables_keys(command, dest, table, names):
    """argparse offers each command's table keys, in the order --help lists them."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in commands.choices[command]._actions if a.dest == dest)
    assert tuple(action.choices) == tuple(table) == names


def test_verify_empty_grid_is_a_usage_error(tmp_path, run_cli):
    code, out, err = run_cli(["verify", "oracle", "--m-max", "0", "--d-max", "0"], tmp_path)
    assert (code, out) == (2, ""), err
    assert "argument --m-max: must be at least 1, got 0" in err


@pytest.mark.parametrize("argv, option", [
    (["verify", "oracle", "--m-max", "0", "--d-max", "0"], "--m-max"),
    (["verify", "oracle", "--m-max", "2", "--d-max", "0"], "--d-max"),
    (["verify", "formulas", "--m-max", "-1"], "--m-max"),
    (["verify", "formulas", "--jobs", "0"], "--jobs"),
    (["compute", "kl", "--m", "2", "--d", "3", "--jobs", "-3"], "--jobs"),
    (["certify", "kl-roots", "--m", "2", "--d", "3", "--jobs", "0"], "--jobs"),
])
def test_counts_below_one_are_usage_errors(argv, option, tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache", str(cache)])
    assert exc.value.code == 2
    assert f"argument {option}: must be at least 1" in capsys.readouterr().err
    assert not cache.exists()


def _negative_kl(m, d, i, route="positive"):
    raise IntegrityError(f"negative KL coefficient c({m},{d},{i})")


def _past_the_first_cell(fault, real):
    """fault where m > 1 and real elsewhere.  A reform grid's first cell, which
    map_cells runs before it forks, has m = 1, so at --jobs 2 the fault is
    raised in a worker."""
    return lambda m, d, i, *route: (fault if m > 1 else real)(m, d, i, *route)


def _tampered_subresultants(a, b, k_max, prs=realroot._subresultant_deltas):
    out = prs(a, b, k_max)
    return out and {**out, 2: out[2] + 1}


@pytest.mark.parametrize("patch, argv, error", [
    (lambda mp: mp.setattr(klcoeff, "kl_coefficient", _negative_kl),
     ["compute", "kl", "--m", "2", "--d", "3"], "negative KL coefficient"),
    (lambda mp: mp.setattr(klcoeff, "kl_coefficient",
                           _past_the_first_cell(_negative_kl, klcoeff.kl_coefficient)),
     ["verify", "reform", "--m-max", "2", "--d-max", "4", "--jobs", "2"],
     "negative KL coefficient"),
    (lambda mp: mp.setattr(zcoeff, "kl_poly", lambda m, k: Poly((Fraction(1, 2),))),
     ["compute", "z", "--m", "2", "--d", "3"], "expected an integer value, got 1/2"),
    (lambda mp: mp.setitem(klcoeff.ROUTES, "positive", _past_the_first_cell(
        lambda m, d, i: Fraction(1, 2), klcoeff.ROUTES["positive"])),
     ["verify", "reform", "--m-max", "2", "--d-max", "4", "--jobs", "2"],
     "expected an integer value, got 1/2"),
    (lambda mp: mp.setattr(realroot, "_subresultant_deltas", _tampered_subresultants),
     ["certify", "hurwitz-G", "--m", "2"], "leading minors at d = 2 disagree"),
], ids=["compute", "verify-jobs-2", "compute-fraction", "verify-fraction-jobs-2",
        "hurwitz-spot-check"])
def test_internal_fault_exits_3(patch, argv, error, tmp_path, monkeypatch, capsys):
    # An engine cross-check failing, or a computed value that is not an
    # integer, is neither a counterexample (1) nor a usage error (2); with
    # --jobs 2 it is raised in a worker process.
    patch(monkeypatch)
    zcoeff.z_from_kl.cache_clear()
    zcoeff._kl_row.cache_clear()
    cache = tmp_path / "c.jsonl"
    try:
        assert main(argv + ["--cache", str(cache)]) == 3
    finally:
        zcoeff.z_from_kl.cache_clear()
        zcoeff._kl_row.cache_clear()
    assert f"internal error: IntegrityError: {error}" in capsys.readouterr().err
    assert not cache.exists()


def test_an_engine_value_error_on_valid_arguments_exits_3(tmp_path, monkeypatch, capsys):
    # Bad arguments are rejected before the run, so a ValueError raised in
    # the engine is an internal fault, not a usage error.
    def broken(m, d, route="positive"):
        raise ValueError("engine fault")
    monkeypatch.setattr(klcoeff, "kl_poly", broken)
    cache = tmp_path / "c.jsonl"
    assert main(["compute", "kl", "--m", "2", "--d", "3", "--cache", str(cache)]) == 3
    assert "internal error: ValueError: engine fault" in capsys.readouterr().err
    assert not cache.exists()


def test_a_coefficient_past_4300_digits_prints_exactly(tmp_path, monkeypatch, capsys):
    # CPython's str() refuses an int of more than 4300 digits, and such a
    # coefficient once made a valid compute exit 3.
    digits = "1" + "0" * 4998 + "7"
    monkeypatch.setattr(klcoeff, "kl_poly",
                        lambda m, d, route="positive": Poly((1, 10 ** 4999 + 7)))
    argv = ["compute", "kl", "--m", "2", "--d", "3", "--cache", str(tmp_path / "c.jsonl")]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"1 + {digits}*t\n"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["1", digits]


def test_a_counterexample_past_4300_digits_fails_with_its_exact_witness(tmp_path, monkeypatch,
                                                                        capsys):
    # 1 + c t^2 has two non-real zeros; the witness's str() of c once made the
    # failing certificate exit 3 as an internal error.
    digits = "1" + "0" * 4998 + "7"
    monkeypatch.setattr(klcoeff, "kl_poly",
                        lambda m, d, route="positive": Poly((1, 0, 10 ** 4999 + 7)))
    argv = ["certify", "kl-roots", "--m", "2", "--d", "3", "--json",
            "--cache", str(tmp_path / "c.jsonl")]
    assert main(argv) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "fail"
    assert cert["witness"]["coeffs"] == ["1", "0", digits]


def test_a_route_value_past_4300_digits_writes_its_csv_cell_exactly(tmp_path, monkeypatch,
                                                                    capsys):
    # The second run is a cache hit, so only its CSV reads the patched route;
    # the cell's str() once made verify --csv exit 3.
    digits = "1" + "0" * 4998 + "7"
    argv = ["verify", "formulas", "--m-max", "1", "--d-max", "2",
            "--cache", str(tmp_path / "c.jsonl")]
    assert main(argv) == 0
    real = klcoeff.ROUTES["positive"]
    monkeypatch.setitem(klcoeff.ROUTES, "positive", lambda m, d, i: (
        Fraction(10 ** 4999 + 7) if (m, d, i) == (1, 2, 0) else real(m, d, i)))
    csv_path = tmp_path / "routes.csv"
    assert main(argv + ["--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert csv_path.read_text().splitlines() == [
        "m,d,i,recursive,hook,alternating,positive", "1,1,0,1,,1,1", f"1,2,0,1,,1,{digits}"]


def test_smallest_grid_and_one_job_run(tmp_path, capsys):
    argv = ["verify", "oracle", "--m-max", "1", "--d-max", "1", "--jobs", "1",
            "--cache", str(tmp_path / "c.jsonl")]
    assert main(argv) == 0
    assert capsys.readouterr().out.count(": pass") == 2


def test_parse_range():
    assert parse_range("2..6") == [2, 3, 4, 5, 6]
    assert parse_range("4") == [4]
    with pytest.raises(Exception):
        parse_range("6..2")


def test_cache_replay_is_byte_identical(tmp_path, run_cli):
    cache = tmp_path / "cache.jsonl"
    args = ["certify", "z-roots", "--m", "1..2", "--d", "1..5", "--json"]
    code1, out1, err1 = run_cli(args, tmp_path, env_cache=cache)
    assert code1 == 0, err1
    lines_after_first = cache.read_text().count("\n")
    code2, out2, err2 = run_cli(args, tmp_path, env_cache=cache)
    assert (code1, out1) == (code2, out2), err2
    # A cache hit appends nothing and recomputes nothing.
    assert cache.read_text().count("\n") == lines_after_first
    rec = json.loads(cache.read_text().splitlines()[0])
    assert set(rec) == {"key", "command", "params", "payload", "exit", "millis", "jobs"}


@pytest.mark.parametrize("args", [
    ["certify", "hurwitz-G", "--m", "2..3", "--json"],
    ["verify", "oracle", "--m-max", "3", "--d-max", "5", "--json"],
], ids=["certify", "verify"])
def test_two_cold_runs_print_the_same_bytes(args, tmp_path, run_cli):
    outs = []
    for run in ("first", "second"):
        cache = tmp_path / f"{run}.jsonl"
        code, out, err = run_cli(args, tmp_path, env_cache=cache)
        assert code == 0, err
        assert cache.read_text().count("\n") == 1  # a fresh run, not a replay
        outs.append(out)
    assert outs[0] == outs[1]
    for line in outs[0].splitlines():
        assert set(json.loads(line)) == {"subject", "method", "verdict", "witness"}


def test_cache_flag_overrides_env(tmp_path, run_cli):
    flag_cache = tmp_path / "flag.jsonl"
    code, _, err = run_cli(["compute", "kl", "--m", "1", "--d", "3",
                            "--cache", str(flag_cache)], tmp_path)
    assert code == 0 and flag_cache.exists(), err


def test_main_entry_point_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KLM_CACHE", str(tmp_path / "c.jsonl"))
    assert main(["compute", "kl", "--m", "1", "--d", "3"]) == 0
    assert capsys.readouterr().out == "1 + 2*t\n"


def test_corrupt_cache_line_is_skipped(tmp_path, run_cli):
    cache = tmp_path / "cache.jsonl"
    good = ["compute", "kl", "--m", "2", "--d", "3"]
    code, out, err = run_cli(good, tmp_path, env_cache=cache)
    assert code == 0, err
    good_record = cache.read_text()
    # A record torn mid-write: no closing quote, brace or newline.
    cache.write_text(good_record + '{"key": "abc", "payload": "1 + 5*t')
    code, replay, err = run_cli(good, tmp_path, env_cache=cache)
    assert (code, replay) == (0, out), err
    assert cache.read_text().startswith(good_record)
    fresh = ["compute", "kl", "--m", "3", "--d", "4"]
    code, fresh_out, err = run_cli(fresh, tmp_path, env_cache=cache)
    assert code == 0 and fresh_out == "1 + 28*t\n", err
    # The fresh record starts on a line of its own, so it replays too.
    lines_before = cache.read_text().count("\n")
    assert run_cli(fresh, tmp_path, env_cache=cache)[:2] == (0, fresh_out)
    assert cache.read_text().count("\n") == lines_before
    # A line that parses but is not an object is skipped the same way.
    with cache.open("a") as fh:
        fh.write("[1, 2]\n")
    assert run_cli(good, tmp_path, env_cache=cache)[:2] == (0, out)
    assert run_cli(["compute", "kl", "--m", "0", "--d", "3"], tmp_path,
                   env_cache=cache)[0] == 2


# -- the replay front: a hit is answered before the engine executes ---------------

ENGINE_MODULES = ("klm.realroot", "klm.polyring", "concurrent.futures")
# OpenSSL's hash module, which no launch loads when CPython's built-in
# SHA-256 keys the run (every standard build); empty on a build without it.
OPENSSL_MODULES = ({"_hashlib"} if importlib.util.find_spec("_sha2")
                   or importlib.util.find_spec("_sha256") else set())

# The CLI's two launches, each as (setup, run): `python -m klm.cli`, through
# the runpy call that runs the module as __main__, and the `klm` console
# script's entry.
ENTRIES = {
    "module": ("import runpy",
               "runpy.run_module('klm.cli', run_name='__main__', alter_sys=True)"),
    "console": ("from klm.cli import main", "sys.exit(main())"),
}
# The klm modules a hit executes under each entry; under -m the CLI is __main__.
FRONT = {"module": set(), "console": {"klm.cli"}}


def _launch(entry, argv, tmp_path, cli_env, env_cache=None,
            timeout=None) -> tuple[subprocess.CompletedProcess, set[str]]:
    """The CLI started through entry on argv in tmp_path, with $KLM_CACHE
    env_cache or else a fresh cache there, and the modules it executed; a
    launch that outlives timeout seconds fails the test.

    The report reads sys.modules: an engine module registered by
    LazyLoader is a plain module once it has executed, and its execution
    leaves no -X importtime line.
    """
    setup, run = ENTRIES[entry]
    script = (f"import json, sys, types\n{setup}\ntry:\n    {run}\nfinally:\n"
              "    print(json.dumps([n for n, m in sys.modules.items()\n"
              "                      if type(m) is types.ModuleType]), file=sys.stderr)\n")
    env = dict(cli_env, KLM_CACHE=str(tmp_path / "cache.jsonl") if env_cache is None
               else env_cache)
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=timeout)
    return proc, set(json.loads(proc.stderr.splitlines()[-1]))


def _launches(argv, tmp_path, cli_env, env_cache=None, timeout=None):
    """_launch(entry, ...) under each entry in turn."""
    return [_launch(entry, argv, tmp_path, cli_env, env_cache, timeout) for entry in ENTRIES]


def _assert_a_hit_executes_no_engine_module(entry, tmp_path, cli_env):
    argv = ["certify", "kl-roots", "--m", "2", "--d", "1..3", "--jobs", "2"]
    miss, miss_executed = _launch(entry, argv, tmp_path, cli_env)
    hit, hit_executed = _launch(entry, argv, tmp_path, cli_env)
    assert miss.returncode == hit.returncode == 0, (miss.stderr, hit.stderr)
    assert miss.stdout == hit.stdout and miss.stdout.count(": pass") == 3
    assert set(ENGINE_MODULES) <= miss_executed
    assert not OPENSSL_MODULES & miss_executed
    assert {n for n in hit_executed if n.startswith("klm.")} == FRONT[entry]
    assert not (set(ENGINE_MODULES) | OPENSSL_MODULES) & hit_executed


def test_cache_hit_loads_no_engine_module(tmp_path, cli_env):
    _assert_a_hit_executes_no_engine_module("module", tmp_path, cli_env)


def test_a_console_cache_hit_executes_no_engine_module(tmp_path, cli_env):
    _assert_a_hit_executes_no_engine_module("console", tmp_path, cli_env)


# argv, the modules its miss executes, and modules it must not execute.  No
# compute kind builds a certificate.
MISS_CASES = [
    (["compute", "kl", "--m", "2", "--d", "5"], {"klm.klcoeff"},
     {"klm.certificate", "klm.hooklen", "klm.oracle", "klm.seqfactor", "klm.realroot",
      "dataclasses", "csv"}),
    (["compute", "z", "--m", "2", "--d", "5"], {"klm.zcoeff"},
     {"klm.certificate", "klm.seqfactor"}),
    (["compute", "char", "--m", "2", "--d", "5"], {"klm.oracle"}, {"klm.certificate"}),
    (["compute", "G", "--m", "2", "--d", "5"], {"klm.seqfactor"}, {"klm.certificate"}),
    (["certify", "z-roots", "--m", "2..3", "--d", "1..4"], {"klm.realroot"},
     {"klm.hooklen", "klm.oracle", "klm.seqfactor", "dataclasses"}),
    (["verify", "formulas", "--m-max", "2", "--d-max", "4"], {"klm.klcoeff"},
     {"klm.oracle", "klm.hooklen"}),
    (["verify", "narayana", "--d-max", "6"], {"klm.zcoeff"}, {"klm.seqfactor"}),
    (["certify", "hurwitz-G", "--m", "2"], {"klm.seqfactor", "klm.realroot"},
     {"klm.klcoeff", "klm.zcoeff", "klm.hooklen", "klm.oracle"}),
]
MISS_IDS = ["compute-kl", "compute-z", "compute-char", "compute-G", "certify-z-roots",
            "verify-formulas", "verify-narayana", "certify-hurwitz-G"]


def _assert_a_miss_executes_only_its_commands_modules(entry, argv, loads, skips, tmp_path,
                                                      cli_env):
    proc, executed = _launch(entry, argv, tmp_path, cli_env)
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    assert loads <= executed
    assert not (skips | OPENSSL_MODULES) & executed


@pytest.mark.parametrize("argv, loads, skips", MISS_CASES, ids=MISS_IDS)
def test_a_miss_loads_only_its_commands_modules(argv, loads, skips, tmp_path, cli_env):
    _assert_a_miss_executes_only_its_commands_modules("module", argv, loads, skips, tmp_path,
                                                      cli_env)


@pytest.mark.parametrize("argv, loads, skips", MISS_CASES, ids=MISS_IDS)
def test_a_console_miss_executes_only_its_commands_modules(argv, loads, skips, tmp_path,
                                                           cli_env):
    _assert_a_miss_executes_only_its_commands_modules("console", argv, loads, skips, tmp_path,
                                                      cli_env)


@pytest.mark.parametrize("cache, message", [
    ("missing/cache.jsonl", "is in a directory that does not exist"),
    (".", "is a directory"),
], ids=["missing-parent", "directory"])
def test_a_bad_cache_path_is_a_usage_error(cache, message, tmp_path, cli_env):
    path = str(tmp_path / cache)
    for proc, executed in _launches(["compute", "kl", "--m", "2", "--d", "5", "--cache", path],
                                    tmp_path, cli_env):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"usage error: cache path {path!r} {message}" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("csv, message", [
    ("missing/x.csv", "is in a directory that does not exist"),
    (".", "is a directory"),
], ids=["missing-parent", "directory"])
def test_a_bad_csv_path_is_a_usage_error(csv, message, tmp_path, cli_env):
    path = str(tmp_path / csv)
    for proc, executed in _launches(["verify", "formulas", "--m-max", "2", "--d-max", "3",
                                     "--csv", path], tmp_path, cli_env):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"usage error: csv path {path!r} {message}" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}
    assert not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize("argv, env_cache, label", [
    ([], "", "cache path"),
    (["--cache", ""], None, "cache path"),
    (["--csv", ""], None, "csv path"),
], ids=["empty-env", "empty-cache-flag", "empty-csv"])
def test_an_empty_cache_or_csv_path_is_a_usage_error(argv, env_cache, label, tmp_path, cli_env):
    # An empty $KLM_CACHE once ran the command and then failed to record it
    # (exit 3), an empty --cache fell back to $KLM_CACHE, and an empty --csv
    # wrote no table.
    for proc, executed in _launches(["verify", "formulas", "--m-max", "2", "--d-max", "3", *argv],
                                    tmp_path, cli_env, env_cache):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"usage error: {label} is empty" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/proc/version"), reason="needs a procfs file")
def test_a_cache_that_cannot_be_written_is_a_usage_error(tmp_path, cli_env):
    # A procfs file opens for writing but cannot seek to its end.  Such a
    # cache once let the command print its payload and then fail to record
    # it (exit 3).
    for proc, executed in _launches(["compute", "kl", "--m", "2", "--d", "3",
                                     "--cache", "/proc/version"], tmp_path, cli_env):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "usage error: cache path '/proc/version' cannot be written" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}


def test_a_fifo_cache_is_a_usage_error_not_a_hang(tmp_path, cli_env):
    # The lookup's blocking open once waited forever for a writer.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for proc, executed in _launches(["compute", "kl", "--m", "2", "--d", "3",
                                     "--cache", str(fifo)], tmp_path, cli_env, timeout=10):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"usage error: cache path {str(fifo)!r} cannot be written" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}
    assert list(tmp_path.iterdir()) == [fifo]


@pytest.mark.parametrize("case, message", [
    ("symlink-loop", "Too many levels of symbolic links"),
    ("name-too-long", "File name too long"),
], ids=["symlink-loop", "name-too-long"])
def test_a_cache_that_cannot_be_read_is_a_usage_error(case, message, tmp_path, cli_env):
    # Such a cache once failed the lookup's open as an internal error (exit 3).
    if case == "symlink-loop":
        path = tmp_path / "a"
        path.symlink_to("b")
        (tmp_path / "b").symlink_to("a")
    else:
        path = tmp_path / ("c" * 300)
    made = sorted(tmp_path.iterdir())
    for proc, executed in _launches(["compute", "kl", "--m", "2", "--d", "3",
                                     "--cache", str(path)], tmp_path, cli_env, timeout=10):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"usage error: cache path {str(path)!r} cannot be read: {message}" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}
    assert sorted(tmp_path.iterdir()) == made


def test_dev_null_as_the_cache_runs_and_keeps_nothing(tmp_path, run_cli):
    code, out, err = run_cli(["compute", "kl", "--m", "2", "--d", "3", "--cache", "/dev/null"],
                             tmp_path)
    assert (code, out) == (0, "1 + 5*t\n"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/proc/version"), reason="needs a procfs file")
def test_a_csv_that_cannot_be_written_is_a_usage_error(tmp_path, cli_env):
    # Such a --csv once let verify print its pass line and record the run,
    # and then fail to write the table (exit 3).
    for proc, executed in _launches(["verify", "formulas", "--m-max", "2", "--d-max", "3",
                                     "--csv", "/proc/version"], tmp_path, cli_env):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "usage error: csv path '/proc/version' cannot be written" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}
    assert list(tmp_path.iterdir()) == []


def _refusing_writes(path, flags, *args, real_open=os.open, **kwargs):
    """os.open, except that opening for writing fails as on a read-only file."""
    if flags & (os.O_WRONLY | os.O_RDWR):
        raise PermissionError(13, "Permission denied", path)
    return real_open(path, flags, *args, **kwargs)


def test_a_hit_replays_from_a_cache_that_cannot_be_written(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache.jsonl"
    argv = ["compute", "kl", "--m", "2", "--d", "3", "--cache", str(cache)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1 + 5*t\n"
    seeded = cache.read_bytes()
    monkeypatch.setattr(os, "open", _refusing_writes)
    assert main(argv) == 0
    assert capsys.readouterr().out == "1 + 5*t\n"
    # A miss on the same cache stops before it runs, with nothing on stdout.
    assert main(["compute", "kl", "--m", "2", "--d", "4", "--cache", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage error: cache path {str(cache)!r} cannot be written: Permission denied" in err
    assert cache.read_bytes() == seeded


def test_a_new_cache_in_a_directory_that_cannot_be_written_is_a_usage_error(
        tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache.jsonl"
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        os.fspath(path) != str(tmp_path) and real_access(path, mode)))
    assert main(["compute", "kl", "--m", "2", "--d", "3", "--cache", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"usage error: cache path {str(cache)!r} is in a directory that cannot be written"
            in err)
    assert not cache.exists()


@pytest.mark.parametrize("spelling", ["relative", "absolute", "symlink", "hard-link"])
def test_a_csv_path_that_names_the_run_cache_is_a_usage_error(spelling, tmp_path, monkeypatch,
                                                             capsys):
    # Writing the table there would replace every cached record with CSV rows.
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "formulas", "--m-max", "2", "--d-max", "3", "--cache", "c.jsonl"]
    assert main(argv) == 0
    capsys.readouterr()
    cache = tmp_path / "c.jsonl"
    records = cache.read_bytes()
    csv = {"relative": "./c.jsonl", "absolute": str(cache)}.get(spelling, "table.csv")
    if spelling == "symlink":
        (tmp_path / csv).symlink_to(cache)
    elif spelling == "hard-link":
        os.link(cache, tmp_path / csv)
    assert main(argv + ["--csv", csv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"usage error: csv path {csv!r} is the run cache 'c.jsonl'" in err
    assert cache.read_bytes() == records


@pytest.mark.parametrize("argv, message", [
    (["certify", "hurwitz-G", "--m", "2", "--d", "7"],
     "certify hurwitz-G covers every d and takes no --d"),
    (["compute", "kl", "--m", "2", "--d", "5", "--symbolic-d"],
     "--symbolic-d applies to kinds G and Y, not kl"),
    (["compute", "G", "--m", "2", "--symbolic-d", "--d", "3"],
     "compute G takes --d or --symbolic-d, not both"),
    (["verify", "hooks", "--csv", "x.csv"],
     "--csv is supported for the formulas and z-formulas suites"),
    (["compute", "z", "--m", "2", "--d", "3", "--route", "hook"],
     "--route applies to kind kl, not z"),
    (["compute", "G", "--m", "2", "--symbolic-d", "--route", "positive"],
     "--route applies to kind kl, not G"),
], ids=["hurwitz-with-d", "symbolic-d-on-kl", "symbolic-d-with-d", "csv-on-hooks",
        "route-on-z", "default-route-on-G"])
def test_an_ignored_argument_is_a_usage_error(argv, message, tmp_path, cli_env):
    _assert_rejected_before_the_cache(argv, message, tmp_path, cli_env)


@pytest.mark.parametrize("target", ["kl-roots", "z-roots", "dseq-f", "dseq-b"])
def test_a_grid_target_without_d_is_a_usage_error(target, tmp_path, cli_env):
    # Without --d these once certified d = 1 alone, a cell nobody asked for.
    _assert_rejected_before_the_cache(["certify", target, "--m", "2..3"],
                                      f"certify {target} requires --d", tmp_path, cli_env)


@pytest.mark.parametrize("argv, message", [
    (["compute", "kl", "--m", "0", "--d", "3"],
     "uniform matroid indices must be positive, got m=0, d=3"),
    (["compute", "char", "--m", "2", "--d", "-1"], "invalid uniform matroid U_{2,-1}"),
    (["compute", "Q", "--m", "0", "--d", "3"], "m must be >= 1, got 0"),
    (["certify", "z-roots", "--m", "2", "--d", "0..3"],
     "uniform matroid indices must be positive, got m=2, d=0"),
    (["certify", "dseq-f", "--m", "2", "--d", "0"], "dseq-f requires d >= 1, got 0"),
    (["certify", "hurwitz-Y", "--m", "1..3"], "the Hurwitz argument starts at m = 2"),
    (["certify", "kl-roots", "--m", "2", "--d", "1..x"], "expected an integer or lo..hi, got '1..x'"),
    (["verify", "hooks", "--m-max", "4", "--d-max", "2"],
     "the hook grids start at d = 3, got --d-max 2"),
], ids=["compute-kl-m", "compute-char-d", "compute-Q-m", "z-roots-d", "dseq-d", "hurwitz-m",
        "non-integer-range", "hooks-d-max"])
def test_an_index_below_the_engines_bound_is_a_usage_error(argv, message, tmp_path, cli_env):
    _assert_rejected_before_the_cache(argv, message, tmp_path, cli_env)


@pytest.mark.parametrize("argv, message", [
    (["certify", "kl-roots", "--m", "-1..2", "--d", "3"],
     "uniform matroid indices must be positive, got m=-1, d=3"),
    (["certify", "z-roots", "--m", "2", "--d", "-1..3"],
     "uniform matroid indices must be positive, got m=2, d=-1"),
    (["certify", "dseq-b", "--m", "2", "--d", "-2..4"], "dseq-b requires d >= 1, got -2"),
    (["certify", "hurwitz-G", "--m", "-3..3"], "the Hurwitz argument starts at m = 2"),
    (["certify", "kl-roots", "--m", "-1x", "--d", "3"], "expected an integer or lo..hi, got '-1x'"),
], ids=["kl-roots-m", "z-roots-d", "dseq-d", "hurwitz-m", "non-integer"])
def test_a_range_that_starts_with_a_dash_gets_the_index_message(argv, message, tmp_path,
                                                                 cli_env):
    # argparse alone reads "-1..2" as an option and says --m expected one argument.
    _assert_rejected_before_the_cache(argv, message, tmp_path, cli_env)


@pytest.mark.parametrize("argv", [
    ["compute", "kl", "--m", "2", "--d", "-1..3"],
    ["verify", "formulas", "--m", "-1..3"],
    ["certify", "kl-roots", "--m", "--d", "-1..3"],
    ["certify", "kl-roots", "--m", "2", "--d", "3", "-1..3"],
])
def test_a_dashed_value_argparse_rejects_stays_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def _assert_rejected_before_the_cache(argv, message, tmp_path, cli_env):
    # A record a run stored before the check existed is not replayed either.
    cache = tmp_path / "cache.jsonl"
    _seed_record(cache, argv, "stale\n", 0)
    for proc, executed in _launches(argv, tmp_path, cli_env):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"usage error: {message}" in proc.stderr
        assert {n for n in executed if n.startswith("klm.")} <= {"klm.cli"}
        assert len(cache.read_text().splitlines()) == 1


# Every module of the package but the CLI; `import klm` registers each one
# unexecuted.
ENGINE_LAYERS = tuple(sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py")
                             if p.stem not in ("__init__", "cli")))


def test_import_klm_is_lazy(cli_env):
    # `import klm` registers every engine module unexecuted; resolving kl_poly
    # executes klcoeff and what it imports, and no module that needs klcoeff.
    script = ("import json, sys, types, klm\n"
              "def klm_modules():\n"
              "    return {n[4:]: type(m) is types.ModuleType for n, m in sys.modules.items()\n"
              "            if n.startswith('klm.')}\n"
              "print(json.dumps(klm_modules()))\n"
              "print(klm.kl_poly(2, 3) == klm.Poly((1, 5)), klm.__all__)\n"
              "print(json.dumps(klm_modules()))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    registered, resolved, after = proc.stdout.splitlines()
    assert json.loads(registered) == dict.fromkeys(ENGINE_LAYERS, False)
    executed = {n for n, done in json.loads(after).items() if done}
    assert "klcoeff" in executed
    assert not {"hooklen", "oracle", "seqfactor", "realroot"} & executed
    assert resolved == ("True ['Certificate', 'IntegrityError', 'Poly', 'kl_coefficient', "
                        "'kl_poly', 'render', 'z_coefficient', 'z_from_kl', 'z_poly', "
                        "'__version__']")
    import klm
    assert all(getattr(klm, name) is not None for name in klm.__all__)
    assert set(klm.__all__) <= set(dir(klm))
    with pytest.raises(AttributeError):
        klm.no_such_name


def _sibling_imports(path: Path) -> tuple[set[str], set[str]]:
    """The siblings a module imports at module level: those whose names it
    binds (``from .x import f``, which executes x) and those it binds as
    modules (``from . import x``, which executes nothing)."""
    names, modules = set(), set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module)
            else:
                modules.update(alias.name for alias in node.names)
    return names, modules


def test_no_module_executes_a_sibling_that_imports_it_back():
    # Executing a module executes every module it reaches through
    # ``from .x import f``; one of those that imports it back would run while
    # it is still half executed.
    imports = {p.stem: _sibling_imports(p) for p in Path(cli.__file__).parent.glob("*.py")}
    cycles = {}
    for a in imports:
        reached, todo = set(), [a]
        while todo:
            fresh = imports[todo.pop()][0] - reached
            reached |= fresh
            todo += fresh
        back = sorted(x for x in reached if a in imports[x][0] | imports[x][1])
        if back:
            cycles[a] = back
    assert cycles == {}


def test_import_klm_cli_loads_every_traced_layer(cli_env):
    """The benchmark tracer imports klm.cli and wraps functions in these modules."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    script = ("import json, sys, types, klm.cli\n"
              "assert not set(sys.argv[2:]) & set(sys.modules), 'OpenSSL loaded'\n"
              f"executed = [n for n in {ENGINE_LAYERS!r}\n"
              "            if type(sys.modules['klm.' + n]) is types.ModuleType]\n"
              "assert not executed, f'executed on import: {executed}'\n"
              "layers = json.loads(sys.argv[1])\n"
              "print(json.dumps([f'{layer}.{name}' for layer, names in layers.items()\n"
              "                  for name in names\n"
              "                  if not hasattr(sys.modules.get('klm.' + layer), name)]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(tracer.LAYERS),
                           *OPENSSL_MODULES],
                          capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert {"run_certify", "run_verify"} <= set(tracer.LAYERS["cli"])


# -- the fork point: a --jobs pool forks from an executed engine ------------------


@pytest.mark.parametrize("argv, modules", [
    (["certify", "kl-roots", "--m", "2..3", "--d", "1..4"], {"klcoeff", "realroot"}),
    (["certify", "z-roots", "--m", "2..3", "--d", "1..4"], {"zcoeff", "realroot"}),
    (["certify", "dseq-b", "--m", "2..3", "--d", "1..4"], {"seqfactor", "realroot"}),
    (["certify", "hurwitz-Y", "--m", "2..4"], {"seqfactor", "realroot"}),
    (["verify", "oracle", "--m-max", "2", "--d-max", "3"], {"oracle", "klcoeff", "zcoeff"}),
    (["verify", "reform", "--m-max", "2", "--d-max", "3"], {"seqfactor", "klcoeff", "zcoeff"}),
    (["verify", "identities", "--m-max", "2", "--d-max", "3"], {"klcoeff", "seqfactor"}),
    (["verify", "hooks", "--m-max", "3", "--d-max", "5"], {"hooklen"}),
], ids=["kl-roots", "z-roots", "dseq-b", "hurwitz-Y", "oracle", "reform", "identities",
        "hooks"])
def test_the_engine_executes_before_the_jobs_pool_forks(argv, modules, tmp_path, cli_env):
    # A module still unexecuted when the pool forks would execute again in
    # every worker.  The spy records which engine modules have executed when
    # each map_cells call constructs its pool, runs the real pool, and then
    # the grid's last cell, which a worker ran, in this process: that cell
    # must execute nothing the workers lacked.  Every grid here is large
    # enough that each map_cells call forms a pool.  Under either entry the
    # spy executes certificate before the CLI runs.
    for entry, (setup, run) in ENTRIES.items():
        script = ("import concurrent.futures, json, sys, types\n"
                  f"{setup}\n"
                  "from klm import certificate\n"
                  "pool, grid = concurrent.futures.ProcessPoolExecutor, certificate.map_cells\n"
                  "forks = []\n"
                  "def executed():\n"
                  "    return sorted(n[4:] for n, m in sys.modules.items()\n"
                  "                  if n.startswith('klm.') and type(m) is types.ModuleType)\n"
                  "class SpyPool(pool):\n"
                  "    def __init__(self, *args, **kwargs):\n"
                  "        forks.append(executed())\n"
                  "        super().__init__(*args, **kwargs)\n"
                  "def spy(worker, cells, jobs=1):\n"
                  "    forks.clear()\n"
                  "    out = grid(worker, cells, jobs)\n"
                  "    worker(*cells[-1])\n"
                  "    print(json.dumps([forks, executed()]), file=sys.stderr)\n"
                  "    return out\n"
                  "concurrent.futures.ProcessPoolExecutor = SpyPool\n"
                  "certificate.map_cells = spy\n"
                  f"{run}\n")
        env = dict(cli_env, KLM_CACHE=str(tmp_path / f"{entry}.jsonl"))
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--jobs", "2"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0 and ": pass" in proc.stdout, (entry, proc.stderr)
        calls = [json.loads(line) for line in proc.stderr.splitlines()]
        assert calls
        for forks, after_one_cell in calls:
            assert len(forks) == 1, "no pool formed" if not forks else forks
            assert forks[0] == after_one_cell
        assert modules <= set().union(*(forks[0] for forks, _ in calls))


def _seed_record(cache: Path, argv: list[str], payload: str, code: int,
                 key: str | None = None) -> str:
    """Append a hand-made record for argv's command; return argv's key."""
    args = cli.parse_args(argv)
    params = cli.run_params(args)
    real_key = cli.run_key(args.command, params)
    cli.cache_append(cache, {"key": key or real_key, "command": args.command,
                             "params": params, "payload": payload, "exit": code,
                             "millis": 0, "jobs": 1})
    return real_key


def test_replay_returns_the_recorded_exit_code(tmp_path, run_cli, monkeypatch, capsys):
    cache = tmp_path / "cache.jsonl"
    argv = ["certify", "z-roots", "--m", "3", "--d", "4"]
    _seed_record(cache, argv, "z-roots m=3 d=4: fail\n", 1)
    assert run_cli(argv, tmp_path, env_cache=cache)[:2] == (1, "z-roots m=3 d=4: fail\n")
    monkeypatch.setenv("KLM_CACHE", str(cache))
    assert main(argv) == 1
    assert capsys.readouterr().out == "z-roots m=3 d=4: fail\n"


def test_verify_csv_on_a_cache_hit_still_writes_the_csv(tmp_path, run_cli):
    cache = tmp_path / "cache.jsonl"
    argv = ["verify", "z-formulas", "--m-max", "2", "--d-max", "3"]
    code, out, err = run_cli(argv, tmp_path, env_cache=cache)
    assert code == 0, err
    records = cache.read_text()
    csv_path = tmp_path / "z.csv"
    assert run_cli(argv + ["--csv", str(csv_path)], tmp_path, env_cache=cache)[:2] == (0, out)
    assert cache.read_text() == records
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,d,i,from_kl,alternating,positive" and len(lines) == 1 + 2 * (2 + 3 + 4)
    assert "2,3,1,10,10,10" in lines and "2,3,3,1,1,1" in lines


KL_2_3_KEY = "cc3f9a26decb0f98376eea5d4550752cad5e0485ff10fbadf6a1c0c8df6b388a"


# Keys of records that klm-0.3.0 caches already hold: a change that moved one
# would turn every such record into a miss.  --csv is not part of a key.
@pytest.mark.parametrize("argv, key", [
    (["compute", "kl", "--m", "2", "--d", "3"], KL_2_3_KEY),
    (["compute", "G", "--m", "2", "--symbolic-d", "--json"],
     "03c17a50aec687ce6a2fc3a71896b661ae473ea5de1d6793601256b30af9e57b"),
    (["verify", "z-formulas", "--m-max", "2", "--d-max", "3"],
     "b326fc1304f4bb5297aa1d4987953d26014f0d8b9dcff712ffd11e602c985b5c"),
    (["verify", "z-formulas", "--m-max", "2", "--d-max", "3", "--csv", "x.csv"],
     "b326fc1304f4bb5297aa1d4987953d26014f0d8b9dcff712ffd11e602c985b5c"),
    (["certify", "hurwitz-G", "--m", "2..3", "--json"],
     "12a348cbcc313dff6550dba54edb4e2d1757ab9300dbbcd096bb8e6e2f24ec4c"),
], ids=["compute-kl", "compute-G-symbolic", "verify", "verify-csv", "certify-hurwitz"])
def test_run_keys_stay_those_of_existing_caches(argv, key):
    args = cli.parse_args(argv)
    assert cli.run_key(args.command, cli.run_params(args)) == key


@pytest.mark.parametrize("argv", [
    ["compute", "kl", "--m", "2", "--d", "3"],
    ["verify", "z-formulas", "--csv", "x.csv"],
    ["certify", "kl-roots", "--m", "2", "--d", "3"],
], ids=["compute", "verify", "certify"])
def test_every_parsed_argument_but_the_unkeyed_ones_keys_the_run(argv):
    # An option added to the parser keys the run without a second list to
    # update, so it can never replay the payload of the plain command.
    args = cli.parse_args(argv)
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in commands.choices[args.command]._actions} - {"help"}
    keyed = dests - set(cli.UNKEYED)
    assert set(cli.run_params(args)) == keyed
    key = cli.run_key(args.command, cli.run_params(args))
    for dest in keyed:
        changed = argparse.Namespace(**{**vars(args), dest: "changed"})
        assert cli.run_key(args.command, cli.run_params(changed)) != key, dest


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@given(command=st.text(), params=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
def test_run_key_is_the_sha256_of_the_canonical_blob(command, params):
    # hashlib is the reference here; the CLI computes the same digest without it.
    blob = json.dumps({"engine": "klm-0.3.0", "command": command, "params": params},
                      sort_keys=True, separators=(",", ":"))
    assert cli.run_key(command, params) == hashlib.sha256(blob.encode()).hexdigest()


def test_a_record_written_by_klm_0_3_0_replays(tmp_path, run_cli):
    # The line as klm-0.3.0 wrote it, under the pinned key rather than one
    # run_key computes, with a payload and exit code no fresh run would give.
    cache = tmp_path / "cache.jsonl"
    cache.write_text(
        '{"command":"compute","exit":1,"jobs":1,"key":"' + KL_2_3_KEY + '","millis":3,'
        '"params":{"d":3,"json":false,"kind":"kl","m":2,"route":"positive",'
        '"symbolic_d":false},"payload":"sentinel from klm-0.3.0\\n"}\n')
    records = cache.read_text()
    assert run_cli(["compute", "kl", "--m", "2", "--d", "3"], tmp_path,
                   env_cache=cache)[:2] == (1, "sentinel from klm-0.3.0\n")
    assert cache.read_text() == records


def test_payload_holding_another_key_is_not_a_hit(tmp_path, run_cli):
    cache = tmp_path / "cache.jsonl"
    argv = ["compute", "kl", "--m", "2", "--d", "3"]
    key = _seed_record(cache, argv, "decoy\n", 0, key="0" * 64)
    cache.write_text(cache.read_text().replace("decoy", f"decoy {key}"))
    assert key in cache.read_text()
    assert cli.cache_lookup(cache, key) is None
    assert run_cli(argv, tmp_path, env_cache=cache)[:2] == (0, "1 + 5*t\n")
    assert cli.cache_lookup(cache, key)["payload"] == "1 + 5*t\n"


def test_record_without_payload_or_integer_exit_is_not_a_hit(tmp_path, run_cli):
    cache = tmp_path / "cache.jsonl"
    argv = ["compute", "kl", "--m", "2", "--d", "3"]
    key = _seed_record(cache, argv, "stale\n", 0)
    cache.write_text(f'{{"key": "{key}"}}\n'
                     f'{{"key": "{key}", "payload": "stale\\n", "exit": "0"}}\n')
    assert cli.cache_lookup(cache, key) is None
    assert run_cli(argv, tmp_path, env_cache=cache)[:2] == (0, "1 + 5*t\n")
    assert run_cli(argv, tmp_path, env_cache=cache)[:2] == (0, "1 + 5*t\n")
    assert cache.read_text().count("\n") == 3


def test_concurrent_appends_never_interleave(tmp_path, cli_env):
    cache = tmp_path / "cache.jsonl"
    # Each record is several times a default 8 KiB I/O buffer, so a buffered
    # or unlocked append could reach the file in pieces that interleave.
    tags = ("a", "b", "c")
    script = ("import sys\n"
              "from klm.cli import cache_append\n"
              "tag = sys.argv[2]\n"
              "for i in range(200):\n"
              "    cache_append(sys.argv[1], {'key': f'{tag}-{i}', 'exit': 0,\n"
              "                               'payload': tag * (30000 + i)})\n")
    writers = [subprocess.Popen([sys.executable, "-c", script, str(cache), tag],
                                env=cli_env, stderr=subprocess.PIPE)
               for tag in tags]
    for proc in writers:
        assert proc.wait(timeout=120) == 0, proc.stderr.read()
        proc.stderr.close()
    lines = cache.read_bytes().split(b"\n")
    assert lines.pop() == b""
    records = [json.loads(line) for line in lines]
    assert sorted(r["key"] for r in records) == sorted(
        f"{tag}-{i}" for tag in tags for i in range(200))
    for r in records:
        tag, i = r["key"].split("-")
        assert r["payload"] == tag * (30000 + int(i))
    for key in ("a-0", "b-199", "c-100"):
        assert cli.cache_lookup(cache, key)["key"] == key


# -- the exit-code contract under fuzzed arguments and cache contents --------------

# The CLI's own words, with values small enough that any command they spell
# runs in milliseconds, and stray tokens that belong nowhere.
FUZZ_VALUES = {
    "--m": ("1", "2", "3", "0", "-1", "2..3", "3..2", "-1..2", "x", ""),
    "--d": ("1", "3", "0", "-2", "1..3", "0..2", "1..x"),
    "--m-max": ("1", "3", "0", "x"),
    "--d-max": ("1", "3", "-1"),
    "--route": cli.KL_ROUTES + ("nope",),
    "--jobs": ("1", "0", "x"),
    "--csv": ("t.csv", "cache.jsonl", "./cache.jsonl", ".", "missing/t.csv"),
    "--cache": ("cache.jsonl", "./cache.jsonl", "other.jsonl", "."),
}
FUZZ_SWITCHES = ("--json", "--symbolic-d")
FUZZ_STRAY = ("--bogus", "-x", "", "..", "--", "1", "G", "kl", "--m", "nope")


@st.composite
def fuzz_argv(draw) -> list[str]:
    """A command the CLI accepts, with up to two more options (any value from
    FUZZ_VALUES) and up to two stray tokens put anywhere."""
    command = draw(st.sampled_from(["compute", "verify", "certify"]))
    small = st.sampled_from(["1", "2", "3"])
    if command == "compute":
        kind = draw(st.sampled_from(list(cli.COMPUTE)))
        argv = [command, kind, "--m", draw(small)]
        argv += (["--symbolic-d"] if kind in "GY" and draw(st.booleans())
                 else ["--d", draw(small)])
    elif command == "verify":
        argv = [command, draw(st.sampled_from(list(cli.VERIFY))),
                "--m-max", draw(small), "--d-max", draw(small)]
    else:
        target = draw(st.sampled_from(list(cli.CERTIFY)))
        argv = [command, target, "--m", draw(st.sampled_from(["2", "3", "2..3"]))]
        if not target.startswith("hurwitz"):
            argv += ["--d", draw(st.sampled_from(["1", "3", "1..3"]))]
    if draw(st.booleans()):
        argv.append("--json")
    for flag in draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES) + list(FUZZ_SWITCHES)),
                              max_size=2)):
        argv.append(flag)
        if flag in FUZZ_VALUES:
            argv.append(draw(st.sampled_from(FUZZ_VALUES[flag])))
    for token in draw(st.lists(st.sampled_from(FUZZ_STRAY), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _fuzz_key(argv: list[str]) -> str:
    """argv's run key, or a key no command has when argparse rejects argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli.parse_args(argv)
    except SystemExit:
        return "f" * 64
    return cli.run_key(args.command, cli.run_params(args))


def fuzz_cache_line(key: str):
    """One line of a hand-edited or torn run cache, most of them about key."""
    def record(payload, code):
        return json.dumps({"key": key, "command": "compute", "params": {},
                           "payload": payload, "exit": code}).encode()
    fields = st.one_of(st.text(max_size=8), st.integers(-3, 5), st.none(), st.booleans(),
                       st.floats(allow_nan=False), st.lists(st.integers(), max_size=2))
    return st.one_of(
        st.builds(record, st.text(max_size=20), st.integers(-3, 5)),
        # A lone surrogate, which JSON escapes but no UTF-8 console prints.
        st.builds(record, st.just("\ud800\n"), st.integers(0, 1)),
        st.builds(record, fields, fields),
        st.builds(lambda line, cut: line[:cut], st.builds(record, st.text(max_size=20),
                                                          st.integers(0, 1)),
                  st.integers(0, 80)),
        st.sampled_from([b"[1, 2]", b"null", b'"' + key.encode() + b'"', b"[" * 50000 + key.encode(),
                         json.dumps({"key": "0" * 64, "payload": key, "exit": 0}).encode(),
                         json.dumps({"key": [key], "payload": "x\n", "exit": 0}).encode()]),
        st.binary(max_size=30).map(lambda junk: junk + key.encode()),
        st.binary(max_size=30))


def _run_in_process(argv: list[str]) -> tuple[int, bytes, str]:
    """main(argv)'s exit code, stdout bytes (through a strict UTF-8 stream, as
    a console's) and stderr."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), argv=fuzz_argv(), trailing_newline=st.booleans())
def test_exit_codes_hold_under_fuzzed_arguments_and_cache_contents(data, argv,
                                                                   trailing_newline):
    key = _fuzz_key(argv)
    lines = data.draw(st.lists(fuzz_cache_line(key), max_size=4))
    contents = b"\n".join(lines) + (b"\n" if trailing_newline and lines else b"")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setenv("KLM_CACHE", os.path.join(tmp, "cache.jsonl"))
        Path(tmp, "cache.jsonl").write_bytes(contents)
        code, out, err = _run_in_process(argv)
        assert code in (0, 1, 2, 3), (code, err)
        if code == 2:
            assert out == b"" and Path(tmp, "cache.jsonl").read_bytes() == contents, err
        if code == 3:
            assert err.startswith("internal error:"), err
            # The same command against an empty cache faults too: the cache
            # contents alone never cause an internal error.
            Path(tmp, "cache.jsonl").write_bytes(b"")
            assert _run_in_process(argv)[0] == 3, err
