"""Acceptance gate: the ten primary criteria, all at exactly zero tolerance.

Each test prints one pass/fail line (run with -s or check -v output); any
assertion failure carries the first counterexample as its message.
"""

import json
import subprocess
import sys
from fractions import Fraction
from math import factorial

from klm import hooklen, klcoeff, oracle, seqfactor, zcoeff
from klm.klcoeff import kl_poly
from klm.realroot import (all_zeros_real_negative, hurwitz_positivity_symbolic,
                          n_sequence_test)
from klm.seqfactor import SeqSpec, expand_falling, gy_poly, seq_value
from klm.zcoeff import z_from_kl
from oracles import count_syt


def report(number: int, description: str, ok: bool, detail=None):
    print(f"criterion {number:2d} [{'pass' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}: {detail}"


def test_criterion_01_four_route_kl_agreement():
    cert = klcoeff.verify_four_routes(8, 24)
    report(1, "four-route KL agreement, m<=8 d<=24, both hook bounds",
           cert.passed, cert.witness)


def test_criterion_02_defining_recurrence_oracle():
    agree = oracle.verify_oracle_agreement(40)
    audit = oracle.restriction_contraction_audit(10)
    report(2, "oracle agreement m+d<=40 and explicit-closure audit m+d<=10",
           agree.passed and audit.passed, (agree.witness, audit.witness))


def test_criterion_03_z_three_routes_and_diagonal():
    cert = zcoeff.verify_three_routes(8, 24)
    diagonal = all(zcoeff.z_diagonal_symbolic(m) for m in range(1, 16))
    report(3, "Z three-route agreement m<=8 d<=24 and symbolic diagonal m<=15",
           cert.passed and diagonal, cert.witness)


def test_criterion_04_narayana():
    cert = zcoeff.narayana_check(30)
    report(4, "Narayana reproduction: enumeration d<=12, ratio d<=30",
           cert.passed and cert.witness == {"d_max": 30, "enumerated_up_to": 12}, cert.witness)


def test_criterion_05_hook_length_coverage():
    facts = hooklen.verify_hook_factorizations(6, 16)
    sums = hooklen.verify_equivariant_sum(6, 16)

    def partitions(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    syt_ok = all(hooklen.dim_irrep(hooklen.Partition(p)) ==
                 count_syt(hooklen.Partition(p))
                 for n in range(1, 9) for p in partitions(n, n))
    report(5, "hook-length coverage m<=6 d<=16 and SYT enumeration n<=8",
           facts.passed and sums.passed and syt_ok, (facts.witness, sums.witness))


def test_criterion_06_negative_zeros_desk_scale():
    failing = None
    for m in range(2, 11):
        for d in range(1, 26):
            if not all_zeros_real_negative(kl_poly(m, d)).passed:
                failing = ("kl", m, d)
            elif not all_zeros_real_negative(z_from_kl(m, d)).passed:
                failing = ("z", m, d)
            if failing:
                break
        if failing:
            break
    if failing is None:
        for d in range(1, 41):
            if not (all_zeros_real_negative(kl_poly(1, d)).passed
                    and all_zeros_real_negative(z_from_kl(1, d)).passed):
                failing = ("m=1", d)
                break
    report(6, "negative zeros of P and Z: 2<=m<=10 d<=25, m=1 d<=40",
           failing is None, failing)


def test_criterion_07_symbolic_hurwitz():
    g2 = hurwitz_positivity_symbolic("G", 2)
    y2 = hurwitz_positivity_symbolic("Y", 2)
    paper_ok = (
        g2.passed and y2.passed
        and g2.witness["delta_coeffs_in_dprime"][0]
        == ["2", "6", "13/2", "3", "1/2"]
        and g2.witness["delta_coeffs_in_dprime"][1]
        == ["13", "60", "233/2", "124", "1265/16", "31", "59/8", "1", "1/16"]
        and y2.witness["delta_coeffs_in_dprime"][1]
        == ["5", "24", "97/2", "54", "585/16", "63/4", "35/8", "3/4", "1/16"])
    higher = [hurwitz_positivity_symbolic(family, m)
              for family in ("G", "Y") for m in (3, 4, 5)]
    small_ok = all(case["real_rooted"]
                   for cert in higher for case in cert.witness["small_cases"])
    report(7, "symbolic Hurwitz: m=2 printed expansions, m in {3,4,5} positivity",
           paper_ok and all(c.passed for c in higher) and small_ok,
           [c.subject for c in higher if not c.passed])


def test_criterion_08_d_sequences_and_falling_invariants():
    failing = None
    for family in ("f", "b"):
        for m in range(2, 7):
            spec = SeqSpec(family, m)
            for d in range(1, 21):
                gamma = [seq_value(spec, d, i) for i in range(d + 1)]
                if not n_sequence_test(gamma, d).passed:
                    failing = (family, m, d)
                    break
    basis_ok = True
    for family in ("f", "b"):
        for m in range(1, 16):
            gs = expand_falling(SeqSpec(family, m))
            lead = Fraction((-1) ** (m - 1), factorial(m - 1) * factorial(m))
            if not (gs.coeff(0) == 1 and gs.coeff(gs.degree) == lead
                    and gs.degree + 1 == 2 * m - 1):
                basis_ok = False
    report(8, "d-sequence tests 2<=m<=6 d<=20 and falling-basis invariants m<=15",
           failing is None and basis_ok, failing)


def test_criterion_09_identity_suite():
    proofs = klcoeff.verify_proof_identities(12, 20)
    diag = seqfactor.verify_diagonal_identities(15, 20)
    reform = seqfactor.kl_reformulation_check(6, 16)
    report(9, "proof identities m<=12 d<=20 and diagonal/G(1) identities m<=15",
           proofs.passed and diag.passed and reform.passed,
           (proofs.witness, diag.witness, reform.witness))


def test_criterion_10_determinism(tmp_path, cli_env):
    env = dict(cli_env, KLM_CACHE=str(tmp_path / "cache.jsonl"))
    args = [sys.executable, "-m", "klm.cli", "verify", "formulas",
            "--m-max", "3", "--d-max", "10", "--json"]
    first = subprocess.run(args, capture_output=True, text=True, env=env, cwd=tmp_path)
    second = subprocess.run(args, capture_output=True, text=True, env=env, cwd=tmp_path)
    # A child that cannot start writes no cache; report its stderr instead.
    assert first.returncode == second.returncode == 0, (first.stderr, second.stderr)
    records = [json.loads(line)["key"]
               for line in (tmp_path / "cache.jsonl").read_text().splitlines()]
    ok = (first.returncode == second.returncode == 0
          and first.stdout == second.stdout
          and len(records) == len(set(records)) == 1)
    report(10, "byte-identical replay and stable cache hashes", ok,
           (first.stdout, second.stdout))
