"""Planted faults: an off-by-one in any one coefficient route, oracle or
certified subject must make some verify suite or certify target fail.

The product is the agreement of independent derivations, so this keeps that
independence measurable: a change that merged two routes, or stopped a
command from reading one, would let a plant below pass every command.
"""

import pytest

from klm import arith, cli, hooklen, klcoeff, oracle, polyring, realroot, seqfactor, zcoeff

ENGINE = (arith, polyring, klcoeff, zcoeff, hooklen, oracle, seqfactor, realroot)

# Every lru_cache memo of the engine, taken before any plant replaces a name.
MEMOS = {id(f): f for module in ENGINE for f in vars(module).values()
         if hasattr(f, "cache_clear")}.values()

COMMANDS = ([["verify", suite, "--m-max", "4", "--d-max", "8"] for suite in cli.VERIFY_SUITES]
            + [["certify", target, "--m", "2..4", "--d", "1..8"]
               for target in ("kl-roots", "z-roots", "dseq-f", "dseq-b")])

# The planted cell: inside every command's grid, and an interior KL index.
M, D, I = 3, 5, 1


def _plus_one_at_cell(real):
    """real, plus 1 at (m, d, i) = (M, D, I)."""
    def faulty(m, d, i, *rest):
        return real(m, d, i, *rest) + (1 if (m, d, i) == (M, D, I) else 0)
    return faulty


def _plus_one_in_poly(real):
    """real(m, d, ...), plus t^I at (m, d) = (M, D)."""
    bump = polyring.Poly((0,) * I + (1,))

    def faulty(m, d, *rest):
        p = real(m, d, *rest)
        return p + bump if (m, d) == (M, D) else p
    return faulty


def _plus_one_in_sequence(real):
    """real(spec, d, i), plus 1 at m = M, (d, i) = (D, I)."""
    def faulty(spec, d, i):
        return real(spec, d, i) + (1 if (spec.m, d, i) == (M, D, I) else 0)
    return faulty


def _plus_one_in_b_sum(real):
    """real(family, m, d, i) as (numerator, denominator), plus 1 in family b
    at (m, d, i) = (M, D, I)."""
    def faulty(family, m, d, i):
        num, den = real(family, m, d, i)
        return (num + den, den) if (family, m, d, i) == ("b", M, D, I) else (num, den)
    return faulty


PLANTS = {
    "c_recursive": (klcoeff, _plus_one_at_cell),
    "c_hook_form": (klcoeff, _plus_one_at_cell),
    "c_alternating": (klcoeff, _plus_one_at_cell),
    "c_positive": (klcoeff, _plus_one_at_cell),
    "z_alternating": (zcoeff, _plus_one_at_cell),
    "z_positive": (zcoeff, _plus_one_at_cell),
    "z_from_kl": (zcoeff, _plus_one_in_poly),
    "c_equivariant_sum": (hooklen, _plus_one_at_cell),
    "p_sum": (klcoeff, _plus_one_at_cell),
    "q_sum": (klcoeff, _plus_one_at_cell),
    "kl_poly": (klcoeff, _plus_one_in_poly),
    "seq_value": (seqfactor, _plus_one_in_sequence),
    "seq_sum": (seqfactor, _plus_one_in_b_sum),
}

# A sum that two routes read is caught by the commands of both.
CATCHERS = {
    "p_sum": ("verify formulas", "verify identities"),
    "seq_sum": ("verify z-formulas", "verify reform"),
}


@pytest.fixture
def fresh_memos():
    """Empty every engine memo before and after the test, so no value
    computed under a plant outlives it."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def exit_codes(tmp_path) -> list[int]:
    """The exit code of each command of COMMANDS, run in process on a fresh cache."""
    return [cli.main(argv + ["--cache", str(tmp_path / f"{n}.jsonl")])
            for n, argv in enumerate(COMMANDS)]


def test_every_command_passes_without_a_plant(tmp_path, fresh_memos, capsys):
    assert exit_codes(tmp_path) == [0] * len(COMMANDS), capsys.readouterr()


def planted_exit_codes(name, tmp_path, monkeypatch) -> dict[str, int]:
    """Each command's exit code, by its argument text, with PLANTS[name] planted."""
    home, fault = PLANTS[name]
    real = getattr(home, name)
    faulty = fault(real)
    # Every module that imported the name binds the same object; patch each.
    for module in ENGINE:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, faulty)
    return dict(zip(map(" ".join, COMMANDS), exit_codes(tmp_path)))


@pytest.mark.parametrize("name", PLANTS)
def test_a_planted_fault_fails_some_command(name, tmp_path, monkeypatch, fresh_memos, capsys):
    codes = planted_exit_codes(name, tmp_path, monkeypatch)
    capsys.readouterr()
    assert any(code in (1, 3) for code in codes.values()), codes
    assert all(code in (0, 1, 3) for code in codes.values()), codes


@pytest.mark.parametrize("name", CATCHERS)
def test_a_shared_sum_is_caught_by_every_route_that_reads_it(name, tmp_path, monkeypatch,
                                                             fresh_memos, capsys):
    codes = planted_exit_codes(name, tmp_path, monkeypatch)
    capsys.readouterr()
    caught = {command: codes[command + " --m-max 4 --d-max 8"] for command in CATCHERS[name]}
    assert all(code in (1, 3) for code in caught.values()), caught
