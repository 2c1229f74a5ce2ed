"""Planted faults: an off-by-one in any one coefficient route, oracle or
certified subject, or in any one exact kernel beneath the certificates, must
make some verify suite or certify target fail.

The product is the agreement of independent derivations, so this keeps that
independence measurable: a change that merged two routes, or stopped a
command from reading one, would let a plant below pass every command.
"""

import pytest

from klm import cli, hooklen, klcoeff, oracle, polyring, realroot, seqfactor, zcoeff

ENGINE = (polyring, klcoeff, zcoeff, hooklen, oracle, seqfactor, realroot)

# Every lru_cache memo of the engine, taken before any plant replaces a name.
MEMOS = {id(f): f for module in ENGINE for f in vars(module).values()
         if hasattr(f, "cache_clear")}.values()

COMMANDS = ([["verify", suite, "--m-max", "4", "--d-max", "8"] for suite in cli.VERIFY]
            + [["certify", target, "--m", "2..4", "--d", "1..8"]
               for target in ("kl-roots", "z-roots", "dseq-f", "dseq-b")]
            + [["certify", target, "--m", "2..5"] for target in ("hurwitz-G", "hurwitz-Y")])

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
    """real(family, m, d, i), plus 1 at (m, d, i) = (M, D, I) in either family."""
    def faulty(family, m, d, i):
        return real(family, m, d, i) + (1 if (m, d, i) == (M, D, I) else 0)
    return faulty


def _plus_one_in_b_sum(real):
    """real(family, m, d, i) as (numerator, denominator), plus 1 in family b
    at (m, d, i) = (M, D, I)."""
    def faulty(family, m, d, i):
        num, den = real(family, m, d, i)
        return (num + den, den) if (family, m, d, i) == ("b", M, D, I) else (num, den)
    return faulty


# Kernel plants: each changes one exact kernel on inputs of one shape only.


def _interpolation_plus_one(real):
    """real(ys, den), plus 1 on the constant when interpolated from more than 8 values."""
    def faulty(ys, den):
        p = real(ys, den)
        return p + 1 if len(ys) > 8 else p
    return faulty


def _plus_one_at_seven(real):
    """real(cs, x), plus 1 at x = 7."""
    def faulty(cs, x):
        return real(cs, x) + (1 if x == 7 else 0)
    return faulty


def _constant_plus_one_at_length_twelve(real):
    """real(p, c, a), plus 1 on the constant of each 12-entry result."""
    def faulty(p, c, a=1):
        out = real(p, c, a)
        return [out[0] + 1, *out[1:]] if len(out) == 12 else out
    return faulty


def _largest_order_plus_one(real):
    """real(...) as {order: minor}, plus 1 on the largest order's minor."""
    def faulty(*args):
        out = real(*args)
        if out:
            out[max(out)] += 1
        return out
    return faulty


def _negated_at_length_four(real):
    """real(cs), negated when it has 4 entries."""
    def faulty(cs):
        out = real(cs)
        return [-c for c in out] if len(out) == 4 else out
    return faulty


def _first_numerator_plus_one_at_length_seven(real):
    """real(coeffs) as (numerators, denominator), plus 1 on the first of 7 numerators."""
    def faulty(coeffs):
        nums, den = real(coeffs)
        return ([nums[0] + 1, *nums[1:]] if len(nums) == 7 else nums), den
    return faulty


def _remainder_plus_one_at_degree_five(real):
    """real(a, b), plus 1 on the remainder's constant when a has degree 5."""
    def faulty(a, b):
        r = real(a, b)
        return ([r[0] + 1, *r[1:]] if r else [1]) if len(a) == 6 else r
    return faulty


def _sign_flipped_at_zero_on_degree_five(real):
    """real(p, x), negated at x = 0 when p has degree 5."""
    def faulty(p, x):
        s = real(p, x)
        return -s if x == 0 and p.degree == 5 else s
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
    "interpolate_steps": (polyring, _interpolation_plus_one),
    "horner": (polyring, _plus_one_at_seven),
    "times_linear": (polyring, _constant_plus_one_at_length_twelve),
    "leading_minors": (polyring, _largest_order_plus_one),
    "primitive": (polyring, _negated_at_length_four),
    "cleared": (polyring, _first_numerator_plus_one_at_length_seven),
    "_pseudo_rem": (realroot, _remainder_plus_one_at_degree_five),
    "_sign_at": (realroot, _sign_flipped_at_zero_on_degree_five),
    "_subresultant_deltas": (realroot, _largest_order_plus_one),
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
