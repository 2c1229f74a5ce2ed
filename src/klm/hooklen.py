"""Partitions, hook lengths, and the equivariant dimension sum.

The KL coefficient c(m,d,i) equals a sum of symmetric-group irreducible
dimensions over the shapes (d+m-2i-h+1, h+1, 2^{i-1}); the dimensions come
from the hook-length formula (the tests cross-check it at small n against
explicit standard-Young-tableaux enumeration).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .arith import IntegrityError
from .certificate import Certificate, Checked, grid_certificate
from .klcoeff import c_recursive, grid_cells as kl_grid_cells, hook_summand, max_index


class Partition(Checked, namedtuple("Partition", "parts")):
    """Weakly decreasing tuple of positive parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive, got {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"partition parts must weakly decrease, got {parts}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)


def hook_lengths(shape: Partition) -> list[list[int]]:
    """Hook length of every cell: arm + leg + 1, row-major."""
    parts = shape.parts
    cols: list[int] = []  # column lengths, the conjugate partition
    for r in range(len(parts) - 1, -1, -1):
        cols += [r + 1] * (parts[r] - len(cols))
    return [[p - r - c + cols[c] - 1 for c in range(p)] for r, p in enumerate(parts)]


@lru_cache(maxsize=None)
def dim_irrep(shape: Partition) -> int:
    """Hook-length formula: n! / product of hook lengths, once per shape
    (an equivariant shape recurs for every (m, d) with the same m + d)."""
    hook_product = prod(h for row in hook_lengths(shape) for h in row)
    num = factorial(shape.n)
    if num % hook_product:
        raise IntegrityError(f"hook product {hook_product} does not divide {shape.n}! "
                             f"for {shape}")
    return num // hook_product


def equivariant_shape(m: int, d: int, i: int, h: int) -> Partition:
    """The shape (d+m-2i-h+1, h+1, 2^{i-1}) indexing one summand of c(m,d,i),
    for i >= 1 and 1 <= h <= min(m, d-2i)."""
    # Valid by construction, so Partition's checks are skipped: 2h <= m + d - 2i
    # puts the first part at least h+1 >= 2, and every part is positive.
    return tuple.__new__(Partition, ((d + m - 2 * i - h + 1, h + 1) + (2,) * (i - 1),))


def c_equivariant_sum(m: int, d: int, i: int) -> int:
    """Sum of irreducible dimensions over h = 1..min(m, d-2i)."""
    if m < 1 or d < 1 or i < 1:
        raise ValueError("equivariant sum requires m, d, i >= 1")
    if d - 2 * i < 1:
        raise ValueError(f"equivariant sum requires d - 2i >= 1, got d={d}, i={i}")
    return sum(dim_irrep(equivariant_shape(m, d, i, h))
               for h in range(1, min(m, d - 2 * i) + 1))


def first_row_hooks_piecewise(m: int, d: int, i: int, h: int) -> list[int]:
    """The piecewise closed form for the first-row hook lengths."""
    out = []
    for j in range(1, m + d - 2 * i - h + 2):
        if j <= 2:
            out.append(m + d - i - h + 2 - j)
        elif j <= h + 1:
            out.append(m + d - 2 * i - h + 3 - j)
        else:
            out.append(m + d - 2 * i - h + 2 - j)
    return out


def grid_cells(m_max: int, d_max: int) -> list[tuple[int, int, int, int]]:
    """Every summand (m, d, i, h) of the equivariant sums on the grid, in grid order."""
    return [(m, d, i, h) for m in range(1, m_max + 1) for d in range(1, d_max + 1)
            for i in range(1, max_index(d) + 1) for h in range(1, min(m, d - 2 * i) + 1)]


def verify_hook_factorizations(m_max: int, d_max: int, jobs: int = 1) -> Certificate:
    """Check the hook-length bookkeeping behind the equivariant dimension sum.

    For every (m, d, i, h) of ``grid_cells(m_max, d_max)``, ``check_hook_cell``
    checks that the piecewise first-row values match the generic hook
    lengths, that the three row-product identities hold, and that the
    dimension equals the corresponding hook-form summand of c(m,d,i).  The
    cells run in jobs worker processes when jobs > 1.  It passes with
    {"checked": the number of cells}, or fails with the first failing cell
    in grid order.
    """
    return grid_certificate(f"hook-factorizations m<={m_max} d<={d_max}",
                            check_hook_cell, grid_cells(m_max, d_max), jobs)


def check_hook_cell(m: int, d: int, i: int, h: int) -> dict | None:
    """One (m,d,i,h) cell of the hook verification; None means all identities hold."""
    shape = equivariant_shape(m, d, i, h)
    hooks = hook_lengths(shape)
    where = {"m": m, "d": d, "i": i, "h": h, "shape": list(shape.parts)}

    piecewise = first_row_hooks_piecewise(m, d, i, h)
    if piecewise != hooks[0]:
        return {**where, "identity": "first-row piecewise values",
                "piecewise": piecewise, "hooks": hooks[0]}

    row1 = prod(hooks[0])
    num1 = (m + d - i - h) * (m + d - i - h + 1) * factorial(m + d - 2 * i - h)
    den1 = m + d - 2 * i - 2 * h + 1  # at least m - h + 1 >= 1, as h <= d - 2i
    if row1 * den1 != num1:
        return {**where, "identity": "first-row product", "product": row1,
                "closed_form": str(Fraction(num1, den1))}

    row2 = prod(hooks[1])
    want2 = (i + h) * (i + h - 1) * factorial(h - 1)
    if row2 != want2:
        return {**where, "identity": "second-row product", "product": row2,
                "closed_form": want2}

    tail = prod(v for row in hooks[2:] for v in row)
    want_tail = factorial(i) * factorial(i - 1)
    if tail != want_tail:
        return {**where, "identity": "tail product", "product": tail,
                "closed_form": want_tail}

    summand = hook_summand(m, d, i, h)
    if dim_irrep(shape) != summand:
        return {**where, "identity": "dimension equals hook-form summand",
                "dimension": dim_irrep(shape), "summand": str(summand)}
    return None


def verify_equivariant_sum(m_max: int, d_max: int, jobs: int = 1) -> Certificate:
    """c(m,d,i) from the dimension sum equals the recursion, for every i >= 1 on the grid."""
    cells = [(m, d, i) for m, d, i in kl_grid_cells(m_max, d_max) if i >= 1]
    return grid_certificate(f"equivariant-dimension-sum m<={m_max} d<={d_max}",
                            check_equivariant_cell, cells, jobs)


def check_equivariant_cell(m: int, d: int, i: int) -> dict | None:
    """One (m,d,i) cell of the equivariant check; None means the two values agree."""
    got = c_equivariant_sum(m, d, i)
    want = c_recursive(m, d, i)
    if got != want:
        return {"m": m, "d": d, "i": i, "dimension_sum": got, "recursive": want}
    return None
