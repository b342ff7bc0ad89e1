"""Block-cycle decomposition, quasi-linearity, and linearity degree.

A board decomposes over its upper-left block K when every block equals
alpha^c beta^d K for the cycle operators alpha (cycle mini-rows down)
and beta (cycle mini-columns right). The two 3x3 exponent matrices over
Z3 then classify the board by how many of them are quasi-linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .boards import Block, Board, _board, blocks, is_sudoku
from .errors import DomainError, _in_range

__all__ = [
    "ExponentMatrices",
    "KeedwellDecomposition",
    "apply_alpha",
    "apply_beta",
    "swap_block_columns",
    "swap_block_rows",
    "keedwell_decompose",
    "is_quasi_linear",
    "linearity_degree",
]

Matrix = tuple[tuple[int, int, int], ...]


def _as_matrix(m: Sequence[Sequence[int]], name: str, low: float = 0, high: float = 2) -> Matrix:
    """m as a 3x3 tuple of ints in low..high; else DomainError."""
    try:
        rows = tuple(map(tuple, m))
    except TypeError:  # m or one of its rows cannot be iterated
        rows = ()
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise DomainError(f"{name} is not 3x3")
    bad = f"{name} has entries outside Z3"
    return tuple(tuple(_in_range(x, bad, low, high) for x in row) for row in rows)


@dataclass(frozen=True)
class ExponentMatrices:
    """Alpha- and beta-exponents of each block, normalized so that the
    upper-left block carries (0, 0)."""

    c: Matrix
    d: Matrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _as_matrix(self.c, "c"))
        object.__setattr__(self, "d", _as_matrix(self.d, "d"))
        if self.c[0][0] != 0 or self.d[0][0] != 0:
            raise DomainError("exponents not normalized: (0,0) block must be K")


@dataclass(frozen=True)
class KeedwellDecomposition:
    K: Block
    exponents: ExponentMatrices


def apply_alpha(blk: Block, e: int) -> Block:
    """Cycle mini-rows down e steps: row r of the result is row
    (r - e) mod 3 of the input. e is any integer, taken mod 3."""
    e = _in_range(e, f"bad exponent {e!r}", -math.inf)
    return tuple(blk[(r - e) % 3] for r in range(3))


def apply_beta(blk: Block, e: int) -> Block:
    """Cycle mini-columns right e steps: column c of the result is
    column (c - e) mod 3 of the input. e is any integer, taken mod 3."""
    e = _in_range(e, f"bad exponent {e!r}", -math.inf)
    return tuple(tuple(row[(c - e) % 3] for c in range(3)) for row in blk)


def _swapped(a: int, b: int, what: str) -> list[int]:
    """0, 1, 2 with a and b swapped; DomainError unless a and b are two
    distinct indices in 0..2."""
    bad = f"bad {what} pair ({a},{b})"
    a, b = _in_range(a, bad, 0, 2), _in_range(b, bad, 0, 2)
    if a == b:
        raise DomainError(bad)
    perm = [0, 1, 2]
    perm[a], perm[b] = b, a
    return perm


def swap_block_rows(blk: Block, a: int, b: int) -> Block:
    """Transpose two mini-rows of a block."""
    return tuple(blk[r] for r in _swapped(a, b, "row"))


def swap_block_columns(blk: Block, a: int, b: int) -> Block:
    """Transpose two mini-columns of a block."""
    perm = _swapped(a, b, "column")
    return tuple(tuple(row[c] for c in perm) for row in blk)


def keedwell_decompose(board: Board) -> KeedwellDecomposition | None:
    """Exponents of every block over the upper-left block, or None if
    some block is not a cycle image of it.

    The block entries are distinct, so the position of K[0][0] in a
    target block pins the only candidate exponent pair. The board is read
    as Board reads cells; an 81-cell board that is not a Sudoku board
    raises DomainError.
    """
    board = _board(board)
    if not is_sudoku(board):
        raise DomainError("board is not a Sudoku board")
    blks = blocks(board)
    K = blks[0]
    exps = [divmod(sum(target, ()).index(K[0][0]), 3) for target in blks]
    for (c, d), target in zip(exps, blks):
        if apply_beta(apply_alpha(K, c), d) != target:
            return None
    c, d = (tuple(tuple(e[k] for e in exps[i : i + 3]) for i in (0, 3, 6)) for k in (0, 1))
    return KeedwellDecomposition(K, ExponentMatrices(c, d))


def is_quasi_linear(m: Sequence[Sequence[int]]) -> bool:
    """True when m[i][j] = m[i][0] + m[0][j] (mod 3) for all i, j."""
    rows = _as_matrix(m, "matrix", -math.inf, math.inf)
    return all(
        (rows[i][j] - rows[i][0] - rows[0][j]) % 3 == 0
        for i in range(3)
        for j in range(3)
    )


def linearity_degree(board: Board) -> int | None:
    """Number of quasi-linear exponent matrices, or None if the board
    has no decomposition."""
    dec = keedwell_decompose(board)
    if dec is None:
        return None
    return is_quasi_linear(dec.exponents.c) + is_quasi_linear(dec.exponents.d)
