"""Structural checks and the full-Sudoku average-orbit certificate.

The off-diagonal check groups a modular-magic board's blocks by center
entry and requires two matching off-diagonal sets in each group. The
average-orbit certificate is exact big-integer arithmetic over the
published full-Sudoku constants: if twice the board total exceeds the
orbit count times the group order, the average orbit is larger than
half the group order, so some orbit has trivial stabilizer and no
smaller group could be complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boards import _BOARD_LINES, Board, _off_diagonal, is_modular_magic
from .errors import DomainError
from .nestgraph import orbit_sizes

__all__ = [
    "check_two_equal",
    "G9Certificate",
    "g9_minimality_certificate",
    "SUDOKU_BOARD_TOTAL",
    "SUDOKU_ORBIT_COUNT",
    "G9_ORDER",
    "orbit_sizes",
]

#: Number of standard 9x9 Sudoku boards.
SUDOKU_BOARD_TOTAL = 6_670_903_752_021_072_936_960
#: Number of orbits of the full physical-and-relabeling group on them.
SUDOKU_ORBIT_COUNT = 5_472_730_538
#: Order of that group: 2 * 6^8 * 9!.
G9_ORDER = 1_218_998_108_160


def check_two_equal(board: Board) -> bool:
    """For each center entry in {0,3,6}: do at least two of the three
    blocks with that center share their off-diagonal set? Reads the
    centers and mini-diagonals straight from the cells."""
    if not is_modular_magic(board):
        raise DomainError("board is not modular-magic")
    cells = board.cells
    by_center: dict[int, list[frozenset[int]]] = {0: [], 3: [], 6: []}
    for lines in _BOARD_LINES:
        by_center[cells[lines[6]][1]].append(_off_diagonal(cells, lines))
    return all(
        len(sets) == 3 and len(set(sets)) <= 2 for sets in by_center.values()
    )


@dataclass(frozen=True)
class G9Certificate:
    total_boards: int
    orbit_count: int
    group_order: int
    average_orbit_floor: int
    bound_holds: bool


def g9_minimality_certificate(
    total_boards: int = SUDOKU_BOARD_TOTAL,
    orbit_count: int = SUDOKU_ORBIT_COUNT,
    group_order: int = G9_ORDER,
) -> G9Certificate:
    """Exact average-orbit bound: bound_holds certifies that a
    trivial-stabilizer orbit exists, hence the group is minimal."""
    total_boards = int(total_boards)
    orbit_count = int(orbit_count)
    group_order = int(group_order)
    if orbit_count <= 0:
        raise DomainError("orbit count must be positive")
    if total_boards <= 0 or group_order <= 0:
        raise DomainError("certificate inputs must be positive")
    return G9Certificate(
        total_boards=total_boards,
        orbit_count=orbit_count,
        group_order=group_order,
        average_orbit_floor=total_boards // orbit_count,
        bound_holds=2 * total_boards > orbit_count * group_order,
    )
