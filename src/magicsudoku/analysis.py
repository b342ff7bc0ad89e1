"""Structural checks and the full-Sudoku average-orbit certificate.

The off-diagonal check groups a modular-magic board's blocks by center
entry and requires two matching off-diagonal sets in each group, decoded
once per class-weight sum, which the band table gives as three band sums.
The average-orbit certificate is exact big-integer arithmetic over the
published full-Sudoku constants: if twice the board total exceeds the
orbit count times the group order, the average orbit is larger than
half the group order, so some orbit has trivial stabilizer and no
smaller group could be complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .boards import (
    Board,
    _mm_classes,
    _mm_weights,
    _variant_bands,
    _weight_sum,
    modular_magic_blocks,
)
from .errors import DomainError, _in_range

__all__ = [
    "check_two_equal",
    "G9Certificate",
    "g9_minimality_certificate",
    "SUDOKU_BOARD_TOTAL",
    "SUDOKU_ORBIT_COUNT",
    "G9_ORDER",
]

#: Number of standard 9x9 Sudoku boards.
SUDOKU_BOARD_TOTAL = 6_670_903_752_021_072_936_960
#: Number of orbits of the full physical-and-relabeling group on them.
SUDOKU_ORBIT_COUNT = 5_472_730_538
#: Order of that group: 2 * 6^8 * 9!.
G9_ORDER = 1_218_998_108_160


def check_two_equal(board: Board) -> bool:
    """For each center entry in {0,3,6}: do at least two of the three
    blocks with that center share their off-diagonal set? Decoded from
    the weight sum of the board's block classes (center and off-diagonal
    pair), which encodes their multiset: three band sums added."""
    bands = _variant_bands(modular_magic_blocks, board)
    if bands is None:
        raise DomainError("board is not modular-magic")
    return _two_equal(_weight_sum(*bands))


@cache
def _two_equal(code: int) -> bool:
    """check_two_equal of a weight sum, whose base-4 digits count each class."""
    by_center: dict[int, list[tuple[int, int, int]]] = {0: [], 3: [], 6: []}
    for weight, cls in dict(zip(_mm_weights(), _mm_classes())).items():
        by_center[cls[0]] += [cls] * (code // weight % 4)
    return all(len(group) == 3 and len(set(group)) <= 2 for group in by_center.values())


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
    given = {"board total": total_boards, "orbit count": orbit_count, "group order": group_order}
    total_boards, orbit_count, group_order = (
        _in_range(n, f"{name} must be a positive integer", 1) for name, n in given.items())
    return G9Certificate(
        total_boards=total_boards,
        orbit_count=orbit_count,
        group_order=group_order,
        average_orbit_floor=total_boards // orbit_count,
        bound_holds=2 * total_boards > orbit_count * group_order,
    )
