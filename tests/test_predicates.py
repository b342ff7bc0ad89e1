"""The cell-slice predicates against the block-tuple predicates they
replaced, kept here as the oracle."""

import random

import pytest

from magicsudoku import analysis as an
from magicsudoku.boards import (
    Board,
    blocks,
    is_magic_mod9_block,
    is_modular_magic,
    is_semi_magic,
    is_semi_magic_block,
    is_sudoku,
    off_diagonal_set,
)
from magicsudoku.enumeration import modular_magic_blocks, random_semi_magic, semi_magic_blocks
from magicsudoku.errors import DomainError, StructureError

# --- the oracle: one Block tuple per block, one Python sum per line ---

_DIGITS = frozenset(range(9))
_CENTER_SET = frozenset((0, 3, 6))


def oracle_is_sudoku(board):
    cells = board.cells
    units = [cells[9 * i : 9 * i + 9] for i in range(9)] + [cells[i::9] for i in range(9)]
    units += [sum(blk, ()) for blk in blocks(board)]
    return all(set(unit) == _DIGITS for unit in units)


def oracle_block_lines(blk):
    (a, b, c), (d, e, f), (g, h, i) = blk
    return [
        (a, b, c), (d, e, f), (g, h, i),
        (a, d, g), (b, e, h), (c, f, i),
        (a, e, i), (c, e, g),
    ]


def oracle_is_magic_mod9_block(blk):
    flat = [d for row in blk for d in row]
    if set(flat) != _DIGITS:
        return False
    return all(sum(line) % 9 == 0 for line in oracle_block_lines(blk))


def oracle_is_semi_magic_block(blk):
    flat = [d for row in blk for d in row]
    if set(flat) != _DIGITS:
        return False
    return all(sum(line) == 12 for line in oracle_block_lines(blk)[:6])


def oracle_is_modular_magic(board):
    return oracle_is_sudoku(board) and all(map(oracle_is_magic_mod9_block, blocks(board)))


def oracle_is_semi_magic(board):
    return oracle_is_sudoku(board) and all(map(oracle_is_semi_magic_block, blocks(board)))


def oracle_off_diagonal_set(blk):
    if not oracle_is_magic_mod9_block(blk):
        raise StructureError("off_diagonal_set requires a magic mod-9 block")
    main = (blk[0][0], blk[1][1], blk[2][2])
    anti = (blk[0][2], blk[1][1], blk[2][0])
    main_in = set(main) <= _CENTER_SET
    anti_in = set(anti) <= _CENTER_SET
    if main_in == anti_in:
        raise StructureError("expected exactly one {0,3,6} mini-diagonal")
    corners = anti if main_in else main
    return frozenset((corners[0], corners[2]))


def oracle_check_two_equal(board):
    if not oracle_is_modular_magic(board):
        raise DomainError("board is not modular-magic")
    by_center = {0: [], 3: [], 6: []}
    for blk in blocks(board):
        by_center[blk[1][1]].append(oracle_off_diagonal_set(blk))
    return all(len(sets) == 3 and len(set(sets)) <= 2 for sets in by_center.values())


# --- boards: valid ones and seeded mutations of them ---


def _rows(board):
    return [list(board.cells[9 * r : 9 * r + 9]) for r in range(9)]


def _board(rows):
    return Board(bytes(d for row in rows for d in row))


def _mutations(board, rng):
    """Seeded variants of a board: two cell swaps, a changed digit, a row
    swap and a column swap inside a band or pillar, a band swap, a digit
    shift by 3 and by 1, and the transpose."""
    cells = bytearray(board.cells)
    out = []
    for _ in range(2):
        c = bytearray(cells)
        i, j = rng.sample(range(81), 2)
        c[i], c[j] = c[j], c[i]
        out.append(Board(bytes(c)))
    c = bytearray(cells)
    c[rng.randrange(81)] = rng.randrange(9)
    out.append(Board(bytes(c)))
    rows = _rows(board)
    band, i, j = rng.randrange(3), *rng.sample(range(3), 2)
    swapped = list(rows)
    swapped[3 * band + i], swapped[3 * band + j] = rows[3 * band + j], rows[3 * band + i]
    out.append(_board(swapped))
    cols = [list(col) for col in zip(*rows)]
    cols[3 * band + i], cols[3 * band + j] = cols[3 * band + j], cols[3 * band + i]
    out.append(_board(zip(*cols)))
    out.append(_board(rows[3:6] + rows[:3] + rows[6:]))
    for shift in (3, 1):
        out.append(Board(bytes((d + shift) % 9 for d in cells)))
    out.append(_board(zip(*rows)))
    return out


@pytest.fixture(scope="module")
def sample_boards(mm_sample):
    rng = random.Random(2024)
    sm = [random_semi_magic(rng) for _ in range(150)]
    base = list(mm_sample[::3]) + sm
    mutated = [m for board in base for m in _mutations(board, rng)]
    return base, mutated


PREDICATES = [
    (is_sudoku, oracle_is_sudoku),
    (is_modular_magic, oracle_is_modular_magic),
    (is_semi_magic, oracle_is_semi_magic),
]


@pytest.mark.parametrize("fast, oracle", PREDICATES, ids=lambda f: f.__name__)
def test_board_predicates_match_the_oracle(sample_boards, fast, oracle):
    base, mutated = sample_boards
    for board in base + mutated:
        assert fast(board) == oracle(board), board
    # The mutations reach both answers, so the comparison tests both.
    assert {fast(board) for board in mutated} == {True, False}


def test_block_predicates_match_the_oracle(sample_boards):
    base, mutated = sample_boards
    rng = random.Random(7)
    found = [blk for board in base + mutated for blk in blocks(board)]
    shuffled = [rng.sample(range(9), 9) for _ in range(500)]
    found += [tuple(tuple(p[3 * r : 3 * r + 3]) for r in range(3)) for p in shuffled]
    found += [((0, 0, 1), (2, 3, 4), (5, 6, 7)), ((0, 1, 2), (3, 4, 5), (6, 7, 300))]
    found += [((-1,) * 3,) * 3]
    found += list(semi_magic_blocks()) + list(modular_magic_blocks())
    for fast, oracle in (
        (is_magic_mod9_block, oracle_is_magic_mod9_block),
        (is_semi_magic_block, oracle_is_semi_magic_block),
    ):
        results = [fast(blk) for blk in found]
        assert results == [oracle(blk) for blk in found]
        assert set(results) == {True, False}


def test_off_diagonal_set_matches_the_oracle():
    for blk in modular_magic_blocks():
        assert off_diagonal_set(blk) == oracle_off_diagonal_set(blk)


def test_check_two_equal_matches_the_oracle(sample_boards):
    base, mutated = sample_boards
    checked = 0
    for board in base + mutated:
        if oracle_is_modular_magic(board):
            assert an.check_two_equal(board) == oracle_check_two_equal(board)
            checked += 1
        else:
            with pytest.raises(DomainError):
                an.check_two_equal(board)
    # The sample, its band swaps, transposes and digit shifts by 3.
    assert checked >= 4 * 347

