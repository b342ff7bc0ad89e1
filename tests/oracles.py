"""The block-tuple predicates that the block-pass predicates replaced,
kept as the oracle: one Block tuple per block, one Python sum per line.
With them, the nine-weight sum that the band table's per-band sums
replaced, and the chunk labels of the variants' block codes."""

from functools import cache

from magicsudoku import nests
from magicsudoku.boards import _mm_weights, blocks, modular_magic_blocks
from magicsudoku.errors import DomainError, StructureError

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


@cache
def _mm_catalog_index():
    return {blk: i for i, blk in enumerate(modular_magic_blocks())}


def oracle_mm_weight_sum(board):
    """The class-weight sum of a modular-magic board: the _mm_weights of
    its nine blocks, each found in the catalog by its Block tuple, summed
    one by one. KeyError for a block outside the catalog."""
    weights, index = _mm_weights(), _mm_catalog_index()
    return sum(weights[index[blk]] for blk in blocks(board))


def _label_codes(variant, columns):
    """9 * first + second of the nest labels of nine block columns of the
    variant's catalog indices: nine ints for one board, or idx.T of a chunk."""
    return nests._labels_of_codes(variant, nests._VARIANTS[variant].code(columns))
