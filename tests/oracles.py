"""The block-tuple predicates that the block-pass predicates replaced,
kept as the oracle: one Block tuple per block, one Python sum per line.
With them, the nine-weight sum that the band table's per-band sums
replaced, the chunk labels of the variants' block codes, and the
reference join: the block join built position by position as (n, 9)
rows of catalog indices, and the boards' cells gathered cell by cell."""

from functools import cache

import numpy as np

from magicsudoku import nests
from magicsudoku.boards import _mm_weights, blocks, modular_magic_blocks
from magicsudoku.enumeration import _join_tables
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


def _admissible(tables, allowed, idx):
    # (n, 72) mask of the allowed catalog blocks that may sit at block
    # position p = idx.shape[1] (row-major block order) next to the
    # blocks idx[k, :p] of each partial assembly k: mini-row sets
    # disjoint from the earlier blocks of its band, mini-column sets
    # disjoint from the earlier blocks of its pillar.
    _, row_ok, col_ok = tables
    p = idx.shape[1]
    # Only position 0 has no earlier block in its band or pillar.
    mask = np.broadcast_to(allowed, (len(idx), len(allowed))) if p == 0 else allowed
    for q in range(p - p % 3, p):
        mask = mask & row_ok[idx[:, q]]
    for q in range(p % 3, p, 3):
        mask = mask & col_ok[idx[:, q]]
    return mask


def _reference_levels(catalog_fn, cand, start=np.zeros((1, 0), dtype=np.uint8)):
    # The join position by position: the partial assemblies of each depth
    # after those of start (by default depths 1..9), each level the one
    # before extended by one block position with the 72-wide _admissible
    # mask.
    tables = _join_tables(catalog_fn)
    levels = [start]
    for p in range(start.shape[1], 9):
        # flatnonzero, then divmod: twice as fast as a 2-D np.nonzero.
        found = np.flatnonzero(_admissible(tables, cand[p], levels[-1]))
        rows, picks = np.divmod(found, cand.shape[1])
        levels.append(np.column_stack((levels[-1][rows], picks.astype(np.uint8))))
    return levels[1:]


def _head_chunks(rows):
    # One chunk per pair of blocks at positions 0 and 1: the runs of
    # rows that share those two blocks.
    cuts = np.flatnonzero((rows[1:, :2] != rows[:-1, :2]).any(axis=1)) + 1
    return np.split(rows, cuts) if len(rows) else []


def _reference_join(catalog_fn, cand):
    return _head_chunks(_reference_levels(catalog_fn, cand)[-1])


def _reference_cells(catalog_fn, chunks):
    # The gather of single cells: (n, I, J, r, c) blocks transposed to
    # (n, I, r, J, c), then split 81 bytes at a time.
    cat = _join_tables(catalog_fn)[0]
    for idx in chunks:
        data = cat[idx].reshape(-1, 3, 3, 3, 3).transpose(0, 1, 3, 2, 4).tobytes()
        for k in range(0, len(data), 81):
            yield data[k : k + 81]
