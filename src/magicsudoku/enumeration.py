"""Exhaustive enumerators for blocks, boards, and gnomon completions.

Each variant has a catalog of 72 blocks: semi-magic blocks (mini-rows
and mini-columns sum to 12) and magic-mod-9 blocks (mini-rows,
mini-columns, and mini-diagonals sum to 0 mod 9). Nine catalog blocks
form a board exactly when blocks sharing a band have disjoint mini-row
digit sets and blocks sharing a pillar have disjoint mini-column digit
sets, so one join over block indices enumerates either variant.
Partitions and preset cells (such as the 45 cells of the standard
gnomon) become per-position candidate masks of that join.

The join is level-wise over numpy arrays: it fills block positions in
row-major order, extending every partial assembly by one position at a
time, and yields (n, 9) uint8 chunks of catalog indices, one per
admissible pair of blocks at positions 0 and 1. Chunks and their rows
come in lexicographic order, so earlier positions vary slowest. Board
objects are built only for visitors, the iterators and completions.

Both enumerators are deterministic: semi-magic boards come in join
order, modular-magic boards in lexicographic row-major order. An
optional partition (worker, worker_count) restricts a run to a slice of
top-left blocks so censuses can be split across processes; the slices
are disjoint and their union is the full enumeration.
"""

from __future__ import annotations

import itertools
import multiprocessing
from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from .boards import Block, Board, is_magic_mod9_block, is_semi_magic_block
from .errors import DomainError, IntegrityError

__all__ = [
    "semi_magic_blocks",
    "modular_magic_blocks",
    "enumerate_modular_magic",
    "enumerate_semi_magic",
    "iter_modular_magic",
    "iter_semi_magic",
    "complete_standard_gnomon",
    "complete_modular_magic",
    "standard_gnomon_cells",
    "STANDARD_GNOMON_BLOCKS",
]

Visitor = Callable[[Board], None]
_T = TypeVar("_T")
#: A block catalog builder, such as semi_magic_blocks.
_Catalog = Callable[[], tuple[Block, ...]]

#: Blocks of the standard gnomon (first band and first pillar), keyed by
#: block coordinates.
STANDARD_GNOMON_BLOCKS: dict[tuple[int, int], Block] = {
    (0, 0): ((0, 4, 8), (5, 6, 1), (7, 2, 3)),
    (0, 1): ((7, 2, 3), (0, 4, 8), (5, 6, 1)),
    (0, 2): ((5, 6, 1), (7, 2, 3), (0, 4, 8)),
    (1, 0): ((8, 0, 4), (1, 5, 6), (3, 7, 2)),
    (2, 0): ((4, 8, 0), (6, 1, 5), (2, 3, 7)),
}


def standard_gnomon_cells() -> list[tuple[int, int]]:
    """The 45 (cell index, digit) pairs fixed by the standard gnomon."""
    return sorted(
        (9 * (3 * I + r) + 3 * J + c, blk[r][c])
        for (I, J), blk in STANDARD_GNOMON_BLOCKS.items()
        for r in range(3)
        for c in range(3)
    )


# --- block catalogs ---


def _block_catalog(predicate: Callable[[Block], bool]) -> tuple[Block, ...]:
    """All blocks satisfying ``predicate``, sorted by flattened entries.

    Only blocks whose mini-rows and mini-columns share one sum s mod 9
    are tested, which both block predicates imply (s = 12 and s = 0).
    The nine digits sum to 36, so 3s = 0 mod 9. The row sum forces the
    last digit of the second row, and the column sums force the third
    row, which must hold the three digits left.
    """
    found = []
    digits = frozenset(range(9))
    for r0 in itertools.permutations(range(9), 3):
        s = sum(r0) % 9
        if s % 3:
            continue
        rest = digits - set(r0)
        for a, b in itertools.permutations(sorted(rest), 2):
            c = (s - a - b) % 9
            if c not in rest or c in (a, b):
                continue
            r1 = (a, b, c)
            r2 = tuple((s - x - y) % 9 for x, y in zip(r0, r1))
            if set(r2) == rest - set(r1) and predicate(blk := (r0, r1, r2)):
                found.append(blk)
    return tuple(sorted(found))


@cache
def semi_magic_blocks() -> tuple[Block, ...]:
    """All 72 blocks with distinct digits and every mini-row and
    mini-column summing to 12, sorted by their flattened entries."""
    return _block_catalog(is_semi_magic_block)


@cache
def modular_magic_blocks() -> tuple[Block, ...]:
    """All 72 blocks with distinct digits and every mini-row,
    mini-column, and mini-diagonal summing to 0 mod 9, sorted by their
    flattened entries."""
    return _block_catalog(is_magic_mod9_block)


# --- the block join ---


@cache
def _join_tables(catalog_fn: _Catalog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The catalog as a (72, 9) uint8 array of flattened blocks, and
    (72, 72) matrices of which block pairs have disjoint mini-row sets
    and which have disjoint mini-column sets."""
    blocks = np.array(catalog_fn(), dtype=np.uint8)
    bits = np.left_shift(1, blocks.astype(np.int64))
    # One 9-bit digit set per mini-line, mini-line k at bit 9k.
    rows = (bits.sum(axis=2) << [0, 9, 18]).sum(axis=1)
    cols = (bits.sum(axis=1) << [0, 9, 18]).sum(axis=1)
    return blocks.reshape(-1, 9), rows[:, None] & rows == 0, cols[:, None] & cols == 0


def _admissible(tables, allowed: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(n, 72) mask of the allowed catalog blocks that may sit at block
    position p = idx.shape[1] (row-major block order) next to the
    blocks idx[k, :p] of each partial assembly k: mini-row sets disjoint
    from the earlier blocks of its band, mini-column sets disjoint from
    the earlier blocks of its pillar."""
    _, row_ok, col_ok = tables
    p = idx.shape[1]
    # Only position 0 has no earlier block in its band or pillar.
    mask = np.broadcast_to(allowed, (len(idx), len(allowed))) if p == 0 else allowed
    for q in range(p - p % 3, p):
        mask = mask & row_ok[idx[:, q]]
    for q in range(p % 3, p, 3):
        mask = mask & col_ok[idx[:, q]]
    return mask


def _extend(tables, cand: np.ndarray, idx: np.ndarray, stop: int) -> np.ndarray:
    """Extend the (n, p) partial assemblies idx through block position
    stop - 1, position q drawing from the mask cand[q]. Rows stay in
    lexicographic order: np.nonzero lists a mask's rows in order and
    each row's blocks in ascending order."""
    for p in range(idx.shape[1], stop):
        rows, picks = np.nonzero(_admissible(tables, cand[p], idx))
        idx = np.column_stack((idx[rows], picks.astype(np.uint8)))
    return idx


def _join(catalog_fn: _Catalog, cand: np.ndarray) -> Iterator[np.ndarray]:
    """Every board built from the catalog whose block at position p has
    its catalog index in the mask cand[p], as (n, 9) uint8 chunks of
    catalog indices: one chunk per admissible pair of blocks at
    positions 0 and 1, in lexicographic order."""
    tables = _join_tables(catalog_fn)
    for head in _extend(tables, cand, np.zeros((1, 0), dtype=np.uint8), 2):
        idx = _extend(tables, cand, head[None], 9)
        if len(idx):
            yield idx


def _slice(keys: np.ndarray, partition: tuple[int, int] | None) -> np.ndarray:
    """Join candidate masks of a partition slice: worker w of n gets the
    top-left catalog blocks whose key is congruent to w mod n."""
    worker, nparts = (0, 1) if partition is None else partition
    if nparts < 1 or not 0 <= worker < nparts:
        raise DomainError(f"bad partition {partition!r}")
    cand = np.ones((9, len(keys)), dtype=bool)
    cand[0] = keys % nparts == worker
    return cand


def _boards(catalog_fn: _Catalog, chunks: Iterable[np.ndarray]) -> Iterator[Board]:
    """The boards of the index chunks, in order."""
    cat = _join_tables(catalog_fn)[0]
    for idx in chunks:
        # (board, I, J, r, c) -> (board, I, r, J, c): row-major cells.
        data = cat[idx].reshape(-1, 3, 3, 3, 3).transpose(0, 1, 3, 2, 4).tobytes()
        for k in range(0, len(data), 81):
            yield Board._wrap(data[k : k + 81])


def _map_partitions(fn: Callable[[tuple[int, int] | None], _T], threads: int) -> list[_T]:
    """fn(partition) for every slice of a threads-way partition, in slice
    order, each slice in its own process; one thread runs fn(None) here."""
    if threads == 1:
        return [fn(None)]
    with multiprocessing.Pool(threads) as pool:
        return pool.map(fn, [(w, threads) for w in range(threads)])


def _sorted_join(catalog_fn: _Catalog, cand: np.ndarray) -> list[Board]:
    """The boards the join admits under cand, sorted by cells."""
    return sorted(_boards(catalog_fn, _join(catalog_fn, cand)), key=lambda b: b.cells)


def _complete(catalog_fn: _Catalog, assignments: Mapping[int, int]) -> list[Board]:
    """The boards built from the catalog that extend the given cell
    assignments, sorted by cells."""
    cat = _join_tables(catalog_fn)[0]
    cand = np.ones((9, len(cat)), dtype=bool)
    for cell, digit in assignments.items():
        if not (0 <= int(cell) <= 80 and 0 <= int(digit) <= 8):
            raise DomainError(f"bad assignment {cell!r}: {digit!r}")
        r, c = divmod(int(cell), 9)
        cand[3 * (r // 3) + c // 3] &= cat[:, 3 * (r % 3) + c % 3] == int(digit)
    return _sorted_join(catalog_fn, cand)


# --- modular-magic enumeration ---


def _mm_slice(partition: tuple[int, int] | None) -> np.ndarray:
    cat = _join_tables(modular_magic_blocks)[0].astype(int)
    return _slice(9 * cat[:, 0] + cat[:, 1], partition)


def enumerate_modular_magic(
    visitor: Visitor | None = None, partition: tuple[int, int] | None = None
) -> int:
    """Visit every modular-magic board once; returns the count.

    Boards are visited in lexicographic row-major order. Worker w of a
    partition into n slices gets the boards whose first two cells d0, d1
    satisfy (9 * d0 + d1) % n == w.
    """
    cand = _mm_slice(partition)
    if visitor is None:
        return sum(map(len, _join(modular_magic_blocks, cand)))
    boards = _sorted_join(modular_magic_blocks, cand)
    for board in boards:
        visitor(board)
    return len(boards)


def iter_modular_magic() -> Iterator[Board]:
    """Yield every modular-magic board in enumeration order."""
    return iter(_sorted_join(modular_magic_blocks, _mm_slice(None)))


def complete_modular_magic(
    assignments: Mapping[int, int], limit: int | None = None
) -> list[Board]:
    """All modular-magic boards extending the given cell assignments,
    in lexicographic row-major order.

    Returns only the first ``limit`` boards, if given.
    """
    boards = _complete(modular_magic_blocks, assignments)
    return boards if limit is None else boards[:limit]


# --- semi-magic enumeration ---


def _sm_join(partition: tuple[int, int] | None = None) -> Iterator[np.ndarray]:
    """The join chunks of a partition slice of the semi-magic boards."""
    return _join(semi_magic_blocks, _slice(np.arange(len(semi_magic_blocks())), partition))


def enumerate_semi_magic(
    visitor: Visitor | None = None, partition: tuple[int, int] | None = None
) -> int:
    """Visit every semi-magic board once; returns the count.

    Boards are assembled block by block from the 72-block catalog in
    deterministic catalog order (band 0 blocks vary slowest). Worker w
    of a partition into n slices gets the top-left catalog indices
    congruent to w mod n.
    """
    chunks = _sm_join(partition)
    if visitor is None:
        return sum(map(len, chunks))
    count = 0
    for board in _boards(semi_magic_blocks, chunks):
        visitor(board)
        count += 1
    return count


def iter_semi_magic() -> Iterator[Board]:
    """Yield every semi-magic board in enumeration order."""
    return _boards(semi_magic_blocks, _sm_join())


@cache
def _fit_masks(catalog_fn: _Catalog) -> tuple[list[int], list[int]]:
    """The rows of _join_tables' row_ok and col_ok matrices as Python-int
    bitmasks: bit j of mask i is set iff block j fits next to block i."""
    _, *matrices = _join_tables(catalog_fn)
    bits = np.packbits(matrices, axis=2, bitorder="little")
    return tuple([int.from_bytes(row.tobytes(), "little") for row in m] for m in bits)


def random_semi_magic(rng) -> Board:
    """A uniformly random semi-magic board, via randomized block assembly.

    Each block position takes rng.choice over the ascending catalog
    indices that fit, read off the bits of _fit_masks. At every depth
    all partial assemblies have equally many completions, so the board
    is exactly uniform. A dead end, which the catalog never produces,
    raises IntegrityError.
    """
    rows, cols = _fit_masks(semi_magic_blocks)
    picks: list[int] = []
    for p in range(9):
        mask = (1 << len(rows)) - 1
        for q in range(p - p % 3, p):
            mask &= rows[picks[q]]
        for q in range(p % 3, p, 3):
            mask &= cols[picks[q]]
        choices = [j for j, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
        if not choices:
            raise IntegrityError("a partial semi-magic assembly has no completion")
        picks.append(rng.choice(choices))
    return next(_boards(semi_magic_blocks, [np.array([picks], dtype=np.uint8)]))


@cache
def complete_standard_gnomon() -> tuple[Board, ...]:
    """The 16 semi-magic boards whose gnomon is the standard gnomon,
    sorted by their (cell (6,5), cell (5,6)) label pair."""
    boards = _complete(semi_magic_blocks, dict(standard_gnomon_cells()))
    return tuple(sorted(boards, key=lambda b: (b[9 * 6 + 5], b[9 * 5 + 6])))
