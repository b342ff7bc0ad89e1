"""Exhaustive enumerators for boards and gnomon completions.

Each variant has a catalog of 72 blocks, built in boards and exported
here: semi-magic blocks (mini-rows and mini-columns sum to 12) and
magic-mod-9 blocks (mini-rows, mini-columns, and mini-diagonals sum to
0 mod 9). Nine catalog blocks form a board exactly when blocks sharing
a band have disjoint mini-row digit sets and blocks sharing a pillar
have disjoint mini-column digit sets, so one join over block indices
enumerates either variant.
Partitions and preset cells (such as the 45 cells of the standard
gnomon) become per-position candidate masks of that join.

The join is level-wise over numpy arrays: it fills block positions in
row-major order, extending every partial assembly by one position at a
time, and yields (n, 9) uint8 chunks of catalog indices, one per
admissible pair of blocks at positions 0 and 1. Chunks and their rows
come in lexicographic order, so earlier positions vary slowest. A block
is fixed by its mini-row and mini-column digit sets, so band 2's blocks
are looked up, not masked: the pillars above positions 6 and 7 fix their
column sets, and band 2 and pillar 2 fix both sets of position 8.
Board objects are built only for visitors, the iterators and completions.

Both enumerators are deterministic: semi-magic boards come in join
order, modular-magic boards in lexicographic row-major order. An
optional partition (worker, worker_count) restricts a run to a slice of
top-left blocks so censuses can be split across processes; the slices
are disjoint and their union is the full enumeration.
"""

from __future__ import annotations

import multiprocessing
from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from .boards import Block, Board, _Catalog, _line_sets, modular_magic_blocks, semi_magic_blocks
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


# --- the block join ---


@cache
def _join_tables(catalog_fn: _Catalog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The catalog as a (72, 9) uint8 array of flattened blocks, and
    (72, 72) matrices of which block pairs have disjoint mini-row sets
    and which have disjoint mini-column sets."""
    blocks = np.array(catalog_fn(), dtype=np.uint8)
    rows, cols = _line_sets(blocks)
    return blocks.reshape(-1, 9), rows[:, None] & rows == 0, cols[:, None] & cols == 0


@cache
def _forced_tables(catalog_fn: _Catalog) -> tuple[np.ndarray, ...]:
    """Lookups for band 2's blocks. A block is fixed by its mini-row
    and mini-column triples (ordered digit sets): cell (i, j) is the one
    digit in row set i and column set j. row_rest[a, b] and col_rest[a, b]
    are the triple ids that complete a band or a pillar holding blocks a
    and b, block_of[row id, col id] the block with both, and by_col[col id]
    the ascending blocks with that column triple. One past the last id
    and block n = 72 stand for none; row_fit is row_ok with a column n."""
    blocks, row_ok, _ = _join_tables(catalog_fn)
    n = len(blocks)

    def ids(codes):
        # Blocks that overlap in a mini-line leave over three digits there: no triple.
        triples, id_of = np.unique(codes, return_inverse=True)
        rest = ((1 << 27) - 1) ^ (codes[:, None] | codes)
        at = np.minimum(np.searchsorted(triples, rest), len(triples) - 1)
        return id_of, np.where(triples[at] == rest, at, len(triples))

    (row_id, row_rest), (col_id, col_rest) = map(ids, _line_sets(blocks.reshape(-1, 3, 3)))
    block_of = np.full((row_id.max() + 2, col_id.max() + 2), n, dtype=np.uint8)
    block_of[row_id, col_id] = np.arange(n)
    by_col = np.full((col_id.max() + 2, np.bincount(col_id).max()), n, dtype=np.uint8)
    for c in range(col_id.max() + 1):
        members = np.flatnonzero(col_id == c)
        by_col[c, : len(members)] = members
    return row_rest, col_rest, block_of, by_col, np.pad(row_ok, ((0, 0), (0, 1)))


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


def _extend(catalog_fn: _Catalog, cand: np.ndarray, idx: np.ndarray, stop: int) -> np.ndarray:
    """Extend the (n, p) partial assemblies idx through block position
    stop - 1, position q drawing from the mask cand[q]. Positions 6 and 7
    draw from the blocks with the column triple their pillar leaves (7 also
    fitting 6's rows), and 8 is the one block with the triples band 2 and
    pillar 2 leave, if any. Rows stay in lexicographic order: np.nonzero
    lists a mask's rows in order, each row's blocks (and by_col's) ascending."""
    tables = _join_tables(catalog_fn)
    row_rest, col_rest, block_of, by_col, row_fit = _forced_tables(catalog_fn)
    allowed = np.pad(cand, ((0, 0), (0, 1)))  # block n, none, is never allowed
    for p in range(idx.shape[1], stop):
        if p in (6, 7):
            picks = by_col[col_rest[idx[:, p - 6], idx[:, p - 3]]]
            fit = row_fit[idx[:, 6, None], picks] if p == 7 else True
            rows, k = np.nonzero(allowed[p, picks] & fit)
            picks = picks[rows, k]
        elif p == 8:
            picks = block_of[row_rest[idx[:, 6], idx[:, 7]], col_rest[idx[:, 2], idx[:, 5]]]
            rows = np.flatnonzero(allowed[p, picks])
            picks = picks[rows]
        else:
            rows, picks = np.nonzero(_admissible(tables, cand[p], idx))
        idx = np.column_stack((idx[rows], picks.astype(np.uint8)))
    return idx


def _join(catalog_fn: _Catalog, cand: np.ndarray) -> Iterator[np.ndarray]:
    """Every board built from the catalog whose block at position p has
    its catalog index in the mask cand[p], as (n, 9) uint8 chunks of
    catalog indices: one chunk per admissible pair of blocks at
    positions 0 and 1, in lexicographic order."""
    for head in _extend(catalog_fn, cand, np.zeros((1, 0), dtype=np.uint8), 2):
        idx = _extend(catalog_fn, cand, head[None], 9)
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
        # The gathered (n, I, J, r, c) blocks, read as (n, I, r, J, c): row-major cells.
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


def _sorted(catalog_fn: _Catalog, chunks: Iterable[np.ndarray]) -> list[Board]:
    """The boards of the index chunks, sorted by cells."""
    return sorted(_boards(catalog_fn, chunks), key=lambda b: b.cells)


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
    return _sorted(catalog_fn, _join(catalog_fn, cand))


# --- modular-magic enumeration ---


def _mm_join(partition: tuple[int, int] | None = None) -> Iterator[np.ndarray]:
    """The join chunks of a partition slice of the modular-magic boards."""
    cat = _join_tables(modular_magic_blocks)[0].astype(int)
    return _join(modular_magic_blocks, _slice(9 * cat[:, 0] + cat[:, 1], partition))


def enumerate_modular_magic(
    visitor: Visitor | None = None, partition: tuple[int, int] | None = None
) -> int:
    """Visit every modular-magic board once; returns the count.

    Boards are visited in lexicographic row-major order. Worker w of a
    partition into n slices gets the boards whose first two cells d0, d1
    satisfy (9 * d0 + d1) % n == w.
    """
    chunks = _mm_join(partition)
    if visitor is None:
        return sum(map(len, chunks))
    boards = _sorted(modular_magic_blocks, chunks)
    for board in boards:
        visitor(board)
    return len(boards)


def iter_modular_magic() -> Iterator[Board]:
    """Yield every modular-magic board in enumeration order."""
    return iter(_sorted(modular_magic_blocks, _mm_join()))


def complete_modular_magic(
    assignments: Mapping[int, int], limit: int | None = None
) -> list[Board]:
    """All modular-magic boards extending the given cell assignments,
    in lexicographic row-major order.

    Returns only the first ``limit`` boards, if given; a negative limit
    raises DomainError.
    """
    if limit is not None and limit < 0:
        raise DomainError(f"bad limit {limit!r}")
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


def random_semi_magic(rng) -> Board:
    """A uniformly random semi-magic board, via randomized block assembly.

    Each block position takes rng.choice over the ascending catalog
    indices that fit: the nonzero entries of the join's row_ok rows of
    the earlier blocks in its band ANDed with the col_ok rows of those
    in its pillar. At every depth all partial assemblies have equally
    many completions, so the board is exactly uniform. A dead end, which
    the catalog never produces, raises IntegrityError.
    """
    _, row_ok, col_ok = _join_tables(semi_magic_blocks)
    anywhere = np.ones(len(row_ok), dtype=bool)
    picks: list[int] = []
    for p in range(9):
        fit = anywhere
        for q in range(p - p % 3, p):
            fit = fit & row_ok[picks[q]]
        for q in range(p % 3, p, 3):
            fit = fit & col_ok[picks[q]]
        choices = fit.nonzero()[0].tolist()
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
