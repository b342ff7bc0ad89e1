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

The join is a join of bands, each three catalog blocks with pairwise
disjoint mini-row sets: bands 0 and 1 have disjoint mini-column sets in
every pillar, and band 2 is any band with the column triples they leave,
whose range of the key-sorted bands is read from a start table over
every key. Each catalog's tables are built once per process, read-only:
its bands and their column fits, and band 2 of every join, the whole
band table in key order, with its start table and its bands' row-major
cells. A join is its range batches, one per top-left block: its
band-0/band-1 pairs and the start and length of each one's range of
band 2. Counts and the census read the batches alone. A board is its
three bands' 27-byte rows: the visitors, the iterators and completions
cut each pair's rows of bands 0 and 1 once and append band 2's row from
the table, for at most _CHUNK boards at a time, in join order
(lexicographic in the blocks, earlier positions varying slowest). A
completion keeps the boards of its ranges that hold every assigned
cell. The sampler draws the board at a uniform index of the whole join,
held as one index of its pairs and their ranges.

Both enumerators are deterministic: semi-magic boards come in join
order, modular-magic boards in lexicographic row-major order. An
optional partition (worker, worker_count) restricts a run to a slice of
top-left blocks so censuses can be split across processes; the slices
are disjoint and their union is the full enumeration.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from .boards import (
    _CHUNK,
    Block,
    Board,
    _Catalog,
    _line_sets,
    modular_magic_blocks,
    semi_magic_blocks,
)
from .errors import DomainError, _in_range

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
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray]  # (pair, lo, n) of a join's range batch

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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only, for a cache that every caller shares."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@cache
def _join_tables(catalog_fn: _Catalog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The catalog as a (72, 9) uint8 array of flattened blocks, and
    (72, 72) matrices of which block pairs have disjoint mini-row sets
    and which have disjoint mini-column sets; all read-only."""
    blocks = np.array(catalog_fn(), dtype=np.uint8)
    rows, cols = _line_sets(blocks)
    return _read_only(blocks.reshape(-1, 9), rows[:, None] & rows == 0, cols[:, None] & cols == 0)


def _band_rows(catalog_fn: _Catalog, idx: np.ndarray) -> np.ndarray:
    """The row-major cells of bands of catalog indices: (n, 3k) indices of
    k bands each give (n, 27k) uint8 rows. The gathered (n, k, J, r)
    mini-rows, each one 3-byte item, are read as (n, k, r, J)."""
    rows = _join_tables(catalog_fn)[0].view("V3").take(idx, 0)
    rows = rows.reshape(len(idx), idx.shape[1] // 3, 3, 3).transpose(0, 1, 3, 2)
    return np.ascontiguousarray(rows).view(np.uint8).reshape(len(idx), 9 * idx.shape[1])


@cache
def _band_tables(catalog_fn: _Catalog) -> tuple[np.ndarray, ...]:
    """The catalog's bands and the lookup of band 2, all read-only. A
    band is three blocks with pairwise disjoint mini-row sets, an (n, 3)
    uint8 row of catalog indices; bands lists them in lexicographic
    order, C-contiguous so that a gather of its rows reads whole rows. A
    band's key is the base-m number of its blocks' mini-column triple ids
    (the ordered column digit sets, m - 1 of them); by_key holds the
    bands stably sorted by key, and first is the start table over every
    key: the bands of key k are by_key[first[k]:first[k + 1]]. rest[a, b]
    is the id of the triple that completes a pillar holding blocks a and
    b; m - 1, a triple no block has, stands for none. cells holds the
    27 row-major cells of each band of by_key."""
    blocks, row_ok, _ = _join_tables(catalog_fn)
    bands = np.argwhere(row_ok[:, :, None] & row_ok[:, None] & row_ok).astype(np.uint8, order="C")
    codes = _line_sets(blocks.reshape(-1, 3, 3))[1]
    triples, col_id = np.unique(codes, return_inverse=True)
    # Blocks that overlap in a mini-column leave over three digits there: no triple.
    left = ((1 << 27) - 1) ^ (codes[:, None] | codes)
    at = np.minimum(np.searchsorted(triples, left), len(triples) - 1)
    rest = np.where(triples[at] == left, at, len(triples))
    m = len(triples) + 1
    keys = col_id[bands] @ [m * m, m, 1]
    order = np.argsort(keys, kind="stable")
    first = np.searchsorted(keys[order], np.arange(m**3 + 1))
    by_key = bands[order]
    return (*_read_only(bands, by_key, first, rest, _band_rows(catalog_fn, by_key)), m)


def _allowed(cand: np.ndarray, rows: np.ndarray, r: int) -> np.ndarray:
    """Which band rows have each block in its mask of band r of cand."""
    a, b, c = cand[3 * r : 3 * r + 3]
    return a.take(rows[:, 0]) & b.take(rows[:, 1]) & c.take(rows[:, 2])


def _ranges(catalog_fn: _Catalog, cand: np.ndarray) -> Iterator[_Batch]:
    """The boards built from the catalog whose block at position p < 6
    has its catalog index in the mask cand[p], as ranges of band 2, the
    catalog's band table in key order (_band_tables(catalog_fn)[1]);
    mask rows 6-8 are not read. One batch per top-left block of the
    admissible top bands, in ascending order: its (n, 6) band-0/band-1
    rows and the start lo and length n of each one's range of band 2.

    A board is three bands whose blocks have disjoint mini-column sets
    in each pillar. The band-0 rows of one top-left block pair with the
    band-1 rows that fit them in all three pillars: the block's fits in
    pillar 0 filter the band-1 rows once, and one boolean matrix of the
    fits in pillars 1 and 2 gives every pair. Each pair takes the bands
    that have the column triples it leaves: the range first[key] to
    first[key + 1] of the start table. Ranges stay in lexicographic
    order, as the band-0 rows are sorted, np.nonzero lists a matrix row
    by row and the stable sort keeps a key's bands in order. Every
    gather takes whole rows or single items, far faster than a 2-D fancy
    index of 3-byte rows. Open rows 3-5, as in every partition slice,
    take every band as a band-1 row."""
    bands, _, first, rest, _, m = _band_tables(catalog_fn)
    col_ok = _join_tables(catalog_fn)[2]
    mid = bands if cand[3:6].all() else bands.compress(_allowed(cand, bands, 1), 0)
    top = bands.compress(_allowed(cand, bands, 0), 0)
    # top is lexicographic, so each top-left block b0 is one run of its rows.
    starts = np.flatnonzero(np.diff(top[:, 0])) + 1
    for head in np.split(top, starts) if len(top) else []:
        b0 = head[0, 0]
        fit = mid.compress(col_ok[b0].take(mid[:, 0]), 0)
        i, j = np.nonzero(col_ok.take(head[:, 1], 0).take(fit[:, 1], 1)
                          & col_ok.take(head[:, 2], 0).take(fit[:, 2], 1))
        pair = np.column_stack((head.take(i, 0), fit.take(j, 0)))
        want = rest[b0].take(pair[:, 3]) * m + rest[pair[:, 1], pair[:, 4]]
        want = want * m + rest[pair[:, 2], pair[:, 5]]
        lo = first.take(want)
        yield pair, lo, first.take(want + 1) - lo


def _slice(keys: np.ndarray, partition: tuple[int, int] | None) -> np.ndarray:
    """Join candidate masks of a partition slice: worker w of n gets the
    top-left catalog blocks whose key is congruent to w mod n. Only
    integers, as operator.index takes them, make a partition."""
    try:
        worker, nparts = (0, 1) if partition is None else map(operator.index, partition)
    except (TypeError, ValueError):
        raise DomainError(f"bad partition {partition!r}") from None
    if nparts < 1 or not 0 <= worker < nparts:
        raise DomainError(f"bad partition {partition!r}")
    cand = np.ones((9, len(keys)), dtype=bool)
    cand[0] = keys % nparts == worker
    return cand


def _cells(catalog_fn: _Catalog, batches: Iterable[_Batch]) -> Iterator[bytes]:
    """The 81 row-major cell bytes of each board of the range batches, in
    order. Board i of a batch is the rows of bands 0 and 1 of its pair k,
    the last whose first board is at most i, then the band-2 row at
    lo[k] + i - first[k] of the band table, built at most _CHUNK boards
    at a time."""
    low = _band_tables(catalog_fn)[4]
    for pair, lo, n in batches:
        top = _band_rows(catalog_fn, pair)  # one cut per pair, 54 bytes
        first = np.cumsum(n) - n
        total = int(n.sum())
        for start in range(0, total, _CHUNK):
            i = np.arange(start, min(start + _CHUNK, total))
            k = first.searchsorted(i, "right") - 1
            cells = np.empty((len(i), 81), dtype=np.uint8)
            cells[:, :54] = top.take(k, 0)
            cells[:, 54:] = low.take(lo.take(k) + i - first.take(k), 0)
            # "V81" keeps trailing zero cells, which "S81" would strip.
            yield from cells.view("V81").ravel().tolist()


def _boards(catalog_fn: _Catalog, batches: Iterable[_Batch]) -> Iterator[Board]:
    """The boards of the range batches, in order."""
    return map(Board._wrap, _cells(catalog_fn, batches))


def _map_partitions(fn: Callable[[tuple[int, int] | None], _T], threads: int) -> list[_T]:
    """fn(partition) for every slice of a threads-way partition, in slice
    order, on at most os.cpu_count() processes; one thread runs fn(None) here."""
    if threads == 1:
        return [fn(None)]
    with multiprocessing.Pool(min(threads, os.cpu_count() or 1)) as pool:
        return pool.map(fn, [(w, threads) for w in range(threads)])


def _visit(
    batches: Iterable[_Batch],
    boards: Callable[[Iterable[_Batch]], Iterable[Board]],
    visitor: Visitor | None,
) -> int:
    """The number of boards of the range batches, summed from their
    lengths; with a visitor, each board of boards(batches) is visited in
    order first."""
    if visitor is None:
        return sum(int(n.sum()) for _, _, n in batches)
    count = 0
    for board in boards(batches):
        visitor(board)
        count += 1
    return count


def _complete(catalog_fn: _Catalog, assignments: Mapping[int, int]) -> list[Board]:
    """The boards built from the catalog that extend the given cell
    assignments, sorted by cells: those that hold every assigned cell, of
    the ranges whose blocks of bands 0 and 1 agree with the assignments."""
    if not isinstance(assignments, Mapping):
        raise DomainError(f"assignments must map cells to digits, not {type(assignments).__name__}")
    cat = _join_tables(catalog_fn)[0]
    cand = np.ones((9, len(cat)), dtype=bool)
    for cell, digit in assignments.items():
        bad = f"bad assignment {cell!r}: {digit!r}"
        r, c = divmod(_in_range(cell, bad, 0, 80), 9)
        cand[3 * (r // 3) + c // 3] &= cat[:, 3 * (r % 3) + c % 3] == _in_range(digit, bad, 0, 8)
    cells = _cells(catalog_fn, _ranges(catalog_fn, cand))
    return sorted(Board._wrap(b) for b in cells if all(b[i] == d for i, d in assignments.items()))


@cache
def _index(catalog_fn: _Catalog) -> tuple[np.ndarray, ...]:
    """The catalog's whole join as one index: per band-0/band-1 pair, in
    join order, its (n, 6) row, the start of its range of band 2 and the
    join index of its first board, then the count. Each batch's int32
    starts and lengths are joined once; all read-only."""
    batches = _ranges(catalog_fn, np.ones((9, len(catalog_fn())), dtype=bool))
    pairs, lo, n = zip(*((pair, lo.astype(np.int32), n.astype(np.int32))
                         for pair, lo, n in batches))
    first = np.concatenate((np.zeros(1, dtype=np.int32), *n))
    return _read_only(np.concatenate(pairs), np.concatenate(lo), first.cumsum(out=first))


def _random_board(catalog_fn: _Catalog, rng) -> Board:
    """The board at rng.randrange(count) of the catalog's join, in join
    order: uniform over the boards, as each index is one board. Index i
    lies in the last pair k whose first is at most i, which has boards;
    the board is k's rows of bands 0 and 1 and the band-2 row at
    lo[k] + i - first[k], built alone, as _cells would build it."""
    pairs, lo, first = _index(catalog_fn)
    i = rng.randrange(int(first[-1]))
    k = first.searchsorted(np.int32(i), "right") - 1  # a wider key would cast all of first
    low = _band_tables(catalog_fn)[4][lo[k] + i - first[k]]
    return Board._wrap(_band_rows(catalog_fn, pairs[k : k + 1]).tobytes() + low.tobytes())


# --- modular-magic enumeration ---


def _mm_ranges(partition: tuple[int, int] | None = None) -> Iterator[_Batch]:
    """The join range batches of a partition slice of the modular-magic boards."""
    cat = _join_tables(modular_magic_blocks)[0].astype(int)
    return _ranges(modular_magic_blocks, _slice(9 * cat[:, 0] + cat[:, 1], partition))


def enumerate_modular_magic(
    visitor: Visitor | None = None, partition: tuple[int, int] | None = None
) -> int:
    """Visit every modular-magic board once; returns the count.

    Boards are visited in lexicographic row-major order. Worker w of a
    partition into n slices gets the boards whose first two cells d0, d1
    satisfy (9 * d0 + d1) % n == w.
    """
    mm = modular_magic_blocks
    return _visit(_mm_ranges(partition), lambda b: sorted(_boards(mm, b)), visitor)


def iter_modular_magic() -> Iterator[Board]:
    """Yield every modular-magic board in enumeration order."""
    return iter(sorted(_boards(modular_magic_blocks, _mm_ranges())))


def complete_modular_magic(assignments: Mapping[int, int]) -> list[Board]:
    """All modular-magic boards extending the given cell assignments,
    in lexicographic row-major order."""
    return _complete(modular_magic_blocks, assignments)


# --- semi-magic enumeration ---


def _sm_ranges(partition: tuple[int, int] | None = None) -> Iterator[_Batch]:
    """The join range batches of a partition slice of the semi-magic boards."""
    return _ranges(semi_magic_blocks, _slice(np.arange(len(semi_magic_blocks())), partition))


def enumerate_semi_magic(
    visitor: Visitor | None = None, partition: tuple[int, int] | None = None
) -> int:
    """Visit every semi-magic board once; returns the count.

    Boards are assembled block by block from the 72-block catalog in
    deterministic catalog order (band 0 blocks vary slowest). Worker w
    of a partition into n slices gets the top-left catalog indices
    congruent to w mod n.
    """
    return _visit(_sm_ranges(partition), partial(_boards, semi_magic_blocks), visitor)


def iter_semi_magic() -> Iterator[Board]:
    """Yield every semi-magic board in enumeration order."""
    return _boards(semi_magic_blocks, _sm_ranges())


def random_semi_magic(rng) -> Board:
    """A uniformly random semi-magic board: the board at rng.randrange
    of the count, in join order."""
    return _random_board(semi_magic_blocks, rng)


@cache
def complete_standard_gnomon() -> tuple[Board, ...]:
    """The 16 semi-magic boards whose gnomon is the standard gnomon,
    sorted by their (cell (6,5), cell (5,6)) label pair."""
    boards = _complete(semi_magic_blocks, dict(standard_gnomon_cells()))
    return tuple(sorted(boards, key=lambda b: (b[9 * 6 + 5], b[9 * 5 + 6])))
