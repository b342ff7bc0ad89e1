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
every key. It yields C-contiguous (n, 9) uint8 chunks of catalog
indices, one per admissible pair of blocks at positions 0 and 1. Chunks
and their rows come in lexicographic order, so earlier positions vary
slowest.
Board objects are built only for visitors, the iterators and completions.

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
def _band_tables(catalog_fn: _Catalog) -> tuple[np.ndarray, ...]:
    """The catalog's bands and the lookup of band 2. A band is three
    blocks with pairwise disjoint mini-row sets, an (n, 3) uint8 row of
    catalog indices; bands lists them in lexicographic order. A band's
    key is the base-m number of its blocks' mini-column triple ids (the
    ordered column digit sets, m - 1 of them), and by_key holds the bands
    stably sorted by key, beside the sorted keys. rest[a, b] is the id of
    the triple that completes a pillar holding blocks a and b; m - 1, a
    triple no block has, stands for none."""
    blocks, row_ok, _ = _join_tables(catalog_fn)
    bands = np.argwhere(row_ok[:, :, None] & row_ok[:, None, :] & row_ok[None]).astype(np.uint8)
    codes = _line_sets(blocks.reshape(-1, 3, 3))[1]
    triples, col_id = np.unique(codes, return_inverse=True)
    # Blocks that overlap in a mini-column leave over three digits there: no triple.
    left = ((1 << 27) - 1) ^ (codes[:, None] | codes)
    at = np.minimum(np.searchsorted(triples, left), len(triples) - 1)
    rest = np.where(triples[at] == left, at, len(triples))
    m = len(triples) + 1
    keys = col_id[bands] @ [m * m, m, 1]
    order = np.argsort(keys, kind="stable")
    return bands, bands[order], keys[order], rest, m


def _join(catalog_fn: _Catalog, cand: np.ndarray) -> Iterator[np.ndarray]:
    """Every board built from the catalog whose block at position p has
    its catalog index in the mask cand[p], as C-contiguous (n, 9) uint8
    chunks of catalog indices: one non-empty chunk per admissible pair
    of blocks at positions 0 and 1, in lexicographic order.

    A board is three bands whose blocks have disjoint mini-column sets
    in each pillar. Each band-0 row of a chunk pairs with the band-1 rows
    that fit it in all three pillars, and each pair with the bands that
    have the column triples it leaves: the range first[key] to
    first[key + 1] of a start table over every key. Rows stay in
    lexicographic order, as np.nonzero lists pairs in order and the
    stable sort keeps a key's bands in order. Every gather takes whole
    rows or single items, far faster than a 2-D fancy index of 3-byte rows."""
    bands, by_key, keys, rest, m = _band_tables(catalog_fn)
    col_ok = _join_tables(catalog_fn)[2]

    def allowed(rows, r):
        a, b, c = cand[3 * r : 3 * r + 3]
        return a.take(rows[:, 0]) & b.take(rows[:, 1]) & c.take(rows[:, 2])

    top, mid = bands.compress(allowed(bands, 0), 0), bands.compress(allowed(bands, 1), 0)
    ok = allowed(by_key, 2)
    low, first = by_key.compress(ok, 0), np.searchsorted(keys.compress(ok), np.arange(m**3 + 1))
    # top is lexicographic, so each (b0, b1) pair is one run of its rows.
    starts = np.flatnonzero(np.diff(top[:, 0].astype(int) * 256 + top[:, 1])) + 1
    for head in np.split(top, starts) if len(top) else []:
        b0, b1 = head[0, :2]
        fit = mid.compress(col_ok[b0].take(mid[:, 0]) & col_ok[b1].take(mid[:, 1]), 0)
        i, j = np.nonzero(col_ok.take(head[:, 2], 0).take(fit[:, 2], 1))
        pair = np.column_stack((head.take(i, 0), fit.take(j, 0)))
        want = rest[b0].take(pair[:, 3]) * m + rest[b1].take(pair[:, 4])
        want = want * m + rest[pair[:, 2], pair[:, 5]]
        lo = first.take(want)
        n = first.take(want + 1) - lo
        total = n.sum()
        if total:
            rows = np.empty((total, 9), dtype=np.uint8)
            rows[:, :6] = np.repeat(pair, n, 0)
            rows[:, 6:] = low.take(np.arange(total) + np.repeat(lo - np.cumsum(n) + n, n), 0)
            yield rows


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


def _cells(catalog_fn: _Catalog, chunks: Iterable[np.ndarray]) -> Iterator[bytes]:
    """The 81 row-major cell bytes of each board of the index chunks, in order."""
    cat = _join_tables(catalog_fn)[0]
    for idx in chunks:
        for start in range(0, len(idx), _CHUNK):  # bounds the batch buffers
            # The gathered (n, I, J, r) mini-rows, each one 3-byte item, read
            # as (n, I, r, J): row-major cells, a third as many items to move
            # as a transpose of single cells.
            blocks = cat.take(idx[start : start + _CHUNK], axis=0).view("V3")
            data = blocks.reshape(-1, 3, 3, 3).transpose(0, 1, 3, 2).tobytes()
            # "V81" keeps trailing zero cells, which "S81" would strip.
            yield from np.frombuffer(data, "V81").tolist()


def _boards(catalog_fn: _Catalog, chunks: Iterable[np.ndarray]) -> Iterator[Board]:
    """The boards of the index chunks, in order."""
    return map(Board._wrap, _cells(catalog_fn, chunks))


def _map_partitions(fn: Callable[[tuple[int, int] | None], _T], threads: int) -> list[_T]:
    """fn(partition) for every slice of a threads-way partition, in slice
    order, on at most os.cpu_count() processes; one thread runs fn(None) here."""
    if threads == 1:
        return [fn(None)]
    with multiprocessing.Pool(min(threads, os.cpu_count() or 1)) as pool:
        return pool.map(fn, [(w, threads) for w in range(threads)])


def _visit(
    chunks: Iterable[np.ndarray],
    boards: Callable[[Iterable[np.ndarray]], Iterable[Board]],
    visitor: Visitor | None,
) -> int:
    """The number of boards in the index chunks; with a visitor, each
    board of boards(chunks) is visited in order first."""
    if visitor is None:
        return sum(map(len, chunks))
    count = 0
    for board in boards(chunks):
        visitor(board)
        count += 1
    return count


def _sorted(catalog_fn: _Catalog, chunks: Iterable[np.ndarray]) -> list[Board]:
    """The boards of the index chunks, sorted by cells."""
    return list(map(Board._wrap, sorted(_cells(catalog_fn, chunks))))


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
    return _visit(_mm_join(partition), partial(_sorted, modular_magic_blocks), visitor)


def iter_modular_magic() -> Iterator[Board]:
    """Yield every modular-magic board in enumeration order."""
    return iter(_sorted(modular_magic_blocks, _mm_join()))


def complete_modular_magic(assignments: Mapping[int, int]) -> list[Board]:
    """All modular-magic boards extending the given cell assignments,
    in lexicographic row-major order."""
    return _complete(modular_magic_blocks, assignments)


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
    return _visit(_sm_join(partition), partial(_boards, semi_magic_blocks), visitor)


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
