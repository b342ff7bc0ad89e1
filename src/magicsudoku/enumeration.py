"""Exhaustive enumerators for blocks, boards, and gnomon completions.

Each variant has a catalog of 72 blocks: semi-magic blocks (mini-rows
and mini-columns sum to 12) and magic-mod-9 blocks (mini-rows,
mini-columns, and mini-diagonals sum to 0 mod 9). Nine catalog blocks
form a board exactly when blocks sharing a band have disjoint mini-row
digit sets and blocks sharing a pillar have disjoint mini-column digit
sets, so one join over block indices enumerates either variant.
Partitions and preset cells (such as the 45 cells of the standard
gnomon) become per-position candidate masks of that join.

Both enumerators are deterministic: semi-magic boards come in join
order (band 0 blocks vary slowest), modular-magic boards in
lexicographic row-major order. An optional partition (worker,
worker_count) restricts a run to a slice of top-left blocks so censuses
can be split across processes; the slices are disjoint and their union
is the full enumeration.
"""

from __future__ import annotations

import itertools
import multiprocessing
from functools import cache
from typing import Callable, Iterator, Mapping, TypeVar

from .boards import Block, Board, is_magic_mod9_block, is_semi_magic_block
from .errors import DomainError

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
#: keep(p, i, blk): whether catalog block i, which is blk, may sit at block position p.
_Keep = Callable[[int, int, Block], bool]

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
    pairs = []
    for (I, J), blk in sorted(STANDARD_GNOMON_BLOCKS.items()):
        for r in range(3):
            for c in range(3):
                pairs.append((9 * (3 * I + r) + 3 * J + c, blk[r][c]))
    return sorted(pairs)


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
def _tables(
    catalog_fn: _Catalog,
) -> tuple[tuple[tuple[bytes, bytes, bytes], ...], tuple[int, ...], tuple[int, ...]]:
    """Per-block row bytes plus row/column compatibility bitmasks."""
    catalog = catalog_fn()
    n = len(catalog)
    row_sets = []
    col_sets = []
    for blk in catalog:
        rmask = 0
        cmask = 0
        for i in range(3):
            for j in range(3):
                rmask |= 1 << (9 * i + blk[i][j])
                cmask |= 1 << (9 * j + blk[i][j])
        row_sets.append(rmask)
        col_sets.append(cmask)
    row_ok = [0] * n
    col_ok = [0] * n
    for i in range(n):
        for j in range(n):
            if not row_sets[i] & row_sets[j]:
                row_ok[i] |= 1 << j
            if not col_sets[i] & col_sets[j]:
                col_ok[i] |= 1 << j
    rows = tuple(tuple(bytes(blk[i]) for i in range(3)) for blk in catalog)
    return rows, tuple(row_ok), tuple(col_ok)


def _fits(tables, picks, p: int) -> int:
    """Catalog indices that may sit at block position p (row-major block
    order) next to the blocks picks[:p]: mini-row sets disjoint from the
    earlier blocks of its band, mini-column sets disjoint from the
    earlier blocks of its pillar. Unconstrained bits are all set."""
    _, row_ok, col_ok = tables
    mask = -1
    for q in range(p - p % 3, p):
        mask &= row_ok[picks[q]]
    for q in range(p % 3, p, 3):
        mask &= col_ok[picks[q]]
    return mask


def _band(rows, i: int, j: int, k: int) -> bytes:
    """The 27 cells of a band holding blocks i, j, k, row-major."""
    a, b, c = rows[i], rows[j], rows[k]
    return b"".join((a[0], b[0], c[0], a[1], b[1], c[1], a[2], b[2], c[2]))


def _join(catalog_fn: _Catalog, keep: _Keep, visitor: Visitor | None = None) -> int:
    """Visit every board built from the catalog, whose block blk with
    catalog index i may sit at block position p only if keep(p, i, blk);
    returns the count.

    Positions are filled in row-major block order, lower indices first,
    so earlier positions vary slowest.
    """
    tables = rows, row_ok, col_ok = _tables(catalog_fn)
    cand = [
        sum(1 << i for i, blk in enumerate(catalog_fn()) if keep(p, i, blk)) for p in range(9)
    ]
    picks = [0] * 9
    count = 0

    def rec(p: int) -> None:
        nonlocal count
        if p < 6:
            mask = cand[p] & _fits(tables, picks, p)
            while mask:
                bit = mask & -mask
                mask ^= bit
                picks[p] = bit.bit_length() - 1
                rec(p + 1)
            return
        # Band 2 unrolled: its three positions hold most of the nodes.
        mask = cand[6] & col_ok[picks[0]] & col_ok[picks[3]]
        c7 = cand[7] & col_ok[picks[1]] & col_ok[picks[4]]
        c8 = cand[8] & col_ok[picks[2]] & col_ok[picks[5]]
        top = _band(rows, *picks[0:3]) + _band(rows, *picks[3:6]) if visitor is not None else b""
        while mask:
            bit = mask & -mask
            mask ^= bit
            i6 = bit.bit_length() - 1
            r6 = row_ok[i6]
            m7 = c7 & r6
            c8r6 = c8 & r6
            g = rows[i6]
            while m7:
                b7 = m7 & -m7
                m7 ^= b7
                i7 = b7.bit_length() - 1
                m8 = c8r6 & row_ok[i7]
                if visitor is None:
                    count += m8.bit_count()
                    continue
                h = rows[i7]
                while m8:
                    b8 = m8 & -m8
                    m8 ^= b8
                    k = rows[b8.bit_length() - 1]
                    count += 1
                    # Band 2 as _band would build it, after the top two bands.
                    cells = b"".join((top, g[0], h[0], k[0], g[1], h[1], k[1], g[2], h[2], k[2]))
                    visitor(Board._wrap(cells))

    rec(0)
    return count


def _check_partition(partition: tuple[int, int] | None) -> tuple[int, int]:
    if partition is None:
        return 0, 1
    worker, count = partition
    if count < 1 or not 0 <= worker < count:
        raise DomainError(f"bad partition {partition!r}")
    return worker, count


def _map_partitions(fn: Callable[[tuple[int, int] | None], _T], threads: int) -> list[_T]:
    """fn(partition) for every slice of a threads-way partition, in slice
    order, each slice in its own process; one thread runs fn(None) here."""
    if threads == 1:
        return [fn(None)]
    with multiprocessing.Pool(threads) as pool:
        return pool.map(fn, [(w, threads) for w in range(threads)])


def _stream(enumerate_fn, slices: int) -> Iterator[Board]:
    # Stream one partition slice at a time to bound memory.
    chunk: list[Board] = []
    for worker in range(slices):
        enumerate_fn(chunk.append, partition=(worker, slices))
        yield from chunk
        chunk.clear()


def _sorted_join(catalog_fn: _Catalog, keep: _Keep) -> list[Board]:
    """The boards the join admits under keep, sorted by cells."""
    boards: list[Board] = []
    _join(catalog_fn, keep, boards.append)
    boards.sort(key=lambda b: b.cells)
    return boards


def _complete(catalog_fn: _Catalog, assignments: Mapping[int, int]) -> list[Board]:
    """The boards built from the catalog that extend the given cell
    assignments, sorted by cells."""
    fixed: list[list[tuple[int, int, int]]] = [[] for _ in range(9)]
    for cell, digit in assignments.items():
        if not (0 <= int(cell) <= 80 and 0 <= int(digit) <= 8):
            raise DomainError(f"bad assignment {cell!r}: {digit!r}")
        r, c = divmod(int(cell), 9)
        fixed[3 * (r // 3) + c // 3].append((r % 3, c % 3, int(digit)))
    return _sorted_join(catalog_fn, lambda p, i, blk: all(blk[r][c] == d for r, c, d in fixed[p]))


# --- modular-magic enumeration ---


def enumerate_modular_magic(
    visitor: Visitor | None = None, partition: tuple[int, int] | None = None
) -> int:
    """Visit every modular-magic board once; returns the count.

    Boards are visited in lexicographic row-major order. Worker w of a
    partition into n slices gets the boards whose first two cells d0, d1
    satisfy (9 * d0 + d1) % n == w.
    """
    worker, nparts = _check_partition(partition)
    keep = lambda p, i, blk: p > 0 or (9 * blk[0][0] + blk[0][1]) % nparts == worker
    if visitor is None:
        return _join(modular_magic_blocks, keep)
    boards = _sorted_join(modular_magic_blocks, keep)
    for board in boards:
        visitor(board)
    return len(boards)


def iter_modular_magic() -> Iterator[Board]:
    """Yield every modular-magic board in enumeration order."""
    # Slice w of 81 holds the boards starting with digits divmod(w, 9).
    return _stream(enumerate_modular_magic, 81)


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


def enumerate_semi_magic(
    visitor: Visitor | None = None, partition: tuple[int, int] | None = None
) -> int:
    """Visit every semi-magic board once; returns the count.

    Boards are assembled block by block from the 72-block catalog in
    deterministic catalog order (band 0 blocks vary slowest). Worker w
    of a partition into n slices gets the top-left catalog indices
    congruent to w mod n.
    """
    worker, nparts = _check_partition(partition)
    return _join(semi_magic_blocks, lambda p, i, blk: p > 0 or i % nparts == worker, visitor)


def iter_semi_magic() -> Iterator[Board]:
    """Yield every semi-magic board in enumeration order."""
    return _stream(enumerate_semi_magic, 72)


def random_semi_magic(rng) -> Board:
    """A random semi-magic board, via randomized block assembly.

    Retries from scratch when a partial assembly dead-ends, so draws
    are independent but not uniform across boards.
    """
    tables = _tables(semi_magic_blocks)
    rows = tables[0]
    while True:
        picks: list[int] = []
        for p in range(9):
            fits = _fits(tables, picks, p)
            choices = [i for i in range(len(rows)) if fits >> i & 1]
            if not choices:
                break
            picks.append(rng.choice(choices))
        else:
            return Board._wrap(b"".join(_band(rows, *picks[q : q + 3]) for q in (0, 3, 6)))


@cache
def complete_standard_gnomon() -> tuple[Board, ...]:
    """The 16 semi-magic boards whose gnomon is the standard gnomon,
    sorted by their (cell (6,5), cell (5,6)) label pair."""
    boards = _complete(semi_magic_blocks, dict(standard_gnomon_cells()))
    return tuple(sorted(boards, key=lambda b: (b[9 * 6 + 5], b[9 * 5 + 6])))
