"""Exhaustive enumeration, partitioning, completion, and sampling."""

import ast
import functools
import hashlib
import itertools
import os
import random
from pathlib import Path

import numpy as np
import pytest

from magicsudoku import enumeration as en
from magicsudoku import nests, verification
from magicsudoku.boards import (
    blocks,
    format_board,
    is_magic_mod9_block,
    is_modular_magic,
    is_semi_magic,
    is_semi_magic_block,
    parse_board,
)
from magicsudoku.errors import DomainError, IntegrityError

from conftest import CANON_SM_71


class _Stop(Exception):
    pass


def _take(n, enumerate_fn):
    got = []

    def visit(board):
        got.append(board)
        if len(got) == n:
            raise _Stop

    with pytest.raises(_Stop):
        enumerate_fn(visit)
    return got


def _digest(boards):
    return hashlib.sha256(b"".join(b.cells for b in boards)).hexdigest()


def _brute_force_catalog(predicate):
    # Independent oracle: filter all 9! digit arrangements.
    return tuple(
        blk
        for p in itertools.permutations(range(9))
        if predicate(blk := (p[0:3], p[3:6], p[6:9]))
    )


def test_semi_magic_blocks_catalog():
    cat = en.semi_magic_blocks()
    assert len(cat) == 72
    assert len(set(cat)) == 72
    assert list(cat) == sorted(cat)
    for blk in cat:
        flat = sorted(d for row in blk for d in row)
        assert flat == list(range(9))
        assert is_semi_magic_block(blk)
    assert cat == _brute_force_catalog(is_semi_magic_block)


def test_modular_magic_blocks_catalog():
    cat = en.modular_magic_blocks()
    assert len(cat) == 72
    assert len(set(cat)) == 72
    assert list(cat) == sorted(cat)
    assert all(is_magic_mod9_block(blk) for blk in cat)
    assert cat == _brute_force_catalog(is_magic_mod9_block)


def test_mm_total(mm_census):
    assert mm_census.total == 32256


def test_mm_sweep_rejects_a_board_that_is_not_modular_magic(monkeypatch, board_sm_71):
    def enumerate_one(visitor, partition=None):
        visitor(board_sm_71)
        return 1

    monkeypatch.setattr(verification, "enumerate_modular_magic", enumerate_one)
    with pytest.raises(IntegrityError, match=format_board(board_sm_71)):
        verification._mm_sweep_slice(None)


def test_mm_sample_boards(mm_sample):
    # The sample is every 31st board in enumeration order.
    assert len(mm_sample) == 32256 // 31 + 1
    assert all(is_modular_magic(b) for b in mm_sample)
    cells = [b.cells for b in mm_sample]
    assert cells == sorted(cells)
    assert len(set(cells)) == len(cells)


def test_mm_partition_is_a_partition():
    for count in (6, 81):
        # Slices may be empty; they must still cover the full count exactly.
        sizes = [en.enumerate_modular_magic(partition=(w, count)) for w in range(count)]
        assert sum(sizes) == 32256
        for w in range(count):
            cells = []
            en.enumerate_modular_magic(lambda b: cells.append(b.cells), (w, count))
            assert cells == sorted(cells)
            assert len(cells) == sizes[w]
    # The last sizes are the first-two-digit slicing: 36 admissible digit
    # pairs hold 896 boards each.
    assert sorted(set(sizes)) == [0, 896]
    assert sizes.count(896) == 36


def test_mm_prefix_respects_partition_branch():
    first = _take(40, en.enumerate_modular_magic)
    assert all(is_modular_magic(b) for b in first)
    in_slice = _take(
        5, lambda v: en.enumerate_modular_magic(v, partition=(1, 4))
    )
    for board in in_slice:
        assert (9 * board[0] + board[1]) % 4 == 1


def test_map_partitions_caps_processes_at_the_cpu_count(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    # Installed before the call, so no process starts.
    monkeypatch.setattr(en.multiprocessing, "Pool", InProcessPool)
    got = en._map_partitions(str, 10_000)
    assert started and started[0] <= (os.cpu_count() or 1)
    assert got == [str((w, 10_000)) for w in range(10_000)]


def test_partition_validation():
    for bad in ((3, 3), (-1, 3), (0, 0), (2, -2)):
        with pytest.raises(DomainError):
            en.enumerate_modular_magic(partition=bad)
        with pytest.raises(DomainError):
            en.enumerate_semi_magic(partition=bad)


def test_partition_takes_only_integers():
    # Floats, strings and pairs of the wrong length are refused before any
    # join; numpy integers pass operator.index and give the int slice.
    for bad in ((0.5, 2), (0, 2.0), ("0", "2"), (0, 1, 2), 7):
        with pytest.raises(DomainError, match="^bad partition"):
            nests.census("MM", partition=bad)
        with pytest.raises(DomainError, match="^bad partition"):
            en.enumerate_semi_magic(None, bad)
    numpy_part = (np.int64(1), np.uint8(3))
    assert nests.census("MM", numpy_part) == nests.census("MM", (1, 3))
    assert en.enumerate_modular_magic(None, numpy_part) == nests.census("MM", (1, 3)).total


def test_sm_total(sm_census):
    assert sm_census.total == 5971968


def test_sm_partition_is_a_partition():
    sizes = [en.enumerate_semi_magic(partition=(w, 7)) for w in range(7)]
    assert sum(sizes) == 5971968


def test_sm_iter_matches_visitor_order():
    first = _take(300, en.enumerate_semi_magic)
    assert first == list(itertools.islice(en.iter_semi_magic(), 300))
    assert all(is_semi_magic(b) for b in first)
    assert len(set(first)) == 300


def test_sm_boards_use_catalog_blocks():
    cat = set(en.semi_magic_blocks())
    for board in _take(20, en.enumerate_semi_magic):
        assert all(blk in cat for blk in blocks(board))


def test_complete_modular_magic(board_mm_72):
    preset = {i: board_mm_72[i] for i in range(11)}
    found = en.complete_modular_magic(preset)
    assert board_mm_72 in found
    for board in found:
        assert is_modular_magic(board)
        assert all(board[i] == d for i, d in preset.items())


def test_complete_modular_magic_edge_cases():
    assert en.complete_modular_magic({0: 0, 1: 0}) == []
    with pytest.raises(DomainError):
        en.complete_modular_magic({0: 9})
    with pytest.raises(DomainError):
        en.complete_modular_magic({81: 0})
    with pytest.raises(DomainError):
        en.complete_modular_magic({-1: 0})


def test_complete_modular_magic_takes_integer_cells_and_digits():
    assert len(en.complete_modular_magic({np.int64(0): np.uint8(0)})) == 5376
    for bad in ({0: 0.9}, {0.5: 0}, {"0": 0}, {0: "0"}):
        with pytest.raises(DomainError, match="bad assignment"):
            en.complete_modular_magic(bad)


def test_standard_gnomon_cells():
    pairs = en.standard_gnomon_cells()
    assert len(pairs) == 45
    indices = [i for i, _ in pairs]
    assert indices == sorted(
        9 * r + c for r in range(9) for c in range(9) if r < 3 or c < 3
    )
    ref = parse_board(CANON_SM_71)
    assert all(ref[i] == d for i, d in pairs)


def test_complete_standard_gnomon():
    boards = en.complete_standard_gnomon()
    ref = parse_board(CANON_SM_71)
    assert len(boards) == 16
    labels = [(b[59], b[51]) for b in boards]
    assert labels == sorted(labels)
    assert set(labels) == {(a, b) for a in (2, 5, 6, 7) for b in (1, 4, 6, 8)}
    assert boards[labels.index((7, 1))] == ref
    for board in boards:
        assert is_semi_magic(board)
        assert all(board[i] == d for i, d in en.standard_gnomon_cells())


def test_random_semi_magic_reproducible():
    a = [en.random_semi_magic(random.Random(99)) for _ in range(5)]
    b = [en.random_semi_magic(random.Random(99)) for _ in range(5)]
    assert a == b
    rng = random.Random(4)
    draws = {en.random_semi_magic(rng) for _ in range(30)}
    assert len(draws) > 25
    assert all(is_semi_magic(board) for board in draws)


def test_random_semi_magic_pinned_draws():
    rng = random.Random(99)
    boards = [en.random_semi_magic(rng) for _ in range(5)]
    assert _digest(boards) == (
        "6b2ee81414e38b5b6dcf50edbcdfa39c78c1efaa78155b97b230d46521fda2d5"
    )


def test_random_draws_fit_the_join():
    # Every drawn board is a row of the join's slice of its top-left block.
    cat = en._join_tables(en.semi_magic_blocks)[0]
    index = {blk.tobytes(): i for i, blk in enumerate(cat)}
    rng = random.Random(23)
    for _ in range(50):
        board = en.random_semi_magic(rng)
        picks = [index[bytes(itertools.chain(*blk))] for blk in blocks(board)]
        cand = en._slice(np.arange(72), (picks[0], 72))
        rows = np.concatenate(list(en._join(en.semi_magic_blocks, cand)))
        assert (rows == picks).all(axis=1).any()


class _At:
    # A stub rng whose randrange gives index i of a range of count.
    def __init__(self, i, count):
        self.i, self.count = i, count

    def randrange(self, n):
        assert n == self.count
        return self.i


def test_sampler_gives_every_modular_magic_board_at_its_join_index():
    mm = en.modular_magic_blocks
    boards = list(en._boards(mm, en._join(mm, np.ones((9, 72), dtype=bool))))
    assert len(boards) == 32256
    assert [en._random_board(mm, _At(i, 32256)) for i in range(32256)] == boards


def test_sampler_gives_the_semi_magic_board_at_seeded_join_indices():
    # The semi-magic join is the slices of the top-left blocks in
    # ascending order, 82,944 boards each.
    sm = en.semi_magic_blocks
    rng = random.Random(5)
    indices = sorted(rng.randrange(5_971_968) for _ in range(3000))
    for top_left, run in itertools.groupby(indices, lambda i: i // 82944):
        rows = np.concatenate(list(en._join(sm, en._slice(np.arange(72), (top_left, 72)))))
        assert len(rows) == 82944
        run = list(run)
        want = list(en._boards(sm, [rows[[i % 82944 for i in run]]]))
        assert [en._random_board(sm, _At(i, 5_971_968)) for i in run] == want


@pytest.mark.parametrize("catalog_fn, count", [
    (en.modular_magic_blocks, 32256), (en.semi_magic_blocks, 5_971_968),
], ids=["MM", "SM"])
def test_sampler_reaches_both_ends_of_the_join(catalog_fn, count):
    # Index 0 is the first board of top-left block 0, and count - 1 the
    # last board of top-left block 71.
    for i, top_left, at in ((0, 0, 0), (count - 1, 71, -1)):
        cand = np.ones((9, 72), dtype=bool)
        cand[0] = np.arange(72) == top_left
        rows = np.concatenate(list(en._join(catalog_fn, cand)))
        want = next(en._boards(catalog_fn, [rows[[at]]]))
        assert en._random_board(catalog_fn, _At(i, count)) == want


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
    tables = en._join_tables(catalog_fn)
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


@functools.cache
def _sm_slice_levels(top_left):
    # _reference_levels of a semi-magic slice, built once for the two
    # tests that read it.
    return _reference_levels(en.semi_magic_blocks, en._slice(np.arange(72), (top_left, 72)))


@functools.cache
def _seeded_references():
    # Seeded random masks, 50 per variant, each with the reference levels
    # of depths 3, 6 and 9 that the two join tests read, built once for
    # both. Semi-magic masks keep a few top-left blocks, so that each
    # join stays small.
    rng = np.random.default_rng(19)
    found = {}
    for catalog_fn in (en.semi_magic_blocks, en.modular_magic_blocks):
        found[catalog_fn] = []
        for _ in range(50):
            cand = rng.random((9, 72)) < rng.choice([0.5, 0.8, 0.95, 1.0], size=(9, 1))
            if catalog_fn is en.semi_magic_blocks:
                cand[0] &= rng.random(72) < 0.05
            levels = _reference_levels(catalog_fn, cand)
            found[catalog_fn].append((cand, {d: levels[d] for d in (2, 5, 8)}))
    return found


@functools.cache
def _seeded_open_references():
    # The seeded masks with rows 6-8 opened, which _ranges reads alike,
    # and their reference levels of depths 3, 6 and 9; depths 3 and 6
    # are the seeded masks' own, so only positions 6-8 are built again.
    found = {}
    for catalog_fn, cases in _seeded_references().items():
        found[catalog_fn] = []
        for cand, levels in cases:
            cand = np.vstack((cand[:6], np.ones((3, 72), dtype=bool)))
            last = _reference_levels(catalog_fn, cand, levels[5])[-1]
            found[catalog_fn].append((cand, {2: levels[2], 5: levels[5], 8: last}))
    return found


_SM_LEVELS = [1, 12, 72, 864, 3456, 6912, 41472, 82944, 82944]


def test_sm_join_level_sizes():
    # Every partial assembly of a given depth has as many completions as
    # any other, a property of the join that no sampler relies on. Every
    # semi-magic assembly of eight blocks has its forced last block in
    # the catalog; 4,608 modular-magic ones do not.
    for top_left in (0, 17, 71):
        cand = en._slice(np.arange(72), (top_left, 72))
        assert list(map(len, _sm_slice_levels(top_left))) == _SM_LEVELS
        # The band join's rows show the same levels, each prefix of a
        # depth with equally many completions. A prefix is counted by its
        # base-72 number, which names it uniquely.
        rows = np.concatenate(list(en._join(en.semi_magic_blocks, cand))).astype(np.int64)
        for depth, size in enumerate(_SM_LEVELS, 1):
            _, counts = np.unique(rows[:, :depth] @ 72 ** np.arange(depth), return_counts=True)
            assert len(counts) == size
            assert (counts == len(rows) // size).all()
    cand = np.ones((9, 72), dtype=bool)
    sizes = list(map(len, _reference_levels(en.modular_magic_blocks, cand)))
    assert sizes == [72, 576, 2304, 18432, 20736, 11520, 46080, 36864, 32256]


def _preset(catalog_fn, assignments):
    # The join masks of the blocks that agree with the preset cells.
    cat = en._join_tables(catalog_fn)[0]
    cand = np.ones((9, 72), dtype=bool)
    for cell, digit in assignments.items():
        r, c = divmod(cell, 9)
        cand[3 * (r // 3) + c // 3] &= cat[:, 3 * (r % 3) + c % 3] == digit
    return cand


def _assert_joins_equal(catalog_fn, cand, want=None):
    got = list(en._join(catalog_fn, cand))
    want = _reference_join(catalog_fn, cand) if want is None else want
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    return sum(map(len, got))


def test_band_join_matches_the_reference_join(board_mm_72):
    sm, mm = en.semi_magic_blocks, en.modular_magic_blocks
    for top_left in (0, 17, 71):
        cand = en._slice(np.arange(72), (top_left, 72))
        want = _head_chunks(_sm_slice_levels(top_left)[-1])
        assert _assert_joins_equal(sm, cand, want) == 82944
    assert _assert_joins_equal(mm, np.ones((9, 72), dtype=bool)) == 32256
    assert _assert_joins_equal(sm, _preset(sm, dict(en.standard_gnomon_cells()))) == 16
    assert _assert_joins_equal(mm, _preset(mm, dict(nests._MM_TEMPLATE))) > 0
    # Presets on one cell of block 7 (cell (7, 4)) and one of block 8
    # (cell (8, 8)) filter band 2 alone.
    for catalog_fn, board, cand in (
        (sm, parse_board(CANON_SM_71), en._slice(np.arange(72), (17, 72))),
        (mm, board_mm_72, np.ones((9, 72), dtype=bool)),
    ):
        full = sum(map(len, en._join(catalog_fn, cand)))
        preset = _preset(catalog_fn, {67: board[67], 80: board[80]})
        assert preset[:7].all() and not preset[7:].all()
        for positions in ([7], [8], [7, 8]):
            restricted = cand.copy()
            restricted[positions] &= preset[positions]
            assert 0 < _assert_joins_equal(catalog_fn, restricted) < full
        cand[8] = False
        assert list(en._join(catalog_fn, cand)) == []
    for catalog_fn, cases in _seeded_references().items():
        nonempty = sum(_assert_joins_equal(catalog_fn, cand, _head_chunks(levels[8])) > 0
                       for cand, levels in cases)
        assert nonempty > 40


def _assert_batches_match_the_reference(catalog_fn, cand, levels=None):
    # The range batches against the reference levels: one batch per
    # top-left block of the top bands, in ascending order; the batches'
    # pairs are the reference assemblies of depth 6, each once and in
    # order, and each pair's range of the band table holds the band 2 of
    # exactly its reference rows.
    levels = _reference_levels(catalog_fn, cand) if levels is None else levels
    batches = list(en._ranges(catalog_fn, cand))
    heads = np.unique(levels[2][:, 0])
    assert len(batches) == len(heads)
    for b0, (pair, lo, n) in zip(heads, batches):
        assert len(pair) == len(lo) == len(n)
        assert (pair[:, 0] == b0).all()
    if not batches:
        assert len(levels[5]) == 0
        return 0
    pair, lo, n = (np.concatenate(parts) for parts in zip(*batches))
    assert np.array_equal(pair, levels[5])
    rows = levels[8]
    weights = 72 ** np.arange(5, -1, -1)
    prefixes, counts = np.unique(rows[:, :6].astype(np.int64) @ weights, return_counts=True)
    want = np.zeros(len(pair), dtype=np.int64)
    want[np.searchsorted(pair.astype(np.int64) @ weights, prefixes)] = counts
    assert np.array_equal(n, want)
    at = np.concatenate([np.arange(a, a + k) for a, k in zip(lo, n)]).astype(np.int64)
    assert np.array_equal(en._band_tables(catalog_fn)[1].take(at, 0), rows[:, 6:])
    return len(rows)


def test_range_batches_match_the_reference_join():
    sm, mm = en.semi_magic_blocks, en.modular_magic_blocks
    cand = en._slice(np.arange(72), (17, 72))
    assert _assert_batches_match_the_reference(sm, cand, _sm_slice_levels(17)) == 82944
    assert _assert_batches_match_the_reference(mm, np.ones((9, 72), dtype=bool)) == 32256
    for catalog_fn, cases in _seeded_open_references().items():
        nonempty = sum(_assert_batches_match_the_reference(catalog_fn, cand, levels) > 0
                       for cand, levels in cases)
        assert nonempty > 40


@pytest.mark.parametrize("catalog_fn", [en.semi_magic_blocks, en.modular_magic_blocks])
def test_open_slices_read_the_band_tables_built_once(catalog_fn):
    # Band 2 of every join is the cached band table in key order; the
    # tables rebuilt after cache_clear give the same ranges.
    cand = en._slice(np.arange(72), (17, 72))
    warm = list(en._ranges(catalog_fn, cand))
    en._band_tables.cache_clear()
    batches = list(en._ranges(catalog_fn, cand))
    assert len(batches) == len(warm) > 0
    assert all(np.array_equal(a, b) for x, y in zip(batches, warm) for a, b in zip(x, y))


def test_a_restricted_join_between_open_ones_equals_the_reference_join():
    # A mask that restricts rows 3-8 gives the reference join, and the
    # open slice around it is unchanged.
    for catalog_fn, cases in _seeded_references().items():
        cand = en._slice(np.arange(72), (17, 72))
        before = list(en._join(catalog_fn, cand))
        restricted = [(mask, levels) for mask, levels in cases if not mask[3:].all()]
        assert len(restricted) > 40
        for mask, levels in restricted:
            _assert_joins_equal(catalog_fn, mask, _head_chunks(levels[8]))
            _assert_joins_equal(catalog_fn, cand, before)
        assert sum(map(len, before)) == (82944 if catalog_fn is en.semi_magic_blocks else 448)


@pytest.mark.parametrize("catalog_fn", [en.semi_magic_blocks, en.modular_magic_blocks])
def test_count_only_sums_the_ranges_of_the_rows(catalog_fn):
    # The count-only path sums range lengths, never building a row; it
    # equals the rows of the join on seeded masks restricted in bands 0
    # and 1, as the ranges read no band-2 mask, and on masks with one
    # position of those bands empty.
    rng = np.random.default_rng(31)
    masks = [rng.random((9, 72)) < rng.choice([0.5, 0.9, 1.0], size=(9, 1)) for _ in range(20)]
    for m in masks[:9]:
        m[0] &= rng.random(72) < 0.1
    for m in masks:
        m[6:] = True
    for p in (0, 4, 5):
        masks.append(np.ones((9, 72), dtype=bool))
        masks[-1][p] = False
    counts = []
    for cand in masks:
        want = sum(map(len, en._join(catalog_fn, cand)))
        assert en._visit(en._ranges(catalog_fn, cand), None, None) == want
        counts.append(want)
    assert counts[-3:] == [0, 0, 0] and sum(c > 0 for c in counts) > 10


@pytest.mark.parametrize("join, digest", [
    (en._sm_join, "328dde5af5673a038be15524cee3449fd82236470dc5ea46fb5b7a532032cd8f"),
    (en._mm_join, "0f2b234aebf99bd7ad6c788652b2d31f633adca0522f92a37b6d9cea2474863c"),
], ids=["SM", "MM"])
def test_join_chunks_pinned(join, digest):
    # One SHA-256 over each chunk's length and bytes, so the chunk
    # boundaries are pinned with the rows; computed with the join that
    # searched the sorted band-2 keys per chunk. census reads idx.T and
    # _cells takes whole rows, so each chunk is a C-contiguous uint8 array.
    h = hashlib.sha256()
    for idx in join():
        assert idx.dtype == np.uint8 and idx.ndim == 2 and idx.shape[1] == 9
        assert len(idx) and idx.flags.c_contiguous
        h.update(len(idx).to_bytes(8, "little"))
        h.update(idx.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("catalog_fn", [en.semi_magic_blocks, en.modular_magic_blocks])
def test_join_empty_edges(catalog_fn):
    bands = en._band_tables(catalog_fn)[0]
    for p in (0, 4):  # no top band; no middle band
        cand = np.ones((9, 72), dtype=bool)
        cand[p] = False
        assert list(en._join(catalog_fn, cand)) == []
    # Band 2 restricted to one band (x, y, z) while position 0 must hold
    # x too: every pair leaves pillar 0 a column triple disjoint from x's,
    # so no pair asks for that band's key, though band 2 is not empty.
    x, y, z = bands[0]
    cand = np.zeros((9, 72), dtype=bool)
    cand[[1, 2, 3, 4, 5]] = True
    cand[[0, 6, 7, 8], [x, x, y, z]] = True
    assert list(en._join(catalog_fn, np.vstack((cand[:6], np.ones((3, 72), dtype=bool)))))
    assert list(en._join(catalog_fn, cand)) == []
    # A top band list that holds one (b0, b1) run, with or without its
    # third block fixed, gives one chunk.
    b0, b1, b2 = bands[len(bands) // 2]
    for fixed in ([b0, b1], [b0, b1, b2]):
        cand = np.ones((9, 72), dtype=bool)
        for p, b in enumerate(fixed):
            cand[p] = np.arange(72) == b
        got = list(en._join(catalog_fn, cand))
        assert len(got) == 1
        assert _assert_joins_equal(catalog_fn, cand) == len(got[0]) > 0


def _reference_cells(catalog_fn, chunks):
    # The gather of single cells: (n, I, J, r, c) blocks transposed to
    # (n, I, r, J, c), then split 81 bytes at a time.
    cat = en._join_tables(catalog_fn)[0]
    for idx in chunks:
        data = cat[idx].reshape(-1, 3, 3, 3, 3).transpose(0, 1, 3, 2, 4).tobytes()
        for k in range(0, len(data), 81):
            yield data[k : k + 81]


def test_cells_equal_the_single_cell_gather():
    rng = np.random.default_rng(29)
    chunk, sm_slice = en._CHUNK, list(en._sm_join((17, 72)))
    assert max(map(len, sm_slice)) > chunk
    inputs = {
        "SM slice": sm_slice,
        "MM join": list(en._mm_join()),
        "one row": [np.array([[5, 17, 30, 42, 0, 71, 9, 60, 33]], dtype=np.uint8)],
        "random rows": [rng.integers(0, 72, (n, 9), dtype=np.uint8)
                        for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 7)],
    }
    for catalog_fn in (en.semi_magic_blocks, en.modular_magic_blocks):
        for name, chunks in inputs.items():
            got = list(en._cells(catalog_fn, chunks))
            assert got == list(_reference_cells(catalog_fn, chunks)), name
            assert len(got) == sum(map(len, chunks))


def test_join_reads_no_predicate_table():
    # The predicates' band table is the second derivation that checks
    # the enumerated boards, so the join builds its own bands.
    names = set()
    for node in ast.walk(ast.parse(Path(en.__file__).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"_bands", "_variant_bands"}


# Order pins: SHA-256 of the concatenated cells, computed once with the
# recursive bitmask join that the level-wise join replaced.


def test_sm_slice_order_pinned():
    boards = []
    en.enumerate_semi_magic(boards.append, (17, 72))
    assert _digest(boards) == (
        "c2045086bc20f979013784dfe1592094c0c52c233c57466e1726cb6d0a2cba19"
    )


def test_mm_stream_order_pinned():
    assert _digest(en.iter_modular_magic()) == (
        "e12c8f4129ba347631f40c98de87402bf27e0803b2b5434c35360f3969ac0e54"
    )


def test_standard_gnomon_completions_pinned():
    assert _digest(en.complete_standard_gnomon()) == (
        "91b1743454d13fcc556118706524d3161674621bcbc5918d54c48a3832024a65"
    )


@pytest.mark.parametrize("variant, digest", [
    ("MM", "edd651c93eca168ee20c76900db2b262d589749ef7646643f7f44742fc85c958"),
    ("SM", "91b1743454d13fcc556118706524d3161674621bcbc5918d54c48a3832024a65"),
], ids=["MM", "SM"])
def test_representatives_pinned(variant, digest):
    # The nest representatives in label order, boards and order both pinned.
    assert _digest(map(nests.representative, nests.labels(variant))) == digest
