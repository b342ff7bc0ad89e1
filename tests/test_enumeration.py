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
from oracles import _reference_cells, _reference_levels


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
    # Every drawn board is a row of the reference join: one of the
    # reference completions of its first six blocks.
    cat = en._join_tables(en.semi_magic_blocks)[0]
    index = {blk.tobytes(): i for i, blk in enumerate(cat)}
    rng = random.Random(23)
    for _ in range(50):
        board = en.random_semi_magic(rng)
        picks = [index[bytes(itertools.chain(*blk))] for blk in blocks(board)]
        start = np.array([picks[:6]], dtype=np.uint8)
        rows = _reference_levels(en.semi_magic_blocks, np.ones((9, 72), dtype=bool), start)[-1]
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
    boards = list(en._boards(mm, en._ranges(mm, np.ones((9, 72), dtype=bool))))
    assert len(boards) == 32256
    assert [en._random_board(mm, _At(i, 32256)) for i in range(32256)] == boards


def test_sampler_gives_the_semi_magic_board_at_seeded_join_indices():
    # The semi-magic join is the slices of the top-left blocks in
    # ascending order, 82,944 boards each.
    sm = en.semi_magic_blocks
    rng = random.Random(5)
    indices = sorted(rng.randrange(5_971_968) for _ in range(3000))
    for top_left, run in itertools.groupby(indices, lambda i: i // 82944):
        cells = list(en._cells(sm, en._ranges(sm, en._slice(np.arange(72), (top_left, 72)))))
        assert len(cells) == 82944
        run = list(run)
        want = [cells[i % 82944] for i in run]
        assert [en._random_board(sm, _At(i, 5_971_968)).cells for i in run] == want


@pytest.mark.parametrize("catalog_fn, count", [
    (en.modular_magic_blocks, 32256), (en.semi_magic_blocks, 5_971_968),
], ids=["MM", "SM"])
def test_sampler_reaches_both_ends_of_the_join(catalog_fn, count):
    # Index 0 is the first board of top-left block 0, and count - 1 the
    # last board of top-left block 71.
    for i, top_left, at in ((0, 0, 0), (count - 1, 71, -1)):
        cand = np.ones((9, 72), dtype=bool)
        cand[0] = np.arange(72) == top_left
        want = list(en._cells(catalog_fn, en._ranges(catalog_fn, cand)))[at]
        assert en._random_board(catalog_fn, _At(i, count)).cells == want


@functools.cache
def _sm_slice_levels(top_left):
    # _reference_levels of a semi-magic slice, built once for the two
    # tests that read it.
    return _reference_levels(en.semi_magic_blocks, en._slice(np.arange(72), (top_left, 72)))


@functools.cache
def _seeded_open_references():
    # Seeded random masks, 50 per variant, with rows 6-8 open, as the
    # ranges read no band-2 mask, each with the reference levels of
    # depths 3, 6 and 9 that the two batch tests read, built once for
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
            cand[6:] = True
            levels = _reference_levels(catalog_fn, cand)
            found[catalog_fn].append((cand, {d: levels[d] for d in (2, 5, 8)}))
    return found


_SM_LEVELS = [1, 12, 72, 864, 3456, 6912, 41472, 82944, 82944]


def test_sm_join_level_sizes():
    # Every partial assembly of a given depth has as many completions as
    # any other, a property of the join that no sampler relies on. Every
    # semi-magic assembly of eight blocks has its forced last block in
    # the catalog; 4,608 modular-magic ones do not.
    for top_left in (0, 17, 71):
        cand = en._slice(np.arange(72), (top_left, 72))
        levels = _sm_slice_levels(top_left)
        assert list(map(len, levels)) == _SM_LEVELS
        # The rows show the same levels, each prefix of a depth with
        # equally many completions. A prefix is counted by its base-72
        # number, which names it uniquely. The band join's batches hold
        # exactly these rows.
        rows = levels[-1].astype(np.int64)
        for depth, size in enumerate(_SM_LEVELS, 1):
            _, counts = np.unique(rows[:, :depth] @ 72 ** np.arange(depth), return_counts=True)
            assert len(counts) == size
            assert (counts == len(rows) // size).all()
        assert _assert_batches_match_the_reference(en.semi_magic_blocks, cand, levels) == 82944
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


def _assert_cells_equal(catalog_fn, cand, rows):
    # The boards of the range batches of cand, cell for cell, against
    # the reference cells of rows, the reference join of cand.
    got = list(en._cells(catalog_fn, en._ranges(catalog_fn, cand)))
    assert got == list(_reference_cells(catalog_fn, [rows]))
    return len(got)


def _assert_completions_equal(catalog_fn, assignments):
    # The completions against the reference join of the assignments' masks.
    got = [board.cells for board in en._complete(catalog_fn, assignments)]
    rows = _reference_levels(catalog_fn, _preset(catalog_fn, assignments))[-1]
    assert got == sorted(_reference_cells(catalog_fn, [rows]))
    return len(got)


def test_band_join_matches_the_reference_join(board_mm_72):
    sm, mm = en.semi_magic_blocks, en.modular_magic_blocks
    for top_left in (0, 17, 71):
        cand = en._slice(np.arange(72), (top_left, 72))
        assert _assert_cells_equal(sm, cand, _sm_slice_levels(top_left)[-1]) == 82944
    cand = np.ones((9, 72), dtype=bool)
    assert _assert_cells_equal(mm, cand, _reference_levels(mm, cand)[-1]) == 32256
    assert _assert_completions_equal(sm, dict(en.standard_gnomon_cells())) == 16
    assert _assert_completions_equal(mm, dict(nests._MM_TEMPLATE)) > 0
    # Presets on one cell of block 7 (cell (7, 4)) and one of block 8
    # (cell (8, 8)) restrict band 2 alone; the ranges read no band-2
    # mask, so the completions keep the boards that hold those cells.
    # Two equal digits in one mini-row of block 8 leave no completion.
    for preset in ({67: board_mm_72[67]}, {80: board_mm_72[80]},
                   {67: board_mm_72[67], 80: board_mm_72[80]}):
        assert 0 < _assert_completions_equal(mm, preset) < 32256
    assert _assert_completions_equal(mm, {79: board_mm_72[80], 80: board_mm_72[80]}) == 0


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
    # A mask that restricts rows 3-5 gives the batches of the reference
    # join, and the open slice around it is unchanged.
    for catalog_fn, cases in _seeded_open_references().items():
        cand = en._slice(np.arange(72), (17, 72))
        before = list(en._ranges(catalog_fn, cand))
        restricted = [(mask, levels) for mask, levels in cases if not mask[3:].all()]
        assert len(restricted) > 40
        for mask, levels in restricted:
            _assert_batches_match_the_reference(catalog_fn, mask, levels)
            after = list(en._ranges(catalog_fn, cand))
            assert len(after) == len(before)
            assert all(np.array_equal(a, b) for x, y in zip(after, before) for a, b in zip(x, y))
        assert sum(int(n.sum()) for _, _, n in before) == (
            82944 if catalog_fn is en.semi_magic_blocks else 448)


@pytest.mark.parametrize("catalog_fn", [en.semi_magic_blocks, en.modular_magic_blocks])
def test_count_only_sums_the_ranges_of_the_rows(catalog_fn):
    # The count-only path sums range lengths, never building a board; it
    # equals the boards built from the ranges on seeded masks restricted
    # in bands 0 and 1, as the ranges read no band-2 mask, and on masks
    # with one position of those bands empty.
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
        want = sum(1 for _ in en._cells(catalog_fn, en._ranges(catalog_fn, cand)))
        assert en._visit(en._ranges(catalog_fn, cand), None, None) == want
        counts.append(want)
    assert counts[-3:] == [0, 0, 0] and sum(c > 0 for c in counts) > 10


@pytest.mark.parametrize("ranges, digest", [
    (en._sm_ranges, "cbb2e8a6fb2656c839d615518cb8fdbdb09d226f7f9fe0a29130182052211d26"),
    (en._mm_ranges, "2d3c1db41cfede01c41e2b6d82f45946c808542caf707f31373c39a027eaeef8"),
], ids=["SM", "MM"])
def test_join_batches_pinned(ranges, digest):
    # One SHA-256 over each batch's length, pairs, starts and lengths, so
    # the batch boundaries are pinned with the ranges; computed with the
    # join that expanded the batches into (n, 9) rows of catalog indices.
    # census reads pair.T and _band_rows takes whole rows, so each
    # batch's pairs are a C-contiguous uint8 array.
    h = hashlib.sha256()
    for pair, lo, n in ranges():
        assert pair.dtype == np.uint8 and pair.ndim == 2 and pair.shape[1] == 6
        assert pair.flags.c_contiguous and len(pair) == len(lo) == len(n)
        h.update(len(pair).to_bytes(8, "little"))
        h.update(pair.tobytes())
        h.update(lo.astype(np.int64).tobytes())
        h.update(n.astype(np.int64).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("catalog_fn", [en.semi_magic_blocks, en.modular_magic_blocks])
def test_join_empty_edges(catalog_fn):
    bands = en._band_tables(catalog_fn)[0]
    # No top band gives no batch; no middle band gives one empty batch
    # per top-left block.
    for p, heads in ((0, 0), (4, len(np.unique(bands[:, 0])))):
        cand = np.ones((9, 72), dtype=bool)
        cand[p] = False
        batches = list(en._ranges(catalog_fn, cand))
        assert len(batches) == heads and all(len(pair) == 0 for pair, _, _ in batches)
        assert list(en._cells(catalog_fn, batches)) == []
    # A top band list that holds one (b0, b1) run, with or without its
    # third block fixed, gives one batch.
    b0, b1, b2 = bands[len(bands) // 2]
    for fixed in ([b0, b1], [b0, b1, b2]):
        cand = np.ones((9, 72), dtype=bool)
        for p, b in enumerate(fixed):
            cand[p] = np.arange(72) == b
        batches = list(en._ranges(catalog_fn, cand))
        assert len(batches) == 1
        assert _assert_batches_match_the_reference(catalog_fn, cand) == batches[0][2].sum() > 0


def test_cells_equal_the_single_cell_gather():
    # The boards of range batches, built at most _CHUNK at a time,
    # against the single-cell gather of the reference join: a semi-magic
    # slice of more than _CHUNK boards, each of the 81 modular-magic
    # slices, and the modular-magic join.
    sm, mm = en.semi_magic_blocks, en.modular_magic_blocks
    batches = list(en._sm_ranges((17, 72)))
    assert sum(int(n.sum()) for _, _, n in batches) > en._CHUNK
    assert list(en._cells(sm, batches)) == list(_reference_cells(sm, [_sm_slice_levels(17)[-1]]))
    cat = en._join_tables(mm)[0].astype(int)
    for partition in [*((w, 81) for w in range(81)), None]:
        rows = _reference_levels(mm, en._slice(9 * cat[:, 0] + cat[:, 1], partition))[-1]
        got = list(en._cells(mm, en._mm_ranges(partition)))
        assert got == list(_reference_cells(mm, [rows])), partition


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
