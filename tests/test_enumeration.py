"""Exhaustive enumeration, partitioning, completion, and sampling."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from magicsudoku import enumeration as en
from magicsudoku import verification
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


def test_partition_validation():
    for bad in ((3, 3), (-1, 3), (0, 0), (2, -2)):
        with pytest.raises(DomainError):
            en.enumerate_modular_magic(partition=bad)
        with pytest.raises(DomainError):
            en.enumerate_semi_magic(partition=bad)


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
    limited = en.complete_modular_magic(preset, limit=2)
    assert limited == found[:2]


def test_complete_modular_magic_edge_cases():
    assert en.complete_modular_magic({0: 0, 1: 0}) == []
    with pytest.raises(DomainError):
        en.complete_modular_magic({0: 9})
    with pytest.raises(DomainError):
        en.complete_modular_magic({81: 0})
    with pytest.raises(DomainError):
        en.complete_modular_magic({-1: 0})


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
        "4a5e939a0f7fae79cce9060980354178d09fdd65f0975dcd77e79eece05c46ac"
    )


def test_fit_masks_hold_the_join_matrices():
    _, row_ok, col_ok = en._join_tables(en.semi_magic_blocks)
    rows, cols = en._fit_masks(en.semi_magic_blocks)
    for masks, ok in ((rows, row_ok), (cols, col_ok)):
        assert [[mask >> j & 1 for j in range(72)] for mask in masks] == ok.astype(int).tolist()


def test_sm_join_level_sizes():
    # Every partial assembly of a given depth has as many completions as
    # any other, which makes random_semi_magic exactly uniform; the last
    # block is forced.
    tables = en._join_tables(en.semi_magic_blocks)
    for top_left in (0, 17, 71):
        cand = en._slice(np.arange(72), (top_left, 72))
        empty = np.zeros((1, 0), dtype=np.uint8)
        sizes = [len(en._extend(tables, cand, empty, depth)) for depth in range(1, 10)]
        assert sizes == [1, 12, 72, 864, 3456, 6912, 41472, 82944, 82944]


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
