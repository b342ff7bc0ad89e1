"""Nest labels, canonicalization, representatives, and the census."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from magicsudoku import catalog, nests
from magicsudoku import enumeration as en
from magicsudoku.boards import is_modular_magic, is_semi_magic
from magicsudoku.enumeration import (
    complete_standard_gnomon,
    enumerate_modular_magic,
    random_semi_magic,
)
from magicsudoku.errors import DomainError, IntegrityError
from magicsudoku.perms import act


def test_normalize_variant():
    for alias in ("MM", "mm", "modular-magic", "modular_magic", "Modular-Magic"):
        assert nests.normalize_variant(alias) == "MM"
    for alias in ("SM", "sm", "semi-magic", "semi_magic", "Semi-Magic"):
        assert nests.normalize_variant(alias) == "SM"
    for bad in ("", "magic", "mmx"):
        with pytest.raises(DomainError):
            nests.normalize_variant(bad)


def test_nest_label_basics():
    lab = nests.NestLabel("MM", 7, 2)
    assert str(lab) == "[7,2]"
    assert lab == nests.NestLabel("MM", 7, 2)
    assert lab < nests.NestLabel("SM", 2, 1)
    assert nests.NestLabel("MM", 1, 1) < lab
    with pytest.raises(DomainError):
        nests.NestLabel("MM", 9, 0)
    with pytest.raises(DomainError):
        nests.NestLabel("QQ", 1, 1)


def test_label_alphabets():
    mm = nests.mm_labels()
    assert [str(l) for l in mm] == [
        "[1,1]", "[1,2]", "[1,8]", "[2,1]", "[2,2]", "[2,7]",
        "[7,2]", "[7,5]", "[7,7]",
    ]
    sm = nests.sm_labels()
    assert {(l.first, l.second) for l in sm} == {
        (a, b) for a in (2, 5, 6, 7) for b in (1, 4, 6, 8)
    }
    assert nests.labels("modular-magic") == mm
    assert nests.labels("semi-magic") == sm


def test_canonicalize_mm_fixtures(board_mm_72, board_mm_11, board_mm_12):
    # The [7,2] fixture is its own canonical form; the other two map onto
    # their nest representatives.
    label, canon = nests.canonicalize_mm(board_mm_72)
    assert (label.first, label.second) == (7, 2)
    assert canon == board_mm_72
    for board, (a, g) in ((board_mm_11, (1, 1)), (board_mm_12, (1, 2))):
        label, canon = nests.canonicalize_mm(board)
        assert (label.first, label.second) == (a, g)
        assert canon == nests.representative(label)
        assert canon != board


def test_canonicalize_sm_fixture(board_sm_71):
    label, canon = nests.canonicalize_sm(board_sm_71)
    assert (label.first, label.second) == (7, 1)
    assert canon == board_sm_71


def test_canonicalize_rejects_wrong_variant(board_mm_72, board_sm_71):
    with pytest.raises(DomainError):
        nests.canonicalize_mm(board_sm_71)
    with pytest.raises(DomainError):
        nests.canonicalize_sm(board_mm_72)
    with pytest.raises(DomainError):
        nests.canonicalize("MM", board_sm_71)


def test_canonicalize_dispatch(board_mm_72, board_sm_71):
    assert nests.canonicalize("modular-magic", board_mm_72) == nests.canonicalize_mm(
        board_mm_72
    )
    assert nests.canonicalize("sm", board_sm_71) == nests.canonicalize_sm(board_sm_71)


def test_mm_invariance_under_physical_symmetries(board_mm_12):
    want = nests.canonicalize_mm(board_mm_12)
    group = catalog.h_mm_group()
    rng = random.Random(31)
    for _ in range(50):
        s = group.element(rng.randrange(group.order))
        moved = act(s, board_mm_12)
        assert is_modular_magic(moved)
        assert nests.canonicalize_mm(moved) == want


def test_sm_invariance_under_physical_symmetries(board_sm_71):
    want = nests.canonicalize_sm(board_sm_71)
    group = catalog.h_gamma_group()
    rng = random.Random(32)
    for _ in range(25):
        s = group.element(rng.randrange(group.order))
        moved = act(s, board_sm_71)
        assert is_semi_magic(moved)
        assert nests.canonicalize_sm(moved) == want


def test_mm_representatives_round_trip():
    for label in nests.mm_labels():
        rep = nests.representative(label)
        assert is_modular_magic(rep)
        assert nests.canonicalize_mm(rep) == (label, rep)
        # The label digits sit in fixed diagonal cells of the pattern.
        assert (rep[2], rep[35]) == (label.first, label.second)
        assert rep[35] == rep[59]
        assert rep[18] == (-3 - rep[2]) % 9


def test_sm_representatives_round_trip():
    gnomon = complete_standard_gnomon()
    for label in nests.sm_labels():
        rep = nests.representative(label)
        assert is_semi_magic(rep)
        assert rep in gnomon
        assert nests.canonicalize_sm(rep) == (label, rep)
        assert (rep[59], rep[51]) == (label.first, label.second)


def test_representative_rejects_unknown_labels():
    with pytest.raises(DomainError):
        nests.representative(nests.NestLabel("MM", 3, 3))
    with pytest.raises(DomainError):
        nests.representative(nests.NestLabel("SM", 0, 0))


def test_sm_scan_agrees_with_constructive(board_sm_71):
    rng = random.Random(77)
    boards = [board_sm_71] + [random_semi_magic(rng) for _ in range(25)]
    for board in boards:
        fast = nests.canonicalize_sm(board)
        slow = nests.canonicalize_sm_by_scan(board)
        assert fast == slow
        assert nests.crosscheck_sm(board) == fast


def test_scan_needs_exactly_one_distinct_image(board_mm_72):
    group = catalog.PhysicalGroup([catalog.transpose()])  # order 2
    cells = board_mm_72.cells
    assert cells[1] != cells[9]  # not symmetric under transpose
    row0 = tuple((c, cells[c]) for c in range(9))
    diagonal = tuple((10 * r, cells[10 * r]) for r in range(9))
    assert nests._scan(group, row0, cells) == cells
    with pytest.raises(IntegrityError):
        nests._scan(group, diagonal, cells)  # both images hold it, and they differ
    changed = ((0, (cells[0] + 1) % 9),) + diagonal[1:]
    with pytest.raises(IntegrityError):
        nests._scan(group, changed, cells)  # no image holds it
    with pytest.raises(DomainError):
        nests._scan(group, ((1, cells[1]),), cells)  # eight columns unforced


def test_scan_does_not_depend_on_pattern_order(mm_sample):
    # Reversed, the template forces each column through another of its
    # three cells and checks the rest; the canonical image is the same.
    group = catalog.PhysicalGroup(catalog.h_mm_generators())
    reversed_template = nests._MM_TEMPLATE[::-1]
    for board in mm_sample[::50]:
        want = nests._mm_reduce(board.cells)[2]
        assert nests._scan(group, reversed_template, board.cells, nests._mm_ties) == want


def _scan_by_table(group, pattern, cells, ties=None):
    """The distinct images, over every element of the materialized
    group, that hold the pattern and pass the ties."""
    arr = np.frombuffer(cells, dtype=np.uint8)
    inv = group.inverse_cell_images
    pos, val = map(list, zip(*pattern))
    images = arr[inv[(arr[inv[:, pos]] == val).all(axis=1)]]
    if ties is not None:
        images = images[ties(images)]
    return np.unique(images, axis=0)


def test_scan_equals_the_materialized_group_filter(mm_sample):
    mm_boards = [nests.representative(l) for l in nests.mm_labels()] + list(mm_sample[::50])
    rng = random.Random(808)
    sm_boards = [nests.representative(l) for l in nests.sm_labels()]
    sm_boards += [random_semi_magic(rng) for _ in range(20)]
    cases = [
        (catalog.h_mm_generators, catalog.h_mm_group(), nests._MM_TEMPLATE, nests._mm_ties, mm_boards),
        (catalog.h_gamma_generators, catalog.h_gamma_group(), nests._SM_GNOMON_CELLS, None, sm_boards),
    ]
    for generators, materialized, pattern, ties, boards in cases:
        group = catalog.PhysicalGroup(generators())
        for board in boards:
            (want,) = _scan_by_table(materialized, pattern, board.cells, ties)
            assert nests._scan(group, pattern, board.cells, ties) == want.tobytes()


def test_census_times_stabilizer_is_the_group_order(mm_census, sm_census):
    # Orbit-stabilizer: each nest has |H| / |Stab(rep)| boards. A cell
    # map g fixes a board b exactly when b[g(k)] = b[k] for every cell k.
    for census, group, want in (
        (mm_census, catalog.h_mm_group(), {(1536, 3): 3, (4608, 1): 6}),
        (sm_census, catalog.h_gamma_group(), {(373_248, 1): 16}),
    ):
        pairs = Counter()
        for label, count in census.counts.items():
            arr = np.frombuffer(nests.representative(label).cells, dtype=np.uint8)
            stabilizer = int((arr[group.cell_images] == arr).all(axis=1).sum())
            assert count * stabilizer == group.order
            pairs[count, stabilizer] += 1
        assert pairs == want


def test_canonicalize_mm_sample_pinned(mm_sample):
    # SHA-256 of every sample board's label digits and canonical cells,
    # computed with the scan that narrowed through all 27 cells in
    # block order.
    digest = hashlib.sha256()
    for board in mm_sample:
        label, canon = nests.canonicalize_mm(board)
        digest.update(bytes((label.first, label.second)) + canon.cells)
    assert digest.hexdigest() == (
        "50bbaf69114c8e61a0b426f43b72c052357916676cb174e1e83c08b7baea07e6"
    )


def test_census_slice_matches_enumeration():
    part = (17, 72)
    got = nests.census("MM", part)
    assert got.variant == "MM"
    assert got.total == enumerate_modular_magic(partition=part)
    assert got.total == sum(got.counts.values())
    assert set(got.counts) <= set(nests.mm_labels())
    assert all(v > 0 for v in got.counts.values())


def test_census_rejects_bad_variant():
    with pytest.raises(DomainError):
        nests.census("nope")


def test_mm_census_expected_sizes(mm_census):
    counts = {(l.first, l.second): n for l, n in mm_census.counts.items()}
    small = {(1, 1), (2, 2), (7, 7)}
    assert {k: v for k, v in counts.items() if k in small} == {k: 1536 for k in small}
    rest = {k: v for k, v in counts.items() if k not in small}
    assert len(rest) == 6
    assert set(rest.values()) == {4608}
    assert sum(counts.values()) == 32256


def test_sm_census_expected_sizes(sm_census):
    counts = {(l.first, l.second): n for l, n in sm_census.counts.items()}
    assert len(counts) == 16
    assert set(counts.values()) == {373248}
    assert sum(counts.values()) == 5971968


def _index_rows_and_boards(idx):
    return idx, list(en._boards(en.semi_magic_blocks, [idx]))


@pytest.mark.parametrize("top_left", [17, 68])  # reduced directly; transposed first
def test_batch_sm_label_equals_scalar(top_left):
    assert nests._block_tables()[2][top_left] == (top_left == 68)  # flip
    for idx, boards in map(_index_rows_and_boards, en._sm_join((top_left, 72))):
        want = [9 * a + b for a, b in (nests._sm_label(board.cells) for board in boards)]
        assert nests._sm_label_codes(idx).tolist() == want


def test_batch_sm_label_rejects_what_the_scalar_rejects():
    # Nine copies of block 0 put {0,4,8} in row rowperm[0] of blocks 1
    # and 2, so the scalar _sm_reduce raises where it reads the digits
    # of block 2 along that row as {7,2,3}.
    idx, (board,) = _index_rows_and_boards(np.zeros((1, 9), dtype=np.uint8))
    with pytest.raises(IntegrityError):
        nests._sm_label(board.cells)
    with pytest.raises(IntegrityError):
        nests._sm_label_codes(idx)
    # Arbitrary index rows: the batch label raises exactly where the
    # scalar raises, and agrees with it elsewhere.
    rows = np.random.default_rng(5).integers(0, 72, (2000, 9)).astype(np.uint8)
    for row in rows:
        idx, (board,) = _index_rows_and_boards(row[None])
        try:
            a, b = nests._sm_label(board.cells)
            want = 9 * a + b
        except IntegrityError:
            want = None
        try:
            got = int(nests._sm_label_codes(idx)[0])
        except IntegrityError:
            got = None
        assert got == want
