"""The block-pass predicates against the block-tuple predicates they
replaced, kept in oracles.py as the oracle."""

import ast
import importlib
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from magicsudoku import analysis as an, boards, nests
from magicsudoku.boards import (
    Board,
    blocks,
    is_magic_mod9_block,
    is_modular_magic,
    is_semi_magic,
    is_semi_magic_block,
    is_sudoku,
    off_diagonal_set,
)
from magicsudoku.enumeration import (
    _join_tables,
    iter_modular_magic,
    modular_magic_blocks,
    random_semi_magic,
    semi_magic_blocks,
)
from magicsudoku.errors import DomainError

from oracles import (
    oracle_check_two_equal,
    oracle_is_magic_mod9_block,
    oracle_is_modular_magic,
    oracle_is_semi_magic,
    oracle_is_semi_magic_block,
    oracle_is_sudoku,
    oracle_off_diagonal_set,
)

# --- boards: valid ones and seeded mutations of them ---


def _rows(board):
    return [list(board.cells[9 * r : 9 * r + 9]) for r in range(9)]


def _board(rows):
    return Board(bytes(d for row in rows for d in row))


def _mutations(board, rng):
    """Seeded variants of a board: two cell swaps, a changed digit, a row
    swap and a column swap inside a band or pillar, a band swap, a digit
    shift by 3 and by 1, and the transpose."""
    cells = bytearray(board.cells)
    out = []
    for _ in range(2):
        c = bytearray(cells)
        i, j = rng.sample(range(81), 2)
        c[i], c[j] = c[j], c[i]
        out.append(Board(bytes(c)))
    c = bytearray(cells)
    c[rng.randrange(81)] = rng.randrange(9)
    out.append(Board(bytes(c)))
    rows = _rows(board)
    band, i, j = rng.randrange(3), *rng.sample(range(3), 2)
    swapped = list(rows)
    swapped[3 * band + i], swapped[3 * band + j] = rows[3 * band + j], rows[3 * band + i]
    out.append(_board(swapped))
    cols = [list(col) for col in zip(*rows)]
    cols[3 * band + i], cols[3 * band + j] = cols[3 * band + j], cols[3 * band + i]
    out.append(_board(zip(*cols)))
    out.append(_board(rows[3:6] + rows[:3] + rows[6:]))
    for shift in (3, 1):
        out.append(Board(bytes((d + shift) % 9 for d in cells)))
    out.append(_board(zip(*rows)))
    return out


@pytest.fixture(scope="module")
def sample_boards(mm_sample):
    rng = random.Random(2024)
    sm = [random_semi_magic(rng) for _ in range(150)]
    base = list(mm_sample[::3]) + sm
    mutated = [m for board in base for m in _mutations(board, rng)]
    return base, mutated


PREDICATES = [
    (is_sudoku, oracle_is_sudoku),
    (is_modular_magic, oracle_is_modular_magic),
    (is_semi_magic, oracle_is_semi_magic),
]


@pytest.mark.parametrize("fast, oracle", PREDICATES, ids=lambda f: f.__name__)
def test_board_predicates_match_the_oracle(sample_boards, fast, oracle):
    base, mutated = sample_boards
    for board in base + mutated:
        assert fast(board) == oracle(board), board
    # The mutations reach both answers, so the comparison tests both.
    assert {fast(board) for board in mutated} == {True, False}


@pytest.mark.parametrize("fast", [is_sudoku, is_modular_magic, is_semi_magic],
                         ids=lambda f: f.__name__)
def test_board_predicates_read_any_bytes_like_value(sample_boards, fast):
    # A bytearray or memoryview of a board's cells gets the board's
    # answer, as np.frombuffer reads it for is_sudoku.
    base, mutated = sample_boards
    for board in base[::10] + mutated[::10]:
        want = fast(board)
        for cells in (bytearray(board), memoryview(board), memoryview(bytearray(board))):
            assert fast(cells) == want, board


def test_block_predicates_match_the_oracle(sample_boards):
    base, mutated = sample_boards
    rng = random.Random(7)
    found = [blk for board in base + mutated for blk in blocks(board)]
    shuffled = [rng.sample(range(9), 9) for _ in range(500)]
    found += [tuple(tuple(p[3 * r : 3 * r + 3]) for r in range(3)) for p in shuffled]
    found += [((0, 0, 1), (2, 3, 4), (5, 6, 7)), ((0, 1, 2), (3, 4, 5), (6, 7, 300))]
    found += [((-1,) * 3,) * 3]
    found += list(semi_magic_blocks()) + list(modular_magic_blocks())
    for fast, oracle in (
        (is_magic_mod9_block, oracle_is_magic_mod9_block),
        (is_semi_magic_block, oracle_is_semi_magic_block),
    ):
        results = [fast(blk) for blk in found]
        assert results == [oracle(blk) for blk in found]
        assert set(results) == {True, False}


def test_off_diagonal_set_matches_the_oracle():
    for blk in modular_magic_blocks():
        assert off_diagonal_set(blk) == oracle_off_diagonal_set(blk)


def test_check_two_equal_matches_the_oracle(sample_boards):
    base, mutated = sample_boards
    checked = 0
    for board in base + mutated:
        if oracle_is_modular_magic(board):
            assert an.check_two_equal(board) == oracle_check_two_equal(board)
            checked += 1
        else:
            with pytest.raises(DomainError):
                an.check_two_equal(board)
    # The sample, its band swaps, transposes and digit shifts by 3.
    assert checked >= 4 * 347


def _grouped_two_equal(indices):
    """check_two_equal as the classes of nine catalog blocks grouped by center."""
    classes = boards._mm_classes()
    by_center = {0: [], 3: [], 6: []}
    for i in indices:
        by_center[classes[i][0]].append(classes[i])
    return all(len(group) == 3 and len(set(group)) <= 2 for group in by_center.values())


def test_check_two_equal_equals_the_grouping_by_center():
    # Every modular-magic board (all True), and seeded nine-block draws
    # with three blocks of each center, some False: the decoded weight
    # sum gives the per-center grouping's answer.
    count = 0
    for board in iter_modular_magic():
        indices = [i for band in boards._variant_bands(modular_magic_blocks, board.cells)
                   for i in band[0]]
        assert an.check_two_equal(board) == _grouped_two_equal(indices)
        count += 1
    assert count == 32_256
    by_center = {c: [i for i, cls in enumerate(boards._mm_classes()) if cls[0] == c]
                 for c in (0, 3, 6)}
    rng = random.Random(25)
    weight = boards._mm_weights()
    answers = set()
    for _ in range(2000):
        indices = [i for c in (0, 3, 6) for i in rng.sample(by_center[c], 3)]
        want = _grouped_two_equal(indices)
        assert an._two_equal(sum(weight[i] for i in indices)) == want
        answers.add(want)
    assert answers == {True, False}


# --- the block pass: digit range, passing-block sets, independence ---


def _shifted(board):
    """The board with every digit raised by one: each row, column and
    block holds 1..9, nine distinct values but not the digits 0..8."""
    return Board._wrap(bytes(d + 1 for d in board.cells))


@pytest.fixture(scope="module")
def wrapped_boards(sample_boards):
    base, _ = sample_boards
    return [_shifted(board) for board in base[::25]]


def test_board_predicates_reject_digit_nine(wrapped_boards):
    assert max(wrapped_boards[0].cells) == 9
    for board in wrapped_boards:
        assert len(set(board.cells[:9])) == 9
        assert not is_sudoku(board)
        assert not is_modular_magic(board)
        assert not is_semi_magic(board)


def _band_count(catalog_fn):
    """The bands of the variant: ordered triples of its catalog blocks
    with pairwise disjoint mini-row sets, counted from the join's row_ok."""
    row_ok = _join_tables(catalog_fn)[1].astype(int)
    return int(np.einsum("ab,ac,bc->", row_ok, row_ok, row_ok))


def _bands(board):
    return [board.cells[27 * i : 27 * i + 27] for i in range(3)]


def test_band_tables_hold_every_band_of_the_catalog():
    # Each variant's table maps every band its catalog makes, as 27
    # row-major bytes, to the catalog indices of the three blocks cut
    # from it, to its column code and, for modular-magic bands, to the
    # sum of the three blocks' class weights.
    weights = boards._mm_weights()
    for catalog_fn in (modular_magic_blocks, semi_magic_blocks):
        table = boards._bands(catalog_fn)
        catalog = [bytes(itertools.chain.from_iterable(blk)) for blk in catalog_fn()]
        assert len(table) == _band_count(catalog_fn)
        for band, (indices, code, weight_sum) in table.items():
            if catalog_fn is modular_magic_blocks:
                assert weight_sum == sum(weights[i] for i in indices)
            else:
                assert weight_sum is None
            assert len(band) == 27
            assert [catalog[i] for i in indices] == [
                bytes(band[9 * r + 3 * j + c] for r in range(3) for c in range(3))
                for j in range(3)
            ]
            assert code == sum(1 << 9 * (k % 9) + d for k, d in enumerate(band))


@pytest.fixture(scope="module")
def variant_sources(mm_sample):
    rng = random.Random(16)
    return {"MM": list(mm_sample[:40]), "SM": [random_semi_magic(rng) for _ in range(40)]}


@pytest.mark.parametrize("variant", ["MM", "SM"])
def test_passed_bands_whose_pillars_clash_make_no_board(variant, variant_sources):
    # Bands (A0, A0, A2) of one board, and A's band 2 swapped for another
    # board's: every band is in the table, so only the column codes tell.
    predicate, oracle, catalog_fn, name = {
        "MM": (is_modular_magic, oracle_is_modular_magic, modular_magic_blocks, "modular-magic"),
        "SM": (is_semi_magic, oracle_is_semi_magic, semi_magic_blocks, "semi-magic"),
    }[variant]
    table = boards._bands(catalog_fn)
    sources = variant_sources[variant]
    assert all(map(predicate, sources))
    (a0, a1, a2), *others = map(_bands, sources)
    clashes = [Board(a0 + a0 + a2)] + [Board(a0 + a1 + b[2]) for b in others if b[2] != a2]
    clashes = [board for board in clashes if not oracle(board)]
    assert len(clashes) > 30
    for board in clashes:
        assert all(band in table for band in _bands(board))
        assert not predicate(board)
        with pytest.raises(DomainError, match=f"^board is not {name}$"):
            nests.canonicalize(variant, board)
        with pytest.raises(DomainError, match="^board is not modular-magic$"):
            an.check_two_equal(board)


_ANSWERS = (is_sudoku, is_modular_magic, is_semi_magic, an.check_two_equal,
            nests.canonicalize_mm, nests.canonicalize_sm)


def _answers(board):
    """What each of _ANSWERS gives for the board: its value, or its
    DomainError's message."""
    out = []
    for fn in _ANSWERS:
        try:
            out.append(fn(board))
        except DomainError as exc:
            out.append(f"DomainError: {exc}")
    return out


def test_answers_do_not_depend_on_the_memos(sample_boards, wrapped_boards):
    # Cold: the cached band and class tables cleared, so the first board
    # builds them, and the code-to-nest maps, whose walk reads the band
    # table's weight sums. Then one pass with them warm.
    base, mutated = sample_boards
    corpus = base + mutated + wrapped_boards
    boards._bands.cache_clear()
    boards._mm_classes.cache_clear()
    boards._mm_weights.cache_clear()
    an._two_equal.cache_clear()
    nests._label_table.cache_clear()
    nests._nests.cache_clear()
    cold = [_answers(board) for board in corpus]
    warm = [_answers(board) for board in corpus]
    assert cold == warm
    # Each function gives two answers at least: True and False, or a
    # value and an error.
    for column in zip(*cold):
        assert len({a if isinstance(a, (bool, str)) else "value" for a in column}) >= 2


# The predicate and the off-diagonal sweep stay independent of the join,
# the nest labels and the group catalog that they check.
_CHECKED_ELSEWHERE = {"enumeration", "nests", "catalog"}
_ALLOWED_IMPORTS = {"boards": {"errors"}, "analysis": {"boards", "errors"}}


def _package_imports(module):
    """The magicsudoku modules that a module's source imports, at any
    depth of its syntax tree, and the ones those import in turn."""
    found, todo = set(), [module]
    while todo:
        names = set()
        for node in ast.walk(ast.parse(Path(todo.pop().__file__).read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["magicsudoku" if node.level else "", node.module]))
                names |= {f"{base}.{alias.name}" for alias in node.names}
        new = {name.split(".")[1] for name in names if name.startswith("magicsudoku.")} - found
        found |= new
        todo += [importlib.import_module(f"magicsudoku.{name}") for name in new]
    return found


@pytest.mark.parametrize("module", [boards, an], ids=lambda m: m.__name__)
def test_predicates_and_sweep_import_no_join(module):
    imported = _package_imports(module)
    name = module.__name__.rsplit(".", 1)[1]
    assert not imported & _CHECKED_ELSEWHERE
    assert imported <= _ALLOWED_IMPORTS[name]
