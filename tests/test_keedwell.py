"""Block operator algebra and base-block decomposition of gnomon boards."""

import itertools

import pytest

from magicsudoku import keedwell as kw
from magicsudoku.boards import Board, block
from magicsudoku.enumeration import complete_standard_gnomon, semi_magic_blocks
from magicsudoku.errors import BoardFormatError, DomainError

K = ((0, 4, 8), (5, 6, 1), (7, 2, 3))


def test_apply_alpha():
    assert kw.apply_alpha(K, 0) == K
    assert kw.apply_alpha(K, 1) == ((7, 2, 3), (0, 4, 8), (5, 6, 1))
    assert kw.apply_alpha(K, 2) == ((5, 6, 1), (7, 2, 3), (0, 4, 8))
    assert kw.apply_alpha(kw.apply_alpha(K, 1), 2) == K


def test_apply_beta():
    assert kw.apply_beta(K, 0) == K
    assert kw.apply_beta(K, 1) == ((8, 0, 4), (1, 5, 6), (3, 7, 2))
    assert kw.apply_beta(kw.apply_beta(K, 1), 1) == kw.apply_beta(K, 2)
    assert kw.apply_beta(kw.apply_beta(K, 2), 1) == K


def test_alpha_beta_commute():
    for ea, eb in itertools.product(range(3), range(3)):
        assert kw.apply_beta(kw.apply_alpha(K, ea), eb) == kw.apply_alpha(
            kw.apply_beta(K, eb), ea
        )


def test_operator_exponent_images_are_distinct():
    for base in semi_magic_blocks()[:8]:
        images = {
            kw.apply_beta(kw.apply_alpha(base, ea), eb)
            for ea in range(3)
            for eb in range(3)
        }
        assert len(images) == 9


def test_block_swaps():
    assert kw.swap_block_rows(K, 0, 1) == ((5, 6, 1), (0, 4, 8), (7, 2, 3))
    assert kw.swap_block_columns(K, 0, 2) == ((8, 4, 0), (1, 6, 5), (3, 2, 7))
    with pytest.raises(DomainError):
        kw.swap_block_rows(K, 0, 0)
    with pytest.raises(DomainError):
        kw.swap_block_columns(K, 1, 3)


def test_column_swap_conjugation_identities():
    # Swapping columns commutes with the row cycle and inverts the
    # column cycle, for every catalog block and every column pair.
    for blk in semi_magic_blocks():
        for a, b in ((0, 1), (0, 2), (1, 2)):
            tau = lambda x: kw.swap_block_columns(x, a, b)
            assert tau(kw.apply_alpha(blk, 1)) == kw.apply_alpha(tau(blk), 1)
            assert tau(kw.apply_beta(blk, 1)) == kw.apply_beta(tau(blk), 2)


def test_decompose_gnomon_board(board_sm_71):
    dec = kw.keedwell_decompose(board_sm_71)
    assert dec is not None
    assert dec.K == K
    assert dec.exponents.c == ((0, 1, 2), (0, 2, 1), (0, 1, 2))
    assert dec.exponents.d == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    for i in range(3):
        for j in range(3):
            want = kw.apply_beta(
                kw.apply_alpha(dec.K, dec.exponents.c[i][j]), dec.exponents.d[i][j]
            )
            assert block(board_sm_71, i, j) == want


def test_decompose_pinned_exponents():
    by_label = {
        (b[59], b[51]): b for b in complete_standard_gnomon()
    }
    dec = kw.keedwell_decompose(by_label[(7, 8)])
    assert dec.exponents.c == ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert dec.exponents.d == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    dec = kw.keedwell_decompose(by_label[(7, 6)])
    assert dec.exponents.c == ((0, 1, 2), (0, 2, 1), (0, 1, 2))
    assert dec.exponents.d == ((0, 0, 0), (1, 1, 2), (2, 2, 1))


def test_all_gnomon_completions_decompose():
    for board in complete_standard_gnomon():
        dec = kw.keedwell_decompose(board)
        assert dec is not None
        assert dec.K == block(board, 0, 0)
        assert dec.exponents.c[0][0] == dec.exponents.d[0][0] == 0


def test_row_swap_breaks_decomposition(board_sm_71):
    cells = bytearray(board_sm_71.cells)
    cells[0:9], cells[9:18] = cells[9:18], cells[0:9]
    assert kw.keedwell_decompose(Board(bytes(cells))) is None


def test_decompose_rejects_non_sudoku():
    with pytest.raises(DomainError):
        kw.keedwell_decompose(Board(bytes(81)))


def test_decompose_rejects_a_value_of_another_length(board_sm_71):
    # The board is read as Board reads cells, before any Sudoku test.
    for cells in (board_sm_71 + b"\x05", board_sm_71[:80]):
        with pytest.raises(BoardFormatError):
            kw.keedwell_decompose(cells)
        with pytest.raises(BoardFormatError):
            kw.linearity_degree(cells)


def test_exponent_matrices_validation():
    rows = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    kw.ExponentMatrices(rows, rows)
    with pytest.raises(DomainError):
        kw.ExponentMatrices(((1, 1, 2),) + rows[1:], rows)
    with pytest.raises(DomainError):
        kw.ExponentMatrices(rows, ((0, 3, 2),) + rows[1:])
    with pytest.raises(DomainError):
        kw.ExponentMatrices(rows[:2], rows)


def test_matrices_that_cannot_be_iterated_are_not_3x3():
    rows = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    for bad in (5, None, (rows[0], rows[1], 5)):
        with pytest.raises(DomainError, match="^matrix is not 3x3$"):
            kw.is_quasi_linear(bad)
        with pytest.raises(DomainError, match="^c is not 3x3$"):
            kw.ExponentMatrices(bad, rows)
        with pytest.raises(DomainError, match="^d is not 3x3$"):
            kw.ExponentMatrices(rows, bad)


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", None])
def test_exponent_entries_must_be_integers(entry):
    rows = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    bad = ((0, entry, 2),) + rows[1:]
    with pytest.raises(DomainError, match="^c has entries outside Z3$"):
        kw.ExponentMatrices(bad, rows)
    with pytest.raises(DomainError, match="^d has entries outside Z3$"):
        kw.ExponentMatrices(rows, bad)
    with pytest.raises(DomainError, match="^matrix has entries outside Z3$"):
        kw.is_quasi_linear(bad)


@pytest.mark.parametrize("pair", [(0.0, 1), ("0", 1), (0, 1.5), (None, 2), (-1, 0), (True, True)])
def test_swaps_take_two_distinct_integer_indices(pair):
    with pytest.raises(DomainError, match="^bad row pair"):
        kw.swap_block_rows(K, *pair)
    with pytest.raises(DomainError, match="^bad column pair"):
        kw.swap_block_columns(K, *pair)


def test_is_quasi_linear():
    assert kw.is_quasi_linear([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert kw.is_quasi_linear([[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    assert kw.is_quasi_linear([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert not kw.is_quasi_linear([[0, 1, 2], [0, 2, 1], [0, 1, 2]])
    with pytest.raises(DomainError):
        kw.is_quasi_linear([[0, 1], [2, 0]])
    # Any integer is read mod 3.
    assert kw.is_quasi_linear([[0, 4, -1], [3, 7, 2], [0, 1, 5]])
    assert not kw.is_quasi_linear([[0, 4, -1], [3, 7, 2], [0, 1, 4]])


def test_linearity_degree_census():
    degrees = {}
    for board in complete_standard_gnomon():
        degrees[(board[59], board[51])] = kw.linearity_degree(board)
    assert degrees[(7, 1)] == 1
    assert degrees[(7, 8)] == 2
    assert degrees[(7, 6)] == 0
    assert sorted(degrees.values()).count(2) == 1
    assert sorted(degrees.values()).count(1) == 6
    assert sorted(degrees.values()).count(0) == 9


def test_linearity_degree_none_without_decomposition(board_sm_71):
    cells = bytearray(board_sm_71.cells)
    cells[0:9], cells[9:18] = cells[9:18], cells[0:9]
    assert kw.linearity_degree(Board(bytes(cells))) is None


def test_degree_matches_nest_graph_components():
    # Degree is constant on each component of the full nest graph:
    # the singleton has degree 2, the 6-cycle 1, the 9-component 0.
    from magicsudoku import nestgraph as ng

    comps = ng.weak_components(ng.build_nest_graph("SM", ["(12)(45)(78)"]))
    by_label = {(b[59], b[51]): b for b in complete_standard_gnomon()}
    expect = {1: 2, 6: 1, 9: 0}
    for comp in comps:
        degs = {
            kw.linearity_degree(by_label[(l.first, l.second)]) for l in comp
        }
        assert degs == {expect[len(comp)]}
