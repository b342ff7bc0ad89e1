"""Off-diagonal structure check and the average-orbit group certificate."""

import pytest

from magicsudoku import analysis as an, nests
from magicsudoku.errors import DomainError


def test_constants():
    assert an.SUDOKU_BOARD_TOTAL == 6670903752021072936960
    assert an.SUDOKU_ORBIT_COUNT == 5472730538
    assert an.G9_ORDER == 1218998108160
    assert an.G9_ORDER == 2 * 6**8 * 9 * 8 * 7 * 6 * 5 * 4 * 3 * 2


def test_check_two_equal_on_representatives():
    for label in nests.mm_labels():
        assert an.check_two_equal(nests.representative(label))


def test_check_two_equal_rejects_non_mm(board_sm_71):
    with pytest.raises(DomainError):
        an.check_two_equal(board_sm_71)


def test_check_two_equal_pinned_on_the_sample(mm_sample):
    # Every sampled board passes, as it did with the block-tuple check.
    assert [an.check_two_equal(board) for board in mm_sample] == [True] * 1041


def test_default_certificate():
    cert = an.g9_minimality_certificate()
    assert cert.total_boards == an.SUDOKU_BOARD_TOTAL
    assert cert.orbit_count == an.SUDOKU_ORBIT_COUNT
    assert cert.group_order == an.G9_ORDER
    assert cert.average_orbit_floor == 1218935174261
    assert cert.average_orbit_floor == an.SUDOKU_BOARD_TOTAL // an.SUDOKU_ORBIT_COUNT
    assert cert.bound_holds


def test_certificate_small_cases():
    assert an.g9_minimality_certificate(100, 10, 10).bound_holds
    assert an.g9_minimality_certificate(100, 10, 19).bound_holds
    # The bound is strict: average*2 must exceed the order.
    assert not an.g9_minimality_certificate(100, 10, 20).bound_holds
    assert not an.g9_minimality_certificate(100, 10, 21).bound_holds


def test_certificate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        an.g9_minimality_certificate(100, 0, 10)
    with pytest.raises(DomainError):
        an.g9_minimality_certificate(0, 10, 10)
    with pytest.raises(DomainError):
        an.g9_minimality_certificate(100, 10, 0)


def test_certificate_uses_exact_integers():
    # A quotient off by one must flip the verdict, so floating point
    # rounding would be detectable here.
    total = an.SUDOKU_BOARD_TOTAL
    n = an.SUDOKU_ORBIT_COUNT
    floor = total // n
    assert an.g9_minimality_certificate(total, n, 2 * floor).bound_holds
    assert not an.g9_minimality_certificate(total, n, 2 * floor + 2).bound_holds


def test_orbit_sizes_reexport(mm_census):
    assert an.orbit_sizes("MM", nest_census=mm_census) == (4608, 27648)
