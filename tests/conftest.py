"""Shared fixtures: one verification context per session so the big
censuses run once, plus pinned canonical-board literals."""

from itertools import islice

import pytest

from magicsudoku.boards import parse_board
from magicsudoku.enumeration import iter_modular_magic
from magicsudoku.verification import VerifyContext

# Canonical representative of modular-magic nest [7,2] (its own canonical form).
CANON_MM_72 = (
    "027315648135864207846720153351648072468207531270153486684072315702531864513486720"
)
# A member of modular-magic nest [1,1] (not the canonical representative).
BOARD_MM_11 = (
    "180756423234801567675342018756423180801567234342018675423180756567234801018675342"
)
# A member of modular-magic nest [1,2] (not the canonical representative).
BOARD_MM_12 = (
    "180756423234801567675342018846513270702468135351027684513270846468135702027684351"
)
# Canonical representative of semi-magic nest [7,1] (its own canonical form).
CANON_SM_71 = (
    "048723561561048723723561048804156372156372804372804156480237615615480237237615480"
)


@pytest.fixture(scope="session")
def ctx():
    return VerifyContext()


@pytest.fixture(scope="session")
def mm_sample():
    # Every 31st modular-magic board in enumeration order.
    return tuple(islice(iter_modular_magic(), None, None, 31))


@pytest.fixture(scope="session")
def mm_census(ctx):
    return ctx.census("MM")


@pytest.fixture(scope="session")
def sm_census(ctx):
    return ctx.census("SM")


@pytest.fixture
def board_mm_72():
    return parse_board(CANON_MM_72)


@pytest.fixture
def board_mm_11():
    return parse_board(BOARD_MM_11)


@pytest.fixture
def board_mm_12():
    return parse_board(BOARD_MM_12)


@pytest.fixture
def board_sm_71():
    return parse_board(CANON_SM_71)
