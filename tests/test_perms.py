"""Symmetry algebra and permutation-group closure."""

import random

import numpy as np
import pytest

from magicsudoku import catalog, perms
from magicsudoku.errors import CapacityError, DomainError
from magicsudoku.perms import (
    PermGroup,
    Symmetry,
    act,
    closure,
    compose,
    identity,
    inverse,
    inverse_perm,
)


def test_symmetry_validation():
    good = identity()
    assert good.is_identity
    with pytest.raises(DomainError):
        Symmetry(cell=good.cell[:-1], digit=good.digit)
    with pytest.raises(DomainError):
        Symmetry(cell=(0,) * 81, digit=good.digit)
    with pytest.raises(DomainError):
        Symmetry(cell=good.cell, digit=(0, 0, 2, 3, 4, 5, 6, 7, 8))


def test_inverse_perm():
    assert inverse_perm((2, 0, 1)) == (1, 2, 0)
    assert inverse_perm(range(9)) == tuple(range(9))


def test_compose_applies_right_argument_first(board_mm_72):
    t = catalog.transpose().symmetry
    s = catalog.swap_rows(0, 1).symmetry
    lhs = act(compose(t, s), board_mm_72)
    rhs = act(t, act(s, board_mm_72))
    assert lhs == rhs
    assert lhs != act(s, act(t, board_mm_72))


def test_act_transpose(board_mm_72):
    t = catalog.transpose().symmetry
    moved = act(t, board_mm_72)
    for r in range(9):
        for c in range(9):
            assert moved.cell(r, c) == board_mm_72.cell(c, r)


def test_act_relabeling(board_mm_72):
    ident = tuple(range(9))
    swap01 = (1, 0) + ident[2:]
    s = catalog.relabeling(swap01).symmetry
    moved = act(s, board_mm_72)
    for i in range(81):
        assert moved.cells[i] == swap01[board_mm_72.cells[i]]


def test_group_axioms_on_random_words(board_mm_72):
    rng = random.Random(5)
    gens = [g.symmetry for g in catalog.h_mm_generators()]
    gens += [g.symmetry for g in catalog.s_mm_generators()]
    for _ in range(50):
        a, b = rng.choice(gens), rng.choice(gens)
        word = compose(a, b)
        assert act(word, board_mm_72) == act(a, act(b, board_mm_72))
        undo = compose(inverse(word), word)
        assert undo.is_identity
        assert act(inverse(a), act(a, board_mm_72)) == board_mm_72


def test_closure_small_groups():
    swap = catalog.swap_rows(0, 1).symmetry
    g = closure([swap])
    assert g.order == 2
    cyc = catalog.cycle_rows(0).symmetry
    assert closure([cyc]).order == 3
    assert closure([swap, cyc]).order == 6
    assert closure([]).order == 1


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(perms, "CLOSURE_CAP", 100)
    gens = [g.symmetry for g in catalog.h_mm_generators()]
    with pytest.raises(CapacityError):
        closure(gens)


def test_closure_deterministic_order():
    gens = [g.symmetry for g in catalog.s_mm_generators()]
    rng = random.Random(9)
    first = closure(gens).elements
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert closure(shuffled).elements == first


def test_permgroup_membership_and_elements():
    g = closure([s.symmetry for s in catalog.s_mm_generators()])
    assert g.order == 36
    assert identity() in g
    for i in range(g.order):
        assert g.element(i) in g
    assert catalog.transpose().symmetry not in g
    assert np.array_equal(g._rows, PermGroup.from_symmetries(g.elements)._rows)


def test_inverse_cell_images(board_mm_72):
    g = closure([s.symmetry for s in catalog.h_mm_generators()[:4]])
    inv = g.inverse_cell_images
    cells = board_mm_72.cells
    for i in range(min(g.order, 24)):
        s = g.element(i)
        moved = act(s, board_mm_72)
        # Row i of the table maps target position j to its source cell.
        rebuilt = bytes(s.digit[cells[inv[i][j]]] for j in range(81))
        assert bytes(moved.cells) == rebuilt


def test_inverse_cell_images_is_a_cell_major_uint8_table():
    g = catalog.h_mm_group()
    inv = g.inverse_cell_images
    assert inv.dtype == np.uint8
    assert inv.T.flags.c_contiguous
    assert np.array_equal(inv, np.argsort(g.cell_images, axis=1))
