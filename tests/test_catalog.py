"""Named generators, symmetry groups, and independent order oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from magicsudoku import catalog
from magicsudoku import enumeration as en
from magicsudoku.boards import is_modular_magic, is_semi_magic, is_sudoku
from magicsudoku.errors import DomainError, IntegrityError
from magicsudoku.perms import PermGroup, Symmetry, act, closure, compose, identity


def _sympy_cell(sym):
    assert sym.digit == tuple(range(9))
    return Permutation(list(sym.cell))


def _sympy_full(sym):
    # Faithful action on 81 cells plus 9 digit points.
    return Permutation(list(sym.cell) + [81 + d for d in sym.digit])


def test_parse_round_trips_every_catalog_generator():
    everything = (
        catalog.h_mm_generators()
        + catalog.h_gamma_generators()
        + catalog.h9_generators()
        + catalog.s_mm_generators()
        + catalog.g_k_generators()
    )
    for gen in everything:
        again = catalog.parse_generator(gen.name)
        assert again.name == gen.name
        assert again.symmetry == gen.symmetry


def test_parse_specific_tokens():
    assert catalog.parse_generator("transpose").symmetry == catalog.transpose().symmetry
    assert catalog.parse_generator("mu(4,0)").symmetry == catalog.mu(4, 0).symmetry
    assert catalog.parse_generator("rho").symmetry == catalog.rho().symmetry
    assert (
        catalog.parse_generator("swap_pillars(1,2)").symmetry
        == catalog.swap_pillars(1, 2).symmetry
    )
    assert catalog.parse_generator("(01)").symmetry.digit == (1, 0, 2, 3, 4, 5, 6, 7, 8)


def test_parse_rejects_bad_tokens():
    for token in ("bogus", "mu(3,0)", "mu(4,1)", "swap_rows(0,0)", "swap_rows(0,9)", ""):
        with pytest.raises(DomainError):
            catalog.parse_generator(token)


def test_builder_domain_errors():
    with pytest.raises(DomainError):
        catalog.swap_rows(2, 2)
    with pytest.raises(DomainError):
        catalog.swap_bands(0, 3)
    with pytest.raises(DomainError):
        catalog.mu(3, 0)
    with pytest.raises(DomainError):
        catalog.mu(4, 1)
    with pytest.raises(DomainError):
        catalog.relabeling((0, 0, 2, 3, 4, 5, 6, 7, 8))
    # Line and block positions are integers, not values that compare like one.
    cases = [(catalog.swap_rows, (0.5, 1)), (catalog.swap_bands, (1.0, 0)),
             (catalog.cycle_rows, ("1",)), (catalog.triple_cols, (0, 1, 2.0))]
    for build, args in cases:
        with pytest.raises(DomainError, match="must lie in"):
            build(*args)


def test_relabeling_digits_are_integers():
    # Floats that compare equal to digits would give float digit images.
    identity = (0.0, 1, 2, 3, 4, 5, 6, 7, 8)
    for build, args in [(catalog.mu, (4.0, 0)), (catalog.mu, (4, 0.0)),
                        (catalog.relabeling, (identity,)), (Symmetry.from_digit, (identity,))]:
        with pytest.raises(DomainError):
            build(*args)
    gen = catalog.mu(np.int64(4), np.int64(0))
    assert gen.name == "mu(4,0)" and gen.symmetry == catalog.mu(4, 0).symmetry
    assert all(type(d) is int for d in catalog.relabeling(np.arange(9)[::-1]).symmetry.digit)


def test_mu_digit_action():
    for k in (1, 2, 4, 5, 7, 8):
        for l in (0, 3, 6):
            digit = catalog.mu(k, l).symmetry.digit
            assert digit == tuple((k * d + l) % 9 for d in range(9))


def test_digit_cycles_formatting():
    assert catalog.digit_cycles(tuple(range(9))) == "()"
    assert catalog.digit_cycles((1, 0, 2, 3, 4, 5, 6, 7, 8)) == "(01)"
    assert catalog.digit_cycles(catalog.mu(4, 0).symmetry.digit) == "(147)(285)"
    assert catalog.digit_cycles(catalog.rho().symmetry.digit) == "(12)(45)(78)"


@pytest.mark.parametrize(
    "image",
    [(1, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 6, 7, 9), (1, 0, 2, 3, 4, 5, 6, 7)],
)
def test_digit_cycles_rejects_a_non_permutation(image):
    # Checked before the cycle walk, which never closes a cycle on these.
    with pytest.raises(DomainError, match="not a permutation"):
        catalog.digit_cycles(image)


def test_group_orders_against_sympy():
    hmm = PermutationGroup([_sympy_cell(g.symmetry) for g in catalog.h_mm_generators()])
    assert hmm.order() == catalog.h_mm_group().order == 4608

    hg = PermutationGroup([_sympy_cell(g.symmetry) for g in catalog.h_gamma_generators()])
    assert hg.order() == catalog.h_gamma_group().order == 373248

    h9 = PermutationGroup([_sympy_cell(g.symmetry) for g in catalog.h9_generators()])
    assert h9.order() == catalog.h9_group().order == 3359232

    smm = PermutationGroup([_sympy_full(g.symmetry) for g in catalog.s_mm_generators()])
    assert smm.order() == catalog.s_mm_elements().order == 36

    gmm = PermutationGroup(
        [_sympy_full(g.symmetry) for g in catalog.h_mm_generators()]
        + [_sympy_full(g.symmetry) for g in catalog.s_mm_generators()]
    )
    assert gmm.order() == catalog.g_mm_group().order == 165888


def test_semi_magic_symmetry_order_against_sympy():
    gsm = PermutationGroup(
        [_sympy_full(g.symmetry) for g in catalog.h9_generators()]
        + [_sympy_full(s) for s in catalog.s_sm_group().elements]
    )
    assert gsm.order() == catalog.g_sm_order() == 241864704
    assert catalog.g_sm_order() == catalog.h9_group().order * catalog.s_sm_group().order


def test_s_sm_group_matches_the_loop_oracle():
    # The Python loop over all 9! digit permutations, the reference for
    # the filter over the 72 candidates that send block 0 to a block.
    catalog_blocks = en.semi_magic_blocks()
    block_set = frozenset(catalog_blocks)
    keep = [
        Symmetry.from_digit(p)
        for p in itertools.permutations(range(9))
        if all(
            tuple(tuple(p[d] for d in row) for row in blk) in block_set
            for blk in catalog_blocks
        )
    ]
    assert np.array_equal(catalog.s_sm_group()._rows, PermGroup.from_symmetries(keep)._rows)


@pytest.mark.parametrize("wrong", ["rho only", "(01) for mu(5,6)"])
def test_s_mm_rejects_wrong_generators(monkeypatch, wrong):
    # A generator list whose closure is not the catalog's relabeling
    # group: too small, or too large.
    paper = catalog.s_mm_generators()
    gens = [catalog.rho()] if wrong == "rho only" else paper[:3] + [catalog.parse_generator("(01)")]
    monkeypatch.setattr(catalog, "s_mm_generators", lambda: gens)
    with pytest.raises(IntegrityError, match="relabeling group"):
        catalog.s_mm_elements.__wrapped__()


def test_h9_membership():
    h9 = catalog.h9_group()
    assert identity() in h9
    assert catalog.transpose().symmetry in h9
    assert catalog.rot90().symmetry in h9
    assert catalog.swap_rows(0, 1).symmetry in h9
    assert catalog.swap_rows(0, 3).symmetry not in h9
    for gen in catalog.h_gamma_generators():
        assert gen.symmetry in h9
    mixed = compose(catalog.transpose().symmetry, catalog.swap_bands(0, 2).symmetry)
    assert mixed in h9


def test_g_mm_product_equals_closure():
    gens = catalog.h_mm_generators() + catalog.s_mm_generators()
    regrown = closure([g.symmetry for g in gens])
    assert np.array_equal(catalog.g_mm_group()._rows, regrown._rows)


def test_g_mm_group_allocates_only_its_table():
    # With both factors built, the 165,888 x 90 table is the only large
    # allocation: no repeated copy of H_MM's cells beside it.
    catalog.h_mm_group(), catalog.s_mm_elements()
    tracemalloc.start()
    try:
        group = catalog.g_mm_group.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 165_888
    assert peak <= 1.1 * 165_888 * 90


def test_factored_h_mm_membership():
    hmm = catalog.PhysicalGroup(catalog.h_mm_generators())
    assert hmm.order == 4608
    assert catalog.rot90().symmetry in hmm
    assert catalog.swap_rows(0, 1).symmetry not in hmm


@pytest.mark.parametrize("generators", [catalog.h_mm_generators, catalog.h_gamma_generators])
def test_decoded_group_equals_the_closure_of_its_generators(generators):
    # The elementwise oracle of the factorization: the breadth-first
    # closure and every decoded element, sorted, row for row.
    group = catalog._physical_group(generators)
    regrown = closure([g.symmetry for g in generators()])
    assert regrown.order == group.order
    assert np.array_equal(regrown._rows, group.materialize()._rows)


@pytest.mark.parametrize("generators", [catalog.h_mm_generators, catalog.h_gamma_generators])
def test_decoded_elements_split_back_to_their_parts(generators):
    group = catalog._physical_group(generators)
    n = len(group._lines)
    rng = np.random.default_rng(32)
    ends = [0, n * n - 1, n * n, group.order - 1]  # the first and last of each e
    indices = np.concatenate([ends, rng.integers(group.order, size=300)])
    cells = group._decode(indices)[3]
    for i, row in zip(indices.tolist(), cells):
        e, a, b, one = group._decode(i)
        assert i == e * n * n + a * n + b and e in (0, 1)
        assert np.array_equal(one, row)
        parts = (e, tuple(group._lines[a].tolist()), tuple(group._lines[b].tolist()))
        assert catalog._split(Symmetry.from_cell(row.tolist())) == parts


def test_factored_group_rejects_bad_generators():
    with pytest.raises(IntegrityError, match="transpose is not among"):
        catalog.PhysicalGroup([catalog.swap_bands(0, 1), catalog.swap_pillars(0, 1)])
    both = compose(catalog.swap_rows(0, 1).symmetry, catalog.swap_cols(0, 1).symmetry)
    with pytest.raises(IntegrityError, match="rows and columns together"):
        catalog.PhysicalGroup([catalog.transpose(), catalog.NamedGenerator("both", both)])
    with pytest.raises(IntegrityError, match="not transpose"):
        catalog.PhysicalGroup([catalog.transpose(), catalog.rho()])


def test_h9_rejects_digit_action():
    h9 = catalog.h9_group()
    assert catalog.parse_generator("(01)").symmetry not in h9


def test_physical_generators_preserve_predicates(board_mm_72, board_sm_71):
    for gen in catalog.h_mm_generators():
        assert is_modular_magic(act(gen.symmetry, board_mm_72))
    for gen in catalog.h_gamma_generators():
        assert is_semi_magic(act(gen.symmetry, board_sm_71))
    for gen in catalog.h9_generators():
        assert is_sudoku(act(gen.symmetry, board_mm_72))
        assert is_sudoku(act(gen.symmetry, board_sm_71))


def test_relabeling_groups_preserve_predicates(board_mm_72, board_sm_71):
    smm = catalog.s_mm_elements()
    assert smm.order == 36
    for s in smm.elements:
        assert is_modular_magic(act(s, board_mm_72))
    ssm = catalog.s_sm_group()
    assert ssm.order == 72
    for s in ssm.elements:
        assert is_semi_magic(act(s, board_sm_71))


def test_rho_is_an_involution(board_mm_72):
    rho = catalog.rho().symmetry
    assert compose(rho, rho).is_identity
    assert act(rho, act(rho, board_mm_72)) == board_mm_72


def test_gk_generator_inventory():
    gens = catalog.g_k_generators()
    names = [g.name for g in gens]
    assert len(gens) == 69
    assert len(set(names)) == 69
    assert "transpose" in names
    assert "(01)" in names
    assert "(012345678)" in names
    assert "swap_bands(0,1)" in names and "swap_pillars(1,2)" in names
