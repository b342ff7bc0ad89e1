"""Nest labels, canonicalization, representatives, and the census."""

import ast
import hashlib
import importlib
import itertools
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from magicsudoku import boards, catalog, nests
from magicsudoku import enumeration as en
from magicsudoku.boards import Board, is_modular_magic, is_semi_magic
from magicsudoku.enumeration import (
    complete_standard_gnomon,
    enumerate_modular_magic,
    random_semi_magic,
)
from magicsudoku.errors import DomainError, IntegrityError
from magicsudoku.perms import act

from oracles import oracle_is_modular_magic, oracle_is_semi_magic


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


def test_crosscheck_sm_checks_the_predicate_once(board_mm_72, board_sm_71, monkeypatch):
    # canonicalize's one read of the board's blocks is its domain check;
    # the scan behind crosscheck_sm reads nothing more.
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(nests, "is_semi_magic", counted(is_semi_magic))
    monkeypatch.setattr(nests, "_board_blocks", counted(nests._board_blocks))
    assert nests.crosscheck_sm(board_sm_71) == nests.canonicalize_sm(board_sm_71)
    assert calls == ["_board_blocks"] * 2
    for fn in (nests.canonicalize_sm, nests.canonicalize_sm_by_scan, nests.crosscheck_sm):
        with pytest.raises(DomainError):
            fn(board_mm_72)


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
        want = nests._scan(group, nests._MM_TEMPLATE, board.cells, nests._mm_ties)
        assert nests._scan(group, reversed_template, board.cells, nests._mm_ties) == want


def test_mm_label_codes_equal_the_scan_oracle():
    # On every modular-magic board, the weight-sum label is the label of
    # the one image the H_MM scan finds, and that image is the nest's
    # representative.
    group = catalog.PhysicalGroup(catalog.h_mm_generators())
    reps = {9 * l.first + l.second: nests.representative(l).cells for l in nests.mm_labels()}
    total = 0
    for idx in en._mm_join():
        boards = en._boards(en.modular_magic_blocks, [idx])
        canon = [nests._scan(group, nests._MM_TEMPLATE, b.cells, nests._mm_ties) for b in boards]
        want = [9 * c[nests._MM_ALPHA] + c[nests._MM_GAMMA1] for c in canon]
        assert nests._label_codes("MM", idx.T).tolist() == want
        assert [reps[code] for code in want] == canon
        total += len(idx)
    assert total == 32_256


def _block_indices(catalog_fn, cells):
    """The (1, 9) catalog indices of a board's blocks, by base-9 code."""
    cat = en._join_tables(catalog_fn)[0]
    blocks = np.frombuffer(cells, dtype=np.uint8).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)
    return np.searchsorted(cat @ nests._BASE9, blocks.reshape(1, 9, 9) @ nests._BASE9)


def _reference_canonicalize(variant, board):
    """canonicalize as it was before the catalog-index lookup: the
    variant predicate, then the block indices by base-9 code."""
    if not (is_modular_magic if variant == "MM" else is_semi_magic)(board):
        raise DomainError(f"board is not {'modular-magic' if variant == 'MM' else 'semi-magic'}")
    catalog_fn = nests._VARIANTS[variant].catalog
    code = int(nests._label_codes(variant, _block_indices(catalog_fn, board.cells).T)[0])
    label = nests.NestLabel(variant, *divmod(code, 9))
    return label, nests.representative(label)


def test_canonicalize_equals_the_block_indices_path(mm_sample):
    rng = random.Random(2024)
    cases = [("MM", board) for board in mm_sample]
    cases += [("SM", random_semi_magic(rng)) for _ in range(2000)]
    for variant, board in cases:
        assert nests.canonicalize(variant, board) == _reference_canonicalize(variant, board)


@pytest.mark.parametrize(
    "variant, partitions", [("MM", [None]), ("SM", [(17, 72), (68, 72)])], ids=["MM", "SM"]
)
def test_canonicalize_equals_the_batch_labels(variant, partitions):
    # Every modular-magic board, and every board of a semi-magic slice
    # whose top-left block is read directly (17) and of one it is
    # transposed in (68): one board through canonicalize gives the label
    # the census gives its chunk.
    catalog_fn, join = nests._VARIANTS[variant].catalog, nests._VARIANTS[variant].join
    nest = {9 * l.first + l.second: (l, nests.representative(l)) for l in nests.labels(variant)}
    total = 0
    for partition in partitions:
        for idx in join(partition):
            want = [nest[code] for code in nests._label_codes(variant, idx.T).tolist()]
            boards = en._boards(catalog_fn, [idx])
            assert [nests.canonicalize(variant, board) for board in boards] == want
            total += len(idx)
    assert total == (32_256 if variant == "MM" else 2 * 82_944)


@pytest.mark.parametrize("variant", ["MM", "SM"])
def test_board_blocks_accepts_exactly_the_boards_of_the_variant(variant):
    # Against the oracle predicate: seeded random 9-tuples of catalog
    # indices, and real boards with each block swapped for every catalog
    # block in turn, which breaks one band or pillar at a time.
    catalog_fn, join = nests._VARIANTS[variant].catalog, nests._VARIANTS[variant].join
    predicate = oracle_is_modular_magic if variant == "MM" else oracle_is_semi_magic
    rng = np.random.default_rng(15)
    real = np.concatenate([next(join((w, 9)))[[0, -1]] for w in (1, 5)])
    swapped = np.repeat(real, 9 * 72, axis=0).reshape(len(real), 9, 72, 9)
    for p in range(9):
        swapped[:, p, :, p] = np.arange(72)
    tuples = np.concatenate([rng.integers(0, 72, (2000, 9)), swapped.reshape(-1, 9)])
    accepted = 0
    for row, board in zip(tuples.tolist(), en._boards(catalog_fn, [tuples.astype(np.uint8)])):
        try:
            got = nests._board_blocks(variant, board.cells)
        except DomainError:
            got = None
        assert (got is not None) == predicate(board)
        assert got in (None, tuple(row))
        accepted += got is not None
    assert accepted == len(real) * 9  # each real board, once per position


def test_canonicalize_keeps_its_domain_errors(board_mm_72, board_sm_71):
    # A Sudoku board of the other variant, and one that is no Sudoku board.
    zeros = Board(bytes(81))
    for board in (board_sm_71, zeros):
        with pytest.raises(DomainError, match="^board is not modular-magic$"):
            nests.canonicalize("MM", board)
    for board in (board_mm_72, zeros):
        with pytest.raises(DomainError, match="^board is not semi-magic$"):
            nests.canonicalize("SM", board)


def test_h_mm_generators_keep_each_representatives_weight_sum():
    weight = np.array(nests._mm_weights())

    def weight_sum(board):
        return int(weight[_block_indices(en.modular_magic_blocks, board.cells)].sum())

    for label in nests.mm_labels():
        rep = nests.representative(label)
        for gen in catalog.h_mm_generators():
            moved = act(gen.symmetry, rep)
            assert is_modular_magic(moved)
            assert weight_sum(moved) == weight_sum(rep)


@pytest.mark.parametrize("variant, per_nest", [("MM", 1), ("SM", 8)])
def test_label_table_walks_every_code(variant, per_nest):
    table = nests._label_table(variant)
    assert table.dtype == np.int8 and table[-1] == -1
    codes = Counter(table[table >= 0].tolist())
    assert codes == {9 * label.first + label.second: per_nest for label in nests.labels(variant)}


def test_one_board_codes_are_python_ints_equal_to_the_chunk_codes():
    # Every board of one modular-magic slice and 300 semi-magic boards:
    # the code of the nine catalog indices canonicalize reads is a Python
    # int, the value the census's chunk path gives the same board.
    rng = random.Random(12)
    chunks = {"MM": list(en._mm_join((1, 81))),
              "SM": [np.array([nests._board_blocks("SM", random_semi_magic(rng).cells)
                               for _ in range(300)], dtype=np.uint8)]}
    for variant, chunk_list in chunks.items():
        catalog_fn, code_fn = nests._VARIANTS[variant].catalog, nests._VARIANTS[variant].code
        checked = 0
        for idx in chunk_list:
            want = code_fn(idx.T).tolist()
            for board, code in zip(en._boards(catalog_fn, [idx]), want):
                got = code_fn(nests._board_blocks(variant, board.cells))
                assert type(got) is int and got == code
                checked += 1
        assert checked == (896 if variant == "MM" else 300)


@pytest.mark.parametrize("variant", ["MM", "SM"])
def test_label_codes_reject_codes_of_no_nest(variant, monkeypatch):
    # Nine copies of block 0: for MM one class nine times, which no board
    # holds; for SM step 0 in every band and pillar, which no nest reaches.
    with pytest.raises(IntegrityError, match=f"no {variant} nest"):
        nests._label_codes(variant, np.zeros((1, 9), dtype=np.uint8).T)
    # canonicalize looks the code up in its own map: code 0, the code of
    # those nine blocks, fails there with the same error.
    board = nests.representative(nests.labels(variant)[0])
    nests._nests(variant)  # built with the true code function
    _constant_code(variant, monkeypatch)
    with pytest.raises(IntegrityError, match=f"^block codes match no {variant} nest$"):
        nests.canonicalize(variant, board)


def _constant_code(variant, monkeypatch):
    def constant(columns):
        return 0 * columns[0]

    spec = nests._VARIANTS[variant]
    monkeypatch.setitem(nests._VARIANTS, variant, spec._replace(code=constant))


def _one_off_diagonal_pair(variant, monkeypatch):
    # With one off-diagonal pair for every block, a class is a center
    # alone, and every board has three blocks of each center.
    classes = tuple((center, 1, 8) for center, *_ in boards._mm_classes())
    monkeypatch.setattr(boards, "_mm_classes", lambda: classes)
    monkeypatch.setattr(nests, "_mm_weights", boards._mm_weights.__wrapped__)  # not the cache


@pytest.mark.parametrize(
    "variant, mutate",
    [("MM", _constant_code), ("SM", _constant_code), ("MM", _one_off_diagonal_pair)],
    ids=["MM-constant", "SM-constant", "MM-one-off-diagonal-pair"],
)
def test_label_table_rejects_nests_sharing_a_code(variant, mutate, monkeypatch):
    mutate(variant, monkeypatch)
    with pytest.raises(IntegrityError, match="reach one block code"):
        nests._label_table.__wrapped__(variant)


# The names of the scan oracle, which crosscheck_sm checks the labels
# against, and the label functions, which must reach none of them.
_SCAN_NAMES = {"_scan", "_scan_tables", "_sm_scanned", "h_gamma_group", "PhysicalGroup"}
_LABEL_PATH = ("_label_table", "_label_codes", "_mm_code", "_sm_code", "_indexable",
               "_sm_code_tables", "_board_blocks")


def _module_scope(name):
    """A package module's module-level names: the def or assignment that
    binds each, and the (module, name) that each package import names."""
    tree = ast.parse(Path(importlib.import_module(f"magicsudoku.{name}").__file__).read_text())
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            defs.update((name, node) for name in bound)
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("magicsudoku.")
            if node.level or module != node.module:
                imports.update((a.asname or a.name, (module, a.name)) for a in node.names)
    return defs, imports


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_label_path_names_no_scan():
    # Follow the label functions through every module-level name they
    # use, in nests and in the package modules it imports them from.
    scopes, reached, todo = {}, set(), [("nests", name) for name in _LABEL_PATH]
    while todo:
        module, name = todo.pop()
        if module not in scopes:
            scopes[module] = _module_scope(module)
        defs, imports = scopes[module]
        if name in imports:
            todo.append(imports[name])
        elif name in defs and (module, name) not in reached:
            reached.add((module, name))
            todo += [(module, n) for n in _names(defs[name])]
    assert {("nests", name) for name in _LABEL_PATH} <= reached
    assert {("boards", "_mm_weights"), ("boards", "_variant_blocks")} <= reached
    used = set().union(*(_names(scopes[m][0][name]) for m, name in reached))
    assert not used & _SCAN_NAMES


def _scan_by_table(table, pattern, cells, ties=None):
    """The distinct images, over every element of a materialized group,
    that hold the pattern and pass the ties. table holds the group's
    cell images cell-major (row k: cell k's image under each element),
    so each image is read under an inverse element: over a whole group,
    the same set."""
    arr = np.frombuffer(cells, dtype=np.uint8)
    pos, val = map(list, zip(*pattern))
    keep = (arr[table[pos]] == np.array(val)[:, None]).all(axis=0)
    images = arr[table[:, keep].T]
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
        table = np.ascontiguousarray(materialized.cell_images.T)
        for board in boards:
            (want,) = _scan_by_table(table, pattern, board.cells, ties)
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


# --- the scalar reduction, kept as the reference for the table-lookup label ---

# Digit-set bitmasks of the two families of mini-lines. In the standard
# gnomon's top-left block the rows are {0,4,8},{5,6,1},{7,2,3} (in that
# order) and the columns are {0,5,7},{4,6,2},{8,1,3}.
_ROW_FAMILY = {0b100010001: 0, 0b001100010: 1, 0b010001100: 2}
_COL_FAMILY_MASKS = frozenset((0b010100001, 0b001010100, 0b100001010))
_POS_048 = {0: 0, 4: 1, 8: 2}
_POS_723 = {7: 0, 2: 1, 3: 2}
_POS_561 = {5: 0, 6: 1, 1: 2}
_MASK_723 = 0b010001100
_MASK_813 = 0b100001010
_TRANSPOSE_IDX = tuple(9 * (i % 9) + i // 9 for i in range(81))


def _sm_reduce(cells: bytes) -> tuple[bytes, list[int], list[int]]:
    """Forced-step reduction to the standard gnomon.

    Returns (base, rowperm, colperm) with the canonical board given by
    canonical[9R+C] = base[9*rowperm[R]+colperm[C]]; base is the input
    or its transpose. Every step is forced, so no tie-breaking arises.
    """
    m = (1 << cells[0]) | (1 << cells[1]) | (1 << cells[2])
    if m not in _ROW_FAMILY:
        if m not in _COL_FAMILY_MASKS:
            raise IntegrityError("block rows outside both mini-line families")
        cells = bytes(map(cells.__getitem__, _TRANSPOSE_IDX))
    try:
        rowperm = [0] * 9
        colperm = [0] * 9
        for r in range(3):
            m = (1 << cells[9 * r]) | (1 << cells[9 * r + 1]) | (1 << cells[9 * r + 2])
            rowperm[_ROW_FAMILY[m]] = r
        base = 9 * rowperm[0]
        for c in range(3):
            colperm[_POS_048[cells[base + c]]] = c
        m = (1 << cells[base + 3]) | (1 << cells[base + 4]) | (1 << cells[base + 5])
        p1, p2 = (1, 2) if m == _MASK_723 else (2, 1)
        for k in range(3):
            colperm[3 + _POS_723[cells[base + 3 * p1 + k]]] = 3 * p1 + k
            colperm[6 + _POS_561[cells[base + 3 * p2 + k]]] = 3 * p2 + k
        cc0 = colperm[0]
        m = (1 << cells[27 + cc0]) | (1 << cells[36 + cc0]) | (1 << cells[45 + cc0])
        b1, b2 = (1, 2) if m == _MASK_813 else (2, 1)
        for r in range(3 * b1, 3 * b1 + 3):
            m = (1 << cells[9 * r]) | (1 << cells[9 * r + 1]) | (1 << cells[9 * r + 2])
            rowperm[3 + _ROW_FAMILY[m]] = r
        for r in range(3 * b2, 3 * b2 + 3):
            m = (1 << cells[9 * r]) | (1 << cells[9 * r + 1]) | (1 << cells[9 * r + 2])
            rowperm[6 + _ROW_FAMILY[m]] = r
    except KeyError as exc:
        raise IntegrityError("mini-line families inconsistent") from exc
    return cells, rowperm, colperm


def _sm_label(cells: bytes) -> tuple[int, int]:
    base, rowperm, colperm = _sm_reduce(cells)
    return base[9 * rowperm[6] + colperm[5]], base[9 * rowperm[5] + colperm[6]]


def _index_rows_and_boards(idx):
    return idx, list(en._boards(en.semi_magic_blocks, [idx]))


@pytest.mark.parametrize("top_left", [17, 68])  # reduced directly; transposed first
def test_batch_sm_label_equals_scalar(top_left):
    assert nests._sm_code_tables()[0][top_left] == (top_left == 68)  # flip
    for idx, boards in map(_index_rows_and_boards, en._sm_join((top_left, 72))):
        want = [9 * a + b for a, b in (_sm_label(board.cells) for board in boards)]
        assert nests._label_codes("SM", idx.T).tolist() == want


def test_canonicalize_sm_equals_the_reference_reduction():
    sampled = []
    for top_left in (17, 68):
        boards = en._boards(en.semi_magic_blocks, en._sm_join((top_left, 72)))
        sampled += itertools.islice(boards, 0, None, 50)
    rng = random.Random(7)
    drawn = [random_semi_magic(rng) for _ in range(2000)]
    boards = sampled + drawn + [nests.representative(label) for label in nests.sm_labels()]
    assert len(sampled) == 2 * 1659
    for board in boards:
        base, rowperm, colperm = _sm_reduce(board.cells)
        canon = bytes(base[9 * rowperm[R] + colperm[C]] for R in range(9) for C in range(9))
        label, got = nests.canonicalize_sm(board)
        assert (label.first, label.second) == _sm_label(board.cells)
        assert got.cells == canon


@pytest.mark.parametrize(
    "variant, partition", [("MM", (1, 81)), ("SM", (17, 72))], ids=["MM", "SM"]
)
def test_census_builds_no_board(variant, partition, monkeypatch):
    # (1, 81) is the MM slice of boards starting 0, 1; (0, 81) is empty.
    def built(*args):
        raise AssertionError("census built a Board")

    nests._label_table(variant)  # the table's walk builds Boards; the census must not
    monkeypatch.setattr(Board, "_wrap", built)
    result = nests.census(variant, partition)
    assert result.total == (896 if variant == "MM" else 82_944)
