"""Canonical nest representatives and nest censuses.

The physical symmetry group of each board family partitions the family
into nests (orbits). Every nest contains exactly one board of a fixed
canonical shape, identified by a two-digit label: for modular-magic
boards the pattern fixes all 27 mini-diagonal cells holding {0,3,6} and
the label reads cells (0,2) and (3,8); for semi-magic boards the
canonical board carries the standard gnomon and the label reads cells
(6,5) and (5,6). These, and every other fact that sets one variant
apart, are stated once, in the private record _VARIANTS.

One group scan finds the image of a board that holds a given cell
pattern and checks that it is unique. Each element of a physical group
is transpose^e after a row move a and a column move b from one line
group R, and maps the board B to B'[a[r], b[c]], B' being B or its
transpose. A pattern touching all nine columns forces b from (e, a), so
the scan tries only the 2·|R| candidates (e, a), yet finds every element
that holds the pattern. Over H_MM (96 candidates) with the mini-diagonal
pattern, and over H_Γ (864) with the standard gnomon, it is the oracle
for the labels.

Both variants label a board by a table lookup of a block code. One code
function per variant reads the nine block columns of catalog indices:
numpy views for an (n, 9) join chunk, which the census counts, or Python
ints for one board, which canonicalize reads through the variant
predicate's reader. The modular-magic code is the multiset of block
classes (center and off-diagonal pair), which physical symmetries keep:
one code per nest. The semi-magic code is the mini-line family of block
0 and the cyclic step between neighbouring blocks of each band and
pillar: eight codes per nest. One walk from the representatives under
the nest-defining generators builds each table, with no scan.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from . import catalog
from .boards import Board, _Catalog, _line_sets, _mm_weights, _variant_blocks, is_semi_magic
from .catalog import NamedGenerator, PhysicalGroup, _physical_group
from .enumeration import (
    STANDARD_GNOMON_BLOCKS,
    _complete,
    _join_tables,
    _map_partitions,
    _mm_join,
    _sm_join,
    modular_magic_blocks,
    semi_magic_blocks,
    standard_gnomon_cells,
)
from .errors import DomainError, IntegrityError
from .perms import PermGroup, act

__all__ = [
    "MM",
    "SM",
    "NestLabel",
    "Census",
    "normalize_variant",
    "canonicalize",
    "canonicalize_mm",
    "canonicalize_sm",
    "canonicalize_sm_by_scan",
    "crosscheck_sm",
    "representative",
    "census",
    "mm_labels",
    "sm_labels",
]

MM = "MM"
SM = "SM"

def normalize_variant(variant: str) -> str:
    v = _VARIANT_ALIASES.get(str(variant).lower())
    if v is None:
        raise DomainError(f"unknown variant {variant!r}")
    return v


@dataclass(frozen=True, order=True)
class NestLabel:
    """Identifier of a nest: variant plus the two label digits."""

    variant: str
    first: int
    second: int

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise DomainError(f"bad variant {self.variant!r}")
        if not (0 <= self.first <= 8 and 0 <= self.second <= 8):
            raise DomainError(f"bad label digits ({self.first},{self.second})")

    def __str__(self) -> str:
        return f"[{self.first},{self.second}]"


@dataclass(frozen=True)
class Census:
    """Per-nest board counts for one variant."""

    variant: str
    counts: Mapping[NestLabel, int]
    total: int


# --- modular-magic canonical pattern ---


# The 27 (cell, digit) pairs of the canonical mini-diagonals: block
# (I,J) holds (3*((I+J)%3) + 3t) mod 9 at diagonal slot t.
_MM_TEMPLATE = tuple(sorted((9 * (3 * I + t) + 3 * J + t, (3 * ((I + J) % 3) + 3 * t) % 9)
                            for I in range(3) for J in range(3) for t in range(3)))
# Label cells of the canonical pattern: alpha at (0,2), beta at (2,0),
# gamma at (3,8) and repeated at (6,5).
_MM_ALPHA, _MM_BETA, _MM_GAMMA1, _MM_GAMMA2 = 2, 18, 35, 59
_SM_A, _SM_B = 9 * 6 + 5, 9 * 5 + 6
_SM_GNOMON_CELLS = tuple(standard_gnomon_cells())


# Entry 81e + 9r + k of a flattened (board, transpose) pair is row r of
# the board (e = 0) or its transpose (e = 1) at column k.
_ROW_START, _COLUMN = np.arange(162) // 9 * 9, np.arange(162) % 9
_BASE9 = 9 ** np.arange(8, -1, -1)  # most significant first


@cache
def _scan_tables(group: PhysicalGroup, pattern: tuple[tuple[int, int], ...]):
    """For the 2·|R| candidates (e, a): row starts 81e + 9a[r] in a (board,
    transpose) pair; column-of-digit entries of each column's first pattern
    cell, which force b, and of the other cells, which must agree with b;
    those cells' columns; R's sorted base-9 codes."""
    lines = group._lines.astype(np.intp)
    rows = 81 * np.repeat([0, 1], len(lines))[:, None] + 9 * np.tile(lines, (2, 1))
    cell, digit = np.array(pattern, dtype=np.intp).reshape(-1, 2).T
    r, c = np.divmod(cell, 9)
    columns, first = np.unique(c, return_index=True)
    if len(columns) < 9:
        raise DomainError("pattern leaves a column unforced")
    rest = np.setdiff1d(np.arange(len(c)), first)
    entries = rows[:, r] + digit
    return rows, entries[:, first], entries[:, rest], c[rest], np.sort(lines @ _BASE9)


def _scan(
    group: PhysicalGroup,
    pattern: tuple[tuple[int, int], ...],
    cells: bytes,
    ties: Callable[[np.ndarray], np.ndarray] | None = None,
) -> bytes:
    """The one image of the board under the group that holds every
    (cell, digit) pair of the pattern and, given ties, passes its row
    mask over the (n, 81) matching images. Raises IntegrityError unless
    such images exist and are all equal.

    Each image is B'[a[r], b[c]], B' the board or its transpose and a, b
    in R. Rows are permutations, so a pattern cell (r, c, d) forces b[c]
    to the column of d in row a[r] of B'. Each candidate (e, a) holds
    the pattern exactly when its other cells agree and b is in R, so no
    element that holds it is skipped."""
    rows, force, agree, agree_cols, codes = _scan_tables(group, pattern)
    arr = np.frombuffer(cells, dtype=np.uint8).reshape(9, 9)
    both = np.concatenate((arr, arr.T)).ravel()
    column = np.zeros(162, dtype=np.uint8)
    column[_ROW_START + both] = _COLUMN
    if (both[_ROW_START + column] != _COLUMN).any():
        raise DomainError("board rows and columns must be permutations of the digits")
    b = column[force]
    idx = np.flatnonzero((column[agree] == b[:, agree_cols]).all(axis=1))
    code = b[idx] @ _BASE9
    idx = idx[codes.take(np.searchsorted(codes, code), mode="clip") == code]
    images = both[rows[idx, :, None] + b[idx, None, :]].reshape(-1, 81)
    if ties is not None:
        images = images[ties(images)]
    if not len(images) or (images != images[0]).any():
        distinct = len(np.unique(images, axis=0))
        raise IntegrityError(f"{distinct} distinct pattern images in one orbit")
    return images[0].tobytes()


def _mm_ties(images: np.ndarray) -> np.ndarray:
    """Which images carry a label: alpha below beta, gamma repeated."""
    return (images[:, _MM_ALPHA] < images[:, _MM_BETA]) & (
        images[:, _MM_GAMMA1] == images[:, _MM_GAMMA2]
    )


def canonicalize_sm_by_scan(board: Board) -> tuple[NestLabel, Board]:
    """Reference canonicalization by the exhaustive scan of the 373,248
    physical symmetries, independent of the label table it checks."""
    if not is_semi_magic(board):
        raise DomainError("board is not semi-magic")
    return _sm_scanned(board)


def _sm_scanned(board: Board) -> tuple[NestLabel, Board]:
    """canonicalize_sm_by_scan of a board known to be semi-magic."""
    canon = _scan(_physical_group(_VARIANTS[SM].nest_generators), _SM_GNOMON_CELLS, board.cells)
    return NestLabel(SM, canon[_SM_A], canon[_SM_B]), Board._wrap(canon)


def crosscheck_sm(board: Board) -> tuple[NestLabel, Board]:
    """canonicalize_sm, verified against the scan oracle."""
    label, canon = canonicalize_sm(board)
    scan_label, scan_canon = _sm_scanned(board)  # checked semi-magic above
    if label != scan_label or canon != scan_canon:
        raise IntegrityError(
            f"label table gave {label}, scan oracle gave {scan_label}"
        )
    return label, canon


def canonicalize(variant: str, board: Board) -> tuple[NestLabel, Board]:
    """Canonical form of a board under the variant's physical group: the
    census's label of its nine catalog blocks, and that nest's
    representative. Raises DomainError unless the board is of the variant."""
    v = normalize_variant(variant)
    nest = _nests(v).get(int(_VARIANTS[v].code(_board_blocks(v, board.cells))))
    if nest is None:
        raise IntegrityError(f"block codes match no {v} nest")
    return nest


def canonicalize_mm(board: Board) -> tuple[NestLabel, Board]:
    """Canonical form of a modular-magic board under the physical group."""
    return canonicalize(MM, board)


def canonicalize_sm(board: Board) -> tuple[NestLabel, Board]:
    """Canonical form of a semi-magic board under the physical group."""
    return canonicalize(SM, board)


def _board_blocks(variant: str, cells: bytes) -> tuple[int, ...]:
    """The catalog indices of a board's nine blocks. Raises DomainError
    unless the board is of the variant."""
    found = _variant_blocks(_VARIANTS[variant].catalog, cells)
    if found is None:
        raise DomainError(f"board is not {_VARIANTS[variant].name}")
    return found


# --- representatives and label alphabets ---


@cache
def _representatives(variant: str) -> dict[NestLabel, Board]:
    """Each nest's label and canonical board, in label order: the boards
    completing the variant's pattern that pass its tie-break, one per nest."""
    spec = _VARIANTS[variant]
    boards = _complete(spec.catalog, dict(spec.pattern))
    if spec.ties is not None:
        cells = np.frombuffer(b"".join(b.cells for b in boards), dtype=np.uint8)
        boards = [b for b, ok in zip(boards, spec.ties(cells.reshape(-1, 81))) if ok]
    first, second = spec.label_cells
    reps = {NestLabel(variant, b[first], b[second]): b for b in boards}
    if len(boards) != spec.nest_count or len(reps) != spec.nest_count:
        raise IntegrityError(f"{len(boards)} canonical {variant} boards with {len(reps)} "
                             f"labels, expected {spec.nest_count}")
    return dict(sorted(reps.items()))


def mm_labels() -> tuple[NestLabel, ...]:
    """The nine modular-magic nest labels, sorted."""
    return labels(MM)


def sm_labels() -> tuple[NestLabel, ...]:
    """The sixteen semi-magic nest labels, sorted."""
    return labels(SM)


def labels(variant: str) -> tuple[NestLabel, ...]:
    return tuple(_representatives(normalize_variant(variant)))


def representative(label: NestLabel) -> Board:
    """The canonical board of the given nest."""
    board = _representatives(label.variant).get(label)
    if board is None:
        raise DomainError(f"no {label.variant} nest {label}")
    return board


# --- labels and censuses ---


def _indexable(tables, columns):
    """The 64-bit int tables and block columns as given for one board's
    nine ints; int64 views of the tables and intp columns for a chunk's."""
    if isinstance(columns, np.ndarray):
        return [np.frombuffer(table, np.int64) for table in tables], columns.astype(np.intp)
    return tables, columns


def _mm_code(columns):
    """The class weight sum of block columns of modular-magic catalog
    indices: physical symmetries move, transpose or rotate blocks, keeping classes."""
    (weight,), columns = _indexable((_mm_weights(),), columns)
    return sum(map(weight.__getitem__, columns))


# The block whose mini-rows, in order, are the first family of
# semi-magic mini-line digit sets and whose mini-columns are the second:
# the standard gnomon's top-left block. Every semi-magic block has its
# mini-rows in one family and its mini-columns in the other.
_SM_FAMILIES = STANDARD_GNOMON_BLOCKS[(0, 0)]


@cache
def _sm_code_tables() -> tuple[array, array, array]:
    """Per semi-magic catalog block, whether its mini-rows are in the
    column family; at 72 a + b for blocks a and b, the step
    (p[b] - p[a]) % 3, p being the position of a block's first mini-row
    in its family; and the same step on the first mini-columns. A
    mini-line's digit set is its 9 bits in _line_sets."""
    family, position = np.zeros(512, dtype=np.intp), np.zeros(512, dtype=np.intp)
    # Row f, column k: mini-line k of the family block's rows (f = 0) or columns (f = 1).
    lines = np.array(_line_sets(np.array([_SM_FAMILIES]))) >> 9 * np.arange(3) & 511
    family[lines], position[lines] = np.arange(2)[:, None], np.arange(3)
    blocks = _join_tables(semi_magic_blocks)[0].reshape(-1, 3, 3)
    row0, col0 = (sets & 511 for sets in _line_sets(blocks))

    def step(p: np.ndarray) -> array:
        return array("q", ((p[None, :] - p[:, None]) % 3).ravel().tolist())

    return array("q", family[row0].tolist()), step(position[row0]), step(position[col0])


def _sm_code(c):
    """729 t + sum of 3**I k_I + sum of 3**(3+J) m_J of block columns c of
    semi-magic catalog indices: t whether block 0's mini-rows are in the
    column family, k_I the row step from block 3I to 3I+1 and m_J the
    column step from block J to 3+J. On a board each step is 1 or 2, the
    same along every row of the band or column of the pillar."""
    (flip, row, col), c = _indexable(_sm_code_tables(), c)
    return (729 * flip[c[0]] + row[72 * c[0] + c[1]] + 3 * row[72 * c[3] + c[4]]
            + 9 * row[72 * c[6] + c[7]] + 27 * col[72 * c[0] + c[3]]
            + 81 * col[72 * c[1] + c[4]] + 243 * col[72 * c[2] + c[5]])


@cache
def _label_table(variant: str) -> np.ndarray:
    """The int8 table from the variant's block code to 9 * first + second
    of the nest label: -1 for a code of no nest, and one -1 past the last
    code for take(mode="clip") to read every larger code as no nest.
    Walked from each nest's representative under the variant's physical
    generators, with one witness board per code, until no new code
    appears. Raises IntegrityError if two nests reach one code."""
    code_fn = _VARIANTS[variant].code
    symmetries = [gen.symmetry for gen in _VARIANTS[variant].nest_generators()]
    nest_of: dict[int, NestLabel] = {}
    for label in labels(variant):
        todo = [representative(label)]
        while todo:
            board = todo.pop()
            code = int(code_fn(_board_blocks(variant, board.cells)))
            if code not in nest_of:
                nest_of[code] = label
                todo += [act(s, board) for s in symmetries]
            elif nest_of[code] != label:
                raise IntegrityError(f"nests {nest_of[code]} and {label} reach one block code")
    table = np.full(max(nest_of) + 2, -1, dtype=np.int8)
    table[list(nest_of)] = [9 * label.first + label.second for label in nest_of.values()]
    return table


@cache
def _nests(variant: str) -> dict[int, tuple[NestLabel, Board]]:
    """Each block code of the variant's label table to its nest's label and representative."""
    nest = {9 * l.first + l.second: (l, b) for l, b in _representatives(variant).items()}
    table = _label_table(variant)
    return {int(code): nest[table[code]] for code in np.flatnonzero(table >= 0)}


def _label_codes(variant: str, columns):
    """9 * first + second of the nest labels of nine block columns of the
    variant's catalog indices: nine ints for one board, or idx.T of a chunk."""
    codes = _label_table(variant).take(_VARIANTS[variant].code(columns), mode="clip")
    if np.count_nonzero(codes < 0):
        raise IntegrityError(f"block codes match no {variant} nest")
    return codes


class _Variant(NamedTuple):
    """Each fact that sets one variant apart, stated once and read by name.
    A nest graph adds nest_extension to the nest-defining generators to
    reach the full physical group."""

    name: str
    catalog: _Catalog
    pattern: tuple[tuple[int, int], ...]  # canonical (cell, digit) pairs
    label_cells: tuple[int, int]
    ties: Callable[[np.ndarray], np.ndarray] | None  # tie-break among the pattern's boards
    nest_count: int
    join: Callable[[tuple[int, int] | None], Iterator[np.ndarray]]
    code: Callable  # block code of nine block columns
    nest_generators: Callable[[], list[NamedGenerator]]
    physical: Callable[[], list[NamedGenerator]]
    nest_extension: tuple[NamedGenerator, ...]
    relabelings: Callable[[], PermGroup]


_VARIANTS = {
    MM: _Variant(
        name="modular-magic", catalog=modular_magic_blocks, pattern=_MM_TEMPLATE,
        label_cells=(_MM_ALPHA, _MM_GAMMA1), ties=_mm_ties, nest_count=9, join=_mm_join,
        code=_mm_code, nest_generators=catalog.h_mm_generators,
        physical=catalog.h_mm_generators, nest_extension=(), relabelings=catalog.s_mm_elements),
    SM: _Variant(
        name="semi-magic", catalog=semi_magic_blocks, pattern=_SM_GNOMON_CELLS,
        label_cells=(_SM_A, _SM_B), ties=None, nest_count=16, join=_sm_join, code=_sm_code,
        nest_generators=catalog.h_gamma_generators, physical=catalog.h9_generators,
        nest_extension=(catalog.swap_bands(0, 1), catalog.swap_pillars(0, 1)),
        relabelings=catalog.s_sm_group),
}
# Each key, lower-cased, and name, with "-" or "_": one lookup per canonicalize call.
_VARIANT_ALIASES = {alias: key for key, spec in _VARIANTS.items()
                    for alias in (key.lower(), spec.name, spec.name.replace("-", "_"))}


def census(variant: str, partition: tuple[int, int] | None = None) -> Census:
    """Enumerate the variant and count boards per nest label.

    A partition restricts the underlying enumeration slice; partial
    censuses merge by adding counts. Labels come per join chunk of block
    indices, with no Board built.
    """
    v = normalize_variant(variant)
    codes = np.zeros(81, dtype=int)
    for idx in _VARIANTS[v].join(partition):
        codes += np.bincount(_label_codes(v, idx.T), minlength=81)
    mapping = {NestLabel(v, *divmod(code, 9)): int(n) for code, n in enumerate(codes) if n}
    return Census(v, mapping, sum(mapping.values()))


def _threaded_census(variant: str, threads: int) -> Census:
    """census(variant), computed in threads partition slices and merged;
    counts stay in label order."""
    v = normalize_variant(variant)
    _label_table(v)  # build once, before any fork
    parts = _map_partitions(partial(census, v), threads)
    counts = sum((Counter(part.counts) for part in parts), Counter())
    return Census(v, dict(sorted(counts.items())), sum(part.total for part in parts))
