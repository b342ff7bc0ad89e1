"""Canonical nest representatives and nest censuses.

The physical symmetry group of each board family partitions the family
into nests (orbits). Every nest contains exactly one board of a fixed
canonical shape, identified by a two-digit label: for modular-magic
boards the pattern fixes all 27 mini-diagonal cells holding {0,3,6} and
the label reads cells (0,2) and (3,8); for semi-magic boards the
canonical board carries the standard gnomon and the label reads cells
(6,5) and (5,6).

One group scan finds the image of a board that holds a given cell
pattern and checks that it is unique. It tests every group element:
cell by cell in pattern order while many remain, then the remaining
pattern cells of the survivors in one gather. Over the 4608-element
physical group of modular-magic boards, with the mini-diagonal pattern
ordered to narrow fastest, it is the modular-magic canonicalization.
Over the 373,248-element physical group of semi-magic boards, with the
standard gnomon, it is the reference oracle that cross-validates the
constructive semi-magic reduction.

The semi-magic census runs that reduction in batch: it labels the
join's (n, 9) chunks of block indices through per-block lookup tables
and counts labels with np.bincount, building no Board.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Mapping

import numpy as np

from .boards import Board, is_modular_magic, is_semi_magic
from .catalog import h_gamma_group, h_mm_group
from .enumeration import (
    _join_tables,
    _map_partitions,
    _sm_join,
    complete_modular_magic,
    complete_standard_gnomon,
    enumerate_modular_magic,
    semi_magic_blocks,
    standard_gnomon_cells,
)
from .errors import DomainError, IntegrityError
from .perms import PermGroup

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

_VARIANT_ALIASES = {
    "mm": MM,
    "modular-magic": MM,
    "modular_magic": MM,
    "sm": SM,
    "semi-magic": SM,
    "semi_magic": SM,
}


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
        if self.variant not in (MM, SM):
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
# (I,J) holds (3*((I+J)%3) + 3t) mod 9 at diagonal slot t. _scan
# narrows the group in pattern order, so the pairs at cells (0,0),
# (2,8), (5,5) and (6,0) come first: they cut H_MM fastest, 4608 ->
# 768 -> 96 -> 12 -> 6 images.
_MM_TEMPLATE = tuple(sorted(
    ((9 * (3 * I + t) + 3 * J + t, (3 * ((I + J) % 3) + 3 * t) % 9)
     for I in range(3) for J in range(3) for t in range(3)),
    key=lambda pair: pair[0] not in (0, 26, 50, 54),
))
# Label cells of the canonical pattern: alpha at (0,2), beta at (2,0),
# gamma at (3,8) and repeated at (6,5).
_MM_ALPHA, _MM_BETA, _MM_GAMMA1, _MM_GAMMA2 = 2, 18, 35, 59
_SM_A, _SM_B = 9 * 6 + 5, 9 * 5 + 6
# _scan narrows cell by cell while more images remain; below that, one
# gather of the rest of the pattern costs less than further steps.
_NARROW_TO = 64


def _scan(
    group: PermGroup,
    pattern: tuple[tuple[int, int], ...],
    cells: bytes,
    ties: Callable[[np.ndarray], np.ndarray] | None = None,
) -> bytes:
    """The one image of the board under the group that holds every
    (cell, digit) pair of the pattern and, given ties, passes its row
    mask over the (n, 81) matching images. Raises IntegrityError unless
    such images exist and are all equal. Every element is tested: cell
    by cell in pattern order while more than _NARROW_TO remain, then the
    rest of the pattern in one gather."""
    inv = group.inverse_cell_images.T
    arr = np.frombuffer(cells, dtype=np.uint8)
    idx, k = np.arange(group.order), 0
    while k < len(pattern) and len(idx) > _NARROW_TO:
        pos, val = pattern[k]
        # The first cell reads its contiguous row whole.
        idx = idx[arr[inv[pos] if k == 0 else inv[pos, idx]] == val]
        k += 1
    pos = np.array([p for p, _ in pattern[k:]], dtype=np.intp)
    val = np.array([v for _, v in pattern[k:]], dtype=np.uint8)
    idx = idx[(arr[inv[pos[:, None], idx]] == val[:, None]).all(axis=0)]
    images = arr[inv[:, idx]].T
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


def _mm_reduce(cells: bytes) -> tuple[int, int, bytes]:
    """Scan the physical group for the canonical image; returns (alpha,
    gamma, canonical cells)."""
    canon = _scan(h_mm_group(), _MM_TEMPLATE, cells, _mm_ties)
    return canon[_MM_ALPHA], canon[_MM_GAMMA1], canon


def canonicalize_mm(board: Board) -> tuple[NestLabel, Board]:
    """Canonical form of a modular-magic board under the physical group."""
    if not is_modular_magic(board):
        raise DomainError("board is not modular-magic")
    alpha, gamma, canon = _mm_reduce(board.cells)
    return NestLabel(MM, alpha, gamma), Board._wrap(canon)


# --- semi-magic constructive reduction ---

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
_SM_GNOMON_CELLS = tuple(standard_gnomon_cells())


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


# --- the same reduction over join chunks ---

# Block positions of the transposed board: position 3I+J holds the
# transpose of the block at 3J+I.
_TRANSPOSE_POS = [0, 3, 6, 1, 4, 7, 2, 5, 8]


@cache
def _block_tables() -> tuple[np.ndarray, ...]:
    """_sm_reduce's lookups per semi-magic catalog index: the cells, the
    transpose's index, row 0 outside the row family (transpose first)
    and in neither family, every mini-row in the row family, each
    mini-row's row family (3 if none), each row family's mini-row, each
    digit's mini-column, and which mini-columns are {8,1,3}."""
    cat = _join_tables(semi_magic_blocks)[0]
    blocks = cat.reshape(-1, 3, 3)
    bits = np.left_shift(1, blocks.astype(np.intp))
    rows, cols = bits.sum(axis=2), bits.sum(axis=1)
    lookup = np.full(512, 3)
    lookup[list(_ROW_FAMILY)] = list(_ROW_FAMILY.values())
    family = lookup[rows]
    index = {blk.tobytes(): i for i, blk in enumerate(cat)}
    partner = np.array([index[blk.T.tobytes()] for blk in blocks], dtype=np.uint8)
    flip = family[:, 0] == 3
    stray = flip & ~np.isin(rows[:, 0], list(_COL_FAMILY_MASKS))
    whole = (family < 3).all(axis=1)
    row_of = np.argsort(family, axis=1)
    return cat, partner, flip, stray, whole, family, row_of, np.argsort(cat) % 3, cols == _MASK_813


def _sm_label_codes(idx: np.ndarray) -> np.ndarray:
    """9 * first + second of _sm_label for every board of an (n, 9)
    chunk of semi-magic catalog indices, following _sm_reduce step by
    step in block coordinates; raises IntegrityError wherever it would."""
    cat, partner, flip, stray, whole, family, row_of, col_of, is_813 = _block_tables()
    base = np.where(flip[idx[:, 0], None], partner[idx[:, _TRANSPOSE_POS]], idx)
    k = np.arange(len(base))
    # rowperm[0], and the families of blocks 1 and 2 along it: p1 holds {7,2,3}.
    r0 = row_of[base[:, 0], 0]
    f1, f2 = family[base[:, 1], r0], family[base[:, 2], r0]
    p1 = np.where(f1 == 2, 1, 2)
    # colperm[0] fixes b1, the band whose pillar-0 column there is {8,1,3}.
    b1 = np.where(is_813[base[:, 3], col_of[base[:, 0], 0]], 1, 2)
    blk1, blk2 = base[k, 3 * b1], base[k, 9 - 3 * b1]
    # f1 * f2 == 2 exactly when {f1, f2} = {1, 2}.
    ok = ~stray[idx[:, 0]] & whole[base[:, 0]] & (f1 * f2 == 2) & whole[blk1] & whole[blk2]
    if not ok.all():
        raise IntegrityError("mini-line families inconsistent")
    # rowperm[6] and rowperm[5]: the {0,4,8} row of band b2 and the
    # {7,2,3} row of band b1. colperm[5] and colperm[6]: the columns of
    # digits 3 and 5 along rowperm[0], in pillars p1 and p2.
    r6, r5 = row_of[blk2, 0], row_of[blk1, 2]
    c5, c6 = col_of[base[k, p1], 3], col_of[base[k, 3 - p1], 5]
    first = cat[base[k, 9 - 3 * b1 + p1], 3 * r6 + c5]
    second = cat[base[k, 3 * b1 + 3 - p1], 3 * r5 + c6]
    return 9 * first.astype(np.intp) + second


def canonicalize_sm(board: Board) -> tuple[NestLabel, Board]:
    """Canonical form of a semi-magic board under the physical group."""
    if not is_semi_magic(board):
        raise DomainError("board is not semi-magic")
    base, rowperm, colperm = _sm_reduce(board.cells)
    canon = bytes(
        base[9 * rowperm[r] + colperm[c]] for r in range(9) for c in range(9)
    )
    for pos, val in _SM_GNOMON_CELLS:
        if canon[pos] != val:
            raise IntegrityError("reduction missed the standard gnomon")
    return NestLabel(SM, canon[_SM_A], canon[_SM_B]), Board._wrap(canon)


def canonicalize_sm_by_scan(board: Board) -> tuple[NestLabel, Board]:
    """Reference canonicalization scanning the full 373,248-element
    physical group; slow, used to cross-validate the reduction."""
    if not is_semi_magic(board):
        raise DomainError("board is not semi-magic")
    canon = _scan(h_gamma_group(), _SM_GNOMON_CELLS, board.cells)
    return NestLabel(SM, canon[_SM_A], canon[_SM_B]), Board._wrap(canon)


def crosscheck_sm(board: Board) -> tuple[NestLabel, Board]:
    """Constructive canonicalization, verified against the scan oracle."""
    label, canon = canonicalize_sm(board)
    scan_label, scan_canon = canonicalize_sm_by_scan(board)
    if label != scan_label or canon != scan_canon:
        raise IntegrityError(
            f"constructive reduction gave {label}, scan oracle gave {scan_label}"
        )
    return label, canon


def canonicalize(variant: str, board: Board) -> tuple[NestLabel, Board]:
    """Dispatch to the variant's canonicalization."""
    if normalize_variant(variant) == MM:
        return canonicalize_mm(board)
    return canonicalize_sm(board)


# --- representatives and label alphabets ---


@cache
def _mm_representatives() -> dict[tuple[int, int], Board]:
    """The boards holding the canonical pattern that pass the label
    tie-break: one per nest, nine with distinct labels."""
    boards = complete_modular_magic(dict(_MM_TEMPLATE))
    cells = np.frombuffer(b"".join(b.cells for b in boards), dtype=np.uint8)
    kept = [b for b, ok in zip(boards, _mm_ties(cells.reshape(-1, 81))) if ok]
    reps = {(b[_MM_ALPHA], b[_MM_GAMMA1]): b for b in kept}
    if len(kept) != 9 or len(reps) != 9:
        raise IntegrityError(
            f"{len(kept)} canonical modular-magic boards with {len(reps)} labels, expected 9"
        )
    return reps


@cache
def _sm_representatives() -> dict[tuple[int, int], Board]:
    reps = {(b[_SM_A], b[_SM_B]): b for b in complete_standard_gnomon()}
    if len(reps) != 16:
        raise IntegrityError(f"{len(reps)} semi-magic nest labels, expected 16")
    return reps


def mm_labels() -> tuple[NestLabel, ...]:
    """The nine modular-magic nest labels, sorted."""
    return tuple(NestLabel(MM, a, g) for a, g in sorted(_mm_representatives()))


def sm_labels() -> tuple[NestLabel, ...]:
    """The sixteen semi-magic nest labels, sorted."""
    return tuple(NestLabel(SM, a, b) for a, b in sorted(_sm_representatives()))


def labels(variant: str) -> tuple[NestLabel, ...]:
    return mm_labels() if normalize_variant(variant) == MM else sm_labels()


def representative(label: NestLabel) -> Board:
    """The canonical board of the given nest."""
    table = _mm_representatives() if label.variant == MM else _sm_representatives()
    board = table.get((label.first, label.second))
    if board is None:
        raise DomainError(f"no {label.variant} nest {label}")
    return board


# --- censuses ---


def _mm_label(cells: bytes) -> tuple[int, int]:
    return _mm_reduce(cells)[:2]


def census(variant: str, partition: tuple[int, int] | None = None) -> Census:
    """Enumerate the variant and count boards per nest label.

    A partition restricts the underlying enumeration slice; partial
    censuses merge by adding counts. Modular-magic boards are labelled
    one by one; semi-magic labels come per join chunk from
    _sm_label_codes, with no Board built.
    """
    v = normalize_variant(variant)
    if v == MM:
        boards: list[Board] = []
        enumerate_modular_magic(boards.append, partition)
        counts = Counter(_mm_label(board.cells) for board in boards)
    else:
        codes = np.zeros(81, dtype=int)
        for idx in _sm_join(partition):
            codes += np.bincount(_sm_label_codes(idx), minlength=81)
        counts = {divmod(code, 9): int(n) for code, n in enumerate(codes) if n}
    mapping = {NestLabel(v, a, b): n for (a, b), n in sorted(counts.items())}
    return Census(v, mapping, sum(mapping.values()))


def _threaded_census(variant: str, threads: int) -> Census:
    """census(variant), computed in threads partition slices and merged;
    counts stay in label order."""
    v = normalize_variant(variant)
    # Build the lookup tables once, before any fork.
    if v == MM:
        h_mm_group().inverse_cell_images
    else:
        _block_tables()
    parts = _map_partitions(partial(census, v), threads)
    counts: Counter = Counter()
    for part in parts:
        counts.update(part.counts)
    return Census(v, dict(sorted(counts.items())), sum(part.total for part in parts))
