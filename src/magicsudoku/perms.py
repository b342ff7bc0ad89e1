"""Cell and digit permutations, symmetries, group actions, and closure.

A symmetry is a pair (cell permutation on the 81 cells, digit
permutation on the 9 digits). Permutations are stored as image tuples:
``image[k]`` is where k is sent. The action convention is

    act(s, b)(x) = s.digit(b(s.cell^-1(x)))

so cells move forward under ``s.cell`` while each cell's digit is
relabeled by ``s.digit``, and ``act(compose(s2, s1), b) =
act(s2, act(s1, b))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boards import Board, _board
from .errors import CapacityError, DomainError, _in_range

__all__ = [
    "Symmetry",
    "PermGroup",
    "identity",
    "compose",
    "inverse",
    "act",
    "closure",
    "inverse_perm",
]

CLOSURE_CAP = 10_000_000


def _check_perm(image: tuple[int, ...], n: int, what: str) -> None:
    if len(image) != n or set(image) != set(range(n)):
        raise DomainError(f"{what} must be a bijection on 0..{n - 1}")


def inverse_perm(image: Sequence[int]) -> tuple[int, ...]:
    """Invert a permutation given as an image array."""
    inv = [0] * len(image)
    for k, v in enumerate(image):
        inv[v] = k
    return tuple(inv)


@dataclass(frozen=True)
class Symmetry:
    """A board symmetry: a cell permutation paired with a digit permutation."""

    cell: tuple[int, ...]
    digit: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cell", tuple(self.cell))
        object.__setattr__(self, "digit", tuple(self.digit))
        _check_perm(self.cell, 81, "cell permutation")
        _check_perm(self.digit, 9, "digit permutation")

    @classmethod
    def from_cell(cls, image: Sequence[int]) -> "Symmetry":
        return cls(tuple(image), tuple(range(9)))

    @classmethod
    def from_digit(cls, image: Sequence[int]) -> "Symmetry":
        """The digit relabeling d -> image[d], each image an integer digit."""
        bad = "digit permutation must be a bijection on 0..8"
        return cls(tuple(range(81)), tuple(_in_range(d, bad, 0, 8) for d in image))

    @property
    def is_identity(self) -> bool:
        return self.cell == _IDENTITY_CELL and self.digit == _IDENTITY_DIGIT

    def key(self) -> bytes:
        """A 90-byte hash key: cell images then digit images."""
        return bytes(self.cell) + bytes(self.digit)


_IDENTITY_CELL = tuple(range(81))
_IDENTITY_DIGIT = tuple(range(9))
_IDENTITY = Symmetry(_IDENTITY_CELL, _IDENTITY_DIGIT)


def identity() -> Symmetry:
    """The identity symmetry."""
    return _IDENTITY


def compose(s2: Symmetry, s1: Symmetry) -> Symmetry:
    """The symmetry applying s1 first and then s2."""
    c1, c2 = s1.cell, s2.cell
    d1, d2 = s1.digit, s2.digit
    return Symmetry(
        tuple(c2[c1[k]] for k in range(81)),
        tuple(d2[d1[n]] for n in range(9)),
    )


def inverse(s: Symmetry) -> Symmetry:
    """The symmetry undoing s."""
    return Symmetry(inverse_perm(s.cell), inverse_perm(s.digit))


def act(s: Symmetry, board: Board) -> Board:
    """Apply a symmetry to a board, read as boards._board reads it."""
    board, digit = _board(board), s.digit
    return Board._wrap(digit[board[i]] for i in inverse_perm(s.cell))


class PermGroup:
    """A fully materialized group of symmetries.

    Elements are stored as numpy image matrices (one row per element,
    cells then digits) in a deterministic lexicographic row order, so
    two closures of the same group compare equal regardless of how the
    generator list was presented.
    """

    def __init__(self, generators: Sequence[Symmetry], rows: np.ndarray):
        self.generators = tuple(generators)
        self._rows = rows
        self._rows.setflags(write=False)
        self._keys: frozenset[bytes] | None = None
        self._inv_cells: np.ndarray | None = None

    @classmethod
    def from_symmetries(cls, symmetries: Iterable[Symmetry]) -> "PermGroup":
        """Build a group from an explicit element list (assumed closed)."""
        rows = np.array([list(s.cell) + list(s.digit) for s in symmetries], dtype=np.uint8)
        return cls((), _sort_rows(rows))

    @property
    def order(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def cell_images(self) -> np.ndarray:
        """(order, 81) uint8 matrix of cell images."""
        return self._rows[:, :81]

    @property
    def digit_images(self) -> np.ndarray:
        """(order, 9) uint8 matrix of digit images."""
        return self._rows[:, 81:]

    @property
    def inverse_cell_images(self) -> np.ndarray:
        """(order, 81) uint8 matrix of inverted cell permutations (cached):
        row i maps target cell j to its source cell. For a group that
        moves only cells, ``cells[table]`` lists every
        image of a board; the nest scans use the factored physical
        groups instead. Stored cell-major: ``.T[j]``, the source of cell
        j under every element, is one contiguous row."""
        if self._inv_cells is None:
            images = self.cell_images
            elements = np.arange(self.order)
            table = np.empty((81, self.order), dtype=np.uint8)
            for k in range(81):
                table[images[:, k], elements] = k
            table.setflags(write=False)
            self._inv_cells = table.T
        return self._inv_cells

    def element(self, i: int) -> Symmetry:
        row = self._rows[i]
        return Symmetry(tuple(int(v) for v in row[:81]), tuple(int(v) for v in row[81:]))

    def __iter__(self) -> Iterator[Symmetry]:
        return (self.element(i) for i in range(len(self)))

    @property
    def elements(self) -> tuple[Symmetry, ...]:
        """All elements as Symmetry objects (built on demand; large groups
        are cheaper to query through the image matrices)."""
        return tuple(self)

    def __contains__(self, s: Symmetry) -> bool:
        if self._keys is None:
            buf = self._rows.tobytes()
            self._keys = frozenset(buf[i : i + 90] for i in range(0, len(buf), 90))
        return s.key() in self._keys


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """Order element rows lexicographically for deterministic storage."""
    order = np.argsort(rows.view(np.dtype((np.void, 90))).ravel(), kind="stable")
    return np.ascontiguousarray(rows[order])


def _as_row(s: Symmetry) -> np.ndarray:
    return np.array(s.cell + tuple(81 + d for d in s.digit), dtype=np.int16)


def closure(generators: Iterable[Symmetry]) -> PermGroup:
    """Materialize the group generated by the given symmetries.

    Breadth-first right multiplication from the identity; raises
    CapacityError if the element count would exceed ``CLOSURE_CAP``.
    """
    gens = list(generators)
    # Composition index maps: row[idx] composes the row's element with g.
    idx_maps = [_as_row(g) for g in gens if not g.is_identity]
    ident = np.arange(90, dtype=np.uint8)
    ident[81:] -= 81
    seen = {ident.tobytes()}
    chunks = [ident.reshape(1, 90)]
    frontier = chunks[0]
    while len(frontier):
        new_rows = []
        for idx in idx_maps:
            cand = np.ascontiguousarray(frontier[:, idx])
            buf = cand.tobytes()
            fresh = []
            for k in range(len(cand)):
                key = buf[90 * k : 90 * k + 90]
                if key not in seen:
                    seen.add(key)
                    fresh.append(k)
            if fresh:
                new_rows.append(cand[fresh])
            if len(seen) > CLOSURE_CAP:
                raise CapacityError(f"closure exceeded {CLOSURE_CAP} elements")
        if not new_rows:
            break
        frontier = np.concatenate(new_rows) if len(new_rows) > 1 else new_rows[0]
        chunks.append(frontier)
    rows = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return PermGroup(gens, _sort_rows(rows))
