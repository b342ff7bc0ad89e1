"""Board values, blocks, variant predicates, and board I/O.

Coordinates are 0-based and row-major throughout: rows and columns run
0..8 top to bottom and left to right, cell index k corresponds to row
k // 9 and column k % 9, and block (I, J) covers rows 3I..3I+2 and
columns 3J..3J+2.

The variant predicates slice the cells through fixed tables and build no
Block: each mini-line of a block is a 3-byte slice tested against the
variant's set of allowed lines, as in the block predicates.
"""

from __future__ import annotations

import itertools
import struct
from typing import BinaryIO, Iterable, Iterator, TextIO

from .errors import BoardFormatError, DigitError, StructureError

__all__ = [
    "Block",
    "Board",
    "block",
    "blocks",
    "parse_board",
    "format_board",
    "is_sudoku",
    "is_magic_mod9_block",
    "is_modular_magic",
    "is_semi_magic_block",
    "is_semi_magic",
    "off_diagonal_set",
    "pack",
    "unpack",
    "write_text",
    "iter_text",
    "write_mssb",
    "read_mssb",
]

#: A block is 3 rows of 3 digits.
Block = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

_DIGITS = frozenset(range(9))
_CENTER_SET = frozenset((0, 3, 6))


class Board:
    """An immutable 9x9 grid of digits 0..8.

    Only cell count and digit range are enforced; uniqueness is left to
    the predicates so that partial or invalid grids can be represented
    while boards are being built.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: bytes | Iterable[int]):
        data = bytes(cells)
        if len(data) != 81:
            raise BoardFormatError(f"expected 81 cells, got {len(data)}")
        if max(data) > 8:
            raise DigitError("cell values must lie in 0..8")
        self._cells = data

    @classmethod
    def _wrap(cls, data: bytes) -> "Board":
        """Wrap already-validated cell bytes without rechecking (internal)."""
        board = cls.__new__(cls)
        board._cells = data
        return board

    @property
    def cells(self) -> bytes:
        """The 81 cell values in row-major order."""
        return self._cells

    def cell(self, r: int, c: int) -> int:
        """The digit at row r, column c."""
        return self._cells[9 * r + c]

    def row(self, r: int) -> tuple[int, ...]:
        return tuple(self._cells[9 * r : 9 * r + 9])

    def __getitem__(self, k: int) -> int:
        return self._cells[k]

    def __len__(self) -> int:
        return 81

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Board):
            return self._cells == other._cells
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._cells)

    def __repr__(self) -> str:
        return f"Board({format_board(self)!r})"

    def __reduce__(self):
        return (Board._wrap, (self._cells,))


def parse_board(text: str) -> Board:
    """Parse 81 digit characters (whitespace ignored) into a Board."""
    stripped = "".join(text.split())
    if len(stripped) != 81:
        raise BoardFormatError(f"expected 81 digits, got {len(stripped)}")
    bad = set(stripped) - set("012345678")
    if bad:
        raise DigitError(f"invalid digit characters: {sorted(bad)}")
    return Board._wrap(bytes(ord(ch) - 48 for ch in stripped))


def format_board(board: Board, pretty: bool = False) -> str:
    """Render a board as one 81-character line, or 9 lines if pretty."""
    flat = "".join(str(d) for d in board.cells)
    if not pretty:
        return flat
    return "\n".join(flat[9 * r : 9 * r + 9] for r in range(9))


def _mini_lines(base: int, width: int) -> tuple[slice, ...]:
    """Slices of the mini-rows, mini-columns, main and anti mini-diagonal
    of the block at cell ``base`` of a row-major grid ``width`` wide."""
    return (
        *(slice(base + width * r, base + width * r + 3) for r in range(3)),
        *(slice(base + c, base + c + 2 * width + 1, width) for c in range(3)),
        slice(base, base + 2 * width + 3, width + 1),
        slice(base + 2, base + 2 * width + 1, width - 1),
    )


# The mini-lines of a flattened block and of each block of a board; the
# rows and columns of a board, and the mini-rows of each block.
_BLOCK_LINES = _mini_lines(0, 3)
_BOARD_LINES = tuple(_mini_lines(27 * I + 3 * J, 9) for I in range(3) for J in range(3))
_ROWS_COLS = [slice(9 * i, 9 * i + 9) for i in range(9)] + [slice(i, 81, 9) for i in range(9)]
_BLOCK_ROWS = [lines[:3] for lines in _BOARD_LINES]
# The lines a block may hold: magic mod 9 (all 8 lines sum to 0 mod 9)
# and semi-magic (the mini-rows and mini-columns sum to 12).
_MM_LINES = frozenset(bytes(t) for t in itertools.permutations(range(9), 3) if sum(t) % 9 == 0)
_SM_LINES = frozenset(bytes(t) for t in itertools.permutations(range(9), 3) if sum(t) == 12)
_MM_BOARD_LINES = [s for lines in _BOARD_LINES for s in lines]
_SM_BOARD_LINES = [s for lines in _BOARD_LINES for s in lines[:6]]


def block(board: Board, I: int, J: int) -> Block:
    """The 3x3 block at block coordinates (I, J)."""
    return tuple(tuple(board.cells[s]) for s in _BLOCK_ROWS[3 * I + J])


def blocks(board: Board) -> list[Block]:
    """All nine blocks in row-major block order (0,0), (0,1), ..., (2,2)."""
    return [block(board, I, J) for I in range(3) for J in range(3)]


def is_sudoku(board: Board) -> bool:
    """True iff every row, column, and block holds each digit exactly once."""
    cells = board.cells
    return all(map(_DIGITS.__eq__, map(set, map(cells.__getitem__, _ROWS_COLS)))) and all(
        set(cells[a] + cells[b] + cells[c]) == _DIGITS for a, b, c in _BLOCK_ROWS
    )


def _block_bytes(blk: Block) -> bytes | None:
    """The block's entries in row-major order, or None unless they are
    the nine digits once each."""
    flat = tuple(itertools.chain.from_iterable(blk))
    return bytes(flat) if set(flat) == _DIGITS else None


def is_magic_mod9_block(blk: Block) -> bool:
    """True iff the block has 9 distinct digits and every mini-row,
    mini-column, and mini-diagonal sums to 0 mod 9."""
    flat = _block_bytes(blk)
    return flat is not None and all(flat[s] in _MM_LINES for s in _BLOCK_LINES)


def is_semi_magic_block(blk: Block) -> bool:
    """True iff the block has 9 distinct digits and every mini-row and
    mini-column sums to 12 (diagonals unconstrained)."""
    flat = _block_bytes(blk)
    return flat is not None and all(flat[s] in _SM_LINES for s in _BLOCK_LINES[:6])


def is_modular_magic(board: Board) -> bool:
    """True iff the board is a Sudoku board and all blocks are magic
    mod 9: every mini-line of every block is a magic-mod-9 line."""
    cells = board.cells
    return is_sudoku(board) and all(cells[s] in _MM_LINES for s in _MM_BOARD_LINES)


def is_semi_magic(board: Board) -> bool:
    """True iff the board is a Sudoku board and all blocks are semi-magic:
    every mini-row and mini-column of every block sums to 12."""
    cells = board.cells
    return is_sudoku(board) and all(cells[s] in _SM_LINES for s in _SM_BOARD_LINES)


def _off_diagonal(cells: bytes, lines: tuple[slice, ...]) -> frozenset[int]:
    """off_diagonal_set of the magic-mod-9 block whose mini-lines are
    the slices ``lines`` of ``cells``."""
    main, anti = cells[lines[6]], cells[lines[7]]
    main_in = set(main) <= _CENTER_SET
    if main_in == (set(anti) <= _CENTER_SET):
        raise StructureError("expected exactly one {0,3,6} mini-diagonal")
    corners = anti if main_in else main
    return frozenset((corners[0], corners[2]))


def off_diagonal_set(blk: Block) -> frozenset[int]:
    """The two corner entries of the mini-diagonal not drawn from {0,3,6}.

    Requires a magic-mod-9 block; exactly one of its mini-diagonals has
    all entries in {0,3,6}, and the other diagonal's corners are returned.
    """
    if not is_magic_mod9_block(blk):
        raise StructureError("off_diagonal_set requires a magic mod-9 block")
    return _off_diagonal(_block_bytes(blk), _BLOCK_LINES)


# --- packing and file formats ---

MSSB_MAGIC = b"MSSB"
MSSB_VERSION = 1
PACKED_SIZE = 41


def pack(board: Board) -> bytes:
    """Pack a board into 41 bytes, two 4-bit cells per byte."""
    cells = board.cells
    out = bytearray(PACKED_SIZE)
    for k in range(0, 80, 2):
        out[k // 2] = cells[k] | (cells[k + 1] << 4)
    out[40] = cells[80]
    return bytes(out)


def unpack(data: bytes) -> Board:
    """Unpack 41 bytes produced by pack back into a Board."""
    if len(data) != PACKED_SIZE:
        raise BoardFormatError(f"expected {PACKED_SIZE} packed bytes, got {len(data)}")
    cells = bytearray(81)
    for k in range(0, 80, 2):
        byte = data[k // 2]
        cells[k] = byte & 0x0F
        cells[k + 1] = byte >> 4
    cells[80] = data[40]
    if max(cells) > 8:
        raise BoardFormatError("packed data contains a nibble above 8")
    return Board._wrap(bytes(cells))


def write_text(fh: TextIO, boards: Iterable[Board]) -> int:
    """Write boards one 81-character line each; returns the count."""
    count = 0
    for board in boards:
        fh.write(format_board(board))
        fh.write("\n")
        count += 1
    return count


def iter_text(fh: TextIO) -> Iterator[Board]:
    """Yield boards from a text stream, one 81-character line each."""
    for line in fh:
        line = line.strip()
        if line:
            yield parse_board(line)


def write_mssb(fh: BinaryIO, boards: Iterable[Board]) -> int:
    """Write boards in the MSSB binary format; returns the count.

    The stream must be seekable: the 4-byte count in the header is
    patched in after the boards have been written.
    """
    start = fh.tell()
    fh.write(MSSB_MAGIC)
    fh.write(bytes((MSSB_VERSION,)))
    fh.write(b"\x00\x00\x00\x00")
    count = 0
    for board in boards:
        fh.write(pack(board))
        count += 1
    end = fh.tell()
    fh.seek(start + 5)
    fh.write(struct.pack("<I", count))
    fh.seek(end)
    return count


def read_mssb(fh: BinaryIO) -> list[Board]:
    """Read all boards from an MSSB binary stream; data after the
    boards the header counts is an error."""
    header = fh.read(9)
    if len(header) != 9 or header[:4] != MSSB_MAGIC:
        raise BoardFormatError("not an MSSB stream")
    if header[4] != MSSB_VERSION:
        raise BoardFormatError(f"unsupported MSSB version {header[4]}")
    (count,) = struct.unpack("<I", header[5:9])
    boards = []
    for _ in range(count):
        data = fh.read(PACKED_SIZE)
        if len(data) != PACKED_SIZE:
            raise BoardFormatError("MSSB stream truncated")
        boards.append(unpack(data))
    if fh.read(1):
        raise BoardFormatError("trailing bytes after the MSSB boards")
    return boards
