"""Board values, blocks, variant predicates, and board I/O.

Coordinates are 0-based and row-major throughout: rows and columns run
0..8 top to bottom and left to right, cell index k corresponds to row
k // 9 and column k % 9, and block (I, J) covers rows 3I..3I+2 and
columns 3J..3J+2.
"""

from __future__ import annotations

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


def block(board: Board, I: int, J: int) -> Block:
    """The 3x3 block at block coordinates (I, J)."""
    cells = board.cells
    base = 27 * I + 3 * J
    return tuple(
        tuple(cells[base + 9 * r + c] for c in range(3)) for r in range(3)
    )


def blocks(board: Board) -> list[Block]:
    """All nine blocks in row-major block order (0,0), (0,1), ..., (2,2)."""
    return [block(board, I, J) for I in range(3) for J in range(3)]


def is_sudoku(board: Board) -> bool:
    """True iff every row, column, and block holds each digit exactly once."""
    cells = board.cells
    for i in range(9):
        if set(cells[9 * i : 9 * i + 9]) != _DIGITS:
            return False
        if set(cells[i::9]) != _DIGITS:
            return False
    for base in (0, 3, 6, 27, 30, 33, 54, 57, 60):
        blk = cells[base : base + 3] + cells[base + 9 : base + 12] + cells[base + 18 : base + 21]
        if set(blk) != _DIGITS:
            return False
    return True


def _block_lines(blk: Block) -> list[tuple[int, int, int]]:
    """Rows, columns, and the two diagonals of a block."""
    (a, b, c), (d, e, f), (g, h, i) = blk
    return [
        (a, b, c), (d, e, f), (g, h, i),
        (a, d, g), (b, e, h), (c, f, i),
        (a, e, i), (c, e, g),
    ]


def is_magic_mod9_block(blk: Block) -> bool:
    """True iff the block has 9 distinct digits and every mini-row,
    mini-column, and mini-diagonal sums to 0 mod 9."""
    flat = [d for row in blk for d in row]
    if set(flat) != _DIGITS:
        return False
    return all(sum(line) % 9 == 0 for line in _block_lines(blk))


def is_semi_magic_block(blk: Block) -> bool:
    """True iff the block has 9 distinct digits and every mini-row and
    mini-column sums to 12 (diagonals unconstrained)."""
    flat = [d for row in blk for d in row]
    if set(flat) != _DIGITS:
        return False
    return all(sum(line) == 12 for line in _block_lines(blk)[:6])


def is_modular_magic(board: Board) -> bool:
    """True iff the board is a Sudoku board and all blocks are magic mod 9."""
    if not is_sudoku(board):
        return False
    return all(is_magic_mod9_block(block(board, I, J)) for I in range(3) for J in range(3))


def is_semi_magic(board: Board) -> bool:
    """True iff the board is a Sudoku board and all blocks are semi-magic."""
    if not is_sudoku(board):
        return False
    return all(is_semi_magic_block(block(board, I, J)) for I in range(3) for J in range(3))


def off_diagonal_set(blk: Block) -> frozenset[int]:
    """The two corner entries of the mini-diagonal not drawn from {0,3,6}.

    Requires a magic-mod-9 block; exactly one of its mini-diagonals has
    all entries in {0,3,6}, and the other diagonal's corners are returned.
    """
    if not is_magic_mod9_block(blk):
        raise StructureError("off_diagonal_set requires a magic mod-9 block")
    main = (blk[0][0], blk[1][1], blk[2][2])
    anti = (blk[0][2], blk[1][1], blk[2][0])
    main_in = set(main) <= _CENTER_SET
    anti_in = set(anti) <= _CENTER_SET
    if main_in == anti_in:
        raise StructureError("expected exactly one {0,3,6} mini-diagonal")
    corners = anti if main_in else main
    return frozenset((corners[0], corners[2]))


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
