"""Board values, blocks, variant predicates, and board I/O.

Coordinates are 0-based and row-major throughout: rows and columns run
0..8 top to bottom and left to right, cell index k corresponds to row
k // 9 and column k % 9, and block (I, J) covers rows 3I..3I+2 and
columns 3J..3J+2.

is_sudoku gathers a board's 27 units once; each must hold the nine
digits. Each variant's 72-block catalog is built here, and from it, in
full and once, its band table: every three catalog blocks with pairwise
disjoint mini-row sets, as the 27 bytes of the band they make, to their
catalog indices, its column code and, if modular-magic, its blocks'
class-weight sum. A variant predicate is three lookups in that table
and one XOR of the column codes, which is all ones exactly when every
column holds each digit once. The same reader gives check_two_equal and
nests.canonicalize a board's three band entries, so the class-weight
sum that both read is three band sums added.

Board I/O shares one nibble-packing kernel (_pack_rows/_unpack_rows) and
one digit translate table (_TO_ASCII/_FROM_ASCII). pack, unpack,
parse_board and format_board are the one-board case; the four stream
functions run the same kernels over batches of _CHUNK boards, so the
memory a stream holds at once stays bounded (read_mssb still returns
every board as a list). A Board is its 81 cell bytes, which the
predicates and writers read as they are. The readers split a batch into
81-byte items with one numpy call and make each a Board with
Board._wrap, bytes.__new__ bound to Board: no check and no Python frame
per board. The writers refuse an item that is not a Board. iter_text
reads _CHUNK lines at a time: a batch of plain lines, each 81 digits and
a newline, is translated whole, and any other batch (blank or padded
lines, a kept "\r", a last line without a newline, a bad line) goes
through parse_board line by line. Errors name the failing input: the
line of a text stream, and the board index of an MSSB stream.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from functools import cache, partial
from collections.abc import Iterable
from typing import BinaryIO, Callable, Iterator, TextIO

import numpy as np

from .errors import BoardFormatError, DigitError, StructureError, _in_range

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
#: A block catalog builder, such as semi_magic_blocks.
_Catalog = Callable[[], tuple[Block, ...]]

_DIGITS = frozenset(range(9))
# Cell value d <-> the ASCII digit "0" + d, for text in and out.
_TO_ASCII = bytes.maketrans(bytes(range(9)), b"012345678")
_FROM_ASCII = bytes.maketrans(b"012345678", bytes(range(9)))
_CENTER_SET = frozenset((0, 3, 6))


class Board(bytes):
    """An immutable 9x9 grid of digits 0..8: a bytes subclass whose value
    is its 81 cells in row-major order, so it equals, hashes and orders
    as them (``board == board.cells``), and a slice of it is plain bytes.

    Only cell count and digit range are enforced; uniqueness is left to
    the predicates so that partial or invalid grids can be represented
    while boards are being built.
    """

    __slots__ = ()

    def __new__(cls, cells: bytes | Iterable[int]) -> "Board":
        if isinstance(cells, np.ndarray):  # bytes() would read its raw buffer
            cells = cells.ravel().tolist()
        elif isinstance(cells, str) or not isinstance(cells, Iterable):
            # bytes() would read 81 as 81 zeros, or ask a str for an encoding
            raise BoardFormatError(f"expected 81 cells, got {type(cells).__name__}")
        try:
            board = super().__new__(cls, cells)
        except (ValueError, TypeError) as exc:
            if any(isinstance(c, Iterable) and not isinstance(c, str) for c in cells):
                raise BoardFormatError("expected 81 cells, got a sequence of rows") from exc
            raise DigitError("cell values must lie in 0..8") from exc
        if len(board) != 81:
            raise BoardFormatError(f"expected 81 cells, got {len(board)}")
        if max(board) > 8:
            raise DigitError("cell values must lie in 0..8")
        return board

    @property
    def cells(self) -> bytes:
        """The 81 cell values in row-major order, as plain bytes."""
        return bytes(self)

    def cell(self, r: int, c: int) -> int:
        """The digit at row r, column c, each in 0..8, else DomainError."""
        bad = f"bad cell ({r!r}, {c!r})"
        return self[9 * _in_range(r, bad, 0, 8) + _in_range(c, bad, 0, 8)]

    def row(self, r: int) -> tuple[int, ...]:
        """The digits of row r in 0..8, else DomainError."""
        r = _in_range(r, f"bad row {r!r}", 0, 8)
        return tuple(self[9 * r : 9 * r + 9])

    def __repr__(self) -> str:
        return f"Board({format_board(self)!r})"

    __str__ = __repr__

    def __reduce__(self):
        return (Board._wrap, (self.cells,))


# Board of already-validated cells, unchecked and with no Python frame
# (internal); a class attribute that callers look up at call time.
Board._wrap = partial(bytes.__new__, Board)


def parse_board(text: str) -> Board:
    """Parse 81 digit characters (whitespace ignored) into a Board; any
    value that is no str raises BoardFormatError."""
    if not isinstance(text, str):
        raise BoardFormatError(f"expected board text, got {type(text).__name__}")
    stripped = "".join(text.split())
    if len(stripped) != 81:
        raise BoardFormatError(f"expected 81 digits, got {len(stripped)}")
    bad = set(stripped) - set("012345678")
    if bad:
        raise DigitError(f"invalid digit characters: {sorted(bad)}")
    return Board._wrap(stripped.encode("ascii").translate(_FROM_ASCII))


def format_board(board: Board) -> str:
    """Render a board as one 81-character line."""
    if not isinstance(board, Board):
        raise BoardFormatError(f"expected a Board, got {type(board).__name__}")
    return board.translate(_TO_ASCII).decode("ascii")


# The mini-rows, mini-columns, main and anti mini-diagonal of a block
# flattened in row-major order.
_BLOCK_LINES = (*(slice(3 * r, 3 * r + 3) for r in range(3)),
                *(slice(c, 9, 3) for c in range(3)), slice(0, 9, 4), slice(2, 7, 2))
# The lines a block may hold: magic mod 9 (all 8 lines sum to 0 mod 9)
# and semi-magic (the mini-rows and mini-columns sum to 12).
_MM_LINES = frozenset(bytes(t) for t in itertools.permutations(range(9), 3) if sum(t) % 9 == 0)
_SM_LINES = frozenset(bytes(t) for t in itertools.permutations(range(9), 3) if sum(t) == 12)
# The cells of the rows, the columns and the blocks, nine each in
# row-major order, from _GRID[I, r, J, c] = cell 27I + 9r + 3J + c.
_GRID = np.arange(81).reshape(3, 3, 3, 3)
_UNIT_CELLS = np.concatenate([_GRID, _GRID.transpose(2, 3, 0, 1), _GRID.transpose(0, 2, 1, 3)])
_SORTED_UNITS = np.tile(np.arange(9, dtype=np.uint8), (27, 1))


def block(board: Board, I: int, J: int) -> Block:
    """The 3x3 block at block coordinates (I, J), each in 0..2, else DomainError."""
    bad = f"bad block coordinates ({I!r}, {J!r})"
    base = 27 * _in_range(I, bad, 0, 2) + 3 * _in_range(J, bad, 0, 2)
    board = _board(board)
    return tuple(tuple(board[base + 9 * r : base + 9 * r + 3]) for r in range(3))


def blocks(board: Board) -> list[Block]:
    """All nine blocks in row-major block order (0,0), (0,1), ..., (2,2)."""
    board = _board(board)
    return [block(board, I, J) for I in range(3) for J in range(3)]


def _cell_bytes(board: object) -> bytes:
    """A bytes copy of a bytes-like board argument of single-byte items,
    else BoardFormatError: an int64 array's raw buffer is not its cells.
    Callers test isinstance(board, bytes) first, so a Board pays no call."""
    try:
        view = memoryview(board)
    except (TypeError, ValueError):  # not bytes-like, or a released memoryview
        raise BoardFormatError(f"expected cell bytes, got {type(board).__name__}") from None
    if view.itemsize != 1:
        raise BoardFormatError(f"expected cell bytes, got {view.itemsize}-byte items")
    return view.tobytes()


def _board(board: object) -> Board:
    """A board argument as a Board, itself with no copy if one, else its
    _cell_bytes checked as Board checks cells: 81 of them, digits 0..8."""
    return board if isinstance(board, Board) else Board(_cell_bytes(board))


def is_sudoku(board: Board) -> bool:
    """True iff the board is 81 cells and every row, column, and block
    holds each digit exactly once."""
    if not isinstance(board, bytes):
        board = _cell_bytes(board)
    cells = np.frombuffer(board, dtype=np.uint8)
    if cells.size != 81:
        return False
    units = cells[_UNIT_CELLS].reshape(27, 9)
    units.sort(axis=1)
    return bool((units == _SORTED_UNITS).all())


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


# --- block catalogs and band tables ---


def _block_catalog(lines: tuple[slice, ...], allowed: frozenset[bytes]) -> tuple[Block, ...]:
    """All blocks whose mini-lines ``lines`` (of the nine row-major
    bytes) are ``allowed`` lines, the board reader's own test, sorted by
    flattened entries.

    Mini-rows 0 and 1 are drawn from the allowed lines. Both variants
    give every mini-row and mini-column one sum s mod 9 (s = 12 and
    s = 0), so the column sums force mini-row 2; a candidate is kept
    when it holds the nine digits and all its ``lines`` are allowed.
    The pairs are drawn in sorted order, so the blocks come out sorted.
    """
    found = []
    for r0, r1 in itertools.product(sorted(allowed), repeat=2):
        r2 = bytes((sum(r0) - x - y) % 9 for x, y in zip(r0, r1))
        flat = r0 + r1 + r2
        if set(flat) == _DIGITS and all(flat[s] in allowed for s in lines):
            found.append((tuple(r0), tuple(r1), tuple(r2)))
    return tuple(found)


@cache
def semi_magic_blocks() -> tuple[Block, ...]:
    """All 72 blocks with distinct digits and every mini-row and
    mini-column summing to 12, sorted by their flattened entries."""
    return _block_catalog(_BLOCK_LINES[:6], _SM_LINES)


@cache
def modular_magic_blocks() -> tuple[Block, ...]:
    """All 72 blocks with distinct digits and every mini-row,
    mini-column, and mini-diagonal summing to 0 mod 9, sorted by their
    flattened entries."""
    return _block_catalog(_BLOCK_LINES, _MM_LINES)


def _line_sets(blocks: np.ndarray) -> list[np.ndarray]:
    """The mini-row and the mini-column digit sets of (n, 3, 3) blocks as
    27-bit codes: one 9-bit set per mini-line, mini-line k at bit 9k."""
    bits = np.left_shift(1, blocks.astype(np.int64))
    return [(bits.sum(axis=axis) << [0, 9, 18]).sum(axis=1) for axis in (2, 1)]


_Band = tuple[tuple[int, int, int], int, int | None]  # a band table entry


@cache
def _bands(catalog_fn: _Catalog) -> dict[bytes, _Band]:
    """Every band of the catalog's variant, as 27 row-major bytes, to
    its three catalog indices, its column code (bit 9k + d set when
    column k of the band holds digit d) and, for modular-magic bands,
    the sum of the _mm_weights of its three blocks. A band is three
    catalog blocks with pairwise disjoint mini-row sets: 2,304
    modular-magic and 5,184 semi-magic ones."""
    blocks = np.array(catalog_fn(), dtype=np.uint8)
    rows, cols = _line_sets(blocks)
    fit = rows[:, None] & rows == 0
    triples = np.argwhere(fit[:, :, None] & fit[:, None, :] & fit[None, :, :])
    # The gathered (n, block, r, c) cells, read as (n, r, block, c): row-major bands.
    data = blocks[triples].transpose(0, 2, 1, 3).tobytes()
    codes = cols.tolist()  # a block's mini-column c at bit 9c: column 3j + c at band slot j
    w = _mm_weights() if catalog_fn is modular_magic_blocks else None
    return {data[27 * k : 27 * k + 27]: ((a, b, c), codes[a] | codes[b] << 27 | codes[c] << 54,
                                         None if w is None else w[a] + w[b] + w[c])
            for k, (a, b, c) in enumerate(triples.tolist())}


def _variant_bands(catalog_fn: _Catalog, cells: bytes) -> tuple[_Band, _Band, _Band] | None:
    """The band table entries of a board's three bands, or None unless
    the board is of the catalog's variant: its three bands are bands of
    the catalog, and their column codes XOR to all ones, which holds
    exactly when every column holds each digit once. Any bytes-like
    cells are read, as is_sudoku reads them."""
    if not isinstance(cells, bytes):
        cells = _cell_bytes(cells)
    bands = _bands(catalog_fn)
    top, mid, low = bands.get(cells[:27]), bands.get(cells[27:54]), bands.get(cells[54:])
    if top and mid and low and top[1] ^ mid[1] ^ low[1] == (1 << 81) - 1:
        return top, mid, low
    return None


def _weight_sum(top: _Band, mid: _Band, low: _Band) -> int:
    """The class-weight sum of a modular-magic board's nine blocks, from
    its three band entries: it counts the board's classes in base 4."""
    return top[2] + mid[2] + low[2]


def is_modular_magic(board: Board) -> bool:
    """True iff the board is a Sudoku board and all blocks are magic
    mod 9: every mini-line of every block is a magic-mod-9 line."""
    return _variant_bands(modular_magic_blocks, board) is not None


def is_semi_magic(board: Board) -> bool:
    """True iff the board is a Sudoku board and all blocks are semi-magic:
    every mini-row and mini-column of every block sums to 12."""
    return _variant_bands(semi_magic_blocks, board) is not None


def off_diagonal_set(blk: Block) -> frozenset[int]:
    """The two corner entries of the mini-diagonal not drawn from {0,3,6}.

    Requires a magic-mod-9 block; exactly one of its mini-diagonals has
    all entries in {0,3,6}, and the other diagonal's corners are returned.
    """
    if not is_magic_mod9_block(blk):
        raise StructureError("off_diagonal_set requires a magic mod-9 block")
    flat = _block_bytes(blk)
    main, anti = flat[_BLOCK_LINES[6]], flat[_BLOCK_LINES[7]]
    main_in = set(main) <= _CENTER_SET
    if main_in == (set(anti) <= _CENTER_SET):
        raise StructureError("expected exactly one {0,3,6} mini-diagonal")
    corners = anti if main_in else main
    return frozenset((corners[0], corners[2]))


@cache
def _mm_classes() -> tuple[tuple[int, int, int], ...]:
    """The class of each modular-magic catalog block, by catalog index:
    its center, then its off-diagonal pair in ascending order."""
    return tuple((blk[1][1], *sorted(off_diagonal_set(blk))) for blk in modular_magic_blocks())


@cache
def _mm_weights() -> array:
    """4**k per modular-magic catalog block, k its class's rank: a weight
    sum counts a board's classes in base 4 (no center is in four blocks)."""
    rank = {cls: k for k, cls in enumerate(sorted(set(_mm_classes())))}
    return array("q", (4 ** rank[cls] for cls in _mm_classes()))


# --- packing and file formats ---

MSSB_MAGIC = b"MSSB"
MSSB_VERSION = 1
PACKED_SIZE = 41

# Boards per batch of the stream functions and of enumeration's cell
# gather: large enough that the numpy and bytes calls dominate the
# per-board Python work, small enough that a batch's buffers stay a few
# hundred KiB. Each text batch and gather slice is held whole, so the
# peak grows with it: on a 2-core VM the benchmark's semi-magic round
# trip peaked at 87.2-87.4 MiB with 4096 and 85.9 MiB with 1024 (85.3 MiB
# with per-board reads), at the same throughput.
_CHUNK = 1024


def _pack_rows(cells: bytes) -> bytes:
    """Nibble-pack concatenated boards of 81 cell bytes into 41 bytes
    each: cells 2k and 2k+1 go to the low and high nibble of byte k, and
    cell 80 to byte 40, whose high nibble stays zero."""
    grid = np.frombuffer(cells, np.uint8).reshape(-1, 81)
    packed = np.empty((len(grid), PACKED_SIZE), np.uint8)
    packed[:, :40] = grid[:, 0:80:2] | grid[:, 1:80:2] << 4
    packed[:, 40] = grid[:, 80]
    return packed.tobytes()


def _unpack_rows(data: bytes, first: int = 0) -> bytes:
    """The concatenated cells of boards packed by _pack_rows; a nibble
    above 8, the padding nibble included, raises and names the board,
    counting the first row of ``data`` as board ``first``."""
    packed = np.frombuffer(data, np.uint8).reshape(-1, PACKED_SIZE)
    grid = np.empty((len(packed), 81), np.uint8)
    grid[:, 0:80:2] = packed[:, :40] & 0x0F
    grid[:, 1:80:2] = packed[:, :40] >> 4
    grid[:, 80] = packed[:, 40]
    bad = np.flatnonzero(grid.max(axis=1) > 8)
    if len(bad):
        board = first + int(bad[0])
        raise BoardFormatError(f"packed data contains a nibble above 8 in board {board}")
    return grid.tobytes()


def _board_chunks(boards: Iterable[Board]) -> Iterator[list[Board]]:
    """``boards``, at most _CHUNK per list. An item that is no Board,
    which the writers would otherwise take as raw cells, raises and
    names its index in the stream."""
    it = iter(boards)
    start = 0
    while chunk := list(itertools.islice(it, _CHUNK)):
        if not all(map(isinstance, chunk, itertools.repeat(Board))):
            k, item = next((k, x) for k, x in enumerate(chunk) if not isinstance(x, Board))
            raise BoardFormatError(f"item {start + k}: expected a Board, got {type(item).__name__}")
        yield chunk
        start += len(chunk)


def pack(board: Board) -> bytes:
    """Pack a board into 41 bytes, two 4-bit cells per byte."""
    if not isinstance(board, Board):
        raise BoardFormatError(f"expected a Board, got {type(board).__name__}")
    return _pack_rows(board)


def unpack(data: bytes) -> Board:
    """Unpack 41 bytes produced by pack back into a Board; any value that
    is not bytes-like raises BoardFormatError."""
    data = _cell_bytes(data)
    if len(data) != PACKED_SIZE:
        raise BoardFormatError(f"expected {PACKED_SIZE} packed bytes, got {len(data)}")
    return Board._wrap(_unpack_rows(data))


def write_text(fh: TextIO, boards: Iterable[Board]) -> int:
    """Write boards one 81-character line each; returns the count."""
    count = 0
    for chunk in _board_chunks(boards):
        fh.write((b"\n".join(chunk) + b"\n").translate(_TO_ASCII).decode("ascii"))
        count += len(chunk)
    return count


def iter_text(fh: TextIO) -> Iterator[Board]:
    """Yield boards from a text stream, one 81-character line each;
    blank lines are skipped, and an error names its 1-based line."""
    start = 1
    # readlines stops at the line that takes it past the hint: _CHUNK plain lines.
    while lines := fh.readlines(82 * _CHUNK - 1):
        n = len(lines)
        # "replace" keeps one byte per character, and its "?" is no digit.
        raw = "".join(lines).encode("ascii", "replace")
        # 82n bytes whose only non-digits are n newlines, at every 82nd
        # byte, are n rows of 81 digits and a newline. With no "\r", the
        # n lines end at those newlines, whatever the stream's newline
        # mode, so the rows are the lines.
        newlines = b"\n" * n
        if len(raw) == 82 * n and raw[81::82] == newlines == raw.translate(None, b"012345678"):
            cells = np.frombuffer(raw.translate(_FROM_ASCII, b"\n"), "V81").tolist()
            yield from map(Board._wrap, cells)
        else:
            for number, line in enumerate(lines, start):
                line = line.strip()
                if not line:
                    continue
                try:
                    board = parse_board(line)
                except (BoardFormatError, DigitError) as exc:
                    raise type(exc)(f"line {number}: {exc}") from None
                yield board
        start += n


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
    for chunk in _board_chunks(boards):
        fh.write(_pack_rows(b"".join(chunk)))
        count += len(chunk)
    end = fh.tell()
    fh.seek(start + 5)
    fh.write(struct.pack("<I", count))
    fh.seek(end)
    return count


def read_mssb(fh: BinaryIO) -> list[Board]:
    """Read all boards from an MSSB binary stream; data after the
    boards the header counts is an error. Reads go _CHUNK boards at a
    time, so a header that overstates the count fails at the first short
    read."""
    header = fh.read(9)
    if len(header) != 9 or header[:4] != MSSB_MAGIC:
        raise BoardFormatError("not an MSSB stream")
    if header[4] != MSSB_VERSION:
        raise BoardFormatError(f"unsupported MSSB version {header[4]}")
    (count,) = struct.unpack("<I", header[5:9])
    boards: list[Board] = []
    while len(boards) < count:
        size = PACKED_SIZE * min(_CHUNK, count - len(boards))
        data = fh.read(size)
        if len(data) != size:
            done = len(boards) + len(data) // PACKED_SIZE
            raise BoardFormatError(f"MSSB stream truncated: {done} of {count} boards read")
        cells = _unpack_rows(data, len(boards))
        boards.extend(map(Board._wrap, np.frombuffer(cells, "V81").tolist()))
    if fh.read(1):
        raise BoardFormatError("trailing bytes after the MSSB boards")
    return boards
