"""Board parsing, formatting, predicates, and serialization."""

import hashlib
import io
import itertools
import pickle
import random
import struct

import numpy as np
import pytest

from magicsudoku.boards import (
    _CHUNK,
    Board,
    block,
    blocks,
    format_board,
    is_magic_mod9_block,
    is_modular_magic,
    is_semi_magic,
    is_semi_magic_block,
    is_sudoku,
    iter_text,
    off_diagonal_set,
    pack,
    parse_board,
    read_mssb,
    unpack,
    write_mssb,
    write_text,
)
from magicsudoku.analysis import check_two_equal
from magicsudoku.catalog import transpose
from magicsudoku.enumeration import enumerate_semi_magic, iter_modular_magic, random_semi_magic
from magicsudoku.keedwell import keedwell_decompose, linearity_degree
from magicsudoku.nests import canonicalize_mm, canonicalize_sm
from magicsudoku.errors import BoardFormatError, DigitError, DomainError, StructureError
from magicsudoku.perms import act

from conftest import CANON_MM_72, CANON_SM_71


def test_parse_round_trip(board_mm_72):
    assert format_board(board_mm_72) == CANON_MM_72
    assert parse_board(format_board(board_mm_72)) == board_mm_72


def test_parse_ignores_whitespace():
    spaced = "\n".join(CANON_MM_72[i : i + 9] for i in range(0, 81, 9))
    assert parse_board(spaced) == parse_board(CANON_MM_72)
    assert parse_board(" ".join(CANON_MM_72)) == parse_board(CANON_MM_72)


def test_parse_rejects_bad_input():
    with pytest.raises(BoardFormatError):
        parse_board(CANON_MM_72[:-1])
    with pytest.raises(BoardFormatError):
        parse_board(CANON_MM_72 + "0")
    with pytest.raises(DigitError):
        parse_board(CANON_MM_72[:-1] + "9")
    with pytest.raises(DigitError):
        parse_board(CANON_MM_72[:-1] + "x")


def test_board_constructor_validates():
    for cells in (bytes(80), 81, "0" * 81, None, np.zeros(80, dtype=np.int64), [[0] * 9] * 9):
        with pytest.raises(BoardFormatError):
            Board(cells)
    for cells in (bytes(80) + b"\x09", [0] * 80 + [300], [-1] * 81, [0.0] * 81, [None] * 81):
        with pytest.raises(DigitError):
            Board(cells)
    digits = np.arange(81) % 9
    assert Board(digits) == Board(digits.tolist())
    assert Board(digits.astype(np.int32).reshape(9, 9)) == Board(digits.tolist())
    board = Board(digits.tolist())
    for same in (Board(board), Board(bytearray(board)), Board(memoryview(board.cells))):
        assert type(same) is Board and same == board


def test_cell_accessors(board_mm_72):
    assert board_mm_72.cell(0, 1) == 2
    assert board_mm_72.cell(8, 8) == 0
    assert board_mm_72.row(0) == (0, 2, 7, 3, 1, 5, 6, 4, 8)
    assert board_mm_72.cells[3] == 3
    assert len(board_mm_72.cells) == 81


def test_board_equality_and_hash(board_mm_72, board_mm_11):
    again = parse_board(CANON_MM_72)
    assert board_mm_72 == again
    assert hash(board_mm_72) == hash(again)
    assert board_mm_72 != board_mm_11
    assert len({board_mm_72, again, board_mm_11}) == 2


def test_board_is_its_cells(board_mm_72):
    board = board_mm_72
    assert repr(board) == str(board) == f"Board({CANON_MM_72!r})"
    again = pickle.loads(pickle.dumps(board))
    assert type(again) is Board and again == board
    assert type(board.cells) is bytes and board.cells == bytes(board)
    assert hash(board) == hash(board.cells)
    assert board == board.cells
    boards = list(iter_modular_magic())
    assert boards == sorted(boards)


def test_writers_refuse_what_is_not_a_board(board_mm_72):
    cells = board_mm_72.cells
    for raw in (cells, cells[:80], cells[:80] + b"\x09", cells * 2):
        for write_one in (pack, format_board):
            with pytest.raises(BoardFormatError, match="^expected a Board, got bytes$"):
                write_one(raw)
        items = [board_mm_72] * (_CHUNK + 2) + [raw, board_mm_72]
        for write, fh in ((write_mssb, io.BytesIO()), (write_text, io.StringIO())):
            with pytest.raises(BoardFormatError, match=f"^item {_CHUNK + 2}: expected a Board"):
                write(fh, iter(items))


def test_block_extraction(board_mm_72):
    assert block(board_mm_72, 0, 0) == ((0, 2, 7), (1, 3, 5), (8, 4, 6))
    assert block(board_mm_72, 2, 2) == ((3, 1, 5), (8, 6, 4), (7, 2, 0))
    got = blocks(board_mm_72)
    assert len(got) == 9
    assert got[0] == block(board_mm_72, 0, 0)
    assert got[8] == block(board_mm_72, 2, 2)


@pytest.mark.parametrize("read", [
    lambda b: block(b, 5, 5), lambda b: block(b, -1, 0), lambda b: block(b, 1.5, 0),
    lambda b: block(b, 0, "1"), lambda b: b.cell(0, 9), lambda b: b.cell(-1, 0),
    lambda b: b.cell(9, 0), lambda b: b.cell(0, None), lambda b: b.row(9), lambda b: b.row(-1),
], ids=["block(5,5)", "block(-1,0)", "block(1.5,0)", "block(0,'1')", "cell(0,9)", "cell(-1,0)",
        "cell(9,0)", "cell(0,None)", "row(9)", "row(-1)"])
def test_a_coordinate_out_of_range_raises(board_mm_72, read):
    # Each coordinate is an integer in range, not a negative index or an
    # offset that wraps into the next row or block.
    with pytest.raises(DomainError):
        read(board_mm_72)


def test_sudoku_predicate(board_mm_72, board_sm_71):
    assert is_sudoku(board_mm_72)
    assert is_sudoku(board_sm_71)
    cells = bytearray(board_mm_72.cells)
    cells[0] = cells[1]
    assert not is_sudoku(Board(bytes(cells)))


def test_sudoku_predicate_is_false_for_any_other_length(board_mm_72):
    # A valid board with a byte added or taken away is not 81 cells.
    for cells in (board_mm_72 + b"\x05", board_mm_72[:80], b"", board_mm_72 * 2):
        assert not is_sudoku(cells)
        assert not is_modular_magic(cells)


def act_transpose(board):
    # act with one symmetry, as a callable of the board alone.
    return act(transpose().symmetry, board)


# What each callable gives for bytes that are not a board: a predicate
# answers False, a reader that needs a board of a kind (a variant, or a
# Sudoku board) raises DomainError, and None stands for the Board errors
# of 80 or 82 cells and of a digit 9.
@pytest.mark.parametrize("fn, text, not_a_board", [
    pytest.param(fn, text, not_a_board, id=fn.__name__) for fn, text, not_a_board in (
        (is_sudoku, CANON_MM_72, False), (is_modular_magic, CANON_MM_72, False),
        (is_semi_magic, CANON_SM_71, False), (check_two_equal, CANON_MM_72, DomainError),
        (canonicalize_mm, CANON_MM_72, DomainError), (canonicalize_sm, CANON_SM_71, DomainError),
        (blocks, CANON_MM_72, None), (act_transpose, CANON_MM_72, None),
        (keedwell_decompose, CANON_SM_71, DomainError),
        (linearity_degree, CANON_SM_71, DomainError),
    )])
def test_a_board_argument_that_is_not_bytes_like_raises(fn, text, not_a_board):
    # A board argument is a Board or a bytes-like value of single-byte
    # items; a sequence of ints or digits, even of a valid board, goes
    # through Board first, and so does an array of wider items, whose
    # raw buffer is not its cells.
    board = parse_board(text)
    malformed = ((board[:80], BoardFormatError), (board + b"\x00", BoardFormatError),
                 (b"\x09" + board[1:], DigitError))
    for value, error in malformed:
        if not_a_board is False:
            assert fn(value) is False
        else:
            with pytest.raises(not_a_board or error):
                fn(value)
    released = memoryview(bytearray(board))
    released.release()
    wide = [np.array(list(board), dtype=t) for t in (np.int64, np.int32, np.uint16, np.float64)]
    for value in (tuple(board), list(board), text, None, 5, released, *wide):
        with pytest.raises(BoardFormatError):
            fn(value)
    # A uint8 array is bytes-like, also as a view with negative strides.
    cells = np.frombuffer(board, dtype=np.uint8)
    assert fn(cells) == fn(board) == fn(cells[::-1].copy()[::-1])
    assert fn(np.array(list(board), dtype=np.uint8)) == fn(board)
    if fn.__name__.startswith("is_"):
        assert fn(cells) is True


def test_magic_predicates(board_mm_72, board_sm_71):
    assert is_modular_magic(board_mm_72)
    assert not is_semi_magic(board_mm_72)
    assert is_semi_magic(board_sm_71)
    assert not is_modular_magic(board_sm_71)


def test_block_predicates(board_mm_72, board_sm_71):
    assert all(is_magic_mod9_block(b) for b in blocks(board_mm_72))
    assert all(is_semi_magic_block(b) for b in blocks(board_sm_71))
    assert not is_semi_magic_block(block(board_mm_72, 0, 0))
    assert not is_magic_mod9_block(block(board_sm_71, 0, 0))


def test_off_diagonal_set(board_mm_72):
    assert off_diagonal_set(block(board_mm_72, 0, 0)) == frozenset({7, 8})
    for blk in blocks(board_mm_72):
        pair = off_diagonal_set(blk)
        assert len(pair) == 2
        assert pair.isdisjoint({0, 3, 6})


def test_off_diagonal_set_rejects_non_magic(board_sm_71):
    with pytest.raises(StructureError):
        off_diagonal_set(block(board_sm_71, 0, 0))


def test_pack_unpack(board_mm_72, board_sm_71, board_mm_11):
    for board in (board_mm_72, board_sm_71, board_mm_11):
        blob = pack(board)
        assert len(blob) == 41
        assert unpack(blob) == board
    with pytest.raises(BoardFormatError):
        unpack(b"\x00" * 40)
    with pytest.raises(BoardFormatError):
        unpack(b"\x99" * 41)


def test_unpack_rejects_a_padding_nibble(board_mm_72):
    blob = bytearray(pack(board_mm_72))
    blob[40] |= 0x10
    with pytest.raises(BoardFormatError):
        unpack(bytes(blob))


def test_text_stream_round_trip(board_mm_72, board_sm_71):
    fh = io.StringIO()
    write_text(fh, [board_mm_72, board_sm_71])
    fh.seek(0)
    assert list(iter_text(fh)) == [board_mm_72, board_sm_71]


def test_mssb_round_trip(board_mm_72, board_sm_71, board_mm_12):
    boards = [board_mm_72, board_sm_71, board_mm_12]
    fh = io.BytesIO()
    count = write_mssb(fh, iter(boards))
    assert count == 3
    fh.seek(0)
    assert read_mssb(fh) == boards


def test_mssb_rejects_garbage():
    with pytest.raises(BoardFormatError):
        read_mssb(io.BytesIO(b"NOPE" + bytes(12)))
    fh = io.BytesIO()
    write_mssb(fh, iter([]))
    fh.seek(0)
    assert read_mssb(fh) == []


def test_mssb_rejects_trailing_bytes(board_mm_72):
    fh = io.BytesIO()
    write_mssb(fh, iter([board_mm_72]))
    fh.write(b"\x00")
    fh.seek(0)
    with pytest.raises(BoardFormatError, match="trailing"):
        read_mssb(fh)


def test_mssb_many_boards(board_mm_72):
    rng = random.Random(11)
    base = list(board_mm_72.cells)
    boards = []
    for _ in range(257):
        rng.shuffle(base)
        boards.append(Board(bytes(base)))
    fh = io.BytesIO()
    write_mssb(fh, iter(boards))
    fh.seek(0)
    assert read_mssb(fh) == boards


# --- batch I/O against a per-board reference ---


def _reference_pack(board):
    cells = board.cells
    out = bytearray(41)
    for k in range(0, 80, 2):
        out[k // 2] = cells[k] | (cells[k + 1] << 4)
    out[40] = cells[80]
    return bytes(out)


def _reference_format(board):
    return "".join(str(d) for d in board.cells)


def _sample_boards():
    """A generator of _CHUNK + 1 seeded semi-magic boards, then MM boards."""
    rng = random.Random(9)
    yield from (random_semi_magic(rng) for _ in range(_CHUNK + 1))
    yield from itertools.islice(iter_modular_magic(), 0, 32256, 997)


@pytest.mark.parametrize("kind", ["generator", "empty", "list"])
def test_batch_io_equals_the_per_board_reference(kind, board_mm_72, board_sm_71):
    source = {
        "generator": _sample_boards,
        "empty": lambda: iter([]),
        "list": lambda: [board_mm_72, board_sm_71, board_mm_72],
    }[kind]
    boards = list(source())
    mssb = io.BytesIO()
    assert write_mssb(mssb, source()) == len(boards)
    header = b"MSSB\x01" + struct.pack("<I", len(boards))
    assert mssb.getvalue() == header + b"".join(map(_reference_pack, boards))
    mssb.seek(0)
    assert read_mssb(mssb) == boards

    text = io.StringIO()
    assert write_text(text, source()) == len(boards)
    assert text.getvalue() == "".join(_reference_format(b) + "\n" for b in boards)
    text.seek(0)
    assert list(iter_text(text)) == boards
    assert [pack(b) for b in boards[:3]] == [_reference_pack(b) for b in boards[:3]]
    assert [format_board(b) for b in boards[:3]] == [_reference_format(b) for b in boards[:3]]


def _second_chunk_mssb(board, extra=5):
    fh = io.BytesIO()
    write_mssb(fh, [board] * (_CHUNK + extra))
    return bytearray(fh.getvalue())


def test_read_mssb_names_the_board_with_a_bad_nibble(board_mm_72):
    for byte, value in ((3, 0x9F), (40, 0x10)):
        blob = _second_chunk_mssb(board_mm_72)
        blob[9 + 41 * (_CHUNK + 2) + byte] = value
        with pytest.raises(BoardFormatError, match=f"nibble above 8 in board {_CHUNK + 2}$"):
            read_mssb(io.BytesIO(bytes(blob)))


def test_read_mssb_counts_the_boards_read_before_a_truncation(board_mm_72):
    blob = _second_chunk_mssb(board_mm_72)
    cut = bytes(blob[: 9 + 41 * (_CHUNK + 2) + 20])
    message = f"truncated: {_CHUNK + 2} of {_CHUNK + 5} boards read"
    with pytest.raises(BoardFormatError, match=message):
        read_mssb(io.BytesIO(cut))


def test_iter_text_names_the_bad_line(board_mm_72):
    lines = [format_board(board_mm_72)] * (_CHUNK + 5)
    for bad, error in ((lines[0][:-1] + "9", DigitError), (lines[0][:-1], BoardFormatError)):
        text = lines[: _CHUNK + 2] + [bad] + lines[_CHUNK + 2 :]
        with pytest.raises(error, match=f"^line {_CHUNK + 3}: "):
            list(iter_text(io.StringIO("\n".join(text) + "\n")))


class _CountingReader(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_forged_mssb_count_fails_at_the_first_short_read(board_mm_72):
    fh = _CountingReader(b"MSSB\x01" + struct.pack("<I", 2**32 - 1) + pack(board_mm_72))
    with pytest.raises(BoardFormatError, match=f"truncated: 1 of {2**32 - 1} boards read"):
        read_mssb(fh)
    assert max(fh.sizes) <= 41 * _CHUNK


def _reference_iter_text(fh):
    # The per-line reader that the batch reader keeps as its fallback.
    for number, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            board = parse_board(line)
        except (BoardFormatError, DigitError) as exc:
            raise type(exc)(f"line {number}: {exc}") from None
        yield board


def _text_outcome(reader, data, newline):
    # The boards a reader yields from an encoded text file, or its error.
    fh = io.TextIOWrapper(io.BytesIO(data.encode()), encoding="utf-8", newline=newline)
    try:
        return list(reader(fh))
    except (BoardFormatError, DigitError) as exc:
        return type(exc), str(exc)


def test_parse_board_text_edge_cases(board_mm_72, board_sm_71):
    line = format_board(board_mm_72)
    for bad in ("\u0663", "9"):
        with pytest.raises(DigitError, match=bad):
            parse_board(line[:40] + bad + line[41:])
    spaced = line[:30] + "  " + line[30:60] + "\t" + line[60:]
    assert parse_board(spaced) == board_mm_72
    text = io.StringIO(f"\n{line}\n   \n{spaced}\n\n")
    assert list(iter_text(text)) == [board_mm_72, board_mm_72]
    # Streams longer than one batch, with the odd lines in the second.
    boards = [board_mm_72, board_sm_71] * _CHUNK
    lines = list(map(format_board, boards))
    head, tail = lines[: _CHUNK + 7], lines[_CHUNK + 7 :]
    blank, padded, arabic = "", "  " + line + " ", line[:40] + "\u0663" + line[41:]
    cases = [
        ("\n".join(head + [blank, padded] + tail) + "\n", None),
        ("\n".join(head + [blank, padded, arabic] + tail) + "\n", None),
        ("\n".join(head + [line[:-1], line + "0"] + tail) + "\n", None),
        ("\r\n".join(lines) + "\r\n", ""),
        ("\r\n".join(lines) + "\r\n", None),
        ("\n".join(lines), None),
        # Single lines of two rows: only "\r" ends a line here.
        (line[:40] + "\n" + line[41:] + "\n", "\r"),
        (line + "\n" + line[:1], "\r"),
    ]
    got = [_text_outcome(iter_text, data, newline) for data, newline in cases]
    assert got == [_text_outcome(_reference_iter_text, data, newline) for data, newline in cases]
    assert got[0] == boards[: _CHUNK + 7] + [board_mm_72] + boards[_CHUNK + 7 :]
    assert got[1] == (DigitError, f"line {_CHUNK + 10}: invalid digit characters: ['\u0663']")
    assert got[2] == (BoardFormatError, f"line {_CHUNK + 8}: expected 81 digits, got 80")
    assert got[3:6] == [boards] * 3
    assert got[6:] == [(BoardFormatError, f"line 1: expected 81 digits, got {n}") for n in (80, 82)]


def test_iter_text_reads_plain_lines_without_the_line_parser(board_mm_72, monkeypatch):
    # A batch of plain lines is read whole; only other batches parse lines.
    def parse(line):
        raise AssertionError(f"parsed {line!r}")

    monkeypatch.setattr("magicsudoku.boards.parse_board", parse)
    line = format_board(board_mm_72) + "\n"
    assert list(iter_text(io.StringIO(line * (_CHUNK + 3)))) == [board_mm_72] * (_CHUNK + 3)
    with pytest.raises(AssertionError, match="parsed"):
        list(iter_text(io.StringIO(line + " " + line)))


# SHA-256 of the MSSB and text streams of semi-magic slice 17, computed
# when boards were gathered cell by cell and split one at a time.
_SM_SLICE_MSSB = "bcea5e86b15d38f17c9587dc4a5937cbc37a8f78519714f4929f60b1a3db06d5"
_SM_SLICE_TEXT = "4b39242dd0030d057bfe7f633827f57a523a713be51373245c8e823acee1f8b0"


def test_sm_slice_streams_pinned():
    boards = []
    assert enumerate_semi_magic(boards.append, (17, 72)) == 82944
    mssb, text = io.BytesIO(), io.StringIO()
    write_mssb(mssb, boards)
    write_text(text, boards)
    assert hashlib.sha256(mssb.getvalue()).hexdigest() == _SM_SLICE_MSSB
    assert hashlib.sha256(text.getvalue().encode()).hexdigest() == _SM_SLICE_TEXT
    mssb.seek(0)
    text.seek(0)
    assert read_mssb(mssb) == boards
    assert list(iter_text(text)) == boards
