"""Tab-separated text lines built and read in bulk with numpy.

Score dumps and graph files are tables of labels, integers and floats
printed with 6 decimals.  :func:`format_lines` builds a whole chunk of
such lines as one UTF-8 ``uint8`` buffer, byte for byte what joining
f-strings such as ``f"{a}\\t{b}\\t{v:.6f}\\n"`` would give.

Each field is laid out in a fixed-width slot of a byte matrix, one row
per line, with its separator after it; a mask marks the bytes in use and
compressing the matrix by it yields the lines.

Floats go through numpy only where that provably gives the correctly
rounded ``format(v, ".6f")``.  Let ``y = |v| * 1e6`` in floating point:
it differs from the exact ``|v| * 10**6`` by less than ``y * 2**-52``, so
when ``y`` lies farther than that from every half-integer, both round to
the same integer, which ``np.rint(y)`` gives.  The sign comes from
``np.signbit``, so ``-0.0`` and tiny negatives print as ``-0.000000``, as
Python prints them.  Every other value -- an exact tie such as
``0.0078125``, one within the error of a tie, a huge value, ``nan`` or
``inf`` -- is formatted by Python, one value at a time, and its text is
spliced into the buffer.  Labels longer than a table's slot width are
spliced the same way.

The read side mirrors this.  :func:`scan` reads a file through
:func:`byte_chunks`, which cuts it into byte chunks that end at a
line end; :func:`split_fields` numbers a chunk's lines and finds the
tab-separated fields of its data lines; :func:`parse_floats` and
:func:`parse_ints` parse a column of numbers and :class:`LabelIndex`
looks up a column of labels.  Each works on whole columns and gives what
Python's text reading, ``float()``, ``int()`` and a label ``dict`` give,
so the readers built on them read every chunk this way, odd input
included, and name each fault's line themselves:

- A chunk holding a ``\\r`` is first translated through
  :func:`text_lines`, so universal newlines stay Python's, and bytes
  that are not UTF-8 raise :class:`UnicodeDecodeError`.  NUL bytes are
  kept.
- A field matching ``-?\\d+\\.\\d{6}`` with at most 15 digits parses as
  ``int(digits) / 1e6``, signed.  That equals ``float(field)``: both
  ``10**6`` and every integer below ``2**53`` are exact doubles and IEEE
  division rounds correctly, so both round the same real number.  A
  field matching ``\\d+`` with at most 16 digits parses as ``int(field)``.
  Every other field goes through ``float()`` or ``int()`` one at a time,
  and a mask marks the fields they reject.
- A label is gathered into a fixed-width, zero-padded key and found in a
  hash table of the known labels, then compared byte for byte.  Fields
  longer than the table's widest label or holding a NUL byte never
  match, and the caller looks them up through Python.
"""

import io
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

# below 2**50, y and its integer part are exact in float64 and int64, and
# the tie margin y * 2**-52 stays under the 0.25 within which
# |frac(y) - 0.5| is computed exactly
_FAST_FLOAT_LIMIT = 2.0**50
_LABEL_WIDTH = 64  # bytes of a label kept in a table's slot; longer ones are spliced
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_TAB, _NEWLINE, _MINUS, _DOT, _ZERO = b"\t\n-.0"
# the first UTF-8 bytes of the characters ``str.isspace`` accepts
_SPACE_LEADS = [9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 0xC2, 0xE1, 0xE2, 0xE3]
# lines starting with one of these bytes may be comments or blank; others
# hold data for every reader
_MAYBE_SKIPPED = np.zeros(256, dtype=bool)
_MAYBE_SKIPPED[_SPACE_LEADS + [ord("#")]] = True
# zero bytes on both sides of a chunk, so fixed-width windows at any
# field stay inside the buffer
_PAD = bytes(_LABEL_WIDTH)
# entry j keeps the first, or the last, j bytes of a little-endian word
_PREFIX_MASKS = ((np.arange(8) < np.arange(9)[:, None]) * np.uint8(255)).view("<u8").ravel()
_SUFFIX_MASKS = _PREFIX_MASKS[::-1] ^ np.uint64(2**64 - 1)
# ASCII '0' in every byte, every high nibble, 6 in every byte
_ZEROS, _HIGH_NIBBLES, _SIXES = (np.uint64(b * 0x0101010101010101) for b in (0x30, 0xF0, 0x06))


class LabelTable:
    """Labels encoded once as UTF-8, for the label columns of
    :func:`format_lines`.

    ``rows`` holds each label's first ``width`` bytes, zero-padded, plus
    one spare byte for the separator that follows the label.
    """

    def __init__(self, labels):
        self.encoded = [label.encode("utf-8") for label in labels]
        self.lengths = np.fromiter(map(len, self.encoded), np.int64, len(self.encoded))
        self.width = min(int(self.lengths.max(initial=0)), _LABEL_WIDTH)
        rows = np.zeros((len(self.encoded), self.width + 1), dtype=np.uint8)
        kept = np.minimum(self.lengths, self.width)
        flat = np.frombuffer(
            b"".join(text[: self.width] for text in self.encoded), dtype=np.uint8
        )
        rows[np.arange(self.width + 1) < kept[:, None]] = flat
        # one opaque item per row, so gathering rows is one copy each
        self.rows = rows.view(f"V{self.width + 1}").ravel()


class _Slot(NamedTuple):
    """One field of every line, its separator included.

    ``block`` holds the field's text in fixed-width rows, ``mask`` marks
    the bytes in use, ``used`` counts them per row, and the ``spliced``
    texts go at the end of the ``spliced_rows``' fields, before the
    separator.
    """

    block: np.ndarray
    mask: np.ndarray
    used: np.ndarray
    spliced_rows: np.ndarray
    spliced: list[bytes]


def format_lines(*columns) -> np.ndarray:
    """One line per row, fields joined by tabs, as a UTF-8 ``uint8`` buffer.

    A column is a ``(LabelTable, indices)`` pair, which prints the
    labels at those indices; an integer array, printed as ``str(int)``
    does; or a float array, printed as ``f"{v:.6f}"`` does.  All columns
    have one entry per line.
    """
    slots = []
    for k, column in enumerate(columns):
        separator = _NEWLINE if k == len(columns) - 1 else _TAB
        if isinstance(column, tuple):
            slots.append(_label_slot(*column, separator))
        elif np.issubdtype(column.dtype, np.integer):
            slots.append(_int_slot(column, separator))
        else:
            slots.append(_float_slot(column, separator))
    out = np.hstack([s.block for s in slots])[np.hstack([s.mask for s in slots])]
    if not any(s.spliced for s in slots):
        return out
    # where each field's separator lands in ``out``
    field_end = np.cumsum(np.column_stack([s.used for s in slots]), axis=1)
    line_start = np.cumsum(field_end[:, -1]) - field_end[:, -1]
    at, texts = [], []
    for k, slot in enumerate(slots):
        at.append(line_start[slot.spliced_rows] + field_end[slot.spliced_rows, k] - 1)
        texts += slot.spliced
    sizes = np.fromiter(map(len, texts), np.int64, len(texts))
    at = np.repeat(np.concatenate(at), sizes)
    return np.insert(out, at, np.frombuffer(b"".join(texts), dtype=np.uint8))


def _label_slot(table: LabelTable, index: np.ndarray, separator: int) -> _Slot:
    n = len(index)
    block = table.rows[index].view(np.uint8).reshape(n, table.width + 1)
    lengths = table.lengths[index]
    kept = np.minimum(lengths, table.width)
    block[np.arange(n), kept] = separator
    mask = np.arange(table.width + 1) <= kept[:, None]
    long_rows = np.flatnonzero(lengths > table.width)
    tails = [table.encoded[i][table.width :] for i in index[long_rows].tolist()]
    return _Slot(block, mask, kept + 1, long_rows, tails)


def _digits(magnitude: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of unsigned ``magnitude``, right-aligned and zero-padded
    in rows of ``width``."""
    out = np.empty((magnitude.size, width), dtype=np.uint8)
    # division is several times faster on 32 bits than on 64
    narrow = magnitude.size and magnitude.max() < 2**32
    rest = magnitude.astype(np.uint32 if narrow else np.uint64)
    for place in range(width - 1, -1, -1):
        out[:, place] = rest % 10 + _ZERO
        rest //= 10
    return out


def _signed_slot(negative: np.ndarray, magnitude: np.ndarray, tail: np.ndarray):
    """Rows of ``[-]digits``, then the fixed-width ``tail`` rows.

    Returns the rows and the column at which each row's text starts.
    """
    count = np.searchsorted(_POWERS_OF_TEN, magnitude, side="right") + 1
    width = int(count.max(initial=1))
    block = np.empty((magnitude.size, 1 + width + tail.shape[1]), dtype=np.uint8)
    block[:, 1 : 1 + width] = _digits(magnitude, width)
    block[:, 1 + width :] = tail
    first = 1 + width - count - negative
    block[np.flatnonzero(negative), first[negative]] = _MINUS
    return block, first


def _int_slot(values: np.ndarray, separator: int) -> _Slot:
    values = values.astype(np.int64, copy=False)
    negative = values < 0
    # two's complement negation in uint64 is exact, even for the minimum
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    tail = np.full((values.size, 1), separator, dtype=np.uint8)
    block, first = _signed_slot(negative, magnitude, tail)
    return _right_aligned(block, first, np.empty(0, dtype=np.int64), [])


def micro_units(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(units, exact)`` of float64 ``values``: ``units`` is
    ``rint(|v| * 1e6)`` as ``uint64``, and ``exact`` marks where that is
    the correctly rounded ``|v| * 10**6``, the digits ``f"{v:.6f}"``
    prints (see the module docstring).  Elsewhere ``units`` is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 1e6
        fraction = scaled - np.floor(scaled)
        exact = np.isfinite(scaled) & (scaled < _FAST_FLOAT_LIMIT)
        exact &= np.abs(fraction - 0.5) > scaled * 2.0**-52
    return np.rint(np.where(exact, scaled, 0.0)).astype(np.uint64), exact


def _float_slot(values: np.ndarray, separator: int) -> _Slot:
    values = values.astype(np.float64, copy=False)
    units, exact = micro_units(values)
    tail = np.empty((values.size, 8), dtype=np.uint8)
    tail[:, 0] = _DOT
    tail[:, 1:7] = _digits(units % 1_000_000, 6)
    tail[:, 7] = separator
    block, first = _signed_slot(np.signbit(values), units // 1_000_000, tail)
    # the rest print through Python; their slots keep the separator only
    slow = np.flatnonzero(~exact)
    first[slow] = block.shape[1] - 1
    texts = [f"{v:.6f}".encode("ascii") for v in values[slow].tolist()]
    return _right_aligned(block, first, slow, texts)


def _right_aligned(block, first, spliced_rows, spliced) -> _Slot:
    """A slot whose rows hold text from column ``first`` to the end."""
    width = block.shape[1]
    mask = np.arange(width) >= first[:, None]
    return _Slot(block, mask, width - first, spliced_rows, spliced)


# -- reading ------------------------------------------------------------------


def byte_chunks(path: str | Path, size: int) -> Iterator[bytes]:
    """The bytes of a file, about ``size`` bytes at a time, each chunk but
    the last cut after its last line end.

    A line ends after a ``\\n``, or after a ``\\r`` that is followed by
    another byte than ``\\n``.  A cut there never splits a UTF-8
    character or a ``\\r\\n`` pair, so a chunk decodes and splits into
    lines on its own, as the whole file would there.
    """
    with open(path, "rb") as fh:
        rest = b""
        # reading at least as much as is carried keeps a long line linear
        while block := fh.read(max(size, len(rest))):
            block = rest + block
            cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
            rest = block[cut:]
            if cut:
                yield block[:cut]
        if rest:
            yield rest


def text_lines(chunk: bytes) -> list[str]:
    """The lines of ``chunk`` as a file opened in text mode as UTF-8 yields
    them: universal newlines, and :class:`UnicodeDecodeError` on bytes
    that are not UTF-8."""
    return io.TextIOWrapper(io.BytesIO(chunk), encoding="utf-8").readlines()


def repeated(keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` equals an earlier one."""
    order = np.argsort(keys, kind="stable")
    out = np.zeros(keys.size, dtype=bool)
    out[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out


def first_fault(numbers, checks, fault=None):
    """The earliest ``(number, message)`` of the parse ``fault`` and the
    checks, or ``None``.  A check is ``(mask, describe)``: a mask over the
    rows read, which ``numbers`` numbers, and ``describe(row)`` gives the
    message.  At one number ``fault`` wins, then the check listed first."""
    flagged = [
        (int(numbers[row]), k, row)
        for k, (bad, _) in enumerate(checks)
        for row in np.flatnonzero(bad)[:1].tolist()
    ]
    first = min(flagged, default=None)
    if first is None or (fault is not None and fault[0] <= first[0]):
        return fault
    number, k, row = first
    return number, checks[k][1](row)


class Fields(NamedTuple):
    """The fields of a chunk's data lines.

    ``buf`` holds the chunk's bytes between zero pads, and field ``k`` of
    data row ``i`` is ``buf[starts[i, k]:ends[i, k]]``.  ``numbers`` holds
    each row's line number, a ``range`` where the rows are consecutive
    lines.  ``skipped`` holds the comment and blank lines as ``(number,
    text)``.  ``misfit`` is ``(number, field count)`` of the first data
    line without the fields asked for, or ``None``; no row from there on
    is kept.  ``next_line`` numbers the line after the chunk, and
    ``nuls`` holds the offsets of NUL bytes in ``buf``.
    """

    buf: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    numbers: range | np.ndarray
    skipped: list[tuple[int, str]]
    misfit: tuple[int, int] | None
    next_line: int
    nuls: np.ndarray

    def text(self, row: int, column: int) -> str:
        lo, hi = self.starts[row, column], self.ends[row, column]
        return self.buf[lo:hi].tobytes().decode("utf-8")


def split_fields(
    chunk: bytes, count: int, skip: Callable[[str], bool], first: int
) -> Fields:
    """Split the lines of ``chunk`` that ``skip`` rejects into ``count``
    tab-separated fields, numbering the lines from ``first``.

    The lines are those text mode gives: a chunk holding a ``\\r`` goes
    through :func:`text_lines` first, and bytes that are not UTF-8 raise
    :class:`UnicodeDecodeError`.  ``skip`` sees each line that starts
    with ``#``, with whitespace or with a non-ASCII byte, as text with its
    newline, and returns whether it is a comment or blank; every other
    line is data.
    """
    if b"\r" in chunk:
        chunk = "".join(text_lines(chunk)).encode("utf-8")
    elif not chunk.isascii():
        chunk.decode("utf-8")
    last = b"" if chunk.endswith(b"\n") or not chunk else b"\n"
    buf = np.frombuffer(b"".join((_PAD, chunk, last, _PAD)), dtype=np.uint8)
    inner = buf[len(_PAD) : -len(_PAD)]
    # tabs and newlines, found in one pass with the few other control
    # bytes below them, which are dropped after
    sep = np.flatnonzero(inner < _NEWLINE + 1) + len(_PAD)
    kind = buf[sep]
    if (kind < _TAB).any():
        sep = sep[kind >= _TAB]
        kind = buf[sep]
    at_newline = kind == _NEWLINE
    line_end = sep[at_newline]
    line_start = np.concatenate(([len(_PAD)], line_end + 1))[: line_end.size]

    skipped = []
    data = np.ones(line_end.size, dtype=bool)
    for i in np.flatnonzero(_MAYBE_SKIPPED[buf[line_start]]).tolist():
        text = buf[line_start[i] : line_end[i] + 1].tobytes().decode("utf-8")
        if skip(text):
            data[i] = False
            skipped.append((first + i, text))
    if skipped:
        kept = data[np.cumsum(at_newline) - at_newline]
        sep, at_newline = sep[kept], at_newline[kept]
    lines = np.flatnonzero(data) if skipped else None
    rows = line_end.size - len(skipped)
    misfit = None
    # each data line ends in its one newline, so every line has ``count``
    # fields exactly when every ``count``-th separator is a newline
    if sep.size != rows * count or not at_newline[count - 1 :: count].all():
        row_of = np.cumsum(at_newline) - at_newline
        per_line = np.bincount(row_of, minlength=rows)
        rows = int(np.argmax(per_line != count))
        line = rows if lines is None else int(lines[rows])
        misfit = (first + line, int(per_line[rows]))
        sep = sep[: rows * count]
    ends = sep.reshape(rows, count)
    starts = np.empty_like(ends)
    starts[:, 0] = line_start[data][:rows]
    starts[:, 1:] = ends[:, :-1] + 1
    numbers = range(first, first + rows) if lines is None else lines[:rows] + first
    nuls = np.flatnonzero(inner == 0) + len(_PAD) if b"\0" in chunk else np.empty(0, np.int64)
    return Fields(buf, starts, ends, numbers, skipped, misfit, first + line_end.size, nuls)


class LineNumbers:
    """The line numbers of the rows of many chunks, kept as each chunk's
    :attr:`Fields.numbers`, so a chunk of consecutive lines costs no
    memory per row.  ``numbers[row]`` looks one up."""

    def __init__(self, chunks: list):
        self._chunks = chunks
        self._firsts = np.cumsum([0] + [len(numbers) for numbers in chunks])

    def __getitem__(self, row: int) -> int:
        k = int(np.searchsorted(self._firsts, row, side="right")) - 1
        return int(self._chunks[k][row - self._firsts[k]])


def scan(path: str | Path, size: int, count: int, skip: Callable[[str], bool], read):
    """Read a file of ``count``-field lines :func:`byte_chunks` at a time.

    ``read(fields)`` turns a chunk's :class:`Fields` into a tuple of
    columns and the chunk's first fault as ``(line number, message)``, or
    ``None``.  Reading stops after the chunk holding a fault.  Returns
    each column over every chunk read, their rows' :class:`LineNumbers`
    and the fault.
    """
    # typed columns, for an empty file
    parts, numbers, first = [read(split_fields(b"", count, skip, 1))[0]], [], 1
    fault = None
    for chunk in byte_chunks(path, size):
        fields = split_fields(chunk, count, skip, first)
        part, fault = read(fields)
        parts.append(part)
        numbers.append(fields.numbers)
        first = fields.next_line
        if fault is not None:
            break
    return [np.concatenate(column) for column in zip(*parts)], LineNumbers(numbers), fault


def _words(buf: np.ndarray) -> np.ndarray:
    """A sliding window over ``buf``: the 8 bytes from each offset as one
    little-endian word.  It is a view, so reading a word is one gather."""
    return np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))


def _eight_digits(words: np.ndarray, count: np.ndarray):
    """The integers that the last ``count`` bytes (0 to 8) of each word
    spell, and whether those bytes are all ASCII digits.

    The other bytes are set to ``'0'``, so each word spells 8 digits,
    the first in its lowest byte.  A byte is a digit when its high
    nibble is 3 both as is and after adding 6, which cannot carry into
    the next byte once every high nibble is 3.  The digits are then
    combined in pairs, fours and eights, each step one multiply.
    """
    keep = _SUFFIX_MASKS[count]
    text = (words & keep) | (_ZEROS & ~keep)
    digits = ((text & _HIGH_NIBBLES) == _ZEROS) & (
        ((text + _SIXES) & _HIGH_NIBBLES) == _ZEROS
    )
    value = ((text & np.uint64(0x0F0F0F0F0F0F0F0F)) * np.uint64(2561)) >> np.uint64(8)
    value = ((value & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601)) >> np.uint64(16)
    value = ((value & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001)) >> np.uint64(32)
    return value, digits


def parse_floats(fields: Fields, column: int) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of each field of ``column``, and a mask of the fields
    ``float()`` rejects, whose values are 0."""
    buf, starts, ends = fields.buf, fields.starts[:, column], fields.ends[:, column]
    words = _words(buf)
    negative = buf[starts] == _MINUS
    whole = ends - 7 - starts - negative  # digits before the point
    # the last 8 bytes, "d.dddddd", read as "0ddddddd": the digit before
    # the point takes the point's byte
    tail = words[ends - 8]
    tail = (tail & np.uint64(~0xFFFF & (2**64 - 1))) | ((tail & np.uint64(0xFF)) << np.uint64(8))
    low, low_digits = _eight_digits(tail | np.uint64(_ZERO), 8)
    high, high_digits = _eight_digits(words[ends - 16], np.clip(whole - 1, 0, 8))
    fast = (whole >= 1) & (whole <= 9) & (buf[ends - 7] == _DOT) & low_digits & high_digits
    values = (high * np.uint64(10**7) + low).astype(np.float64) / 1e6
    np.negative(values, out=values, where=negative)
    bad = np.zeros(values.size, dtype=bool)
    for i in np.flatnonzero(~fast).tolist():
        try:
            values[i] = float(fields.text(i, column))
        except ValueError:
            values[i], bad[i] = 0.0, True
    return values, bad


def parse_ints(fields: Fields, column: int) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` of each field of ``column`` as int64, and a mask of the
    fields ``int()`` rejects or int64 cannot hold, whose values are 0."""
    ends = fields.ends[:, column]
    lengths = ends - fields.starts[:, column]
    words = _words(fields.buf)
    low, low_digits = _eight_digits(words[ends - 8], np.clip(lengths, 0, 8))
    high, high_digits = _eight_digits(words[ends - 16], np.clip(lengths - 8, 0, 8))
    fast = (lengths >= 1) & (lengths <= 16) & low_digits & high_digits
    values = (high * np.uint64(10**8) + low).astype(np.int64)
    bad = np.zeros(values.size, dtype=bool)
    for i in np.flatnonzero(~fast).tolist():
        try:
            values[i] = int(fields.text(i, column))
        except (ValueError, OverflowError):
            values[i], bad[i] = 0, True
    return values, bad


def label_keys(fields: Fields, column: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each field of ``column`` zero-padded to ``width`` bytes, a multiple
    of 8, as rows of ``width // 8`` little-endian words; and a mask of
    the fields whose rows do not name them: those longer than ``width``,
    whose rows are cut, and those holding a NUL byte, which the padding
    hides."""
    starts, ends = fields.starts[:, column], fields.ends[:, column]
    lengths = ends - starts
    words = _words(fields.buf)
    keys = np.empty((starts.size, width // 8), dtype="<u8")
    for k in range(width // 8):
        keys[:, k] = words[starts + 8 * k] & _PREFIX_MASKS[np.clip(lengths - 8 * k, 0, 8)]
    irregular = lengths > width
    if fields.nuls.size and starts.size:
        # the last field starting at or before each NUL, if it reaches it
        row = np.searchsorted(starts, fields.nuls, side="right") - 1
        inside = (row >= 0) & (fields.nuls < ends[np.maximum(row, 0)])
        irregular[row[inside]] = True
    return keys, irregular


_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


class LabelIndex:
    """Exact lookup of labels in bulk.

    The labels are kept as zero-padded keys of ``width`` bytes, ``width``
    a multiple of 8 up to 64, in an open-addressing hash table with
    linear probing.  Labels longer than 64 bytes or holding a NUL byte
    are left out, and so are such fields (see :func:`label_keys`), so
    the caller finds them through Python and a zero-padded key names one
    label.
    """

    def __init__(self, labels):
        encoded = [label.encode("utf-8") for label in labels]
        ids = np.array(
            [
                i for i, text in enumerate(encoded)
                if len(text) <= _LABEL_WIDTH and b"\0" not in text
            ],
            dtype=np.int64,
        )
        longest = max((len(encoded[i]) for i in ids.tolist()), default=1)
        self.width = -(-longest // 8) * 8
        rows = np.zeros((ids.size, self.width), dtype=np.uint8)
        for row, i in enumerate(ids.tolist()):
            rows[row, : len(encoded[i])] = np.frombuffer(encoded[i], dtype=np.uint8)
        keys = rows.view("<u8").T  # one row per word of the keys
        self._bits = max(4, (2 * ids.size).bit_length())  # at most half full
        size = 1 << self._bits
        # each slot holds a label's index and key; an empty one index -1
        self._ids = np.full(size, -1, dtype=np.int64)
        self._keys = np.zeros((keys.shape[0], size), dtype="<u8")
        # place every key in the first free slot from its home on, so no
        # free slot lies between a key's home and its slot
        self._probes = 0
        pending = np.arange(ids.size)
        home = self._home(keys)
        while pending.size:
            at = (home[pending] + self._probes) & (size - 1)
            taken, first = np.unique(at, return_index=True)
            free = self._ids[taken] < 0
            chosen = pending[first[free]]
            self._ids[taken[free]] = ids[chosen]
            self._keys[:, taken[free]] = keys[:, chosen]
            placed = np.zeros(pending.size, dtype=bool)
            placed[first[free]] = True
            pending = pending[~placed]
            self._probes += 1

    def _home(self, keys: np.ndarray) -> np.ndarray:
        mixed = keys[0] * _HASH_MULTIPLIER
        for word in keys[1:]:
            mixed = (mixed ^ word) * _HASH_MULTIPLIER
        return (mixed >> np.uint64(64 - self._bits)).astype(np.int64)

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Index of the label of each key (a column of ``keys``), or -1."""
        last = self._ids.size - 1
        at = self._home(keys)
        found = self._ids[at]
        same = found >= 0
        for word, table in zip(keys, self._keys):
            same &= table[at] == word
        # keys whose home slot holds another label probe on; an empty
        # slot ends the probing
        going = np.flatnonzero(~same & (found >= 0))
        found[~same] = -1
        for probe in range(1, self._probes):
            if not going.size:
                break
            at_going = (at[going] + probe) & last
            slot = self._ids[at_going]
            same = slot >= 0
            for word, table in zip(keys, self._keys):
                same &= table[at_going] == word[going]
            found[going[same]] = slot[same]
            going = going[~same & (slot >= 0)]
        return found

    def find(self, fields: Fields, column: int) -> np.ndarray:
        """Index of the label each field of ``column`` spells, or -1.

        Where most fields repeat the one before, as in the sorted first
        column of a dump, each run of equal fields is looked up once.
        """
        keys, irregular = label_keys(fields, column, self.width)
        keys = keys.T
        new = irregular.copy()  # a key that names no field is a run of its own
        new[:1] = True
        new[1:] |= irregular[:-1]
        for word in keys:
            new[1:] |= word[1:] != word[:-1]
        if 2 * np.count_nonzero(new) > new.size:
            found = self._lookup(keys)
            found[irregular] = -1
            return found
        runs = np.flatnonzero(new)
        found = self._lookup(keys[:, runs])
        found[irregular[runs]] = -1
        return found[np.cumsum(new) - 1]
