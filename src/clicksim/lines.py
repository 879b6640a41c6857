"""Tab-separated text lines built in bulk with numpy.

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
"""

from typing import NamedTuple

import numpy as np

# below 2**50, y and its integer part are exact in float64 and int64, and
# the tie margin y * 2**-52 stays under the 0.25 within which
# |frac(y) - 0.5| is computed exactly
_FAST_FLOAT_LIMIT = 2.0**50
_LABEL_WIDTH = 64  # bytes of a label kept in a table's slot; longer ones are spliced
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_TAB, _NEWLINE, _MINUS, _DOT, _ZERO = b"\t\n-.0"


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


def _float_slot(values: np.ndarray, separator: int) -> _Slot:
    values = values.astype(np.float64, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 1e6
        fraction = scaled - np.floor(scaled)
        exact = np.isfinite(scaled) & (scaled < _FAST_FLOAT_LIMIT)
        exact &= np.abs(fraction - 0.5) > scaled * 2.0**-52
    units = np.rint(np.where(exact, scaled, 0.0)).astype(np.uint64)
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
