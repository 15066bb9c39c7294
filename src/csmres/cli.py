"""Command-line front end and deterministic serialization layer.

Subcommands: ``spectrum`` (closed-form resonance ladder), ``regions``
(coupling-window curves on a theta grid), ``overlap`` (bin-basis overlap
and Hamiltonian matrices, rows and columns labelled ``bin[j]``, plus the
resonance's phase rigidity at the configured offsets from the branch
point), ``berry``
(branch-point loop trace and verdicts, with the exact Puiseux
coefficients of the straddling-bin energy), and ``wavefunction``
(grid dump of the scaled solution).  Identical configs produce
byte-identical files.

Serialization: every number is written with 17 significant digits, the
bytes of ``'%.17g' % x``, and each number is formatted once.  A pass of
at least ``_KERNEL_FLOOR`` values, and at most ``_CSV_BLOCK``, is
formatted in numpy (``_kernel_rows``): each value times a correctly
rounded power of ten, as a double-double whose error is below 2^-47,
gives its 17-digit integer, and its text is gathered from its digits by a
layout per sign, exponent and digit count, as a row of ``_WIDTH`` bytes
padded with NULs.  The kernel leaves to ``%`` non-finite values, nonzero
values outside [1e-280, 1e280] and those whose scaled fraction is within
``_TIE_MARGIN`` (2^-30, far above the error) of a half; a smaller pass
takes one ``%`` format (``_percent_texts``).  A table is a dict of
equal-length columns: a numpy array of real values, or text (labels,
integers, pooled number text).  It is written in blocks of
``_CSV_BLOCK`` rows (``_block``): each block's numbers are formatted
column by column as rows of bytes, pooled text is gathered as rows, and
other text is encoded to rows once per column.  From those rows the
block's CSV rows and, when a JSON record array holds the table, its
records are built in numpy (``_lines``): the constant text of a line (the
commas and newline, or the record's text split at its cells) and the
cells' rows side by side in one array of bytes, whose NUL padding one
boolean compress drops; the bytes go to the open files, which are
binary, before the next block is formatted.  A block of fewer than
``_KERNEL_FLOOR`` rows, as in a small table or at the end of a long one,
takes its numbers from one ``%`` format and its cells as text, and one
join builds its lines, which is faster there.  A text cell that holds a
NUL, which the padding would hide, is refused.  The JSON fields around a
record array are encoded whole, as they are small.  A CSV file may hold
several tables: overlap.csv holds the S matrix and then H, while
overlap.json writes H first, so the CSV rows of H are held until those
of S are written.  So a table costs the writer one block of text, not
the whole table's; the held H rows are n_bins^2 CSV rows, at most about
1.3 MB.  The berry table's loop columns are pooled by winding
(``_pooled_texts``): after each turn the loop revisits its couplings and
its two sheets swap, so a cell of the coupling or of a sheet energy
whose bits equal those of its own column's cell one turn back, or of the
other sheet's, takes that cell's text, and only the cells that repeat no
cell one turn back are formatted: about 8 800 of the 24 582 such cells
of a 4 x 1024-step loop.  The running factor changes only at crossings and
is pooled one row back, and the region column encodes each of its labels
once (``_repeated_labels``); each block gathers the rows of its cells.
Every other number (grid points, wave functions, phases) does not
repeat, so pooling would only add cost.  A JSON file holds exactly the
bytes of the stdlib's ``json.dump(payload, indent=2, sort_keys=True)``
plus a newline, where each number is a string of its 17-digit text, each
complex number an object {"im", "re"}, and labels are escaped as
``ensure_ascii`` does; its text is ASCII.  Text cells of a CSV file are
written as UTF-8.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .errors import ConfigError, CsmError, PreconditionViolation
from .model import (
    ModelParams,
    branch_point,
    lambda_window,
    resonance_energy,
)

_CSV_VERSION = "v1"

# Largest count (grid points, bins, levels, loop steps) a config may ask
# for: far above every benchmark size (16 385 grid points, 4 x 1024 loop
# steps), and refused before any array of that length is allocated.
_MAX_COUNT = 2 ** 20
# Largest overlap sizes: the S and H matrices grow with the square of the
# bin count, and _MAX_BINS keeps one default-grid overlap run to about a
# minute; every delta is one resonance state and its c-norm, about 3 ms,
# so _MAX_DELTAS of them take about a second.
_MAX_BINS = 144
_MAX_DELTAS = 256
# Rows per block of every table: the writer holds the text of one block
# of each table (with the pooled berry texts, and the overlap's held H
# rows), so its memory does not grow with the table; 2 048 rows of a
# wave function are 147 kB of number rows, about 120 kB of CSV text and
# 230 kB of JSON
_CSV_BLOCK = 2048
# Lines built in one array of bytes by _lines: 512 wave-function records
# are about 67 kB, 512 berry rows 132 kB, with as much again of mask; a
# whole block's array raised the berry benchmark's peak RSS by 0.6 MB and
# was no faster
_LINE_ROWS = 512
# Fewest values a pass of the digit kernel (_kernel_rows) takes: it costs
# about 100 us per pass whatever the size, and below about 256 values one
# `%` format is faster (CHANGES.md gives the timings by size); a block of
# fewer rows is also joined as text, not built in numpy (_block)
_KERNEL_FLOOR = 256
# The kernel leaves to `%` the nonzero values outside [_KERNEL_MIN,
# _KERNEL_MAX], where the low part of 10^k or a split product would be
# subnormal or overflow, and those whose scaled value's fraction is within
# _TIE_MARGIN of a half: the double-double product's error is below 2^-47
# (see _scaled), so outside the margin its rounding is the exact one
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
_TIE_MARGIN = 2.0 ** -30
# Decimal exponents k of the power table (10^k), and of the exponent text
_POW_MIN, _POW_MAX = -270, 300
_EXP_MAX = 330
# Dekker's splitting constant 2^27 + 1: v * _SPLIT splits v into two
# halves of 26 bits whose products are exact
_SPLIT = 134217729.0
# Byte columns of a value's 32-byte source row, which its text is gathered
# from: the minus sign, a zero and the point, the first digit and the 16
# others, the exponent "e+ddd", and a NUL that pads the text to _WIDTH
_MINUS, _ZERO, _POINT, _DIGIT, _EXP, _PAD = 0, 1, 2, 7, 24, 31
_WIDTH = 24
# Layout keys: a negative value's are _SIGN_KEY above those of a positive
# one (23 classes of 17 digit counts), and +0.0 has _ZERO_KEY, -0.0 the next
_SIGN_KEY = 23 * 17
_ZERO_KEY = 2 * _SIGN_KEY
_ROW = np.dtype(("S", _WIDTH))


def _percent_texts(values) -> list:
    """The text of each real value from one ``%.17g`` format."""
    values = values.tolist()
    return (("%.17g\n" * len(values)) % tuple(values)).split("\n")[:-1]


def _rows_of(texts: list, dtype=bytes) -> np.ndarray:
    """ASCII texts, or bytes, as rows of bytes padded with NULs, as wide as
    ``dtype``, or as the longest text."""
    rows = np.array(texts, dtype)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def _split(v):
    """Dekker's split of v into a high part of 26 bits and the rest."""
    t = v * _SPLIT
    high = t - (t - v)
    return high, v - high


def _layout(negative: bool, e: int, digits: int) -> list:
    """The source columns of the ``%.17g`` text of a value with the sign
    ``negative``, decimal exponent ``e`` of its 17-digit rounding and
    ``digits`` significant digits left after stripping trailing zeros (0
    for a zero), padded to ``_WIDTH``."""
    number = list(range(_DIGIT, _DIGIT + 17))
    if digits == 0:
        cols = [_ZERO]
    elif e < -4 or e > 16:
        cols = number[:1] + [_POINT] * (digits > 1) + number[1:digits] + [
            _EXP, _EXP + 1] + [_EXP + 2] * (abs(e) >= 100) + [_EXP + 3,
                                                               _EXP + 4]
    elif e < 0:
        cols = [_ZERO, _POINT] + [_ZERO] * (-1 - e) + number[:digits]
    else:
        cols = number[:e + 1] + [_POINT] * (digits > e + 1) \
            + number[e + 1:digits]
    cols = [_MINUS] * negative + cols
    return cols + [_PAD] * (_WIDTH - len(cols))


@functools.cache
def _powers() -> tuple:
    """10^k for k in _POW_MIN.._POW_MAX as correctly rounded double-doubles
    (high, low), and the split of the high parts."""
    high, low = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        # Python's int / int is correctly rounded, and so is the
        # remainder num / den - h as one such quotient
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        high.append(h)
        low.append((num * h_den - h_num * den) / (den * h_den))
    return (np.array(high), np.array(low)) + _split(np.array(high))


@functools.cache
def _text_tables() -> tuple:
    """Lookup tables of the kernel's text: the four digits of each group
    0..9999 (one uint32 of bytes each), a group's significant digits (-16
    for 0000), the source row's first word for each first digit, the
    exponent text of each e in -_EXP_MAX.._EXP_MAX (one uint64 of bytes
    each), the layout class of each e, and the layouts by key."""
    group = np.arange(10000)
    digits = group[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = sum(group % 10 ** i == 0 for i in (1, 2, 3))
    exponents = range(-_EXP_MAX, _EXP_MAX + 1)
    # the layout classes: e of a fixed-point text (-4..16), and exponent
    # texts of two and three digits (any e for each); a layout's key is
    # 17 class + the index of its last significant digit, plus _SIGN_KEY
    # if negative
    classes = list(range(-4, 17)) + [17, 100]
    return ((digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
            np.where(group > 0, 4 - trailing, -16).astype(np.int8),
            np.frombuffer(b"".join(b"-0.\0\0\0\0%d" % d for d in range(10)),
                          np.uint64),
            np.frombuffer(b"".join(b"e%+04d\0\0\0" % e for e in exponents),
                          np.uint64),
            np.array([17 * (e + 4 if -4 <= e <= 16 else 21 + (abs(e) >= 100))
                      for e in exponents], np.intp),
            np.array([_layout(negative, e, digits) for negative in (0, 1)
                      for e in classes for digits in range(1, 18)]
                     + [_layout(negative, 0, 0) for negative in (0, 1)],
                     np.uint8))


def _scaled(a, e) -> tuple:
    """y = a 10^(16 - e) as a double-double (high, low): Dekker's exact
    product of a and the power's high part, plus a times its low part.
    For y < 2^57 the error of high + low is below 2^-47 (7e-15): 2^-106 y
    each from the power's rounding and from a times its low part, and
    2^-49 from adding the product's error, which is below 8, to the
    latter, below 16.  For y >= 2^53 the high part is an integer."""
    high, low, p_high, p_low = _powers()
    k = (16 - _POW_MIN) - e
    power = high.take(k)
    product = a * power
    a_high, a_low = _split(a)
    b_high, b_low = p_high.take(k), p_low.take(k)
    error = ((a_high * b_high - product) + a_high * b_low
             + a_low * b_high) + a_low * b_low
    return product, error + a * low.take(k)


def _kernel_rows(x) -> np.ndarray:
    """The ``%.17g`` text of each value of the float64 array ``x``, in
    numpy, as rows of ``_WIDTH`` bytes padded with NULs: the 17-digit
    integer of each value as a double-double product with a power of ten,
    then its text gathered from per-value source rows by a layout per sign,
    exponent class and digit count.  Values the kernel leaves (see
    _KERNEL_MIN) are formatted by ``%``."""
    a = np.abs(x)
    zero = a == 0.0
    in_kernel = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    a[~in_kernel] = 1.0
    # log10 may be an ulp off near a power of ten: the scaled value y of
    # a wrong exponent is outside [1e16, 1e17), and is scaled again
    e = np.floor(np.log10(a)).astype(np.intp)
    y, low = _scaled(a, e)
    below = (y < 1e16) | (y == 1e16) & (low < 0.0)
    above = (y > 1e17) | (y == 1e17) & (low >= 0.0)
    wrong = np.flatnonzero(below | above)
    if len(wrong):
        e[wrong] += 2 * above[wrong] - 1
        y[wrong], low[wrong] = _scaled(a[wrong], e[wrong])
    # the high part y is an even integer, so the low part's nearest
    # integer, ties to even, rounds y + low
    step = np.rint(low)
    in_kernel &= np.abs(low - step) < 0.5 - _TIE_MARGIN
    in_kernel |= zero
    integer = y.astype(np.int64) + step.astype(np.int64)
    decade = integer == 10 ** 17
    integer -= decade * (9 * 10 ** 16)
    e += decade
    groups, significant, first_word, exponents, classes, layouts = \
        _text_tables()
    top, bottom = np.divmod(integer, 10 ** 8)
    first, top = np.divmod(top, 10 ** 8)
    group = np.empty((len(x), 4), np.intp)
    group[:, 0], group[:, 1] = np.divmod(top, 10 ** 4)
    group[:, 2], group[:, 3] = np.divmod(bottom, 10 ** 4)
    source = np.empty((len(x), 4), np.uint64)
    source[:, 0] = first_word.take(first)
    source.view(np.uint32)[:, 2:6] = groups.take(group)
    source[:, 3] = exponents.take(e + _EXP_MAX)
    # digit 0 is the first, group i holds digits 4i + 1 to 4i + 4
    sig = significant.take(group)
    last = np.maximum(np.maximum(sig[:, 0], sig[:, 1] + 4),
                      np.maximum(sig[:, 2] + 8, sig[:, 3] + 12))
    negative = np.signbit(x)
    key = classes.take(e + _EXP_MAX) + _SIGN_KEY * negative \
        + np.maximum(last, 0)
    key[zero] = _ZERO_KEY + negative[zero]
    at = np.add(layouts.take(key, axis=0),
                np.arange(0, 32 * len(x), 32)[:, None], dtype=np.intp)
    rows = source.view(np.uint8).ravel().take(at)
    rest = np.flatnonzero(~in_kernel)
    if len(rest):
        rows[rest] = _rows_of(_percent_texts(x[rest]), _ROW)
    return rows


def _number_rows(values) -> np.ndarray:
    """The 17-significant-digit text of each real value, the bytes of
    ``'%.17g' % value``, as rows of ``_WIDTH`` bytes padded with NULs: in
    passes of at most ``_CSV_BLOCK`` values, each by the digit kernel if it
    holds at least ``_KERNEL_FLOOR`` values, else by one ``%`` format."""
    values = np.asarray(values, dtype=float).ravel()
    parts = [values[start:start + _CSV_BLOCK]
             for start in range(0, max(len(values), 1), _CSV_BLOCK)]
    rows = [_kernel_rows(part) if len(part) >= _KERNEL_FLOOR
            else _rows_of(_percent_texts(part), _ROW) for part in parts]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _checked(cells):
    """Text cells that hold no NUL.

    Raises
    ------
    PreconditionViolation
        If a cell holds a NUL, which the writer would drop as padding.
    """
    if "\0" in "".join(cells):
        raise PreconditionViolation("a text cell holds a NUL character")
    return cells


class _Pooled:
    """A text column pooled by value: the rows of bytes of its distinct
    texts and the index of each cell's text.  A slice of it is the rows of
    its cells, gathered for that slice only."""

    def __init__(self, rows: np.ndarray, at: np.ndarray):
        self.rows, self.at = rows, at

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(self, part: slice) -> np.ndarray:
        return self.rows.take(self.at[part], axis=0)


def _pooled_texts(columns, back: int, twins=None) -> list:
    """The number text of each of several equal-length real columns as
    ``_Pooled`` columns, formatting only the cells that repeat no cell
    ``back`` rows up.  A cell whose bits equal those of the cell ``back``
    rows up in its own column, or else, if ``twins`` is given, in column
    ``twins[c]`` (for a cell of column c), takes that cell's text; the
    chains of such links are resolved by pointer jumping, each round
    doubling the rows a link spans, and the cells they end at, the roots,
    are formatted once each.  A cell with no equal cell ``back`` rows up
    is its own root, so the text never depends on the repeats occurring.
    Bits, not values: -0.0 and 0.0 differ."""
    bits = np.asarray(columns, dtype=float).view(np.int64)
    length = bits.shape[1]
    cell = np.arange(bits.size).reshape(bits.shape)
    link = cell.copy()
    if length > back:
        here, up = bits[:, back:], bits[:, :-back]
        if twins is not None:
            twins = list(twins)
            np.copyto(link[:, back:], cell[twins, :-back],
                      where=here == up[twins])
        # a cell equal to both takes its own column's
        np.copyto(link[:, back:], cell[:, :-back], where=here == up)
    # a chain takes at most (length - 1) // back links
    link = link.ravel()
    for _ in range(max((length - 1) // back - 1, 0).bit_length()):
        link = link.take(link)
    roots = np.flatnonzero(link == cell.ravel())
    index = np.empty(bits.size, np.intp)
    index[roots] = np.arange(len(roots))
    rows = _number_rows(bits.ravel()[roots].view(float))
    return [_Pooled(rows, at)
            for at in index.take(link).reshape(bits.shape)]


def _repeated_labels(labels) -> _Pooled:
    """Text cells that come in runs of few distinct labels as a ``_Pooled``
    column: each label is encoded to a row once, as UTF-8, and each run of
    cells gathers its label's row.  A label that JSON would escape must not
    be written in a record array from this column.

    Raises
    ------
    PreconditionViolation
        If a label holds a NUL.
    """
    runs = [(label, len(list(cells))) for label, cells in groupby(labels)]
    index = {}
    at = np.array([index.setdefault(label, len(index)) for label, _ in runs],
                  np.intp)
    rows = _rows_of([label.encode() for label in _checked(list(index))])
    return _Pooled(rows, np.repeat(at, [count for _, count in runs]))


def _parts(values) -> dict:
    """Real columns ``re`` and ``im`` of complex values."""
    values = np.asarray(values, dtype=complex)
    return {"re": values.real, "im": values.imag}


class _Json(list):
    """A text column whose cells are JSON text already (escaped labels,
    integers); other text columns hold number text, which JSON quotes."""


class _Records:
    """A JSON array of records whose record i holds row i of ``table``, a
    dict of equal-length columns: of its columns, or of ``fields`` if
    given, each field a column or a dict of fields (a nested object).  A
    CSV file that holds ``table`` takes its rows from the same text."""

    def __init__(self, table: dict, **fields):
        self.table, self.fields = table, fields or table


def _block(columns: list, start: int, sources: dict) -> list:
    """The text of rows ``start`` to ``start + _CSV_BLOCK`` of each column,
    once per column however often it is listed: a numpy array is real
    values, formatted here; pooled text is gathered, and other text is
    encoded to rows once per column and kept in ``sources`` (id of a
    column -> its rows), which the caller keeps for the blocks of a table.
    Each column's cells are rows of bytes padded with NULs, or, in a block
    of fewer than ``_KERNEL_FLOOR`` rows, a list of texts: there one join
    of the cells (``_lines``) is faster than numpy, as one ``%`` format is
    faster than the digit kernel."""
    stop, small = start + _CSV_BLOCK, len(columns[0]) - start < _KERNEL_FLOOR
    cells = {}
    for column in columns:
        if id(column) in cells:
            continue
        if isinstance(column, np.ndarray):
            text = (_percent_texts if small else _number_rows)(
                column[start:stop])
        elif isinstance(column, _Pooled):
            text = column[start:stop]
            if small:
                text = [cell.decode() for cell in text.view(
                    ("S", text.shape[1])).ravel().tolist()]
        elif small:
            text = _checked(column[start:stop])
        else:
            if id(column) not in sources:
                sources[id(column)] = _rows_of(
                    list(map(str.encode, _checked(column))))
            text = sources[id(column)][start:stop]
        cells[id(column)] = text
    return [cells[id(column)] for column in columns]


def _lines(pieces: tuple, cells: list) -> list:
    """The bytes of lines whose line i is ``pieces[0]``, the cell of row i
    of ``cells[0]``, ``pieces[1]``, and so on to the last piece, as a list
    of byte strings.  Cells as rows (``_block``) are placed in an array of
    bytes, each line a copy of the pieces with NULs in place of the cells,
    whose NUL padding one boolean compress then drops, ``_LINE_ROWS``
    lines at a time; cells as lists of texts are joined."""
    if isinstance(cells[0], list):
        columns = [repeat(pieces[0])]
        for texts, piece in zip(cells, pieces[1:]):
            columns += [texts, repeat(piece)]
        return ["".join(chain.from_iterable(zip(*columns))).encode()]
    line, spans = b"", []
    for piece, rows in zip(pieces, cells):
        line += piece.encode()
        spans.append(slice(len(line), len(line) + rows.shape[1]))
        line += bytes(rows.shape[1])
    line = np.frombuffer(line + pieces[-1].encode(), np.uint8)
    n, texts = len(cells[0]), []
    for start in range(0, n, _LINE_ROWS):
        lines = np.empty((min(_LINE_ROWS, n - start), len(line)), np.uint8)
        lines[:] = line
        for span, rows in zip(spans, cells):
            lines[:, span] = rows[start:start + _LINE_ROWS]
        texts.append(lines[lines != 0])
    return texts


class _Csv:
    """A CSV file of one or more tables with the same columns, written in
    the order given.  The rows of a table that comes before its turn (in
    overlap.json the H matrix precedes S, in the CSV it follows) are held
    until the tables before it are written."""

    def __init__(self, fh, name: str, tables: list):
        header = ",".join(tables[0])
        fh.write(f"# csmres {name} {_CSV_VERSION}\n{header}\n".encode())
        self.fh, self.todo, self.held = fh, list(tables), {}
        self.pieces = ("",) + (",",) * (len(tables[0]) - 1) + ("\n",)

    def rows(self, table: dict, cells: list) -> None:
        """Write, or hold, the CSV rows of one block of ``table``."""
        texts = _lines(self.pieces, cells)
        if table is self.todo[0]:
            self.fh.writelines(texts)
        else:
            self.held.setdefault(id(table), []).extend(texts)

    def done(self, table: dict) -> None:
        """``table`` has all its rows written or held: write the held rows
        of the tables whose turn this makes it."""
        self.held.setdefault(id(table), [])
        while self.todo and id(self.todo[0]) in self.held:
            self.fh.writelines(self.held.pop(id(self.todo.pop(0))))

    def finish(self) -> None:
        """Write the tables that no JSON record array wrote."""
        while self.todo:
            table, sources = self.todo[0], {}
            columns = list(table.values())
            for start in range(0, len(columns[0]), _CSV_BLOCK):
                self.rows(table, _block(columns, start, sources))
            self.done(table)


def _record(fields: dict, ind: str) -> tuple:
    """The text of one record at indent ``ind``, with a NUL in place of
    each cell, and its columns in that order.  An escaped key holds no
    NUL."""
    lines, columns = [], []
    for key in sorted(fields):
        value = fields[key]
        if isinstance(value, dict):
            text, nested = _record(value, ind + "  ")
            columns += nested
        else:
            text = "\0" if isinstance(value, _Json) else '"\0"'
            columns.append(value)
        lines.append(f"{ind}  {_escape(key)}: {text}")
    return "{\n" + ",\n".join(lines) + f"\n{ind}}}", columns


def _encode(value, ind: str, write, csvs: dict | None = None) -> None:
    """Write the JSON text of ``value`` at indent ``ind`` as bytes by
    ``write``.

    A float is written as the string of its 17-digit text and a complex
    number as {"re": .., "im": ..}; otherwise the text is that of
    ``json.dump(value, indent=2, sort_keys=True)``, which is ASCII.  A
    record array is written block by block, and so are the CSV rows of its
    table if ``csvs`` (id of a table -> its ``_Csv``) holds it, from the
    same text.
    """
    csvs = {} if csvs is None else csvs
    if isinstance(value, _Records):
        template, fields = _record(value.fields, ind + "  ")
        # each record follows a separator, which the first one drops
        pieces = tuple(f",\n{ind}  {template}".split("\0"))
        csv = csvs.get(id(value.table))
        rows = [] if csv is None else list(value.table.values())
        sources = {}
        write(b"[")
        for start in range(0, len(fields[0]), _CSV_BLOCK):
            cells = _block(fields + rows, start, sources)
            texts = _lines(pieces, cells[:len(fields)])
            if start == 0:
                texts[0] = texts[0][1:]
            for text in texts:
                write(text)
            if csv is not None:
                csv.rows(value.table, cells[len(fields):])
        write(f"\n{ind}]".encode() if len(fields[0]) else b"]")
        if csv is not None:
            csv.done(value.table)
    elif isinstance(value, complex):
        _encode({"re": value.real, "im": value.imag}, ind, write)
    elif isinstance(value, float):
        write(b'"%s"' % _percent_texts(np.array([value]))[0].encode())
    elif isinstance(value, (dict, list)) and value:
        is_dict = isinstance(value, dict)
        items = ([(_escape(key) + ": ", value[key]) for key in sorted(value)]
                 if is_dict else [("", item) for item in value])
        write(b"{" if is_dict else b"[")
        for i, (head, item) in enumerate(items):
            write((("\n" if i == 0 else ",\n") + ind + "  " + head).encode())
            _encode(item, ind + "  ", write, csvs)
        write(("\n" + ind + ("}" if is_dict else "]")).encode())
    else:
        write(json.dumps(value).encode())


def _finite(text: str) -> float:
    """A JSON number, or NaN/Infinity, that must be finite (1e400 is not)."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg)
    return cfg


def _check_keys(cfg: dict) -> None:
    """Refuse a config key that no command reads, at the top level or in
    any block present, whichever command runs: a misspelled key would
    leave its default in place.

    Raises
    ------
    ConfigError
        If a key is unknown, naming it and the keys allowed there, or if a
        block is not a JSON object.
    """
    for name, fields in _FIELDS.items():
        block = cfg if name is None else cfg.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"{name} must be a JSON object")
        allowed = list(fields)
        if name is None:
            allowed += [block_name for block_name in _FIELDS if block_name]
        for key in block:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in {name or 'config'}; allowed "
                    f"there: {', '.join(sorted(allowed))}")


def _number(value):
    """A JSON number as given; strings and booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return value


def _real(value) -> float:
    return float(_number(value))


def _complex(value) -> complex:
    """A complex number given as {"re": .., "im": ..} or as a real."""
    if isinstance(value, dict):
        if not set(value) <= {"re", "im"}:
            raise ValueError(
                f"complex keys must be re and im, got {sorted(value)}")
        return complex(_real(value.get("re", 0.0)),
                       _real(value.get("im", 0.0)))
    return complex(_real(value), 0.0)


def _integer(value) -> int:
    """An integer; a float must be integral (3.0 is 3, 1.9 is an error)."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    if value > _MAX_COUNT:
        raise ValueError(f"{value!r} is above the limit {_MAX_COUNT}")
    return int(value)


def _floats(value) -> list:
    """A JSON array of numbers."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not an array")
    return [_real(v) for v in value]


def _optional_float(value):
    return None if value is None else _real(value)


# The keys of each config block, with the converter and the default of
# each; None is the top level, which also holds the blocks
_FIELDS = {
    None: {"theta": (_real, 0.3), "lam": (_complex, 1.0)},
    "units": {"m": (_real, 1.0), "hbar": (_real, 1.0), "beta": (_real, 1.0)},
    "spectrum": {"n_max": (_integer, 3)},
    "regions": {"theta_min": (_real, 0.02),
                "theta_max": (_real, math.pi / 4.0 - 1e-3),
                "n_points": (_integer, 64)},
    "overlap": {"k_min": (_real, 0.5), "k_max": (_real, 3.5),
                "n_bins": (_integer, 6),
                "deltas": (_floats, [1e-2, 1e-3, 1e-4])},
    "berry": {"radius_rel": (_real, 1e-5), "windings": (_integer, 4),
              "n_steps": (_integer, 256)},
    "wavefunction": {"k": (_complex, 1.0), "x_max": (_optional_float, None),
                     "n_points": (_integer, 2049)},
}


def _read_block(cfg: dict, name: str | None) -> list:
    """Values of the fields of block ``name`` (``_FIELDS``), in order.

    ``name`` None reads the top level of the config, which
    ``_load_config`` has checked.  A value its converter rejects is a
    ConfigError.
    """
    block = cfg if name is None else cfg.get(name, {})
    where = "config" if name is None else name
    values = []
    for key, (convert, default) in _FIELDS[name].items():
        try:
            values.append(convert(block.get(key, default)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed {where}.{key}: {exc}") from exc
    return values


def _params_from(cfg: dict) -> ModelParams:
    m, hbar, beta = _read_block(cfg, "units")
    theta, lam = _read_block(cfg, None)
    try:
        return ModelParams(lam=lam, theta=theta, m=m, hbar=hbar, beta=beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(out_dir: str, fmt: str, csvs: dict, payload=None) -> None:
    """Write ``<name>``.csv for each name of ``csvs``, whose value lists
    the file's tables in row order, and, given a payload, the JSON file of
    the first name, block by block: the CSV rows of a table that a record
    array of the payload holds are written with those records."""
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.ExitStack() as files:
        def create(file: str):
            return files.enter_context(open(os.path.join(out_dir, file), "wb"))

        sinks = {}
        if fmt in ("csv", "both"):
            for name, tables in csvs.items():
                csv = _Csv(create(f"{name}.csv"), name, tables)
                sinks.update((id(table), csv) for table in tables)
        if payload is not None and fmt in ("json", "both"):
            fh = create(f"{next(iter(csvs))}.json")
            _encode(payload, "", fh.write, sinks)
            fh.write(b"\n")
        for csv in dict.fromkeys(sinks.values()):
            csv.finish()


def cmd_spectrum(cfg: dict, out_dir: str, fmt: str) -> None:
    params = _params_from(cfg)
    n_max, = _read_block(cfg, "spectrum")
    if n_max < 0:
        raise ConfigError("spectrum.n_max must be >= 0")
    levels = range(n_max + 1)
    poles = [resonance_energy(params, n) for n in levels]
    energy = _parts([pole.energy for pole in poles])
    table = {"n": _Json(map(str, levels)), "re_E": energy["re"],
             "im_E": energy["im"],
             "theta_n": np.array([pole.critical_angle for pole in poles])}
    _emit(out_dir, fmt, {"spectrum": [table]},
          {"workflow": "spectrum", "levels": _Records(
              table, n=table["n"], energy=energy,
              k=_parts([pole.k for pole in poles]),
              width=np.array([pole.width for pole in poles]),
              theta_n=table["theta_n"])})


def cmd_regions(cfg: dict, out_dir: str, fmt: str) -> None:
    params = _params_from(cfg)
    t_lo, t_hi, n_pts = _read_block(cfg, "regions")
    if not (0.0 < t_lo < t_hi < math.pi / 4.0):
        raise ConfigError("regions grid must satisfy 0 < min < max < pi/4")
    if n_pts < 2:
        raise ConfigError("regions.n_points must be >= 2")
    thetas = np.linspace(t_lo, t_hi, n_pts)
    bounds = [lambda_window(float(th), params.m, params.hbar, params.beta)
              for th in thetas]
    values = [thetas] + [np.array([getattr(b, field) for b in bounds])
                         for field in ("lambda0_minus", "lambda0_plus",
                                       "lambda1_minus", "lambda1_plus")]
    # lbp, the branch-point coupling, is lambda0_plus: the same array, so
    # its numbers are formatted once
    table = dict(zip(("theta", "l0m", "l0p", "l1m", "l1p"), values),
                 lbp=values[2])
    _emit(out_dir, fmt, {"regions": [table]},
          {"workflow": "regions", "curves": _Records(table)})


def _entries(name: str, labels: list, matrix) -> dict:
    """Row-major columns matrix (``name``), row, col, re and im of the
    square ``matrix``, whose rows and columns are both labelled
    ``labels``."""
    n = len(labels)
    return {"matrix": [name] * n * n,
            "row": [label for label in labels for _ in range(n)],
            "col": labels * n, **_parts(np.ravel(matrix))}


def _labelled(entries: dict) -> _Records:
    """JSON records of matrix entries, with the labels escaped."""
    return _Records(entries, row=_Json(map(_escape, entries["row"])),
                    col=_Json(map(_escape, entries["col"])),
                    re=entries["re"], im=entries["im"])


def cmd_overlap(cfg: dict, out_dir: str, fmt: str) -> None:
    from .binbasis import (binned_state, degeneracy_diagnostics,
                           overlap_matrix, real_axis, spatial_grid)

    params = _params_from(cfg)
    k_min, k_max, n_bins, deltas = _read_block(cfg, "overlap")
    if k_min <= 0.0 or k_max <= k_min:
        raise ConfigError("overlap bins need 0 < k_min < k_max")
    if not 1 <= n_bins <= _MAX_BINS:
        raise ConfigError(f"overlap.n_bins must be in [1, {_MAX_BINS}]")
    if len(deltas) > _MAX_DELTAS:
        raise ConfigError(
            f"overlap.deltas must hold at most {_MAX_DELTAS} values")
    if any(d <= 0.0 for d in deltas):
        raise ConfigError("overlap.deltas must be positive")

    # the degeneracy step first: it builds no bin, and it fails in
    # milliseconds where the gamma kernels leave the float range, before
    # the real-axis bins are built
    points = degeneracy_diagnostics(params, deltas)

    x = spatial_grid(params.beta)
    grid = real_axis(k_min, k_max, n_bins)
    bins = [binned_state(params, grid, j, x) for j in range(n_bins)]
    labels = [f"bin[{j}]" for j in range(n_bins)]
    s, h = (_entries(name, labels, m)
            for name, m in zip("SH", overlap_matrix(bins, bins, x)))
    diag = {"delta": np.array(deltas, dtype=float),
            "sigma_min": np.array([pt.sigma_min for pt in points]),
            "cond": np.array([pt.cond for pt in points])}
    _emit(out_dir, fmt, {"overlap": [s, h], "degeneracy": [diag]},
          {"workflow": "overlap", "overlap": _labelled(s),
           "hamiltonian": _labelled(h), "degeneracy": _Records(diag)})


def cmd_berry(cfg: dict, out_dir: str, fmt: str) -> None:
    from .eploop import LoopSpec, _sheet_slope, run_berry_loop

    params = _params_from(cfg)
    radius_rel, windings, n_steps = _read_block(cfg, "berry")
    if windings * n_steps > _MAX_COUNT:
        raise ConfigError(
            f"berry.windings * berry.n_steps must be <= {_MAX_COUNT}")
    branch = branch_point(params)
    lam_bp, _, k_bp = branch
    try:
        spec = LoopSpec(radius=radius_rel * lam_bp, windings=windings,
                        n_steps=n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    trace, verdicts = run_berry_loop(params, spec, branch)

    # one turn on, the loop revisits its couplings and swaps its sheets:
    # E_plus (columns 2 and 3) takes E_minus's values (4 and 5), and back
    re_lam, im_lam, re_plus, im_plus, re_minus, im_minus = _pooled_texts(
        [part for values in (trace.lam, trace.e_plus, trace.e_minus)
         for part in (values.real, values.imag)], n_steps,
        twins=(0, 1, 4, 5, 2, 3))
    # the factor changes only where the loop crosses the continuum ray
    re_factor, im_factor = _pooled_texts(
        [trace.accumulated.real, trace.accumulated.imag], 1)
    table = {
        "phi": trace.phi, "re_lambda": re_lam, "im_lambda": im_lam,
        "re_E_plus": re_plus, "im_E_plus": im_plus, "re_E_minus": re_minus,
        "im_E_minus": im_minus, "region": _repeated_labels(trace.region),
        "re_factor": re_factor, "im_factor": im_factor,
        "unwrapped_phase": trace.unwrapped_phase}
    _emit(out_dir, fmt, {"berry": [table]},
          {"workflow": "berry",
           # the upper straddling bin's cubic energy at lam_bp + t is
           # E_bp + alpha sqrt(t) + t_coefficient t, exactly
           "alpha": _sheet_slope(params, k_bp),
           "t_coefficient": params.hbar**2 / (6.0 * params.m), **verdicts})


def cmd_wavefunction(cfg: dict, out_dir: str, fmt: str) -> None:
    from .wavefun import default_grid, eval_wavefunction

    params = _params_from(cfg)
    k, x_max, n_points = _read_block(cfg, "wavefunction")
    if n_points < 5:
        raise ConfigError("wavefunction.n_points must be >= 5")
    if x_max is not None and not x_max > 0.0:
        raise ConfigError("wavefunction.x_max must be > 0")
    grid = default_grid(params.beta, x_max, n_points)
    field = eval_wavefunction(params, k, grid)
    psi = _parts(field.values)
    table = {"x": field.grid, "re_psi": psi["re"], "im_psi": psi["im"]}
    _emit(out_dir, fmt, {"wavefunction": [table]},
          {"workflow": "wavefunction", "k": k, "lam": complex(params.lam),
           "theta": params.theta, "tail_plus": field.tail[0],
           "tail_minus": field.tail[1],
           "samples": _Records(table, x=field.grid, **psi)})


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "regions": cmd_regions,
    "overlap": cmd_overlap,
    "berry": cmd_berry,
    "wavefunction": cmd_wavefunction,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    ``main`` call: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="csmres",
        description="Resonance, exceptional-point, and Berry-phase toolkit "
                    "for the scaled sech-squared barrier.")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default="both", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _COMMANDS[args.command](cfg, args.out, args.format)
    except ConfigError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except CsmError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
