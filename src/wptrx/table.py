"""The one table writer: CSV tables with a header row and LF line endings.

``write_table`` writes a table column by column, by a rule taken from each
column's element type: strings as is, booleans and integers as ``%d``,
every other number as ``%.11e`` (12 significant digits).  It formats
``_TABLE_BLOCK_ROWS`` rows at a time, after preparing once per table what
the blocks share: each string column is encoded to bytes, and each integer
or boolean column that spans fewer values than a block has rows gets one
table of its values' ``%d`` cells, which every block gathers from.  Only
``%.11e`` has a numpy kernel, which reproduces ``%`` exactly; a float cell
whose rounding it cannot settle (see ``_float_cells``) is formatted by
``%`` itself.  The kernel's tables (the largest, the 10**4 four-digit
words, takes 40 kB) are built when this module is imported, so numpy and
they load with the first table a command writes.

``write_table_blocks`` writes a table that comes as a stream of blocks of
rows, through the same loop, with the same bytes as ``write_table`` of the
whole columns.  It asks for a block only when the one before is written,
so what it holds at once is one given block and the writer's working
memory, never the whole table: the waveform tables stream from the
sampler this way.  The value tables and the row record are still made
once per table, the value tables from the first block; a string column is
encoded block by block as its blocks arrive.
"""

import os
import sys

import numpy as np


# Rows formatted per pass of write_table.  Writing the waveform table (five
# float columns of 18-byte cells, two one-byte integer columns) peaks at
# about 0.63 MB of working memory, 0.1 MB of it the record kept across
# blocks; larger blocks take more memory and save little time.  What the
# blocks of a table share is prepared once, before the first (see
# ``_shared_cells``): no more than a block's worth of value cells per
# integer column.
_TABLE_BLOCK_ROWS = 1024


def _words(cells, dtype) -> np.ndarray:
    """Byte strings ``cells``, NUL-padded to the size of ``dtype``, viewed
    as that unsigned integer type, so lookups copy machine words."""
    return np.array(cells, dtype=f"S{np.dtype(dtype).itemsize}").view(dtype)


# Tables of the %.11e kernel.  A cell is 18 bytes: the sign (NUL for a
# positive cell), the first digit, the point, three digits, two words of
# four digits and the exponent.  The first four digits are written as one
# word over the point and the three digits; the first is then moved in
# front of the point, and the point written over it.  The scale 10**k and
# the exponent e = 11 - k are indexed by k + 22, k in [-22, 22]; 10**|k|
# is exact in float64, and a cell multiplies by the one (k >= 0) or
# divides by the other (k < 0).
_SCALE_UP = np.array([1.0] * 22 + [float(10 ** k) for k in range(23)])
_SCALE_DOWN = np.array([float(10 ** -k) for k in range(-22, 0)] + [1.0] * 23)
_EXPONENTS = _words([b"e%+03d" % (11 - k) for k in range(-22, 23)], "u4")
_PAIRS = _words([b"%02d" % i for i in range(100)], "u2")
# the word of i in [0, 10**4) is the pair of i // 100 then the pair of
# i % 100, side by side in memory
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS),
                  axis=-1).reshape(-1).view("u4")
_FLOAT_CELL = np.dtype({
    "names": ["sign", "first", "point", "lead", "quad1", "quad2", "exp"],
    "formats": ["u1", "u1", "u1", "u4", "u4", "u4", "u4"],
    "offsets": [0, 1, 2, 2, 6, 10, 14], "itemsize": 18})


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``"%.11e" % v`` of each float64 ``v`` of ``x``, as NUL-padded bytes
    cells (S18, or wider where a cell formatted by ``%`` needs it).

    With e = floor(log10|v|) and k = 11 - e, s = |v| * 10**k is the exact
    product correctly rounded, for 10**|k| is exact when |k| <= 22.  The
    12 digits are floor(s + 1/2) unless s is exactly a half-integer: a
    half-integer below 2**40 is a float64, so s and the exact product lie
    on the same side of every rounding tie.  Any k in [-22, 22] gives the
    right cell when those digits lie in [1e11, 1e12), so k is clipped to
    that range; cells whose digits fall outside it (log10 off by one, a
    clipped k, rounding up to the next power of ten, a non-finite value)
    and the ties are formatted by ``%`` itself."""
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # k + 22 = 33 - e; a zero prints as 0.00000000000e+00, so e = 0
        i = np.log10(a)
        np.floor(i, out=i)
        np.subtract(33.0, i, out=i)
        i[zero] = 33.0
        big = (i < 22.0).nonzero()[0]  # |v| >= 1e12: divide by 10**-k
        i = i.astype(np.intp)  # a NaN or infinite index is clipped below
        np.minimum(np.maximum(i, 0, out=i), 44, out=i)
        s = a * _SCALE_UP[i]
        if big.size:
            s[big] = a[big] / _SCALE_DOWN[i[big]]
        half_up = s + 0.5
        m = np.floor(half_up)
        # float comparisons only: numpy's integer ones are code the rest
        # of a capture never runs, and would be paged in for this alone
        keep = (m >= 1e11) & (m < 1e12)
        keep |= zero
        keep &= m != half_up
        digits = m.astype(np.int64)
    del a, s, m, half_up
    where = (~keep).nonzero()[0]
    digits[where] = 0
    cells = np.empty(len(x), _FLOAT_CELL)
    cells["sign"] = np.signbit(x).view(np.uint8) * ord("-")
    # the first 4 and 8 of the 12 digits, then each word's four
    first4, first8 = digits // 10 ** 8, digits // 10 ** 4
    cells["lead"] = _QUADS[first4]
    cells["first"] = cells["point"]
    cells["point"] = ord(".")
    first4 *= 10 ** 4
    cells["quad1"] = _QUADS[np.subtract(first8, first4, out=first4)]
    first8 *= 10 ** 4
    cells["quad2"] = _QUADS[np.subtract(digits, first8, out=first8)]
    cells["exp"] = _EXPONENTS[i]
    text = cells.view("S18")
    if where.size:
        other = np.array([b"%.11e" % v for v in x[where].tolist()], "S")
        if other.itemsize > text.itemsize:
            text = text.astype(other.dtype)
        text[where] = other
    return text


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``b"%d" % i`` of each boolean or integer ``i`` of ``v``, from the
    table of least..greatest (see ``_value_table``); value by value if the
    span exceeds len(v)."""
    v = _as_int(v)
    cells_of = _value_table(v, len(v))
    if cells_of is None:
        return np.array([b"%d" % i for i in v.tolist()], "S")
    return cells_of(v)


def _as_int(v: np.ndarray) -> np.ndarray:
    return v.view(np.uint8) if v.dtype.kind == "b" else v


def _value_table(v: np.ndarray, size: int):
    """The ``%d`` cells of integers in the range of ``v``, as a function of
    such integers, gathered from the table of least..greatest at
    ``w - least`` read as unsigned of ``w``'s width, so no value is cast,
    then as the index type numpy gathers fastest by; None if that table
    would hold ``size`` cells or more.  A value outside the range reads
    past the table's end, so the gather raises IndexError."""
    least, most = int(v.min()), int(v.max())
    if most - least >= size:
        return None
    values = np.array([b"%d" % i for i in range(least, most + 1)], "S")
    return lambda w: values[(w - least).view(f"u{w.itemsize}")
                            .astype(np.intp)]


def _shared_cells(c: np.ndarray):
    """What the blocks of a table share of the column whose first block is
    ``c``: for an integer or boolean column that spans fewer values than a
    block has rows, the table of its values' cells (``_value_table``);
    None for any other column."""
    if c.dtype.kind not in "biu":
        return None
    v = _as_int(c)
    return _value_table(v, min(len(v), _TABLE_BLOCK_ROWS))


def _column_cells(c: np.ndarray, cells_of):
    """The cells of rows lo:hi of ``c``, a block of a column, as a function
    of (lo, hi): a string block encoded once, an integer or boolean one
    gathered from ``cells_of``, its column's value table, or where there is
    none, or a value lies outside it, formatted by ``_int_cells``.  None
    for a float column, whose cells ``_table_bytes`` makes with the
    block's other float columns."""
    kind = c.dtype.kind
    if kind in "US":
        cells = c if kind == "S" else c.astype("S")
        return lambda lo, hi: cells[lo:hi]
    if kind not in "biu":
        return None
    v = _as_int(c)
    if cells_of is None:
        return lambda lo, hi: _int_cells(v[lo:hi])

    def cells(lo, hi):
        try:
            return cells_of(v[lo:hi])
        except IndexError:  # a value beyond the first block's range
            return _int_cells(v[lo:hi])
    return cells


def _table_bytes(header: str, blocks):
    """The CSV text of a table, as bytes, block by block: the header, then
    the rows of each block of equal-length columns in ``blocks``, in
    ``_TABLE_BLOCK_ROWS``-row parts: ASCII strings as is, booleans and
    integers as ``%d``, anything else as ``%.11e``, a part's float columns
    in one ``_float_cells`` call.  Each column's value table is made from
    its first block (``_shared_cells``) and serves blocks of its dtype only
    (in another, w - least can wrap).  Rows are records of NUL-padded
    cells, each followed by its separator byte; the record is made again
    only when a part's cell widths change or it has more rows than the
    record, and a part with fewer rows writes its first rows."""
    yield header.encode() + b"\n"
    shared = rows = fields = widths = None
    for columns in blocks:
        n_rows = len(columns[0]) if columns else 0
        if not n_rows:
            continue
        if shared is None:
            shared = [(c.dtype, _shared_cells(c)) for c in columns]
        makers = [_column_cells(c, cells_of if c.dtype == dtype else None)
                  for c, (dtype, cells_of) in zip(columns, shared)]
        floats = [c for c, make in zip(columns, makers) if make is None]
        for lo in range(0, n_rows, _TABLE_BLOCK_ROWS):
            hi = min(lo + _TABLE_BLOCK_ROWS, n_rows)
            if floats:
                float_cells = iter(_float_cells(
                    np.array([c[lo:hi] for c in floats], np.float64).ravel())
                    .reshape(len(floats), hi - lo))
            cells = [next(float_cells) if make is None else make(lo, hi)
                     for make in makers]
            shape = tuple(c.itemsize for c in cells)
            if shape != widths or hi - lo > len(rows):
                widths = shape
                rows = np.empty(hi - lo, [
                    field for i, c in enumerate(cells)
                    for field in ((f"c{i}", c.dtype), (f"s{i}", "S1"))])
                for i in range(len(cells)):
                    rows[f"s{i}"] = b"," if i < len(cells) - 1 else b"\n"
                fields = [rows[f"c{i}"] for i in range(len(cells))]
            for field, c in zip(fields, cells):
                field[:len(c)] = c
            del cells  # freed before the next part's are made
            # NULs are few (a positive float cell's sign), and replace
            # copies the runs between them faster than translate deletes
            # byte by byte
            yield rows[:hi - lo].tobytes().replace(b"\0", b"")


def _checked(name: str, columns) -> list:
    """``columns`` as arrays; ValueError naming the table ``name`` if they
    differ in length."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table {name}: columns differ in length: "
                         f"{lengths}")
    return columns


def write_table(out, name: str, header: str, columns) -> None:
    """The one table writer: ``header`` and the equal-length ``columns``
    as CSV into ``out/name`` (creating ``out``), or to stdout when ``out``
    is None.  Each column keeps one cell type (see ``_table_bytes``)."""
    # checked before the file is made, so unequal columns leave no file
    write_table_blocks(out, name, header, [_checked(name, columns)])


def write_table_blocks(out, name: str, header: str, blocks) -> None:
    """``write_table`` of a table given as ``blocks``, an iterable of
    blocks of its rows, each a list of equal-length columns, one per
    header field, in order.  Each block is formatted and written before the
    next is asked for, so only one block of the table is held at once.
    A block of unequal columns raises ValueError once the blocks before it
    are written."""
    blocks = _table_bytes(header, (_checked(name, b) for b in blocks))
    if out is None:
        for block in blocks:
            sys.stdout.write(block.decode())
    else:
        if not os.path.isdir(out):  # one stat where makedirs tries mkdir
            os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "wb") as fh:
            fh.writelines(blocks)
