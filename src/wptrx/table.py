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
"""

import os
import sys

import numpy as np


# Rows formatted per pass of write_table.  Writing the waveform table (five
# float columns of 18-byte cells, two one-byte integer columns) peaks at
# about 0.63 MB of working memory, 0.1 MB of it the record kept across
# blocks; larger blocks take more memory and save little time.  What the
# blocks of a table share is prepared once, before the first (see
# ``_column_cells``): no more than a block's worth of value cells per
# integer column, and each string column's bytes.
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
    would hold ``size`` cells or more."""
    least, most = int(v.min()), int(v.max())
    if most - least >= size:
        return None
    values = np.array([b"%d" % i for i in range(least, most + 1)], "S")
    return lambda w: values[(w - least).view(f"u{w.itemsize}")
                            .astype(np.intp)]


def _column_cells(c: np.ndarray):
    """The cells of rows lo:hi of column ``c`` as a function of (lo, hi),
    with what its blocks share made once: a string column encoded, an
    integer or boolean column's value table built from the whole column
    where it spans fewer values than a block has rows (``_int_cells``
    formats each block of any other).  None for a float column, whose
    cells ``_table_bytes`` makes with the block's other float columns."""
    kind = c.dtype.kind
    if kind in "US":
        cells = c if kind == "S" else c.astype("S")
        return lambda lo, hi: cells[lo:hi]
    if kind not in "biu":
        return None
    v = _as_int(c)
    cells_of = _value_table(v, min(len(v), _TABLE_BLOCK_ROWS))
    if cells_of is None:
        return lambda lo, hi: _int_cells(v[lo:hi])
    return lambda lo, hi: cells_of(v[lo:hi])


def _table_bytes(header: str, columns: list, n_rows: int):
    """The CSV text of a table, as bytes, block by block: ASCII strings as
    is, booleans and integers as ``%d``, anything else as ``%.11e``, a
    block's float columns in one ``_float_cells`` call.  Rows are records
    of NUL-padded cells, each followed by its separator byte, made again
    only when a block's row count or cell widths change."""
    yield header.encode() + b"\n"
    if not n_rows:
        return
    makers = [_column_cells(c) for c in columns]
    floats = [c for c, make in zip(columns, makers) if make is None]
    rows = fields = widths = None
    for lo in range(0, n_rows, _TABLE_BLOCK_ROWS):
        hi = min(lo + _TABLE_BLOCK_ROWS, n_rows)
        if floats:
            float_cells = iter(_float_cells(
                np.array([c[lo:hi] for c in floats], np.float64).ravel())
                .reshape(len(floats), hi - lo))
        cells = [next(float_cells) if make is None else make(lo, hi)
                 for make in makers]
        shape = (hi - lo, *(c.itemsize for c in cells))
        if shape != widths:
            widths = shape
            rows = np.empty(hi - lo, [
                field for i, c in enumerate(cells)
                for field in ((f"c{i}", c.dtype), (f"s{i}", "S1"))])
            for i in range(len(cells)):
                rows[f"s{i}"] = b"," if i < len(cells) - 1 else b"\n"
            fields = [rows[f"c{i}"] for i in range(len(cells))]
        for field, c in zip(fields, cells):
            field[...] = c
        del cells  # freed before the next block's are made
        yield rows.tobytes().translate(None, b"\0")


def write_table(out, name: str, header: str, columns) -> None:
    """The one table writer: ``header`` and the equal-length ``columns``
    as CSV into ``out/name`` (creating ``out``), or to stdout when ``out``
    is None.  Each column keeps one cell type (see ``_table_bytes``)."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table {name}: columns differ in length: "
                         f"{lengths}")
    blocks = _table_bytes(header, columns, lengths[0] if lengths else 0)
    if out is None:
        for block in blocks:
            sys.stdout.write(block.decode())
    else:
        if not os.path.isdir(out):  # one stat where makedirs tries mkdir
            os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "wb") as fh:
            fh.writelines(blocks)
