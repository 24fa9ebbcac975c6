"""The one table writer: CSV tables with a header row and LF line endings.

``write_table`` writes a table column by column, by a rule taken from each
column's element type: strings as is, booleans and integers as ``%d``,
every other number as ``%.11e`` (12 significant digits).  Only ``%.11e``
has a numpy kernel, which reproduces ``%`` exactly; a float cell whose
rounding it cannot settle (see ``_float_cells``) is formatted by ``%``
itself.  The kernel's tables are built when this module is imported, so
numpy and they load with the first table a command writes.
"""

import os
import sys

import numpy as np


# Rows formatted per pass of write_table.  Writing the waveform table
# peaks at about 0.78 MB of working memory, 0.1 MB of it the records kept
# across blocks; larger blocks take more memory and save little time.
_TABLE_BLOCK_ROWS = 1024


def _words(cells, dtype) -> np.ndarray:
    """Byte strings ``cells``, NUL-padded to the size of ``dtype``, viewed
    as that unsigned integer type, so lookups copy machine words."""
    return np.array(cells, dtype=f"S{np.dtype(dtype).itemsize}").view(dtype)


# Tables of the %.11e kernel.  A cell is the sign, the first digit, the
# point and the second digit; two words of four digits and one pair of
# digits; the exponent; one NUL pad byte.  A positive cell's sign byte is
# NUL.  The scale 10**k and the exponent e = 11 - k are indexed by k + 22,
# k in [-22, 22]; 10**|k| is exact in float64, and each cell multiplies by
# one table and divides by the other, one of them 1.0.
_SCALE_UP = np.array([1.0] * 22 + [float(10 ** k) for k in range(23)])
_SCALE_DOWN = np.array([float(10 ** -k) for k in range(-22, 0)] + [1.0] * 23)
_EXPONENTS = _words([b"e%+03d" % (11 - k) for k in range(-22, 23)], "u4")
_LEADS = _words([sign + b"%d.%d" % divmod(i, 10)
                 for sign in (b"", b"-") for i in range(100)], "u4")
_PAIRS = _words([b"%02d" % i for i in range(100)], "u2")
# the word of i in [0, 10**4) is the pair of i // 100 then the pair of
# i % 100, side by side in memory
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS),
                  axis=-1).reshape(-1).view("u4")
_FLOAT_CELL = np.dtype([("lead", "u4"), ("quad1", "u4"), ("quad2", "u4"),
                        ("pair", "u2"), ("exp", "u4"), ("pad", "u1")])


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``"%.11e" % v`` of each float64 ``v`` of ``x``, as NUL-padded S19.

    With e = floor(log10|v|) and k = 11 - e, s = |v| * 10**k is the exact
    product correctly rounded, for 10**|k| is exact when |k| <= 22.  The
    12 digits are floor(s + 1/2) unless s is exactly a half-integer: a
    half-integer below 2**40 is a float64, so s and the exact product lie
    on the same side of every rounding tie.  Those cells, cells with
    |k| > 22, cells whose digits fall outside [1e11, 1e12) (log10 off by
    one, or rounding up to the next power of ten) and non-finite cells are
    formatted by ``%`` itself."""
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11.0 - np.floor(np.log10(a))
        k[zero] = 11.0  # e = 0, so a zero prints as 0.00000000000e+00
        ok = np.abs(k) <= 22.0
        k[~ok] = 0.0
        i = k.astype(np.intp) + 22
        s = a * _SCALE_UP[i] / _SCALE_DOWN[i]
        m = np.floor(s + 0.5)
        guard = ~(ok & (m - s != 0.5)
                  & ((m >= 1e11) & (m < 1e12) | zero))
    m[guard] = 0.0
    m = m.astype(np.int64)
    cells = np.zeros(len(x), _FLOAT_CELL)
    # the first 2, 6 and 10 of the 12 digits
    head, first6, first10 = m // 10 ** 10, m // 10 ** 6, m // 100
    cells["lead"] = _LEADS[head + 100 * np.signbit(x)]
    cells["quad1"] = _QUADS[first6 - 10 ** 4 * head]
    cells["quad2"] = _QUADS[first10 - 10 ** 4 * first6]
    cells["pair"] = _PAIRS[m - 100 * first10]
    cells["exp"] = _EXPONENTS[i]
    text = cells.view("S19")
    where = np.flatnonzero(guard)
    if where.size:
        text[where] = [b"%.11e" % v for v in x[where].tolist()]
    return text


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``b"%d" % i`` of each boolean or integer ``i`` of ``v``, from the
    table of least..greatest at ``v - least``, read as unsigned of ``v``'s
    width so no value is cast; value by value if the span exceeds len(v)."""
    v = v.view(np.uint8) if v.dtype.kind == "b" else v
    least, most = int(v.min()), int(v.max())
    if most - least >= len(v):
        return np.array([b"%d" % i for i in v.tolist()], "S")
    values = np.array([b"%d" % i for i in range(least, most + 1)], "S")
    return values[(v - least).view(f"u{v.itemsize}")]


def _table_cells(columns: list) -> list:
    """NUL-padded bytes cells of equal-length ``columns``: ASCII strings as
    is, booleans and integers as ``%d``, anything else as ``%.11e``, the
    float columns in one ``_float_cells`` call."""
    floats = [c for c in columns if c.dtype.kind not in "USbiu"]
    float_cells = iter(_float_cells(np.array(floats, np.float64).ravel())
                       .reshape(len(floats), len(columns[0])))
    return [c.astype("S") if c.dtype.kind in "US"
            else _int_cells(c) if c.dtype.kind in "biu"
            else next(float_cells) for c in columns]


def _table_bytes(header: str, columns: list, n_rows: int):
    """The CSV text of a table, as bytes, block by block: rows are records
    of NUL-padded cells, each followed by its separator byte, made again
    only when a block's row count or cell widths change."""
    yield header.encode() + b"\n"
    rows, widths = None, None
    for lo in range(0, n_rows, _TABLE_BLOCK_ROWS):
        cells = _table_cells([c[lo:lo + _TABLE_BLOCK_ROWS] for c in columns])
        shape = (len(cells[0]), *(c.itemsize for c in cells))
        if shape != widths:
            widths = shape
            rows = np.empty(len(cells[0]), [
                field for i, c in enumerate(cells)
                for field in ((f"c{i}", c.dtype), (f"s{i}", "S1"))])
            for i in range(len(cells)):
                rows[f"s{i}"] = b"," if i < len(cells) - 1 else b"\n"
        for i, c in enumerate(cells):
            rows[f"c{i}"] = c
        del cells  # freed before the next block's are made
        yield rows.tobytes().translate(None, b"\0")


def write_table(out, name: str, header: str, columns) -> None:
    """The one table writer: ``header`` and the equal-length ``columns``
    as CSV into ``out/name`` (creating ``out``), or to stdout when ``out``
    is None.  Each column keeps one cell type (see ``_table_cells``)."""
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
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "wb") as fh:
            fh.writelines(blocks)
