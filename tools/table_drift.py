"""Compare two directories of wptrx tables column by column.

    python3 tools/table_drift.py DIR_A DIR_B

For every ``.csv`` file under either directory (matched by relative path)
prints one line: ``identical`` when the bytes agree, otherwise the largest
absolute change of each numeric column that moved (``col=3.4e-09``) and
the number of changed cells of each text column.  A file present on one
side only, or whose header or row count differs, is named as such.  The
directories are typically two ``tools/table_digests.py --keep`` runs, one
on the parent commit and one on the change.

Exit status 0 when every table is identical, 1 otherwise.  Stdlib only.
"""

import math
import sys
from pathlib import Path


def _read(path: Path) -> tuple:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _column_change(a_cells, b_cells) -> str:
    """'' when the column agrees, else its largest absolute change (numeric
    columns) or its count of changed cells (text columns)."""
    worst = 0.0
    changed = 0
    numeric = True
    for a, b in zip(a_cells, b_cells):
        if a == b:
            continue
        changed += 1
        x, y = _number(a), _number(b)
        if x is None or y is None:
            numeric = False
        elif math.isnan(x) != math.isnan(y):
            worst = math.inf
        elif not math.isnan(x):
            worst = max(worst, abs(x - y))
    if not changed:
        return ""
    return f"{worst:.2g}" if numeric else f"{changed} cells"


def compare(path_a: Path, path_b: Path) -> str:
    if path_a.read_bytes() == path_b.read_bytes():
        return "identical"
    head_a, rows_a = _read(path_a)
    head_b, rows_b = _read(path_b)
    if head_a != head_b:
        return f"header {','.join(head_a)} -> {','.join(head_b)}"
    if len(rows_a) != len(rows_b):
        return f"rows {len(rows_a)} -> {len(rows_b)}"
    moved = []
    for k, name in enumerate(head_a):
        change = _column_change([r[k] for r in rows_a],
                                [r[k] for r in rows_b])
        if change:
            moved.append(f"{name}={change}")
    return " ".join(moved)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: table_drift.py DIR_A DIR_B", file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[0]), Path(argv[1])
    names = sorted({p.relative_to(root)
                    for root in (root_a, root_b)
                    for p in root.rglob("*.csv")})
    all_same = True
    for name in names:
        a, b = root_a / name, root_b / name
        if not b.exists():
            line = f"only in {root_a}"
        elif not a.exists():
            line = f"only in {root_b}"
        else:
            line = compare(a, b)
        all_same &= line == "identical"
        print(f"{name}: {line}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
