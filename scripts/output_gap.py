"""Measure how far the CSV outputs of two byte-gate runs are apart.

Run the byte gate with ``--workdir`` on each checkout, then compare the
two work directories:

    python3 scripts/byte_gate.py --src path/to/base/src --out base.json --workdir base
    python3 scripts/byte_gate.py --src src --out change.json --workdir change
    python3 scripts/output_gap.py base change

For each CSV file whose bytes differ, it prints the largest gap over the
numeric cells, ``|a - b| / max(1, |a|)`` with ``a`` from BASE_DIR, and
where it is. Cells are the comma-separated fields of a line, and the key
and value of a ``# key = value`` header line. A difference that is not
between two numbers (a changed word, a missing line or cell, a file in
only one directory) is flagged ``non-numeric``. The last line gives the
largest gap over all files. The exit code is 1 when anything is flagged,
else 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys


def _cells(line: str) -> list[str]:
    if line.startswith("#") and " = " in line:
        key, _, value = line.partition(" = ")
        return [key, value]
    return line.split(",")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def file_gap(base: str, change: str) -> tuple[float, str, list[str]]:
    """The largest relative gap between two files' numeric cells, where it
    is (``line L, cell C``), and the non-numeric differences."""
    with open(base, encoding="utf-8") as fh:
        a_lines = fh.read().splitlines()
    with open(change, encoding="utf-8") as fh:
        b_lines = fh.read().splitlines()
    gap, where, flags = 0.0, "", []
    if len(a_lines) != len(b_lines):
        flags.append(f"{len(a_lines)} lines against {len(b_lines)}")
    for lineno, (a_line, b_line) in enumerate(zip(a_lines, b_lines), start=1):
        a_cells, b_cells = _cells(a_line), _cells(b_line)
        if len(a_cells) != len(b_cells):
            flags.append(f"line {lineno}: {len(a_cells)} cells against {len(b_cells)}")
            continue
        for col, (a, b) in enumerate(zip(a_cells, b_cells), start=1):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or math.isnan(x) != math.isnan(y):
                flags.append(f"line {lineno}, cell {col}: {a!r} against {b!r}")
                continue
            if math.isnan(x):
                continue
            if math.isinf(x) or math.isinf(y):
                if x != y:
                    flags.append(f"line {lineno}, cell {col}: {a!r} against {b!r}")
                continue
            g = abs(x - y) / max(1.0, abs(x))
            if g > gap:
                gap, where = g, f"line {lineno}, cell {col}"
    return gap, where, flags


def _csv_names(path: str) -> set[str]:
    return {name for name in os.listdir(path) if name.endswith(".csv")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", help="work directory of the base run")
    parser.add_argument("change_dir", help="work directory of the changed run")
    args = parser.parse_args(argv)

    base_names, change_names = _csv_names(args.base_dir), _csv_names(args.change_dir)
    flagged = differing = 0
    largest, largest_at = 0.0, ""
    for name in sorted(base_names ^ change_names):
        where = args.base_dir if name in base_names else args.change_dir
        print(f"{name}: non-numeric: only in {where}")
        flagged += 1
    for name in sorted(base_names & change_names):
        base, change = (os.path.join(d, name) for d in (args.base_dir, args.change_dir))
        with open(base, "rb") as fa, open(change, "rb") as fb:
            if fa.read() == fb.read():
                continue
        differing += 1
        gap, where, flags = file_gap(base, change)
        print(f"{name}: largest gap {gap:.3g}" + (f" at {where}" if where else ""))
        for flag in flags:
            print(f"{name}: non-numeric: {flag}")
        flagged += bool(flags)
        if gap > largest:
            largest, largest_at = gap, f"{name}, {where}"
    print(
        f"{differing} of {len(base_names & change_names)} common CSV files differ, "
        f"{flagged} flagged; largest gap {largest:.3g}"
        + (f" ({largest_at})" if largest_at else "")
    )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
