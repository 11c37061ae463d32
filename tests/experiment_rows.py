"""Compare two printouts of ``python -m repro.experiments`` row by row.

Usage::

    PYTHONPATH=src python -m repro.experiments all > before.txt   # on the old tree
    PYTHONPATH=src python -m repro.experiments all > after.txt    # on the new tree
    python3 tests/experiment_rows.py before.txt after.txt

A refactor of the evaluation must print the same tables with the same rows;
only the measured times (``time_s``, ``refresh_time_s``) may differ.  Cells
are read by the column spans of each table's dashed separator line, so a
wider time column does not shift the others.  Exits 1 and names the first
differing cells when the printouts differ.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

TIMED = {"time_s", "refresh_time_s"}


def tables(path: str) -> Dict[str, List[Dict[str, str]]]:
    """``{"== name (scale=...) ==": rows}``, each row ``{column: cell}``."""
    found: Dict[str, List[Dict[str, str]]] = {}
    lines = open(path, encoding="utf-8").read().splitlines()
    index = 0
    while index < len(lines):
        title = lines[index]
        index += 1
        if not title.startswith("== "):
            continue
        header, separator = lines[index], lines[index + 1]
        spans: List[Tuple[int, int]] = []
        start = 0
        for run in separator.split("  "):
            spans.append((start, start + len(run)))
            start += len(run) + 2
        columns = [header[a:b].strip() for a, b in spans]
        rows = []
        index += 2
        while index < len(lines) and lines[index].strip():
            rows.append({c: lines[index][a:b].strip() for c, (a, b) in zip(columns, spans)})
            index += 1
        found[title] = rows
    return found


def differences(before: str, after: str) -> List[str]:
    old, new = tables(before), tables(after)
    problems = [] if list(old) == list(new) else [f"tables {list(old)} != {list(new)}"]
    for title in old.keys() & new.keys():
        if len(old[title]) != len(new[title]):
            problems.append(f"{title}: {len(old[title])} rows != {len(new[title])}")
            continue
        for number, (a, b) in enumerate(zip(old[title], new[title])):
            if list(a) != list(b):
                problems.append(f"{title}: columns {list(a)} != {list(b)}")
                break
            problems.extend(
                f"{title} row {number} {column}: {a[column]!r} != {b[column]!r}"
                for column in a
                if column not in TIMED and a[column] != b[column]
            )
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    problems = differences(*argv)
    rows = sum(len(rows) for rows in tables(argv[0]).values())
    if problems:
        print("\n".join(problems[:20]))
        print(f"{len(problems)} differing cells")
        return 1
    print(f"{rows} rows equal in every column but {', '.join(sorted(TIMED))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
