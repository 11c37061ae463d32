"""Command-line entry point: ``python -m repro.experiments <name> [--scale paper]``.

Runs one registered experiment (or ``all``) and prints its result table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from .paper import EXPERIMENTS, run_experiment
from .runner import format_table


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table or figure of the paper's evaluation.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment identifier (e.g. table4, fig08) or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=("small", "paper"),
        help="parameter scale: 'small' (default, minutes) or 'paper' (hours)",
    )
    arguments = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    # Entries that are one sweep (table5 and fig07) run once and print twice.
    rows_of: Dict[int, List[Dict[str, object]]] = {}
    for name in names:
        sweep = id(EXPERIMENTS[name])
        if sweep not in rows_of:
            rows_of[sweep] = run_experiment(name, scale=arguments.scale)
        rows = rows_of[sweep]
        print(f"== {name} (scale={arguments.scale}) ==")
        print(format_table(rows))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
