"""The benchmark contract (``BENCHMARK.json``) and the package's paths."""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workload_names(spec: dict) -> List[str]:
    return [entry["name"] for entry in spec["workloads"]]


def metric_table(spec: dict, section: str) -> Dict[str, dict]:
    """``end_to_end`` or ``per_layer`` entries keyed by metric name."""
    return {entry["name"]: entry for entry in spec[section]}


def make_program_importable() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (the program under test).

    The benchmark builds nothing: the program is pure Python and is imported
    from source.  A directory without ``src/repro`` cannot be benchmarked:
    the run ends here, non-zero, without a result line.
    """
    if not (SRC_DIR / "repro").is_dir():
        raise SystemExit(f"bench: no program to measure: {SRC_DIR / 'repro'} is missing")
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
