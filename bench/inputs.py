"""Seeded inputs: the two tables, time-sliced batches, stratified query plans.

The tables are fixed datasets (``TABLE_SEED``); ``--seed`` draws the query
plan.  Measured on this sandbox, the cost of a cold pass moved 2.4x between
tables generated from different seeds (5.2 s to 12.4 s for the same 120-query
plan) and +-19 % between unstratified plans over one table — far outside any
regression bound the contract allows (<= 25 %).  So the table is held fixed
and the plans are *stratified*: window starts tile the timeline with seeded
jitter, window lengths and query-set sizes cycle, and the seed draws only the
jitter, the order and (for the warm plans) the S-location subsets.  The program still receives only
generated records plus the table seed (for the floor plan) on the topology
command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.synth.scenario import Scenario, build_synthetic_scenario

TABLE_SEED = 17
DEFAULT_SEED = 17  # 29 is the held-out seed

#: The *campus table*: 30 objects, 2 floors of 1x3 rooms, 600 s.
CAMPUS = dict(num_objects=30, floors=2, room_rows=1, rooms_per_row=3, duration_seconds=600.0)
CAMPUS_SHARD_SECONDS = 60.0
#: The *stream table*: 2 floors of 2x5 rooms, 1800 s (objects set per size preset).
STREAM = dict(floors=2, room_rows=2, rooms_per_row=5, duration_seconds=1800.0)
STREAM_SHARD_SECONDS = 120.0

WINDOW_LENGTHS = (30.0, 45.0, 60.0, 60.0, 75.0)
QUERY_SET_SIZES = (4, 8, 12)
#: How far (seconds) a cold window's start may move with the seed.
COLD_JITTER_SECONDS = 1.0


@dataclass(frozen=True)
class Read:
    """One read of a plan: a ``top_k`` or ``flows`` request in wire form."""

    op: str
    fields: Dict[str, object]

    @property
    def window(self) -> Tuple[float, float]:
        return (self.fields["start"], self.fields["end"])


def campus_scenario(duration_seconds: float = CAMPUS["duration_seconds"]) -> Scenario:
    params = dict(CAMPUS, duration_seconds=duration_seconds)
    return build_synthetic_scenario(seed=TABLE_SEED, **params)


def stream_scenario(num_objects: int, duration_seconds: float) -> Scenario:
    params = dict(STREAM, duration_seconds=duration_seconds)
    return build_synthetic_scenario(seed=TABLE_SEED, num_objects=num_objects, **params)


def campus_topology_args(duration_seconds: float = CAMPUS["duration_seconds"]) -> List[str]:
    """Scenario flags every topology role needs to rebuild the campus model."""
    return [
        "--objects", str(CAMPUS["num_objects"]),
        "--floors", str(CAMPUS["floors"]),
        "--duration", str(duration_seconds),
        "--seed", str(TABLE_SEED),
    ]


def records_in_time_order(scenario: Scenario) -> list:
    return sorted(scenario.iupt.records, key=lambda record: record.timestamp)


def time_batches(records: Sequence, batch_seconds: float, start: float, end: float) -> List[list]:
    """Slice time-ordered ``records`` of ``[start, end)`` into fixed-length batches.

    Batch ``i`` holds the records with ``start + i*len <= t < start + (i+1)*len``;
    empty slices are dropped.
    """
    count = max(1, round((end - start) / batch_seconds))
    slices: List[list] = [[] for _ in range(count)]
    for record in records:
        if start <= record.timestamp < end:
            index = min(count - 1, int((record.timestamp - start) / batch_seconds))
            slices[index].append(record)
    return [batch for batch in slices if batch]


def _read(op: str, slocs: Sequence[int], start: float, end: float) -> Read:
    fields: Dict[str, object] = {"q": list(slocs), "start": start, "end": end}
    if op == "top_k":
        fields["k"] = min(3, len(slocs))
    return Read(op, fields)


def cold_plan(seed: int, slocs: Sequence[int], count: int, span: float) -> List[Read]:
    """``count`` distinct first-touch queries, stratified over ``[0, span]``.

    Query ``i`` alternates ``top_k``/``flows``, takes window length
    ``WINDOW_LENGTHS[i % 5]`` and query-set size ``QUERY_SET_SIZES[(i // 5) % 3]``;
    the starts of each length class tile the timeline.  The S-location subsets
    belong to the plan's fixed shape (drawn from ``TABLE_SEED``); ``seed``
    moves each start by up to ``COLD_JITTER_SECONDS`` and shuffles the order.
    Measured on eight seeds, the work of a pass (valid paths built) moved by
    1.9 % this way, against 12.6 % with seeded subsets and starts free to move
    a quarter of their stratum — more than the +-5 % the timing itself moves.
    """
    rng = random.Random(seed)
    shape = random.Random(TABLE_SEED)
    classes = len(WINDOW_LENGTHS)
    per_class = max(1, -(-count // classes))
    plan: List[Read] = []
    for index in range(count):
        length = min(WINDOW_LENGTHS[index % classes], span)
        stratum = (index // classes) % per_class
        width = (span - length) / per_class
        start = round(stratum * width + rng.uniform(0.0, min(COLD_JITTER_SECONDS, width)), 3)
        size = min(QUERY_SET_SIZES[(index // classes) % len(QUERY_SET_SIZES)], len(slocs))
        subset = sorted(shape.sample(list(slocs), size))
        plan.append(_read("top_k" if index % 2 == 0 else "flows", subset, start, start + length))
    rng.shuffle(plan)
    return plan


def hot_plan(
    seed: int, slocs: Sequence[int], pairs: int, lo: float, hi: float
) -> List[Read]:
    """``2 * pairs`` warm combos: ``pairs`` distinct (45-60 s window, 8-S-location
    set) keys inside ``[lo, hi]``, each asked as ``top_k`` and as ``flows``.

    Both ops of a pair share one presence-store key, so the working set is
    ``pairs x objects-in-window`` entries — far below the 4096-entry store.
    """
    rng = random.Random(seed)
    size = min(8, len(slocs))
    plan: List[Read] = []
    width = (hi - lo) / pairs
    for index in range(pairs):
        length = min(rng.choice((45.0, 50.0, 55.0, 60.0)), hi - lo)
        stratum_lo = lo + index * width
        start = round(min(stratum_lo + rng.uniform(0.0, width), hi - length), 3)
        subset = sorted(rng.sample(list(slocs), size))
        plan.append(_read("top_k", subset, start, start + length))
        plan.append(_read("flows", subset, start, start + length))
    return plan
