"""The parent commit's window fetch, kept as a test oracle only.

The bodies below are the pre-bisect ``ShardedRecordStore.range_query`` and
``IUPT.sequences_in`` moved here verbatim (``self`` became ``store`` /
``iupt``; the probe counters are left out).  At the parent a partially
covered shard bulk-loaded a ``OneDimensionalRTree`` over all its records and
asked it; that tree answered from ``_sorted_range`` — a key list over every
record, two bisections, a slice — which is moved here with it, since this
change deletes both the per-shard trees and that method.  ``sequences_in``
wrapped each row in a ``(timestamp, sample_set)`` tuple and stable-sorted each
object's list by time.

The oracle reads ``shard.records``, which fills every slot of a lazily loaded
shard — so ``tests/test_fetch_oracle.py`` runs it against a reference store of
its own, never against the store whose laziness it is checking.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.data.iupt import IUPT
from repro.data.records import PositioningRecord, SampleSet
from repro.storage.base import check_not_evicted
from repro.storage.sharded import ShardedRecordStore


def _sorted_range(
    records: List[Tuple[float, PositioningRecord]], start: float, end: float
) -> List[PositioningRecord]:
    keys = [ts for ts, _ in records]
    lo = bisect_left(keys, start)
    hi = bisect_right(keys, end)
    return [record for _, record in records[lo:hi]]


def oracle_range_query(
    store: ShardedRecordStore, start: float, end: float
) -> List[PositioningRecord]:
    with store._lock:
        check_not_evicted(store, start, end)
        overlapping = store.overlapping_shard_keys(start, end)

        results: List[PositioningRecord] = []
        for key in overlapping:
            shard = store._shards[key]
            shard_start = key * store._shard_seconds
            shard_end = (key + 1) * store._shard_seconds
            if start <= shard_start and shard_end <= end:
                # Fully covered: the sorted record list IS the answer.
                results.extend(shard.records)
            else:
                pairs = [(record.timestamp, record) for record in shard.records]
                results.extend(_sorted_range(pairs, start, end))
        return results


def oracle_sequences_in(
    iupt: IUPT, start: float, end: float
) -> Dict[int, List[SampleSet]]:
    grouped: Dict[int, List[Tuple[float, SampleSet]]] = defaultdict(list)
    for record in iupt.range_query(start, end):
        grouped[record.object_id].append((record.timestamp, record.sample_set))
    sequences: Dict[int, List[SampleSet]] = {}
    for object_id in sorted(grouped):
        pairs = grouped[object_id]
        pairs.sort(key=lambda item: item[0])
        sequences[object_id] = [sample_set for _, sample_set in pairs]
    return sequences
