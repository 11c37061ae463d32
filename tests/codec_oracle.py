"""The parent commit's ``PackedRecordBatch.to_records``, kept as a test oracle only.

The body below is the pre-columnar ``repro.codec.packed`` code moved here
verbatim (``self`` became ``batch``): every sample becomes a ``Sample`` and
every record's set goes through the public ``SampleSet`` constructor — dict
merge, ``sorted``, mass check.  The columnar ``to_records`` must return equal
records, or raise ``ValueError`` exactly when this does
(``tests/test_codec_oracle.py``).
"""

from __future__ import annotations

from typing import List

from repro.codec.packed import PackedRecordBatch
from repro.data.records import PositioningRecord, Sample, SampleSet


def oracle_to_records(batch: PackedRecordBatch) -> List[PositioningRecord]:
    timestamps = batch.timestamps.tolist()
    object_ids = batch.object_ids.tolist()
    counts = batch.sample_counts.tolist()
    plocs = batch.sample_plocs.tolist()
    probs = batch.sample_probs.tolist()
    records: List[PositioningRecord] = []
    cursor = 0
    for i in range(len(timestamps)):
        count = counts[i]
        stop = cursor + count
        sample_set = SampleSet(
            Sample(plocs[j], probs[j]) for j in range(cursor, stop)
        )
        records.append(
            PositioningRecord(object_ids[i], sample_set, timestamps[i])
        )
        cursor = stop
    if cursor != len(plocs):
        raise ValueError("packed batch corrupt: sample counts disagree with data")
    return records
