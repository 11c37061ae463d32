"""RFID tracking records used by the SCC and UR comparison baselines.

Section 5.3.3 compares the paper's approach against two RFID-based flow
methods.  The RFID data model is the standard symbolic tracking format: a
record ``(o, r, ts, te)`` means object ``o`` was continuously inside reader
``r``'s detection range from ``ts`` to ``te``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..geometry import Point


@dataclass(frozen=True)
class RFIDReader:
    """A deployed RFID reader with a circular detection range."""

    reader_id: int
    position: Point
    detection_range: float
    door_id: Optional[int] = None

    def detects(self, location: Point) -> bool:
        return self.position.distance_to(location) <= self.detection_range


@dataclass(frozen=True)
class RFIDRecord:
    """A tracking record: object ``object_id`` seen by ``reader_id`` in ``[ts, te]``."""

    object_id: int
    reader_id: int
    ts: float
    te: float

    def __post_init__(self) -> None:
        if self.te < self.ts:
            raise ValueError("an RFID record cannot end before it starts")

    def overlaps(self, start: float, end: float) -> bool:
        return self.ts <= end and start <= self.te


class RFIDTable:
    """The table of RFID tracking records plus the reader deployment."""

    def __init__(self, readers: Iterable[RFIDReader] = ()):
        self.readers: Dict[int, RFIDReader] = {r.reader_id: r for r in readers}
        self._records: List[RFIDRecord] = []

    def add_reader(self, reader: RFIDReader) -> None:
        self.readers[reader.reader_id] = reader

    def append(self, record: RFIDRecord) -> None:
        if record.reader_id not in self.readers:
            raise ValueError(f"record references unknown reader {record.reader_id}")
        self._records.append(record)

    def extend(self, records: Iterable[RFIDRecord]) -> None:
        for record in records:
            self.append(record)

    def ingest_batch(self, records: Iterable[RFIDRecord]) -> int:
        """Batch ingestion mirroring
        :meth:`repro.storage.sharded.ShardedRecordStore.ingest_batch`.

        Returns the number of ingested records, so the streaming loaders can
        treat positioning and RFID traffic uniformly.
        """
        before = len(self._records)
        self.extend(records)
        return len(self._records) - before

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[RFIDRecord]:
        return tuple(self._records)

    def records_in(self, start: float, end: float) -> List[RFIDRecord]:
        """Records whose detection interval overlaps ``[start, end]``."""
        return [r for r in self._records if r.overlaps(start, end)]

    def records_by_object(
        self, start: float, end: float
    ) -> Dict[int, List[RFIDRecord]]:
        """Group the overlapping records per object, in time order."""
        grouped: Dict[int, List[RFIDRecord]] = defaultdict(list)
        for record in self.records_in(start, end):
            grouped[record.object_id].append(record)
        for records in grouped.values():
            records.sort(key=lambda r: (r.ts, r.te))
        return dict(grouped)

    def object_ids(self) -> List[int]:
        return sorted({r.object_id for r in self._records})

    def summary(self) -> Dict[str, int]:
        return {
            "readers": len(self.readers),
            "records": len(self._records),
            "objects": len(self.object_ids()),
        }
