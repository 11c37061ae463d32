"""RFID reader deployment and detection simulator (Section 5.3.3).

The paper compares against RFID-based flow methods by replaying the same
ground-truth trajectories through an RFID tracking model: ordinary readers
with a 3-metre detection range are deployed at doors, detection ranges must
not overlap, and a record ``(o, r, ts, te)`` is produced whenever object ``o``
stays inside reader ``r``'s range during ``[ts, te]``.  Because of the
non-overlap constraint some doors end up without a reader — exactly the
situation that degrades the SCC baseline.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..data.rfid import RFIDReader, RFIDRecord, RFIDTable
from ..data.trajectory import TrajectoryStore
from ..space import FloorPlan

DETECTION_RANGE = 3.0  # metres
# Readers closer than twice the detection range would overlap.
READER_SEPARATION = 2.0 * DETECTION_RANGE


class RFIDSimulator:
    """Deploys readers at doors and converts trajectories into RFID records."""

    def __init__(self, plan: FloorPlan):
        self._plan = plan.freeze()

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy_readers(self) -> RFIDTable:
        """Place readers at doors greedily while keeping ranges disjoint.

        Doors are visited in id order; a reader is added when its range would
        not overlap any previously placed reader on the same floor.  The
        result maximises reader count under the non-overlap constraint in the
        same greedy spirit as the paper ("we maximize the number of readers").
        """
        table = RFIDTable()
        placed: List[RFIDReader] = []
        for door in sorted(self._plan.doors.values(), key=lambda d: d.door_id):
            position = door.position
            if any(
                reader.position.distance_to(position) < READER_SEPARATION
                for reader in placed
                if reader.position.floor == position.floor
            ):
                continue
            reader = RFIDReader(
                reader_id=len(placed),
                position=position,
                detection_range=DETECTION_RANGE,
                door_id=door.door_id,
            )
            placed.append(reader)
            table.add_reader(reader)
        return table

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def generate(self, trajectories: TrajectoryStore) -> RFIDTable:
        """Deploy the readers and produce the RFID tracking records of every trajectory."""
        table = self.deploy_readers()
        readers = list(table.readers.values())
        for trajectory in trajectories:
            table.ingest_batch(self._records_for(trajectory, readers))
        return table

    def _records_for(
        self, trajectory, readers: List[RFIDReader]
    ) -> List[RFIDRecord]:
        # open_intervals[reader_id] = (start, last_seen)
        open_intervals: Dict[int, Tuple[float, float]] = {}
        records: List[RFIDRecord] = []
        for point in trajectory.points:
            detected = {
                reader.reader_id
                for reader in readers
                if reader.detects(point.location)
            }
            for reader_id in detected:
                if reader_id in open_intervals:
                    start, _ = open_intervals[reader_id]
                    open_intervals[reader_id] = (start, point.timestamp)
                else:
                    open_intervals[reader_id] = (point.timestamp, point.timestamp)
            closed = [rid for rid in open_intervals if rid not in detected]
            for reader_id in closed:
                start, last_seen = open_intervals.pop(reader_id)
                records.append(
                    RFIDRecord(trajectory.object_id, reader_id, start, last_seen)
                )
        for reader_id, (start, last_seen) in open_intervals.items():
            records.append(RFIDRecord(trajectory.object_id, reader_id, start, last_seen))
        records.sort(key=lambda record: (record.ts, record.te, record.reader_id))
        return records
