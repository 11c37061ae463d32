"""The SCC (semi-constrained counting) RFID baseline (Section 5.3.3).

Ahmed et al.'s dense-location method assumes a *semi-constrained* indoor
environment where every semantic location has a dedicated entry and exit, each
monitored by an RFID reader, so objects entering a location can be counted
exactly.  In a general indoor space that assumption breaks: readers are placed
at doors, detection ranges must not overlap, and some doors end up without a
reader — objects slipping through those doors are never counted, which is the
failure mode the paper's Table 7 exposes as ``|Q|`` grows.

The reimplementation counts, per query S-location, the distinct objects
detected during the query window by readers deployed at that location's doors.
"""

from __future__ import annotations

import time
from typing import Dict, List, Set

from ..core.query import SearchStats, TkPLQResult, TkPLQuery
from ..data.rfid import RFIDTable
from ..space.floorplan import FloorPlan


class SemiConstrainedCounting:
    """The SCC baseline over RFID tracking records."""

    name = "scc"

    def __init__(self, plan: FloorPlan, rfid: RFIDTable):
        self._plan = plan.freeze()
        self._rfid = rfid
        self._readers_by_slocation = self._map_readers_to_slocations()

    # ------------------------------------------------------------------
    # Deployment mapping
    # ------------------------------------------------------------------
    def _map_readers_to_slocations(self) -> Dict[int, Set[int]]:
        """Map each S-location to the readers guarding its doors.

        An S-location inherits the readers of the doors of the partition(s)
        its region overlaps; door readers carry a ``door_id`` assigned by the
        deployment simulator.
        """
        readers_by_door: Dict[int, Set[int]] = {}
        for reader in self._rfid.readers.values():
            if reader.door_id is not None:
                readers_by_door.setdefault(reader.door_id, set()).add(reader.reader_id)

        mapping: Dict[int, Set[int]] = {}
        for sloc in self._plan.slocations.values():
            readers: Set[int] = set()
            for partition in self._plan.partitions.values():
                if not partition.rect.intersects(sloc.region):
                    continue
                if partition.rect.intersection_area(sloc.region) <= 0.0:
                    continue
                for door in self._plan.doors_of_partition(partition.partition_id):
                    readers |= readers_by_door.get(door.door_id, set())
            mapping[sloc.sloc_id] = readers
        return mapping

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()
        query_set = set(query.query_slocations)

        records = self._rfid.records_in(query.start, query.end)
        objects_by_reader: Dict[int, Set[int]] = {}
        seen_objects: Set[int] = set()
        for record in records:
            objects_by_reader.setdefault(record.reader_id, set()).add(record.object_id)
            seen_objects.add(record.object_id)

        flows: Dict[int, float] = {}
        for sloc_id in query_set:
            counted: Set[int] = set()
            for reader_id in self._readers_by_slocation.get(sloc_id, set()):
                counted |= objects_by_reader.get(reader_id, set())
            flows[sloc_id] = float(len(counted))

        stats.objects_total = len(seen_objects)
        stats.objects_computed = len(seen_objects)
        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult.ranked(query, flows, stats, self.name)
