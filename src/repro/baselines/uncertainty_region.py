"""The UR (uncertainty region) RFID baseline (Section 5.3.3).

Lu et al.'s frequently-visited-POI method derives, for each pair of
consecutive RFID detections of an object, an uncertainty region covering every
position the object may have occupied in between.  With readers deployed at
doors, the region is an ellipse whose foci are the two reader positions and
whose major axis is the maximum distance the object could have walked in the
elapsed time (bounded below by the straight-line distance between the
readers).  The flow of an indoor location is accumulated from the overlap of
the location with each object's uncertainty regions.

The paper observes that door-mounted readers always produce large ellipses, so
UR tends to spread flow across neighbouring locations — the behaviour this
reimplementation reproduces.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core.query import SearchStats, TkPLQResult, TkPLQuery, rank_top_k
from ..data.rfid import RFIDRecord, RFIDTable
from ..geometry import Ellipse
from ..space.floorplan import FloorPlan

MINIMUM_AXIS = 1.0  # metres: the shortest major axis an uncertainty region gets


class UncertaintyRegionFlow:
    """The UR baseline over RFID tracking records."""

    name = "ur"

    def __init__(self, plan: FloorPlan, rfid: RFIDTable, max_speed: float = 1.0):
        if max_speed <= 0:
            raise ValueError("max_speed must be positive")
        self._plan = plan.freeze()
        self._rfid = rfid
        self._max_speed = max_speed

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: TkPLQuery) -> TkPLQResult:
        stats = SearchStats()
        began = time.perf_counter()
        query_set = list(query.query_slocations)

        by_object = self._rfid.records_by_object(query.start, query.end)
        stats.objects_total = len(by_object)

        flows: Dict[int, float] = {sloc_id: 0.0 for sloc_id in query_set}
        for object_id, records in sorted(by_object.items()):
            stats.note_object_computed(object_id)
            regions = self._uncertainty_regions(records)
            if not regions:
                continue
            for sloc_id in query_set:
                presence = self._presence(sloc_id, regions)
                flows[sloc_id] += presence

        stats.elapsed_seconds = time.perf_counter() - began
        return TkPLQResult(
            query=query,
            ranking=rank_top_k(flows, query.k),
            flows=flows,
            stats=stats,
            algorithm=self.name,
        )

    # ------------------------------------------------------------------
    # Region construction and scoring
    # ------------------------------------------------------------------
    def _uncertainty_regions(self, records: List[RFIDRecord]) -> List[Ellipse]:
        regions: List[Ellipse] = []
        for previous, current in zip(records, records[1:]):
            region = self._region_between(previous, current)
            if region is not None:
                regions.append(region)
        if not regions and records:
            # A single detection: the uncertainty region degenerates to the
            # reader's neighbourhood, modelled as a small circle-like ellipse.
            reader = self._rfid.readers.get(records[0].reader_id)
            if reader is not None:
                regions.append(
                    Ellipse(
                        reader.position,
                        reader.position,
                        max(2.0 * reader.detection_range, MINIMUM_AXIS),
                    )
                )
        return regions

    def _region_between(
        self, previous: RFIDRecord, current: RFIDRecord
    ) -> Optional[Ellipse]:
        reader_a = self._rfid.readers.get(previous.reader_id)
        reader_b = self._rfid.readers.get(current.reader_id)
        if reader_a is None or reader_b is None:
            return None
        if reader_a.position.floor != reader_b.position.floor:
            return None
        elapsed = max(current.ts - previous.te, 0.0)
        reachable = self._max_speed * elapsed
        axis = max(
            reachable,
            reader_a.position.distance_to(reader_b.position),
            MINIMUM_AXIS,
        )
        return Ellipse(reader_a.position, reader_b.position, axis)

    def _presence(self, sloc_id: int, regions: List[Ellipse]) -> float:
        """The object's presence estimate for one S-location.

        The contribution of each uncertainty region is the fraction of the
        region overlapping the S-location; contributions are summed and capped
        at 1 so the value stays comparable with the paper's object presence.
        """
        sloc = self._plan.slocations.get(sloc_id)
        if sloc is None:
            return 0.0
        total = 0.0
        for region in regions:
            if region.area <= 0.0:
                continue
            overlap = region.intersection_area_with_rect(sloc.region, resolution=8)
            if overlap > 0.0:
                total += overlap / region.area
            if total >= 1.0:
                return 1.0
        return min(total, 1.0)
