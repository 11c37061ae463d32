"""Indoor walking distances and shortest paths over the door graph.

The synthetic movement generator (Section 5.3: "an object moves towards its
destination along the shortest indoor path") needs door-to-door routing.  The
standard indoor routing model is used: movement between two points in the same
partition is a straight line, and movement across partitions goes door to
door.  The door graph has one node per door plus virtual nodes for the source
and target points; edges connect nodes that share a partition, weighted by
straight-line distance.

The implementation is a self-contained Dijkstra (binary heap) so the core
library carries no third-party dependencies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Point
from .floorplan import FloorPlan


@dataclass(frozen=True)
class IndoorRoute:
    """A routed indoor path: the sequence of waypoints and its total length."""

    waypoints: Tuple[Point, ...]
    length: float
    partitions: Tuple[int, ...]


class DoorGraphRouter:
    """Shortest-path routing over a floor plan's door graph."""

    def __init__(self, plan: FloorPlan):
        if not plan.is_frozen:
            plan.freeze()
        self._plan = plan
        # door graph adjacency: door_id -> list of (door_id, weight, partition)
        self._adjacency: Dict[int, List[Tuple[int, float, int]]] = {
            door_id: [] for door_id in plan.doors
        }
        self._build_adjacency()

    def _build_adjacency(self) -> None:
        plan = self._plan
        for partition_id in plan.partitions:
            doors = plan.doors_of_partition(partition_id)
            for i, door_a in enumerate(doors):
                for door_b in doors[i + 1 :]:
                    weight = self._inner_distance(door_a.position, door_b.position)
                    self._adjacency[door_a.door_id].append(
                        (door_b.door_id, weight, partition_id)
                    )
                    self._adjacency[door_b.door_id].append(
                        (door_a.door_id, weight, partition_id)
                    )

    @staticmethod
    def _inner_distance(a: Point, b: Point) -> float:
        """Distance between two points inside one partition.

        Staircase partitions connect doors on different floors; a nominal
        vertical traversal cost (floor height 4 m plus planar offset) is used
        so that inter-floor routes are longer than same-floor ones.
        """
        if a.floor == b.floor:
            return a.distance_to(b)
        planar = math.hypot(a.x - b.x, a.y - b.y)
        return planar + 4.0 * abs(a.floor - b.floor)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def distance(self, source: Point, target: Point) -> float:
        """Shortest indoor walking distance between two points."""
        route = self.route(source, target)
        return route.length if route is not None else math.inf

    def route(self, source: Point, target: Point) -> Optional[IndoorRoute]:
        """Compute the shortest indoor route between two points.

        Returns ``None`` when no route exists (disconnected partitions).
        """
        plan = self._plan
        source_partition = plan.partition_containing(source)
        target_partition = plan.partition_containing(target)
        if source_partition is None or target_partition is None:
            return None
        if source_partition == target_partition:
            length = self._inner_distance(source, target)
            return IndoorRoute(
                waypoints=(source, target),
                length=length,
                partitions=(source_partition,),
            )

        # Dijkstra over door nodes, seeded from the doors of the source
        # partition, terminated at the doors of the target partition.
        source_doors = plan.doors_of_partition(source_partition)
        target_doors = {d.door_id for d in plan.doors_of_partition(target_partition)}
        if not source_doors or not target_doors:
            return None

        dist: Dict[int, float] = {}
        prev: Dict[int, Optional[int]] = {}
        heap: List[Tuple[float, int]] = []
        for door in source_doors:
            start_cost = self._inner_distance(source, door.position)
            if start_cost < dist.get(door.door_id, math.inf):
                dist[door.door_id] = start_cost
                prev[door.door_id] = None
                heapq.heappush(heap, (start_cost, door.door_id))

        best_target: Optional[int] = None
        best_cost = math.inf
        while heap:
            cost, door_id = heapq.heappop(heap)
            if cost > dist.get(door_id, math.inf):
                continue
            if door_id in target_doors:
                exit_cost = cost + self._inner_distance(
                    plan.doors[door_id].position, target
                )
                if exit_cost < best_cost:
                    best_cost = exit_cost
                    best_target = door_id
                # Other target doors may still be cheaper overall; keep going
                # until the frontier exceeds the best known total.
                if cost > best_cost:
                    break
            for neighbour, weight, _ in self._adjacency[door_id]:
                candidate = cost + weight
                if candidate < dist.get(neighbour, math.inf):
                    dist[neighbour] = candidate
                    prev[neighbour] = door_id
                    heapq.heappush(heap, (candidate, neighbour))

        if best_target is None:
            return None

        door_chain: List[int] = []
        cursor: Optional[int] = best_target
        while cursor is not None:
            door_chain.append(cursor)
            cursor = prev[cursor]
        door_chain.reverse()

        waypoints = [source] + [plan.doors[d].position for d in door_chain] + [target]
        partitions = self._partitions_along(source_partition, door_chain, target_partition)
        return IndoorRoute(
            waypoints=tuple(waypoints),
            length=best_cost,
            partitions=tuple(partitions),
        )

    def _partitions_along(
        self, source_partition: int, door_chain: Sequence[int], target_partition: int
    ) -> List[int]:
        """Reconstruct the partition sequence visited along a door chain."""
        partitions = [source_partition]
        current = source_partition
        for door_id in door_chain:
            door = self._plan.doors[door_id]
            if current in door.partition_ids:
                current = door.other_side(current)
            else:
                # The chain stepped through a partition shared with the
                # previous door; pick the side that is not the current one.
                current = door.partition_ids[0] if door.partition_ids[1] == current else door.partition_ids[1]
            partitions.append(current)
        if partitions[-1] != target_partition:
            partitions.append(target_partition)
        return partitions
