"""WkNN-style probabilistic positioning simulator (Section 5.3).

The synthetic IUPT is derived from the ground-truth trajectories the same way
the paper describes: an object reports at most every ``T`` seconds; each
report contains between 1 and ``mss`` samples; a sample's P-location is drawn
from the reference points within ``µ`` metres of the object's true location;
its probability is proportional to ``1 / (dist * (1 + γ))`` where ``γ`` is a
small random perturbation — the weighting scheme of weighted k-nearest
neighbour (WkNN) fingerprinting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..data.iupt import IUPT
from ..data.records import PositioningRecord, Sample, SampleSet
from ..storage import DEFAULT_SHARD_SECONDS
from ..data.trajectory import Trajectory, TrajectoryStore
from ..geometry import Point, Rect
from ..indexes import RTree
from ..space import FloorPlan


@dataclass(frozen=True)
class PositioningConfig:
    """Parameters of the positioning simulation."""

    max_sample_set_size: int = 4
    max_period_seconds: float = 3.0
    min_period_seconds: float = 1.0
    positioning_error: float = 2.5
    weight_noise: float = 0.4
    distance_epsilon: float = 0.25
    candidate_radius_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_sample_set_size < 1:
            raise ValueError("max_sample_set_size must be at least 1")
        if self.min_period_seconds <= 0 or self.max_period_seconds < self.min_period_seconds:
            raise ValueError("invalid reporting period bounds")
        if self.positioning_error <= 0:
            raise ValueError("positioning_error must be positive")
        if not (0.0 <= self.weight_noise < 1.0):
            raise ValueError("weight_noise must be in [0, 1)")
        if self.candidate_radius_factor < 1.0:
            raise ValueError("candidate_radius_factor must be at least 1")

    @property
    def candidate_radius(self) -> float:
        """How far from the true location reported reference points may fall.

        Wi-Fi fingerprints of nearby but wall-separated spots often match, so
        the candidate pool spans a radius larger than the average positioning
        error; the weighting still favours close reference points, keeping the
        mean error near ``positioning_error``.
        """
        return self.positioning_error * self.candidate_radius_factor


class WkNNPositioningSimulator:
    """Turns ground-truth trajectories into an uncertain positioning table."""

    def __init__(
        self,
        plan: FloorPlan,
        config: PositioningConfig = PositioningConfig(),
        seed: Optional[int] = None,
    ):
        self._plan = plan.freeze()
        self._config = config
        self._rng = random.Random(seed)
        self._ploc_index = RTree.bulk_load(
            (
                (Rect.from_point(ploc.position), ploc.ploc_id)
                for ploc in self._plan.plocations.values()
            )
        )

    @property
    def config(self) -> PositioningConfig:
        return self._config

    # ------------------------------------------------------------------
    # IUPT generation
    # ------------------------------------------------------------------
    def generate(
        self,
        trajectories: TrajectoryStore,
        shard_seconds: Optional[float] = None,
        batch_seconds: float = 60.0,
    ) -> IUPT:
        """Generate an IUPT covering every trajectory in the store.

        The reports are ingested the way a live deployment receives them:
        globally time-ordered, in batches of ``batch_seconds`` of traffic,
        through :meth:`~repro.data.iupt.IUPT.ingest_batch`.  ``shard_seconds``
        overrides the table's partition duration.
        """
        iupt = IUPT.sharded(
            shard_seconds if shard_seconds is not None else DEFAULT_SHARD_SECONDS
        )
        self.stream_into(iupt, trajectories, batch_seconds=batch_seconds)
        return iupt

    def stream_into(
        self,
        iupt: IUPT,
        trajectories: TrajectoryStore,
        batch_seconds: float = 60.0,
    ) -> int:
        """Stream every trajectory's reports into ``iupt`` in time-ordered batches.

        Returns the number of ingested records.  Mirrors a positioning
        backend forwarding report traffic to the storage layer every
        ``batch_seconds``; each flush touches only the shards its time slice
        overlaps.
        """
        if batch_seconds <= 0:
            raise ValueError("batch_seconds must be positive")
        records = [
            PositioningRecord(trajectory.object_id, sample_set, timestamp)
            for trajectory in trajectories
            for timestamp, sample_set in self.reports_for(trajectory)
        ]
        records.sort(key=lambda record: record.timestamp)
        total = 0
        batch: List[PositioningRecord] = []
        flush_at: Optional[float] = None
        for record in records:
            if flush_at is not None and record.timestamp >= flush_at:
                total += iupt.ingest_batch(batch).records_ingested
                batch = []
                flush_at = None
            if flush_at is None:
                flush_at = record.timestamp + batch_seconds
            batch.append(record)
        if batch:
            total += iupt.ingest_batch(batch).records_ingested
        return total

    def reports_for(self, trajectory: Trajectory) -> List[Tuple[float, SampleSet]]:
        """The (timestamp, sample set) reports of one trajectory."""
        reports: List[Tuple[float, SampleSet]] = []
        if len(trajectory) == 0:
            return reports
        start, end = trajectory.time_span()
        config = self._config
        time_cursor = start
        while time_cursor <= end:
            location = trajectory.location_at(time_cursor)
            if location is not None:
                sample_set = self._sample_report(location)
                if sample_set is not None:
                    reports.append((time_cursor, sample_set))
            time_cursor += self._rng.uniform(
                config.min_period_seconds, config.max_period_seconds
            )
        return reports

    # ------------------------------------------------------------------
    # One report
    # ------------------------------------------------------------------
    def _sample_report(self, true_location: Point) -> Optional[SampleSet]:
        """One WkNN report: the ``k`` best-matching reference points.

        Every candidate matches the (simulated) fingerprint with a
        noise-perturbed distance; the ``sample_count`` *best matches* are
        reported, weighted by inverse matched distance — the selection rule
        of weighted k-nearest-neighbour fingerprinting.  (An earlier version
        drew the reported P-locations uniformly at random from the whole
        candidate radius, which produced topologically incoherent
        consecutive reports no real positioning system emits — and, through
        the path construction's validity pruning, all-zero flows on the
        synthetic grid building.)
        """
        config = self._config
        candidates = self._candidate_plocations(true_location)
        if not candidates:
            return None
        sample_count = self._rng.randint(1, config.max_sample_set_size)
        sample_count = min(sample_count, len(candidates))

        matched: List[Tuple[float, int]] = []
        for ploc_id in candidates:
            position = self._plan.plocations[ploc_id].position
            distance = max(position.distance_to(true_location), config.distance_epsilon)
            noise = self._rng.uniform(-config.weight_noise, config.weight_noise)
            matched.append((distance * (1.0 + noise), ploc_id))
        matched.sort()
        samples = [
            Sample(ploc_id, 1.0 / match_distance)
            for match_distance, ploc_id in matched[:sample_count]
        ]
        return SampleSet(samples, normalise=True)

    def _candidate_plocations(self, true_location: Point) -> List[int]:
        """Reference points within the positioning error radius of the true spot.

        When the error radius captures nothing (sparse deployments), the
        nearest reference point is used so the object is still reported,
        mirroring how a fingerprinting system always returns its best match.
        """
        radius = self._config.candidate_radius
        window = Rect.from_point(true_location, radius)
        hits = [
            ploc_id
            for _, ploc_id in self._ploc_index.search_entries(window)
            if self._plan.plocations[ploc_id].position.distance_to(true_location)
            <= radius
        ]
        if hits:
            return sorted(hits)
        nearest = self._ploc_index.nearest(true_location, count=1)
        return [item for _, item in nearest]
