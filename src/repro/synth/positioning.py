"""WkNN-style probabilistic positioning simulator (Section 5.3).

The synthetic IUPT is derived from the ground-truth trajectories the same way
the paper describes: an object reports at most every ``T`` seconds; each
report contains between 1 and ``mss`` samples; a sample's P-location is drawn
from the reference points within ``µ`` metres of the object's true location;
its probability is proportional to ``1 / (dist * (1 + γ))`` where ``γ`` is a
small random perturbation — the weighting scheme of weighted k-nearest
neighbour (WkNN) fingerprinting.

A report at the same ``Point`` object as the report before (an object
dwelling) reuses its candidate reference points and their distances: they
depend on the location alone and draw nothing, so every RNG draw and every
float of the reports stays where it was.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..data.records import PositioningRecord, Sample, SampleSet
from ..storage import DEFAULT_SHARD_SECONDS, ShardedRecordStore
from ..data.trajectory import Trajectory, TrajectoryStore
from ..geometry import Point, Rect
from ..indexes import RTree
from ..space import FloorPlan

MAX_SAMPLE_SET_SIZE = 4  # mss; experiments truncate with ``Scenario.with_mss``
MIN_PERIOD_SECONDS = 1.0
WEIGHT_NOISE = 0.4  # γ is drawn from [-WEIGHT_NOISE, WEIGHT_NOISE]
DISTANCE_EPSILON = 0.25  # matched distances are at least this, metres
# Wi-Fi fingerprints of nearby but wall-separated spots often match, so the
# candidate pool spans this multiple of µ; the weighting still favours close
# reference points, keeping the mean error near µ.
CANDIDATE_RADIUS_FACTOR = 2.0
BATCH_SECONDS = 60.0  # the traffic one ingest batch carries


@dataclass(frozen=True)
class PositioningConfig:
    """Parameters of the positioning simulation: T and µ."""

    max_period_seconds: float = 3.0
    positioning_error: float = 2.5

    def __post_init__(self) -> None:
        if self.max_period_seconds < MIN_PERIOD_SECONDS:
            raise ValueError(f"max_period_seconds cannot be below {MIN_PERIOD_SECONDS}")
        if self.positioning_error <= 0:
            raise ValueError("positioning_error must be positive")

    @property
    def candidate_radius(self) -> float:
        """How far from the true location reported reference points may fall."""
        return self.positioning_error * CANDIDATE_RADIUS_FACTOR


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

    # ------------------------------------------------------------------
    # IUPT generation
    # ------------------------------------------------------------------
    def generate(self, trajectories: TrajectoryStore) -> ShardedRecordStore:
        """Generate an IUPT covering every trajectory in the store.

        The reports are ingested the way a live deployment receives them:
        globally time-ordered, in batches of ``BATCH_SECONDS`` of traffic,
        through :meth:`~repro.storage.sharded.ShardedRecordStore.ingest_batch`;
        each flush touches only the shards its time slice overlaps.
        """
        records = [
            PositioningRecord(trajectory.object_id, sample_set, timestamp)
            for trajectory in trajectories
            for timestamp, sample_set in self.reports_for(trajectory)
        ]
        records.sort(key=lambda record: record.timestamp)
        iupt = ShardedRecordStore(DEFAULT_SHARD_SECONDS)
        batch: List[PositioningRecord] = []
        for record in records:
            if batch and record.timestamp >= batch[0].timestamp + BATCH_SECONDS:
                iupt.ingest_batch(batch)
                batch = []
            batch.append(record)
        if batch:
            iupt.ingest_batch(batch)
        return iupt

    def reports_for(self, trajectory: Trajectory) -> List[Tuple[float, SampleSet]]:
        """The (timestamp, sample set) reports of one trajectory."""
        reports: List[Tuple[float, SampleSet]] = []
        if len(trajectory) == 0:
            return reports
        start, end = trajectory.time_span()
        config = self._config
        location: Optional[Point] = None
        candidates: List[Tuple[float, int]] = []
        time_cursor = start
        while time_cursor <= end:
            true_location = trajectory.location_at(time_cursor)
            if true_location is not None:
                if true_location is not location:
                    location = true_location
                    candidates = self._candidate_plocations(location)
                sample_set = self._sample_report(candidates)
                if sample_set is not None:
                    reports.append((time_cursor, sample_set))
            time_cursor += self._rng.uniform(MIN_PERIOD_SECONDS, config.max_period_seconds)
        return reports

    # ------------------------------------------------------------------
    # One report
    # ------------------------------------------------------------------
    def _sample_report(self, candidates: List[Tuple[float, int]]) -> Optional[SampleSet]:
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
        if not candidates:
            return None
        rng = self._rng
        sample_count = min(rng.randint(1, MAX_SAMPLE_SET_SIZE), len(candidates))
        matched = sorted(
            (distance * (1.0 + rng.uniform(-WEIGHT_NOISE, WEIGHT_NOISE)), ploc_id)
            for distance, ploc_id in candidates
        )
        samples = [
            Sample(ploc_id, 1.0 / match_distance)
            for match_distance, ploc_id in matched[:sample_count]
        ]
        return SampleSet(samples, normalise=True)

    def _candidate_plocations(self, true_location: Point) -> List[Tuple[float, int]]:
        """Reference points within the positioning error radius of the true
        spot, as ``(distance, ploc_id)`` in ascending id order (the order the
        noise is drawn in), each distance at least ``DISTANCE_EPSILON``.

        When the error radius captures nothing (sparse deployments), the
        nearest reference point is used so the object is still reported,
        mirroring how a fingerprinting system always returns its best match.
        """
        radius = self._config.candidate_radius
        window = Rect.from_point(true_location, radius)
        plocations = self._plan.plocations
        hits = sorted(
            ploc_id
            for ploc_id in self._ploc_index.search(window)
            if plocations[ploc_id].position.distance_to(true_location) <= radius
        )
        if not hits:
            hits = [item for _, item in self._ploc_index.nearest(true_location, count=1)]
        return [
            (
                max(plocations[ploc_id].position.distance_to(true_location), DISTANCE_EPSILON),
                ploc_id,
            )
            for ploc_id in hits
        ]
