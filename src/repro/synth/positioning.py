"""WkNN-style probabilistic positioning simulator (Section 5.3).

The synthetic IUPT is derived from the ground-truth trajectories the same way
the paper describes: an object reports at most every ``T`` seconds; each
report contains between 1 and ``mss`` samples; a sample's P-location is drawn
from the reference points within ``CANDIDATE_RADIUS_FACTOR × µ`` (= 2µ)
metres of the object's true location (the nearest reference point when
none lies that close);
its probability is proportional to ``1 / (dist * (1 + γ))`` where ``γ`` is a
small random perturbation — the weighting scheme of weighted k-nearest
neighbour (WkNN) fingerprinting.

Each report answers its two lookups from tables built once per simulator:

* **candidate reference points** come from a per-floor bucket grid.  A
  bucket's side is ``BUCKET_SIDE_FACTOR`` times the candidate radius, and
  each bucket lists, in ascending id order, every reference point of its
  3 × 3 neighbourhood.  A point's search window (the radius around it) lies
  inside that neighbourhood with a third of a bucket to spare, so the
  bucket holds every point the window's box test can pass.  The box test
  and the ``distance <= radius`` filter are the R-tree search's, on the same
  floats, so the hits and their order are the ones the R-tree window search
  gave.  The R-tree serves only the nearest-point fallback;
* **a report's sample set** is built as its two columns: the weights of
  the best matches, each divided by their left-to-right total, in ascending
  id order — the floats ``SampleSet(samples, normalise=True)`` computes.

A report at the same ``Point`` object as the report before (an object
dwelling) reuses its candidates.  None of this draws anything,
``uniform(a, b)`` is spelt as its formula ``a + (b - a) * random()``, and
``randint(1, n)`` as the ``getrandbits(n.bit_length())`` draws (redrawn
while ``>= n``) it makes, so every RNG draw and every float of the reports
stays where it was.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..data.records import PositioningRecord, SampleSet
from ..storage import DEFAULT_SHARD_SECONDS, ShardedRecordStore
from ..data.trajectory import Trajectory, TrajectoryStore
from ..geometry import Point, Rect
from ..indexes import RTree
from ..space import FloorPlan

MAX_SAMPLE_SET_SIZE = 4  # mss; experiments truncate with ``Scenario.with_mss``
_SAMPLE_COUNT_BITS = MAX_SAMPLE_SET_SIZE.bit_length()  # randint's draw width
MIN_PERIOD_SECONDS = 1.0
WEIGHT_NOISE = 0.4  # γ is drawn from [-WEIGHT_NOISE, WEIGHT_NOISE]
DISTANCE_EPSILON = 0.25  # matched distances are at least this, metres
# Wi-Fi fingerprints of nearby but wall-separated spots often match, so the
# candidate pool spans this multiple of µ; the weighting still favours close
# reference points, keeping the mean error near µ.
CANDIDATE_RADIUS_FACTOR = 2.0
BUCKET_SIDE_FACTOR = 1.5  # a grid bucket's side, in candidate radii (module docstring)
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
        plocations = self._plan.plocations
        self._ploc_index = RTree.bulk_load(
            (Rect.from_point(ploc.position), ploc.ploc_id) for ploc in plocations.values()
        )
        # (floor, column, row) → (id, x, y) of every reference point in the
        # bucket's 3 × 3 neighbourhood, ids ascending (module docstring).
        self._bucket_side = side = config.candidate_radius * BUCKET_SIDE_FACTOR
        self._buckets: Dict[Tuple[int, int, int], List[Tuple[int, float, float]]] = {}
        for ploc_id in sorted(plocations):
            position = plocations[ploc_id].position
            column, row = math.floor(position.x / side), math.floor(position.y / side)
            for near_column in (column - 1, column, column + 1):
                for near_row in (row - 1, row, row + 1):
                    key = (position.floor, near_column, near_row)
                    self._buckets.setdefault(key, []).append((ploc_id, position.x, position.y))

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
        synthetic grid building.)  The set is built as its two columns
        (module docstring).
        """
        if not candidates:
            return None
        rng = self._rng
        draw = rng.random
        # rng.randint(1, MAX_SAMPLE_SET_SIZE), by the draws it makes.
        getrandbits = rng.getrandbits
        drawn = getrandbits(_SAMPLE_COUNT_BITS)
        while drawn >= MAX_SAMPLE_SET_SIZE:
            drawn = getrandbits(_SAMPLE_COUNT_BITS)
        sample_count = min(1 + drawn, len(candidates))
        low, width = -WEIGHT_NOISE, WEIGHT_NOISE - -WEIGHT_NOISE  # uniform(-γmax, γmax)
        best = sorted(
            (distance * (1.0 + (low + width * draw())), ploc_id) for distance, ploc_id in candidates
        )[:sample_count]
        weights = [1.0 / match_distance for match_distance, _ in best]
        total = sum(weights)
        if not 0.0 < total < math.inf or min(weights) < 0.0:
            raise ValueError(f"cannot normalise the report weights {weights}")
        ploc_ids, weights = zip(*sorted(zip([ploc_id for _, ploc_id in best], weights)))
        return SampleSet._from_columns(ploc_ids, [weight / total for weight in weights])

    def _candidate_plocations(self, true_location: Point) -> List[Tuple[float, int]]:
        """Reference points within the positioning error radius of the true
        spot, as ``(distance, ploc_id)`` in ascending id order (the order the
        noise is drawn in), each distance at least ``DISTANCE_EPSILON``:
        those of the location's grid bucket that pass the search window's box
        test and lie within the radius (module docstring).

        When the error radius captures nothing (sparse deployments), the
        nearest reference point is used so the object is still reported,
        mirroring how a fingerprinting system always returns its best match.
        """
        radius = self._config.candidate_radius
        x, y, side = true_location.x, true_location.y, self._bucket_side
        xmin, ymin, xmax, ymax = x - radius, y - radius, x + radius, y + radius
        bucket = (true_location.floor, math.floor(x / side), math.floor(y / side))
        candidates: List[Tuple[float, int]] = []
        for ploc_id, px, py in self._buckets.get(bucket, ()):
            if xmin <= px <= xmax and ymin <= py <= ymax:
                distance = math.hypot(px - x, py - y)
                if distance <= radius:
                    candidates.append((max(distance, DISTANCE_EPSILON), ploc_id))
        if candidates:
            return candidates
        plocations = self._plan.plocations
        return [
            (
                max(plocations[ploc_id].position.distance_to(true_location), DISTANCE_EPSILON),
                ploc_id,
            )
            for _, ploc_id in self._ploc_index.nearest(true_location, count=1)
        ]
