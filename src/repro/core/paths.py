"""Candidate-path accounting and the pass probability (Section 2.3, Equation 2).

Given an object's positioning sequence ``X = (X1, ..., Xn)`` within the query
window, the candidate paths live in the Cartesian product
``πl(X1) x ... x πl(Xn)``.  Candidates containing a consecutive P-location
pair with ``MIL[pi, pj] = ∅`` violate the indoor topology and are invalid.
A path is described, per consecutive pair, by the set of cells that could
host the movement (``MIL[locj, locj+1]``).

The paths themselves are never materialised: object presence is computed by
the forward recurrence of :mod:`repro.core.presence`.  This module keeps what
is defined on paths — their count, their total probability mass, and
Equation 2 for one concrete path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import FrozenSet, Optional, Sequence

from ..data.records import SampleSet

_ploc_ids = attrgetter("ploc_ids")
_probs = attrgetter("probs")


def pass_probability(
    step_cells: Sequence[FrozenSet[int]], cell_id: Optional[int]
) -> float:
    """The probability that one concrete path passes the cell ``cell_id``.

    Implements Equation 2: the complement of the probability that none of
    the consecutive pairs passes the cell, where each pair passes it with
    probability ``|{c in C | c == cell}| / |C|``.
    """
    if cell_id is None:
        return 0.0
    miss_probability = 1.0
    for cells in step_cells:
        if cell_id in cells:
            miss_probability *= 1.0 - 1.0 / len(cells)
    return 1.0 - miss_probability


@dataclass
class PathConstructionStats:
    """Counters describing the presence computations of one query.

    ``candidate_paths`` is ``Π |πl(Xi)|`` summed over the built objects;
    ``valid_paths`` counts the tail states (final P-locations reachable by at
    least one valid path of positive probability) surviving the forward
    recurrence, summed over the built objects.
    """

    candidate_paths: int = 0
    valid_paths: int = 0
    # Never incremented (presence is exact); read by bench/workloads/cold_window_scan.py.
    truncated_objects: int = 0

    def merge(self, other: "PathConstructionStats") -> None:
        self.candidate_paths += other.candidate_paths
        self.valid_paths += other.valid_paths


def candidate_path_count(sequence: Sequence[SampleSet]) -> int:
    """The worst-case number of candidate paths (``Π |πl(Xi)|``).

    A :class:`SampleSet` holds each P-location once, so ``|πl(Xi)| = |Xi|``.
    """
    return math.prod(map(len, map(_ploc_ids, sequence))) if sequence else 0


def total_candidate_probability(sequence: Sequence[SampleSet]) -> float:
    """Total probability mass of all candidate paths (``Π_i Σ_e prob``).

    This is the denominator of Equation 1 as used by the paper's worked
    examples; it equals 1 whenever every sample set is normalised, but is
    computed explicitly so that merged or truncated sample sets stay
    consistent.  The product runs left to right in sequence order
    (``math.prod`` of floats multiplies in iteration order).
    """
    return math.prod(map(sum, map(_probs, sequence))) if sequence else 0.0
