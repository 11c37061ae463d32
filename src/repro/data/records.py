"""Uncertain indoor positioning data model (Section 2.2).

A positioning record is a triplet ``(oid, X, t)`` where ``X`` is a *sample
set*: entries ``(loc, prob)`` meaning "the object is at P-location ``loc``
with probability ``prob`` at time ``t``".  The probabilities of a sample set
always sum to one.

**Column contract.**  A :class:`SampleSet` stores ``X`` the way the packed
codec lays it out: two parallel tuples, ``ploc_ids`` and ``probs``.  The ids
are strictly ascending (so distinct), the probabilities are *final* — merged,
rescaled when asked, finite, not below ``-PROBABILITY_TOLERANCE``, summing to
one within ``1e-3`` unless rescaled — and no :class:`Sample` object is kept:
``.samples`` and iteration build them on demand.  The codec, the reducer and
the presence recurrence read the two columns directly.  Nothing assigns
either column after a set is built (only this module does, while building
it), so one set may serve many records.

**The record.**  A :class:`PositioningRecord` is a frozen, slotted dataclass
of ``(object_id, sample_set, timestamp)``.  Records built from the codec's
packed columns go through ``PositioningRecord._from_columns``, which sets
the three slots directly, and lone-sample records of one batch with the same
``(P-location, probability)`` share one :class:`SampleSet`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

PROBABILITY_TOLERANCE = 1e-6

#: How far the mass of a sample set that is not rescaled may be from one.
MASS_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Sample:
    """A single positioning sample ``(loc, prob)``.

    Individual weights may exceed 1 transiently (e.g. raw WkNN weights before
    normalisation); the enclosing :class:`SampleSet` enforces that the final
    probabilities are non-negative and sum to one.
    """

    ploc_id: int
    prob: float

    def __post_init__(self) -> None:
        if self.prob < -PROBABILITY_TOLERANCE:
            raise ValueError(f"sample probability {self.prob} must not be negative")


class SampleSet:
    """A normalised, immutable set of samples for one positioning report.

    The constructor merges duplicate P-locations (summing their probabilities)
    and validates that probabilities sum to 1 (within tolerance) unless
    ``normalise=True`` is passed, in which case they are rescaled — the data
    reduction operations rely on rescaling when samples are merged or when a
    record is truncated to the maximum sample-set size.  Non-finite
    probabilities are rejected either way.

    The set is held as two parallel tuples — ``ploc_ids``, strictly
    ascending, and ``probs``, the final probabilities in the same order (the
    module docstring's column contract).  ``.samples`` and iteration build
    :class:`Sample` objects on demand; nothing stores them.
    """

    __slots__ = ("ploc_ids", "probs")

    def __init__(self, samples: Iterable[Sample], normalise: bool = False):
        merged: Dict[int, float] = {}
        for sample in samples:
            merged[sample.ploc_id] = merged.get(sample.ploc_id, 0.0) + sample.prob
        if not merged:
            raise ValueError("a sample set must contain at least one sample")
        total = sum(merged.values())
        # One NaN or infinity makes the total NaN or infinite, never finite.
        if not math.isfinite(total):
            raise ValueError(
                f"sample probabilities must be finite (they sum to {total})"
            )
        if normalise:
            if total <= 0:
                raise ValueError("cannot normalise a sample set with zero total probability")
            merged = {loc: prob / total for loc, prob in merged.items()}
        elif not abs(total - 1.0) <= MASS_TOLERANCE:
            raise ValueError(
                f"sample probabilities must sum to 1 (got {total:.6f}); "
                "pass normalise=True to rescale"
            )
        ploc_ids, probs = zip(*sorted(merged.items()))
        if min(probs) < -PROBABILITY_TOLERANCE:
            raise ValueError(f"sample probability {min(probs)} must not be negative")
        self.ploc_ids: Tuple[int, ...] = ploc_ids
        self.probs: Tuple[float, ...] = probs

    @classmethod
    def _from_columns(
        cls, ploc_ids: Sequence[int], probs: Sequence[float]
    ) -> "SampleSet":
        """Trusted constructor, private to ``repro``: no merge, sort or check.

        The caller guarantees the column contract ``__init__`` establishes —
        at least one sample, strictly ascending P-location ids, final
        probabilities.
        """
        sample_set = cls.__new__(cls)
        sample_set.ploc_ids = tuple(ploc_ids)
        sample_set.probs = tuple(probs)
        return sample_set

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def samples(self) -> Tuple[Sample, ...]:
        """The samples in ascending P-location order, built on each call."""
        return tuple(map(Sample, self.ploc_ids, self.probs))

    def plocation_set(self) -> Set[int]:
        """``πl(X)``: the set of P-locations appearing in this sample set."""
        return set(self.ploc_ids)

    def probability_of(self, ploc_id: int) -> float:
        """The probability assigned to ``ploc_id`` (0.0 if absent)."""
        for loc, prob in zip(self.ploc_ids, self.probs):
            if loc == ploc_id:
                return prob
        return 0.0

    def most_probable(self) -> Sample:
        """The sample with the highest probability (ties broken by smaller id)."""
        return max(self, key=lambda s: (s.prob, -s.ploc_id))

    def above_threshold(self, threshold: float) -> List[Sample]:
        """All samples with probability strictly above ``threshold``."""
        return [s for s in self if s.prob > threshold]

    def truncated(self, max_size: int) -> "SampleSet":
        """Keep the ``max_size`` most probable samples and renormalise.

        Reproduces the paper's uncertainty experiment (Section 5.2.2): "if the
        number of its containing samples exceeds the maximum sample-set size
        mss, the samples with lower probabilities are removed".
        """
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        if len(self.ploc_ids) <= max_size:
            return self
        kept = sorted(self, key=lambda s: (-s.prob, s.ploc_id))[:max_size]
        return SampleSet(kept, normalise=True)

    def __len__(self) -> int:
        return len(self.ploc_ids)

    def __iter__(self) -> Iterator[Sample]:
        return map(Sample, self.ploc_ids, self.probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.ploc_ids == other.ploc_ids and self.probs == other.probs

    def __hash__(self) -> int:
        return hash((self.ploc_ids, self.probs))

    def __repr__(self) -> str:
        body = ", ".join(
            f"(p{loc}, {prob:.3f})" for loc, prob in zip(self.ploc_ids, self.probs)
        )
        return f"SampleSet[{body}]"

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @staticmethod
    def certain(ploc_id: int) -> "SampleSet":
        """A sample set reporting a single P-location with probability 1."""
        return SampleSet([Sample(ploc_id, 1.0)])

    @staticmethod
    def from_pairs(pairs: Sequence[Tuple[int, float]], normalise: bool = False) -> "SampleSet":
        """Build a sample set from ``(ploc_id, prob)`` pairs."""
        return SampleSet([Sample(loc, prob) for loc, prob in pairs], normalise=normalise)


@dataclass(frozen=True, slots=True)
class PositioningRecord:
    """One row of the Indoor Uncertain Positioning Table: ``(oid, X, t)``.

    Frozen and slotted: three slots and no ``__dict__``; equality, hashing
    and pickling are those of the field tuple.
    """

    object_id: int
    sample_set: SampleSet
    timestamp: float

    @classmethod
    def _from_columns(
        cls,
        object_ids: Sequence[int],
        sample_sets: Sequence[SampleSet],
        timestamps: Sequence[float],
    ) -> List["PositioningRecord"]:
        """Trusted constructor, private to the codec: one record per row of
        three parallel columns, no check.

        Each slot is set through its descriptor — what the frozen
        ``__init__`` does through ``object.__setattr__`` — one column at a
        time, so no Python-level code runs per record.
        """
        records = list(map(object.__new__, repeat(cls, len(object_ids))))
        for slot, column in (
            (cls.object_id, object_ids),
            (cls.sample_set, sample_sets),
            (cls.timestamp, timestamps),
        ):
            deque(map(slot.__set__, records, column), maxlen=0)
        return records

    def plocation_set(self) -> Set[int]:
        return self.sample_set.plocation_set()

    def truncated(self, max_size: int) -> "PositioningRecord":
        """Return a copy whose sample set is truncated to ``max_size`` samples."""
        truncated = self.sample_set.truncated(max_size)
        if truncated is self.sample_set:
            return self
        return PositioningRecord(self.object_id, truncated, self.timestamp)


PositioningSequence = List[SampleSet]
"""A per-object time-ordered sequence of sample sets (``X = (X1, ..., Xn)``)."""

