"""Two references for Equations 1-2 (test oracles only).

``oracle_presence`` is a literal brute force: it enumerates every concrete
candidate path with ``itertools.product`` — no grouping, no cap, exponential —
so it is only usable on short sequences.

``_extend`` / ``_forward_presences`` (with the candidate mass they divide by,
``total_candidate_probability``) are the forward DP of ``repro.core.presence``
and ``repro.core.paths`` before the link rows and the single-tail step, moved
here verbatim: one ``matrix.link`` call per tail and sample, every step
through the general sum, the candidate mass as an explicit loop.  The current
DP must reproduce its floats bit for bit (``tests/test_presence_oracle.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

from repro.data.records import SampleSet
from repro.space.matrix import IndoorLocationMatrix

# One tail state: (P-location, valid-path mass M, miss products W by cell).
_State = Tuple[int, float, Dict[int, float]]


def valid_paths(sequence, matrix):
    """Every topologically valid concrete path: (P-locations, probability, step cells)."""
    paths = []
    for combo in itertools.product(*(sample_set.samples for sample_set in sequence)):
        plocs = tuple(sample.ploc_id for sample in combo)
        if len(plocs) == 1:  # a lone report "moves" within its adjacent cells
            steps = [matrix.cells_adjacent(plocs[0])]
        else:
            steps = [matrix.cells_between(a, b) for a, b in zip(plocs, plocs[1:])]
            if not all(steps):
                continue
        paths.append((plocs, math.prod(sample.prob for sample in combo), steps))
    return paths


def candidate_mass(sequence):
    return math.prod(sum(s.prob for s in sample_set) for sample_set in sequence) if sequence else 0.0


def oracle_presence(sequence, matrix, cell_id):
    """Equation 1 over the enumerated paths, Equation 2 per path."""
    mass = candidate_mass(sequence)
    if not mass > 0.0:
        return 0.0
    weighted = 0.0
    for _plocs, probability, steps in valid_paths(sequence, matrix):
        miss = math.prod(1.0 - 1.0 / len(cells) for cells in steps if cell_id in cells)
        weighted += probability * (1.0 - miss)
    return weighted / mass


def total_candidate_probability(sequence: Sequence[SampleSet]) -> float:
    """Total probability mass of all candidate paths (``Π_i Σ_e prob``).

    This is the denominator of Equation 1 as used by the paper's worked
    examples; it equals 1 whenever every sample set is normalised, but is
    computed explicitly so that merged or truncated sample sets stay
    consistent.
    """
    if not sequence:
        return 0.0
    total = 1.0
    for sample_set in sequence:
        total *= sum(sample_set.probs)
    return total


def _extend(
    states: Sequence[_State], sample_set: SampleSet, matrix: IndoorLocationMatrix
) -> List[_State]:
    """Advance the tail states by one sample set (the recurrence above)."""
    extended: List[_State] = []
    link = matrix.link
    for ploc_id, prob in zip(sample_set.ploc_ids, sample_set.probs):
        # The tails this sample can be reached from, in state order, each
        # with the factor by which a step through MIL[tail, loc] misses one
        # of its cells.
        links = []
        reachable = 0.0
        for tail, mass, miss in states:
            cells, factor = link(tail, ploc_id)
            if cells:
                links.append((mass, miss, cells, factor))
                reachable += mass
        mass = prob * reachable
        if not mass > 0.0:
            continue
        touched = set()
        for _mass, miss, cells, _factor in links:
            touched.update(miss)
            touched.update(cells)
        new_miss: Dict[int, float] = {}
        for cell in touched:
            missed = 0.0
            for tail_mass, miss, cells, factor in links:
                weight = miss.get(cell, tail_mass)
                missed += weight * factor if cell in cells else weight
            new_miss[cell] = prob * missed
        extended.append((ploc_id, mass, new_miss))
    return extended


def _forward_presences(
    sequence: Sequence[SampleSet], matrix: IndoorLocationMatrix
) -> Tuple[Dict[int, float], int]:
    """``cell → Φ`` over the touched cells, and the surviving tail states."""
    candidate_mass = total_candidate_probability(sequence)
    if not candidate_mass > 0.0:
        return {}, 0
    states: List[_State] = [
        (ploc_id, prob, {})
        for ploc_id, prob in zip(sequence[0].ploc_ids, sequence[0].probs)
        if prob > 0.0
    ]
    if len(sequence) == 1:
        for ploc_id, mass, miss in states:
            cells = matrix.cells_adjacent(ploc_id)
            for cell in cells:
                miss[cell] = mass * (1.0 - 1.0 / len(cells))
    for sample_set in sequence[1:]:
        states = _extend(states, sample_set, matrix)
        if not states:
            break

    total = 0.0
    touched = set()
    for _ploc_id, mass, miss in states:
        total += mass
        touched.update(miss)
    presences: Dict[int, float] = {}
    for cell in touched:
        missed = 0.0
        for _ploc_id, mass, miss in states:
            missed += miss.get(cell, mass)
        presences[cell] = min(max((total - missed) / candidate_mass, 0.0), 1.0)
    return presences, len(states)
