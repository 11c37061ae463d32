"""Object presence (Section 2.3, Equations 1 and 2), exact in polynomial time.

The *object presence* ``Φ_{ts,te}(q, o)`` of object ``o`` in S-location ``q``
is the normalised expectation, over all valid possible paths of ``o`` in the
query window, of the probability that the path passes ``q``'s parent cell:

    Φ(q, o) = Σ_i (pr_{φi→q} · pr_i) / candidate mass

where the denominator is the total probability mass of the *candidate* paths
(``total_candidate_probability``; 1 for normalised sample sets), so mass lost
to topologically invalid candidates lowers the presence — this reproduces the
paper's worked Example 3 (Φ(r6, o2) = 0.85).  Summing presences over the
object set gives the indoor flow of ``q`` (Definition 1).

**The recurrence.**  Equation 2's miss probability is a product over the
steps of a path, so for a fixed cell ``c`` the numerator factorises along the
sequence and the paths are never enumerated.  Carry, per tail P-location
``p``, the valid-path mass ``M[p]`` and, per cell ``c`` touched so far, the
mass-weighted miss product ``W[p][c]`` (implicitly ``M[p]`` for an untouched
cell).  One sample ``(q, prob)`` of the next set extends them by

    M'[q]    = prob · Σ_p [MIL[p,q] ≠ ∅] · M[p]
    W'[q][c] = prob · Σ_p [MIL[p,q] ≠ ∅] · W[p][c] · (1 − [c ∈ MIL[p,q]] / |MIL[p,q]|)

and ``Φ(c) = (Σ_p M[p] − Σ_p W[p][c]) / candidate mass`` — O(n · |X|² · cells)
for ``n`` sample sets of at most ``|X|`` samples.  Exact: there is no cap on
the number of paths.  A sequence of a single sample set is a lone report whose
one "step" is the cell set adjacent to the reported P-location; a sequence
without a valid path has presence 0 everywhere.

**Link rows.**  ``MIL[p,q]`` and the factor ``1 − 1/|MIL[p,q]|`` are read
from the matrix's link table
(:attr:`~repro.space.matrix.IndoorLocationMatrix.link_rows`), built once per
floor plan: one row lookup per sample gives every tail it can be reached
from, and a tail absent from the row has no link.

**The single-tail step.**  A step from a single tail state (about half the
steps of a cold query) builds the new miss map directly, with no links list
and no touched set: each of ``W'[q][c]``'s sums has one term, and
``0.0 + x == x`` for every ``x ≥ 0`` that reaches it (a tail's mass is
``> 0`` and its weights ``≥ 0``), so ``prob · (W[p][c] · factor)`` is the
float the general step computes.  ``tests/test_presence_oracle.py`` holds
the recurrence before the link rows and this step, and requires the same
floats bit for bit.

**Float contract.**  Every strategy (naive, nested-loop, best-first, batch,
continuous, any process) obtains presences
from this one routine, so their results are bit-identical to each other.  No
accumulation depends on set iteration order: sums run over tail states in
sample order (sample sets are sorted by P-location id) and each cell's value
is computed independently of the other cells.  Against a brute-force
evaluation of Equations 1-2 over enumerated paths the result agrees within
1e-12 (``tests/test_presence_oracle.py``).  Results are clamped to ``[0, 1]``:
dividing by a candidate mass an ulp below one can land an ulp above one, and
presences are probabilities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..data.records import SampleSet
from ..space.matrix import IndoorLocationMatrix, Link
from .paths import total_candidate_probability

# One tail state: (P-location, valid-path mass M, miss products W by cell).
_State = Tuple[int, float, Dict[int, float]]
_NO_ROW: Dict[int, Link] = {}


def _extend(
    states: Sequence[_State], sample_set: SampleSet, rows: Dict[int, Dict[int, Link]]
) -> List[_State]:
    """Advance the tail states by one sample set (the recurrence above)."""
    extended: List[_State] = []
    if len(states) == 1:  # the single-tail step: every sum has one term
        [(tail, tail_mass, miss)] = states
        for ploc_id, prob in zip(sample_set.ploc_ids, sample_set.probs):
            link = rows.get(ploc_id, _NO_ROW).get(tail)
            if link is None:
                continue
            mass = prob * tail_mass
            if not mass > 0.0:
                continue
            cells, factor = link
            new_miss = {cell: prob * weight for cell, weight in miss.items()}
            for cell in cells:
                new_miss[cell] = prob * (miss.get(cell, tail_mass) * factor)
            extended.append((ploc_id, mass, new_miss))
        return extended
    for ploc_id, prob in zip(sample_set.ploc_ids, sample_set.probs):
        row = rows.get(ploc_id)
        if row is None:
            continue
        # The tails this sample can be reached from, in state order, each
        # with the factor by which a step through MIL[tail, loc] misses one
        # of its cells.
        links = []
        reachable = 0.0
        touched = set()
        for tail, tail_mass, miss in states:
            link = row.get(tail)
            if link is not None:
                links.append((tail_mass, miss, *link))
                reachable += tail_mass
                touched.update(miss)
                touched.update(link[0])
        mass = prob * reachable
        if not mass > 0.0:
            continue
        new_miss = {}
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
    rows = matrix.link_rows
    for sample_set in sequence[1:]:
        states = _extend(states, sample_set, rows)
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


class PresenceComputation:
    """The per-object artefact shared across query S-locations.

    Holds Φ for every cell the object's valid paths can touch, computed once
    from the (already reduced) sequence; evaluating the presence for a parent
    cell is then a lookup.  The TkPLQ algorithms build this once per object
    and reuse it for every query location the object is relevant to, which is
    the "intermediate result sharing" of Section 4.1.
    """

    __slots__ = ("presences", "tail_states")

    def __init__(self, sequence: Sequence[SampleSet], matrix: IndoorLocationMatrix):
        self.presences, self.tail_states = _forward_presences(sequence, matrix)

    def presence_in_cell(self, cell_id: Optional[int]) -> float:
        """Return Φ(q, o) for a query location whose parent cell is ``cell_id``."""
        return self.presences.get(cell_id, 0.0)
