"""A literal brute-force reference for Equations 1-2 (test oracle only).

Enumerates every concrete candidate path with ``itertools.product`` — no
grouping, no cap, exponential — so it is only usable on short sequences.
"""

from __future__ import annotations

import itertools
import math


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
