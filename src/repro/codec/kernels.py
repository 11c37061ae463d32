"""A dense per-window presence matrix, kept for the benchmark that times it.

The engine accumulates flows with one fold over the window's per-object
artefacts in fetch order
(:func:`~repro.core.nested_loop.accumulate_flows_over_entries`, called by
:meth:`~repro.engine.stages.QueryPipeline.flows` alone).
:class:`PresenceMatrix` is the other shape of the same sum — one row per
S-location, one column per artefact — and nothing under ``src/repro`` builds
one.  It survives **only** because ``bench/layers.py`` (which a PR outside
the ``benchmark`` archetype may not edit) times
``PresenceMatrix(entries, sloc_ids, parent_cells).accumulate_flows(sloc_ids)``
as ``codec.kernel_score_us``; when a ``benchmark`` PR drops that metric the
class goes with it (ROADMAP item 3b).

Its flows equal the engine's bit for bit: a row is folded left to right in
entry order, and an artefact whose possible semantic locations miss an
S-location holds an explicit ``0.0`` there — presences are non-negative and
``x + 0.0`` is exact for every non-negative float64 ``x``, so the padded fold
equals the fold that skips the artefact.  ``tests/test_codec.py`` asserts
that, ``flow_evaluations`` included.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple


class PresenceMatrix:
    """Presence values of one window: one row per S-location, one column per
    entry, in fetch order, in one flat list."""

    __slots__ = ("_columns", "_n", "_values", "_counts")

    def __init__(
        self,
        entries: Sequence[Tuple[int, object]],
        sloc_ids: Sequence[int],
        parent_cells: Dict[int, Optional[int]],
    ):
        ordered = list(dict.fromkeys(sloc_ids))
        columns = {sloc_id: row for row, sloc_id in enumerate(ordered)}
        n = len(entries)
        cells = [parent_cells[sloc_id] for sloc_id in ordered]
        values = [0.0] * (len(ordered) * n)
        counts = [0] * len(ordered)
        for column, (_object_id, entry) in enumerate(entries):
            if entry.pruned:
                continue
            computation = entry.computation
            for sloc_id in entry.psls:
                row = columns.get(sloc_id)
                if row is None:
                    continue
                counts[row] += 1
                values[row * n + column] = computation.presence_in_cell(cells[row])
        self._columns = columns
        self._n = n
        self._values = values
        self._counts = counts

    def accumulate_flows(
        self, sloc_ids: Sequence[int]
    ) -> Tuple[Dict[int, float], int]:
        """Flows + evaluation count, as
        :func:`~repro.core.nested_loop.accumulate_flows_over_entries` reports
        them."""
        flows: Dict[int, float] = {sloc_id: 0.0 for sloc_id in sloc_ids}
        evaluations = 0
        n = self._n
        for sloc_id in flows:
            row = self._columns.get(sloc_id)
            if row is None:
                continue
            evaluations += self._counts[row]
            if self._counts[row]:
                total = 0.0
                for value in self._values[row * n : (row + 1) * n]:
                    total += value
                flows[sloc_id] = total
        return flows, evaluations
