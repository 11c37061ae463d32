"""The staged query pipeline.

``Flow(q, tree, [ts, te])`` (Algorithm 2) decomposes into four composable
stages, each reporting into the :class:`ExecutionContext` it is given:

* :class:`FetchStage` — time-index window retrieval (``tree.RangeQuery``);
* :class:`ReduceStage` — the data reduction of Algorithm 1;
* :class:`PathStage` — object presence over the valid possible paths
  (Equations 1-2, the forward recurrence of :mod:`repro.core.presence`);
* :class:`PresenceStage` — the composition of the two above, producing the
  per-object :class:`~repro.engine.cache.StoredPresence` artefact shared
  across query locations, across queries and across batched queries.

:class:`QueryPipeline` wires the stages to a
:class:`~repro.core.flow.FlowComputer` (the home of the reduction and path
primitives) and an optional presence store.  :meth:`QueryPipeline.window` is
the one place a query meets the table and the store: the three TkPLQ
algorithms, ``QueryEngine.flow``/``flows``, the
:class:`~repro.engine.batch.BatchPlanner` and the continuous-query subsystem
all ask it for the window's :class:`~repro.engine.cache.WindowPresences` and
only score what it returns, with the one fold,
:func:`~repro.core.nested_loop.accumulate_flows_over_entries` (imported here
because ``bench/`` imports it from this module).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.flow import FlowComputer, FlowResult
from ..core.nested_loop import accumulate_flows_over_entries
from ..core.query import SearchStats
from ..core.reduction import ReducedSequence
from ..data.iupt import IUPT
from ..data.records import SampleSet
from ..storage.base import check_not_evicted
from .cache import PresenceStore, StoredPresence, WindowPresences
from .config import EngineConfig
from .context import ExecutionContext


class FetchStage:
    """Stage 1: retrieve the window's per-object sequences from the time index.

    Also pins the context to the table's *window-scoped*
    :meth:`~repro.data.iupt.IUPT.data_key_for` token, so every later store
    access of this context is keyed to the exact table state the sequences
    were fetched from.  On a sharded store the token only covers the shards
    the window overlaps, so ingesting a batch elsewhere leaves this
    context's cached presences valid.
    """

    def run(self, ctx: ExecutionContext, iupt: IUPT) -> Dict[int, List[SampleSet]]:
        ctx.pin(iupt)
        sequences = iupt.sequences_in(ctx.start, ctx.end)
        ctx.stats.note_objects_total(len(sequences))
        return sequences


class ReduceStage:
    """Stage 2: Algorithm 1 (``ReduceData``) against the context's query set."""

    def __init__(self, flow_computer: FlowComputer):
        self._computer = flow_computer

    def run(
        self, ctx: ExecutionContext, sequence: Sequence[SampleSet]
    ) -> ReducedSequence:
        return self._computer.reducer.reduce(
            sequence, ctx.query_key, ctx.stats.reduction_stats
        )


class PathStage:
    """Stage 3: the presences (Equations 1-2) of one reduced sequence."""

    def __init__(self, flow_computer: FlowComputer):
        self._computer = flow_computer

    def run(self, ctx: ExecutionContext, sequence: Sequence[SampleSet]):
        return self._computer.presence_computation(sequence, ctx.stats)


class PresenceStage:
    """Stage 4: one object's presence artefact (reduce, then paths)."""

    def __init__(self, reduce: ReduceStage, paths: PathStage):
        self._reduce = reduce
        self._paths = paths

    def run(
        self,
        ctx: ExecutionContext,
        object_id: int,
        sequence: Sequence[SampleSet],
        build_paths: bool = True,
    ) -> StoredPresence:
        """Reduce one object; ``build_paths=False`` defers its presences."""
        reduced = self._reduce.run(ctx, sequence)
        entry = StoredPresence(
            psls=reduced.psls, sequence=reduced.sequence, pruned=reduced.pruned
        )
        return self.build_paths(ctx, object_id, entry) if build_paths else entry

    def build_paths(
        self, ctx: ExecutionContext, object_id: int, entry: StoredPresence
    ) -> StoredPresence:
        """Fill in the lazily deferred path construction of one artefact.

        In place: the artefact is shared by its window entry in the store, so
        later queries over that entry skip the path construction too.
        """
        if not entry.pruned and entry.computation is None:
            entry.computation = self._paths.run(ctx, entry.sequence)
            ctx.stats.note_object_computed(object_id)
        return entry


class QueryPipeline:
    """Fetch → reduce → paths → presence, with cross-query caching.

    Parameters
    ----------
    flow_computer:
        The owner of the reduction and path-construction primitives.
    store:
        Optional cross-query presence store shared by every context this
        pipeline creates.
    config:
        Engine configuration.
    """

    def __init__(
        self,
        flow_computer: FlowComputer,
        store: Optional[PresenceStore] = None,
        config: Optional[EngineConfig] = None,
    ):
        self._computer = flow_computer
        self._store = store
        self._config = config or EngineConfig()
        self.fetch = FetchStage()
        self.reduce = ReduceStage(flow_computer)
        self.paths = PathStage(flow_computer)
        self.presence = PresenceStage(self.reduce, self.paths)

    @property
    def flow_computer(self) -> FlowComputer:
        return self._computer

    @property
    def store(self) -> Optional[PresenceStore]:
        return self._store

    @property
    def config(self) -> EngineConfig:
        return self._config

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def context(
        self,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        stats: Optional[SearchStats] = None,
        use_store: bool = True,
    ) -> ExecutionContext:
        """Create the execution context of one query over this pipeline.

        Every entry point (one-shot, batched, standing) builds its context
        here, so this is where the query set is checked against the indoor
        model: an id the floor plan does not know raises ``ValueError``.
        """
        query_key = None
        if query_slocations is not None:
            query_key = frozenset(query_slocations)
            known = self._computer.graph.plan.slocations
            unknown = sorted(sloc_id for sloc_id in query_key if sloc_id not in known)
            if unknown:
                raise ValueError(f"unknown S-location id(s): {unknown}")
        return ExecutionContext(
            window=(float(window[0]), float(window[1])),
            query_key=query_key,
            stats=stats if stats is not None else SearchStats(),
            store=self._store,
            use_store=use_store,
        )

    # ------------------------------------------------------------------
    # The window's per-object presences
    # ------------------------------------------------------------------
    def window(
        self,
        ctx: ExecutionContext,
        iupt: IUPT,
        build_paths: bool = True,
        carry: Optional[Dict[int, StoredPresence]] = None,
    ) -> WindowPresences:
        """Everything about ``ctx``'s window that no single request decides.

        Pins the context to the table state its window reads and refuses a
        window reaching below the retention watermark exactly like
        ``range_query`` does — the version token leaves the watermark out, so
        a stored entry must not outlive retention.  A stored entry is then
        served **without touching the table**; otherwise the window is
        fetched, every object reduced (and, with ``build_paths``, its
        presences computed) and the entry stored, once.  ``carry`` hands over
        artefacts of a superseded token that are known to be still valid (a
        continuous refresh's untouched objects); they are reused instead of
        recomputed.
        """
        ctx.pin(iupt)
        check_not_evicted(iupt.store, ctx.start, ctx.end)
        return self._window(ctx, lambda: self.fetch.run(ctx, iupt), build_paths, carry)

    def presences(
        self,
        ctx: ExecutionContext,
        sequences: Dict[int, List[SampleSet]],
        build_paths: bool = True,
    ) -> List[Tuple[int, StoredPresence]]:
        """:meth:`window` for sequences the caller already fetched.

        The per-object artefacts in fetch order — flows accumulated from the
        returned list sum the same values in the same order on every call.
        """
        return self._window(ctx, lambda: sequences, build_paths).entries

    def _window(
        self,
        ctx: ExecutionContext,
        fetch: Callable[[], Dict[int, List[SampleSet]]],
        build_paths: bool,
        carry: Optional[Dict[int, StoredPresence]] = None,
    ) -> WindowPresences:
        """Probe the store; on a miss fetch, reduce and store; then fill paths."""
        store = ctx.effective_store
        entry = None
        if store is not None:
            entry = store.get(ctx.window, ctx.query_key, ctx.data_key)
        if entry is not None:
            ctx.stats.note_objects_total(entry.objects_total)
        else:
            carry = carry or {}
            sequences = fetch()
            entry = WindowPresences(
                [
                    (
                        object_id,
                        carry.get(object_id)
                        or self.presence.run(ctx, object_id, sequence, build_paths=False),
                    )
                    for object_id, sequence in sequences.items()
                ]
            )
            if store is not None:
                carried = sum(1 for object_id in sequences if object_id in carry)
                store.put(ctx.window, ctx.query_key, entry, ctx.data_key, carried)
        if build_paths:
            for object_id, artefact in entry.entries:
                if artefact.computation is None:
                    self.presence.build_paths(ctx, object_id, artefact)
        return entry

    # ------------------------------------------------------------------
    # Algorithm 2, staged
    # ------------------------------------------------------------------
    def flow(self, ctx: ExecutionContext, iupt: IUPT, sloc_id: int) -> FlowResult:
        """The indoor flow of one S-location, run through the staged pipeline."""
        began = time.perf_counter()
        cell_id = self._computer.graph.parent_cell(sloc_id)

        flow_value = 0.0
        for _object_id, entry in self.window(ctx, iupt).entries:
            if entry.pruned:
                continue
            ctx.stats.flow_evaluations += 1
            flow_value += entry.computation.presence_in_cell(cell_id)

        ctx.stats.elapsed_seconds += time.perf_counter() - began
        return FlowResult(sloc_id=sloc_id, flow=flow_value, stats=ctx.stats)

    def flows_for_all(
        self,
        iupt: IUPT,
        sloc_ids: Sequence[int],
        start: float,
        end: float,
        stats: Optional[SearchStats] = None,
    ) -> Dict[int, float]:
        """Flows of several S-locations sharing one per-object pass.

        Each object is reduced once against the *union* of the requested
        locations and its paths are constructed once; the per-location
        pruning decision is then taken from the object's possible semantic
        locations (``sloc ∈ PSLs``), exactly as an independent
        ``flow(sloc)`` call would have decided it.  This keeps the sharing
        of the historical ``flows_for_all`` without its hazard: no presence
        artefact is ever consulted under a query set other than the one it
        was reduced for.
        """
        ordered = list(dict.fromkeys(sloc_ids))
        union_key = frozenset(ordered)
        ctx = self.context((start, end), union_key, stats=stats)
        began = time.perf_counter()

        graph = self._computer.graph
        parent_cells = {sloc_id: graph.parent_cell(sloc_id) for sloc_id in ordered}
        flows = accumulate_flows_over_entries(
            self.window(ctx, iupt).entries, ordered, parent_cells, ctx.stats
        )

        ctx.stats.elapsed_seconds += time.perf_counter() - began
        return flows
