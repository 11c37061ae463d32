"""The staged query pipeline.

``Flow(q, tree, [ts, te])`` (Algorithm 2) decomposes into four composable
stages, each reporting into the :class:`ExecutionContext` it is given:

* :class:`FetchStage` — time-index window retrieval (``tree.RangeQuery``);
* :class:`ReduceStage` — the data reduction of Algorithm 1;
* :class:`PathStage` — object presence over the valid possible paths
  (Equations 1-2, the forward recurrence of :mod:`repro.core.presence`);
* :class:`PresenceStage` — the composition of the two above, producing the
  per-object :class:`~repro.engine.cache.StoredPresence` artefact shared
  across query locations, across queries and across query sets.

The pipeline wires the stages to a :class:`~repro.core.flow.FlowComputer` (the
home of the reduction and path primitives) and an optional presence store.
:meth:`QueryPipeline.window` is the one place a query meets the table and the
store, and :meth:`QueryPipeline.flows` is the one read: the window, then the
one fold, :func:`~repro.core.nested_loop.accumulate_flows_over_entries`
(imported here because ``bench/`` imports it from this module).  The naive
algorithm's per-location reads, nested-loop, ``QueryEngine.flow`` / ``flows``
/ ``batch`` and both kinds of standing query all read through it; best-first
alone reads :meth:`~QueryPipeline.window` itself, to resolve locations one at
a time.

**The query set only picks what a query reads.**  A window's entry holds
every object of the window, reduced once; Algorithm 1's one query-dependent
test — PSL pruning, an object's PSLs missing the query set — is taken by each
query as it reads the entry: a query builds presences only for the objects
whose PSLs meet its ``ctx.query_key`` (every object when PSL pruning is off
or the key is ``None``), and the fold sums for a location only the objects
whose PSLs hold it.  That is exactly the set the reducer would not have
pruned, so the sums and their order are unchanged.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.flow import FlowComputer
from ..core.nested_loop import accumulate_flows_over_entries
from ..core.query import SearchStats
from ..core.reduction import ReducedSequence
from ..data.records import SampleSet
from ..storage.base import check_not_evicted
from ..storage.sharded import ShardedRecordStore
from .cache import PresenceStore, StoredPresence, WindowPresences
from .config import EngineConfig
from .context import ExecutionContext


def _reads(
    ctx: ExecutionContext, entries: List[Tuple[int, StoredPresence]]
) -> List[Tuple[int, StoredPresence]]:
    """The artefacts ``ctx`` reads, in fetch order: Algorithm 1's PSL pruning,
    taken per query — those whose PSLs meet ``ctx.query_key``, or all of them
    when the key is ``None``."""
    key: Optional[FrozenSet[int]] = ctx.query_key
    if key is None:
        return entries
    return [item for item in entries if not item[1].psls.isdisjoint(key)]


class FetchStage:
    """Stage 1: retrieve the window's per-object sequences from the time index.

    Also pins the context to the table's *window-scoped*
    :meth:`~repro.storage.sharded.ShardedRecordStore.version_token`, so
    every later store access of this context is keyed to the exact table
    state the sequences were fetched from.  The token only covers the shards
    the window overlaps, so ingesting a batch elsewhere leaves this
    context's cached presences valid.
    """

    def run(
        self, ctx: ExecutionContext, iupt: ShardedRecordStore
    ) -> Dict[int, List[SampleSet]]:
        ctx.pin(iupt)
        sequences = iupt.sequences_in(ctx.start, ctx.end)
        ctx.stats.note_objects_total(len(sequences))
        return sequences


class ReduceStage:
    """Stage 2: Algorithm 1 (``ReduceData``) against the context's query set
    (which decides only the ``pruned`` flag and its count in the stats)."""

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
        """Reduce one object; ``build_paths=False`` defers its presences.

        The artefact is the same whatever the query set: it is never
        ``pruned``, and each query decides whether it reads it.
        """
        reduced = self._reduce.run(ctx, sequence)
        entry = StoredPresence(psls=reduced.psls, sequence=reduced.sequence)
        return self.build_paths(ctx, object_id, entry) if build_paths else entry

    def build_paths(
        self, ctx: ExecutionContext, object_id: int, entry: StoredPresence
    ) -> StoredPresence:
        """Fill in the lazily deferred path construction of one artefact.

        In place: the artefact is shared by its window entry in the store, so
        later queries over that entry skip the path construction too.
        """
        if entry.computation is None:
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
        With PSL pruning off the context's ``query_key`` is ``None``: the
        query reads every object of its window.
        """
        query_key = None
        if query_slocations is not None:
            query_key = frozenset(query_slocations)
            known = self._computer.graph.plan.slocations
            unknown = sorted(sloc_id for sloc_id in query_key if sloc_id not in known)
            if unknown:
                raise ValueError(f"unknown S-location id(s): {unknown}")
            if not self._computer.reducer.config.psl_pruning:
                query_key = None
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
        iupt: ShardedRecordStore,
        build_paths: bool = True,
        carry: Optional[Dict[int, StoredPresence]] = None,
    ) -> WindowPresences:
        """Everything about ``ctx``'s window that no single request decides.

        Pins the context to the table state its window reads and refuses a
        window reaching below the retention watermark exactly like
        ``range_query`` does — the version token leaves the watermark out, so
        a stored entry must not outlive retention.  A stored entry is then
        served **without touching the table**; otherwise the window is
        fetched, every object reduced and the entry stored, once.  With
        ``build_paths`` the presences of the objects ``ctx`` reads
        (:func:`_reads`) that no earlier query built are then computed.
        ``carry`` hands over artefacts of a superseded token that are known
        to be still valid (a continuous refresh's untouched objects); they
        are reused instead of recomputed.
        """
        ctx.pin(iupt)
        check_not_evicted(iupt, ctx.start, ctx.end)
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
            entry = store.get(ctx.window, ctx.data_key)
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
                store.put(ctx.window, entry, ctx.data_key, carried)
        if build_paths:
            missing = [item for item in entry.entries if item[1].computation is None]
            for object_id, artefact in _reads(ctx, missing):
                self.presence.build_paths(ctx, object_id, artefact)
        return entry

    # ------------------------------------------------------------------
    # Algorithm 2, staged
    # ------------------------------------------------------------------
    def flows(
        self,
        ctx: ExecutionContext,
        iupt: ShardedRecordStore,
        sloc_ids: Sequence[int],
        carry: Optional[Dict[int, StoredPresence]] = None,
    ) -> Dict[int, float]:
        """Algorithm 2 for every S-location of ``sloc_ids``: the window, then
        the one fold.

        Every read of the engine but best-first's ends here.  The window's
        artefacts come from :meth:`window` (``carry`` passed on), and
        :func:`~repro.core.nested_loop.accumulate_flows_over_entries` sums,
        per location, the presences of the objects whose PSLs hold it, in
        fetch order.  An object's presence outside its PSLs is exactly zero, so the
        sum is Equation 2's over every object of the window.  ``sloc_ids``
        must lie in ``ctx``'s query set (or the set be ``None``); a location
        listed twice is summed once.
        """
        began = time.perf_counter()
        entries = self.window(ctx, iupt, carry=carry).entries
        parent_cell = self._computer.graph.parent_cell
        parent_cells = {sloc_id: parent_cell(sloc_id) for sloc_id in sloc_ids}
        flows = accumulate_flows_over_entries(
            entries, tuple(parent_cells), parent_cells, ctx.stats
        )
        ctx.stats.elapsed_seconds += time.perf_counter() - began
        return flows
