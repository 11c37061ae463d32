"""Execution context threading state through the pipeline stages.

An :class:`ExecutionContext` is created once per read, by
:meth:`~repro.engine.stages.QueryPipeline.context`, and handed to every stage
the read runs — inside :meth:`~repro.engine.stages.QueryPipeline.flows`, the
window then the fold, for every read but best-first's.  It carries what a
stage may need besides its input: the mutable
:class:`~repro.core.query.SearchStats` the caller wants populated, the query
window and the data version — which together form the key of the cross-query
:class:`~repro.engine.cache.PresenceStore` — and the query S-location set,
which only decides which of the window's artefacts the query reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple, TYPE_CHECKING

from ..core.query import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.sharded import ShardedRecordStore
    from .cache import PresenceStore


@dataclass
class ExecutionContext:
    """Per-query state shared by all pipeline stages.

    Attributes
    ----------
    window:
        The query interval ``(start, end)``.
    query_key:
        The query S-location set: the query reads only the artefacts whose
        PSLs meet it (Algorithm 1's PSL pruning, taken per query), or every
        artefact when it is ``None`` — PSL pruning disabled for this run.
    stats:
        The efficiency counters every stage reports into.
    store:
        The cross-query presence store, or ``None`` when caching is off.
    use_store:
        Per-context override letting a caller bypass the store without
        reconfiguring the engine (e.g. ``bench/``'s staged replay opts out).
    data_key:
        The :meth:`~repro.storage.sharded.ShardedRecordStore.version_token`
        of the table state this query's window reads; set by :meth:`pin` and
        part of the store key, so a cached window dies with the
        (shard-scoped) table state it was computed from.
    """

    window: Tuple[float, float]
    query_key: Optional[FrozenSet[int]]
    stats: SearchStats = field(default_factory=SearchStats)
    store: Optional["PresenceStore"] = None
    use_store: bool = True
    data_key: Optional[Tuple] = None

    @property
    def start(self) -> float:
        return self.window[0]

    @property
    def end(self) -> float:
        return self.window[1]

    def pin(self, iupt: "ShardedRecordStore") -> None:
        """Key this context to the table state its window reads."""
        self.data_key = iupt.version_token(self.start, self.end)

    @property
    def effective_store(self) -> Optional["PresenceStore"]:
        return self.store if self.use_store else None
