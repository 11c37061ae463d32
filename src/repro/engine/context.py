"""Execution context threading state through the pipeline stages.

An :class:`ExecutionContext` is created once per query (or per batch group)
and handed to every stage.  It carries what a stage may need besides its
input: the mutable :class:`~repro.core.query.SearchStats` the caller wants
populated, and the identity of the computation — the query window, the query
S-location set, and the data version — which together form the cache key
space of the cross-query :class:`~repro.engine.cache.PresenceStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple, TYPE_CHECKING

from ..core.query import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.iupt import IUPT
    from .cache import PresenceStore


@dataclass
class ExecutionContext:
    """Per-query state shared by all pipeline stages.

    Attributes
    ----------
    window:
        The query interval ``(start, end)``.
    query_key:
        The query S-location set driving the (query-dependent) data
        reduction, or ``None`` when PSL pruning is disabled for this run.
    stats:
        The efficiency counters every stage reports into.
    store:
        The cross-query presence store, or ``None`` when caching is off.
    use_store:
        Per-context override letting a caller bypass the store without
        reconfiguring the engine (the naive algorithm's per-location flow
        calls stay cacheable, but e.g. ground-truth checks can opt out).
    data_key:
        The :meth:`~repro.data.iupt.IUPT.data_key_for` token of the table
        state this query's window reads; set by :meth:`pin` and part of the
        store key, so a cached window dies with the (shard-scoped) table
        state it was computed from.
    pinned_data_key:
        When set, :meth:`pin` adopts this token instead of re-deriving one
        from the table.  The continuous-query subsystem pins each refresh to
        the exact token it based its skip / carry-over decision on, so the
        entry the refresh stores is the one that decision was made for.
    """

    window: Tuple[float, float]
    query_key: Optional[FrozenSet[int]]
    stats: SearchStats = field(default_factory=SearchStats)
    store: Optional["PresenceStore"] = None
    use_store: bool = True
    data_key: Optional[Tuple] = None
    pinned_data_key: Optional[Tuple] = None

    @property
    def start(self) -> float:
        return self.window[0]

    @property
    def end(self) -> float:
        return self.window[1]

    def pin(self, iupt: "IUPT") -> None:
        """Key this context to the table state its window reads."""
        if self.pinned_data_key is not None:
            self.data_key = self.pinned_data_key
        else:
            self.data_key = iupt.data_key_for(self.start, self.end)

    @property
    def effective_store(self) -> Optional["PresenceStore"]:
        return self.store if self.use_store else None
