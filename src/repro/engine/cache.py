"""The cross-query presence store.

The :class:`PresenceStore` shares per-object work within one query (the
"intermediate result sharing" of Section 4.1) and *across* queries.  Its unit
is the **window**: one entry, keyed by

    ``((start, end), frozenset(query_slocations), data_key)``

holds everything Algorithms 2-4 derive from those three ingredients before a
single location is scored — a :class:`WindowPresences` with the per-object
:class:`StoredPresence` artefacts of every object reporting in the window, in
fetch order, plus a ``derived`` dict in which the best-first algorithm keeps
the two R-trees (``RC``, ``RQ``) it bulk-loads from them.  A warm query
therefore takes one lock and one dictionary probe, never touches the table,
and does only the work that depends on the request itself (the join, the
heap, the ranking).  ``derived`` lives and dies with its entry; nothing in it
is an answer.

All three key ingredients determine the artefacts: the window fixes which
reports enter each object's sequence, the query S-location set fixes the
outcome of the query-dependent data reduction (Algorithm 1 prunes an object
exactly when its possible semantic locations miss the query set), and the
``data_key`` — the identity-and-version token of the table state the window
reads (:meth:`~repro.storage.sharded.ShardedRecordStore.version_token`) —
pins the state of the underlying storage, so streaming new reports in (or
querying a different table through the same engine) can never be answered
from stale artefacts.
The token is *window-scoped*: it enumerates the versions of only the shards
the window overlaps, so a freshly ingested batch invalidates exactly the
entries whose windows read a touched shard and leaves every other entry
serving hits.  It deliberately leaves the retention watermark out, which is
why :meth:`~repro.engine.stages.QueryPipeline.window` checks the watermark
before it serves an entry.

Capacity and every :class:`CacheStats` counter count **artefacts**, not
windows: a served window adds one hit per object it holds, a computed one a
miss per object, and the LRU drops whole windows (oldest first) until the
artefact total fits — so a window larger than the capacity is never kept.
The store is thread-safe (the query service answers requests from several
worker threads over one engine).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.presence import PresenceComputation
from ..data.records import SampleSet

#: A data identity/version token — ``(uid, ((shard, version), ...))`` over the
#: shards a window overlaps; any hashable tuple from the storage layer's
#: ``version_token``.
DataKey = Tuple

#: Cache key: (window, query-set key, data identity/version).
WindowKey = Tuple[Tuple[float, float], Optional[FrozenSet[int]], Optional[DataKey]]


@dataclass
class StoredPresence:
    """The per-object artefact cached by the store.

    The reduction result (``psls``, ``sequence``, ``pruned``) is always
    present; ``computation`` — the per-cell presences — is filled in
    lazily because the best-first algorithm reduces every object but only
    computes them for the candidates its guided join actually visits.
    """

    psls: FrozenSet[int]
    sequence: Tuple[SampleSet, ...]
    pruned: bool
    computation: Optional[PresenceComputation] = None


@dataclass
class WindowPresences:
    """One store entry: every object of one window under one query set.

    ``entries`` is the ``(object_id, artefact)`` list in fetch order (ascending
    object id, pruned objects included — the order every flow accumulation
    sums in); ``derived`` holds what an algorithm builds from exactly these
    artefacts and wants to find again (best-first's ``RC`` and ``RQ``).
    Readers share the entry: artefacts gain their lazily deferred
    ``computation`` in place, and nothing else about an entry ever changes.
    """

    entries: List[Tuple[int, StoredPresence]]
    derived: Dict[object, object] = field(default_factory=dict)

    @property
    def objects_total(self) -> int:
        """``|O|`` of the window: how many objects report in it."""
        return len(self.entries)


@dataclass
class CacheStats:
    """Accounting of one :class:`PresenceStore`, counted in artefacts."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    rekeys: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "rekeys": self.rekeys,
            "hit_rate": round(self.hit_rate, 4),
        }




class PresenceStore:
    """LRU-bounded, thread-safe cross-query cache of per-window presences."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        self._windows: "OrderedDict[WindowKey, WindowPresences]" = OrderedDict()
        self._artefacts = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        """How many per-object artefacts the stored windows hold."""
        return self._artefacts

    @property
    def windows(self) -> int:
        """How many window entries are stored."""
        return len(self._windows)

    @staticmethod
    def _key(
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        data_key: Optional[DataKey],
    ) -> WindowKey:
        """``query_slocations=None`` (reduction without PSL pruning) is a
        distinct key from any concrete query set."""
        qkey = None if query_slocations is None else frozenset(query_slocations)
        return ((float(window[0]), float(window[1])), qkey, data_key)

    def get(
        self,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        data_key: Optional[DataKey] = None,
    ) -> Optional[WindowPresences]:
        """The stored window (one hit per artefact it holds), or ``None``.

        A ``None`` counts nothing yet: how many objects were missed is only
        known once the caller has fetched them, so :meth:`put` counts them.
        """
        key = self._key(window, query_slocations, data_key)
        with self._lock:
            entry = self._windows.get(key)
            if entry is not None:
                self._windows.move_to_end(key)
                self.stats.hits += len(entry.entries)
            return entry

    def put(
        self,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        entry: WindowPresences,
        data_key: Optional[DataKey] = None,
        carried: int = 0,
    ) -> None:
        """Store a window, then drop LRU windows until the artefacts fit.

        ``carried`` of the entry's artefacts were taken over from the entry
        of a superseded version token (:meth:`pop`) instead of recomputed —
        the delta-maintenance primitive of the continuous-query subsystem.
        They count as ``rekeys`` and hits; the rest are the misses of the
        lookup that led here.
        """
        key = self._key(window, query_slocations, data_key)
        size = len(entry.entries)
        with self._lock:
            replaced = self._windows.pop(key, None)
            if replaced is not None:
                self._artefacts -= len(replaced.entries)
            self._windows[key] = entry
            self._artefacts += size
            self.stats.puts += size
            self.stats.misses += size - carried
            self.stats.hits += carried
            self.stats.rekeys += carried
            while self._artefacts > self._capacity:
                _, dropped = self._windows.popitem(last=False)
                self._artefacts -= len(dropped.entries)
                self.stats.evictions += len(dropped.entries)

    def pop(
        self,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        data_key: Optional[DataKey] = None,
    ) -> Optional[WindowPresences]:
        """Remove and return a window whose token was superseded (no stats)."""
        key = self._key(window, query_slocations, data_key)
        with self._lock:
            entry = self._windows.pop(key, None)
            if entry is not None:
                self._artefacts -= len(entry.entries)
            return entry

    def clear(self) -> None:
        with self._lock:
            self._windows.clear()
            self._artefacts = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = CacheStats()
