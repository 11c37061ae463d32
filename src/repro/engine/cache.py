"""The cross-query presence store.

The :class:`PresenceStore` shares per-object work within one query (the
"intermediate result sharing" of Section 4.1), across queries and across
query sets.  Its unit is the **window**: one entry, keyed by

    ``((start, end), data_key)``

holds everything Algorithms 2-4 derive from those two ingredients before a
single location is scored — a :class:`WindowPresences` with the per-object
:class:`StoredPresence` artefacts of every object reporting in the window, in
fetch order, plus a ``derived`` dict in which the best-first algorithm keeps
what it packs from them: ``RC`` (the COUNT-aggregate tree's root entries, and
per S-location the objects whose PSLs contain it) per fanout — float bounds
and lists, no ``Rect``.  ``derived`` is filled only when a best-first query
asks for it; the default nested-loop query never builds it.  A warm query
therefore takes one lock and one dictionary probe, never touches the table,
and does only the work that depends on the request itself (which artefacts
it reads, the presences of those still missing, the fold of their flows, the
ranking; best-first adds ``RQ``, the join and the heap).  ``derived`` lives
and dies with its entry; nothing in it is an answer.

Both key ingredients determine the artefacts: the window fixes which reports
enter each object's sequence, and the ``data_key`` — the identity-and-version
token of the table state the window reads
(:meth:`~repro.storage.sharded.ShardedRecordStore.version_token`) — pins the
state of the underlying storage, so streaming new reports in (or querying a
different table through the same engine) can never be answered from stale
artefacts.  The query set is not part of the key: Algorithm 1's merges and an
object's PSLs do not depend on it, and its one query-dependent test (PSL
pruning: the PSLs miss the query set) is taken by each query as it reads the
entry (:class:`~repro.engine.stages.QueryPipeline`).
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
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.presence import PresenceComputation
from ..data.records import SampleSet

#: A data identity/version token — ``(uid, ((shard, version), ...))`` over the
#: shards a window overlaps; any hashable tuple from the storage layer's
#: ``version_token``.
DataKey = Tuple

#: Cache key: (window, data identity/version).
WindowKey = Tuple[Tuple[float, float], Optional[DataKey]]


@dataclass
class StoredPresence:
    """The per-object artefact cached by the store.

    The reduction result (``psls``, ``sequence``) is always present;
    ``computation`` — the per-cell presences — is filled in lazily, only for
    the objects whose PSLs meet a query that reads them (and the best-first
    algorithm only for the candidates its guided join actually sums).
    ``pruned`` is always ``False`` in the store, whose artefacts no query set
    prunes; the field is kept only because ``bench/``'s staged replay (which
    builds artefacts against one query set), ``PresenceMatrix`` and
    ``tests/best_first_oracle.py`` spell it.
    """

    psls: FrozenSet[int]
    sequence: Tuple[SampleSet, ...]
    pruned: bool = False
    computation: Optional[PresenceComputation] = None


@dataclass
class WindowPresences:
    """One store entry: every object of one window at one table version.

    ``entries`` is the ``(object_id, artefact)`` list in fetch order (ascending
    object id, every object of the window — the order every flow accumulation
    sums in); ``derived`` holds what an algorithm builds from exactly these
    artefacts and wants to find again (best-first's ``RC``, built only when a
    best-first query reads the entry).  Readers share the entry: artefacts
    gain their lazily deferred ``computation`` in place, and nothing else
    about an entry ever changes.
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
    def _key(window: Tuple[float, float], data_key: Optional[DataKey]) -> WindowKey:
        return ((float(window[0]), float(window[1])), data_key)

    def get(
        self, window: Tuple[float, float], data_key: Optional[DataKey] = None
    ) -> Optional[WindowPresences]:
        """The stored window (one hit per artefact it holds), or ``None``.

        A ``None`` counts nothing yet: how many objects were missed is only
        known once the caller has fetched them, so :meth:`put` counts them.
        """
        key = self._key(window, data_key)
        with self._lock:
            entry = self._windows.get(key)
            if entry is not None:
                self._windows.move_to_end(key)
                self.stats.hits += len(entry.entries)
            return entry

    def put(
        self,
        window: Tuple[float, float],
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
        key = self._key(window, data_key)
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
        self, window: Tuple[float, float], data_key: Optional[DataKey] = None
    ) -> Optional[WindowPresences]:
        """Remove and return a window whose token was superseded (no stats)."""
        key = self._key(window, data_key)
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
