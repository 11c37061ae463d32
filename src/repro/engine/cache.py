"""The cross-query presence store.

The :class:`PresenceStore` shares per-object work within one query (the
"intermediate result sharing" of Section 4.1) and *across* queries.  Entries
are keyed by

    ``(object_id, (start, end), frozenset(query_slocations), data_key)``

because all four ingredients determine the stored artefact: the window fixes
which reports enter the object's sequence, the query S-location set fixes
the outcome of the query-dependent data reduction (Algorithm 1 prunes an
object exactly when its possible semantic locations miss the query set), and
the ``data_key`` — the identity-and-version token of the table state the
window reads (:meth:`~repro.data.iupt.IUPT.data_key_for`) — pins the state
of the underlying storage, so streaming new reports in (or querying a
different table through the same engine) can never be answered from stale
artefacts.  On a sharded store the token is *window-scoped*: it enumerates
the versions of only the shards the window overlaps, so a freshly ingested
batch invalidates exactly the cached presences whose windows read a touched
shard and leaves every other entry serving hits.
Keying by the query set is what makes the store safe where a cache keyed by
object id alone was not — a presence reduced under one location set can
never be handed to a different one.

The store is LRU-bounded, thread-safe (the query service answers requests
from several worker threads over one engine), and keeps hit/miss/eviction
statistics so experiments can report cache effectiveness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..core.presence import PresenceComputation
from ..data.records import SampleSet

#: A data identity/version token — ``(uid, ((shard, version), ...))`` over the
#: shards a window overlaps; any hashable tuple from the storage layer's
#: ``version_token``.
DataKey = Tuple

#: Cache key: (object id, window, query-set key, data identity/version).
StoreKey = Tuple[
    int,
    Tuple[float, float],
    Optional[FrozenSet[int]],
    Optional[DataKey],
]


def make_store_key(
    object_id: int,
    window: Tuple[float, float],
    query_slocations: Optional[Iterable[int]],
    data_key: Optional[DataKey] = None,
) -> StoreKey:
    """Normalise the key ingredients into a hashable store key.

    ``query_slocations=None`` (reduction without PSL pruning) is a distinct
    key from any concrete query set; ``data_key`` is the
    :meth:`~repro.data.iupt.IUPT.data_key_for` token of the table state the
    artefact was computed from.
    """
    qkey = None if query_slocations is None else frozenset(query_slocations)
    return (object_id, (float(window[0]), float(window[1])), qkey, data_key)


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
class CacheStats:
    """Hit/miss accounting of one :class:`PresenceStore`."""

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
    """LRU-bounded, thread-safe cross-query cache of per-object presences."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        self._entries: "OrderedDict[StoreKey, StoredPresence]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: StoreKey) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(
        self,
        object_id: int,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        data_key: Optional[DataKey] = None,
    ) -> Optional[StoredPresence]:
        """Return the stored artefact, or ``None`` on a miss."""
        key = make_store_key(object_id, window, query_slocations, data_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(
        self,
        object_id: int,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        entry: StoredPresence,
        data_key: Optional[DataKey] = None,
    ) -> None:
        """Insert (or refresh) an artefact, evicting the LRU entry if full."""
        key = make_store_key(object_id, window, query_slocations, data_key)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            self.stats.puts += 1
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def rekey(
        self,
        object_id: int,
        window: Tuple[float, float],
        query_slocations: Optional[Iterable[int]],
        old_data_key: Optional[DataKey],
        new_data_key: Optional[DataKey],
    ) -> bool:
        """Move one artefact from ``old_data_key`` to ``new_data_key``.

        The delta-maintenance primitive of the continuous-query subsystem: an
        object whose visible sequence a batch did *not* change still has a
        valid artefact — it is merely keyed to the superseded version token.
        Re-keying it (instead of recomputing it) is what makes an incremental
        refresh cheaper than invalidate-and-recompute.  Returns whether an
        entry was found under the old key; counts as neither hit nor miss.
        """
        old_key = make_store_key(object_id, window, query_slocations, old_data_key)
        new_key = make_store_key(object_id, window, query_slocations, new_data_key)
        with self._lock:
            entry = self._entries.pop(old_key, None)
            if entry is None:
                return False
            self._entries[new_key] = entry
            self._entries.move_to_end(new_key)
            self.stats.rekeys += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = CacheStats()
