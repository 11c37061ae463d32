"""Continuous queries: standing TkPLQ / flow results maintained over streaming.

The paper frames TkPLQ as a one-shot query over an IUPT snapshot.  A live
deployment instead keeps dashboards subscribed to *standing* queries while
report batches stream in; re-answering every standing query from scratch
after every batch wastes exactly the work the storage layer's shard-granular
versioning was built to avoid.  This module closes the loop:

* clients **register** standing queries against a
  :class:`ContinuousQueryEngine` — a top-k query
  (:meth:`ContinuousQueryEngine.register_top_k`) or a per-location flow set
  (:meth:`ContinuousQueryEngine.register_flows`) — and read the always-fresh
  result from the returned :class:`Subscription`;
* the engine listens to the table's storage events
  (:meth:`~repro.storage.sharded.ShardedRecordStore.subscribe`) and
  refreshes the registered results after every ``ingest_batch`` /
  ``evict_before``;
* refreshes are **delta-maintained**.  For each subscription and each
  :class:`~repro.storage.base.IngestEvent`:

  1. if the window-scoped version token
     (:meth:`~repro.storage.sharded.ShardedRecordStore.version_token`) is
     unchanged, the batch cannot have touched the window — the refresh is
     **skipped** outright (the common case for historical windows);
  2. otherwise the receipt's :attr:`~repro.storage.base.IngestReceipt.object_spans`
     split the window's objects into *touched* (new records may overlap the
     window) and *untouched*; the new token's store entry is built from the
     superseded one, **carrying over** untouched objects' presence artefacts
     — their visible sequences are unchanged, so the artefacts are still
     valid — and recomputing only touched objects.  A batch that shares a
     shard with the window but touched *nobody* in it carries the whole
     entry over and keeps the standing result: no fetch, no scoring.  The
     entry is the window's, whatever the query set: standing queries over
     one window share it, the first to refresh builds the new token's entry
     and the others are served from it;
  3. the flows are re-accumulated over all per-object artefacts in fetch
     order and the top-k ranking is repaired from them, which keeps every
     refreshed result **bit-identical** to a fresh engine's full recompute
     (the differential harness in ``tests/test_continuous.py`` asserts
     exactly this over random ingest/evict interleavings);

* eviction past a registered window marks the subscription **evicted**: its
  result accessor raises :class:`~repro.storage.base.EvictedRangeError`
  instead of silently serving a result computed from truncated history;
* each applied refresh and each eviction calls the subscription's one hook,
  :attr:`Subscription.on_change`, which reads the new state from
  :attr:`Subscription.result` (a result, or the raised eviction);
* every registration and removal is handed to the table
  (:meth:`~repro.storage.sharded.ShardedRecordStore.log_standing_query`),
  and :meth:`ContinuousQueryEngine.restore_subscriptions` re-registers what
  it keeps (:meth:`~repro.storage.sharded.ShardedRecordStore.standing_queries`):
  a durable table logs them beside its data, a volatile one keeps nothing.

:meth:`ContinuousQueryEngine.resync` walks the same steps with no receipt
(nothing is carried over), after a store reset that fired no events.

``repro.experiments.ablations.ablation_continuous`` measures steps 1-2
against a polling client that re-issues every standing query after each batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..core.query import TkPLQResult, TkPLQuery
from ..storage import (
    EvictedRangeError,
    EvictionEvent,
    IngestEvent,
    IngestReceipt,
    ShardedRecordStore,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import StoredPresence
    from .runtime import QueryEngine

CONTINUOUS_ALGORITHM = "continuous"

#: The subscription kinds, spelled as the wire spells them.
TOP_K = "top_k"
FLOWS = "flows"

#: Fired with the subscription after each *applied* refresh and once when
#: retention eviction invalidates its window; skipped refreshes (unchanged
#: window token) do not fire.  The state is fully updated first, so
#: ``subscription.result`` inside the callback returns the new result or
#: raises the :class:`~repro.storage.base.EvictedRangeError`.  The callback
#: runs on the mutating thread, under the store lock, so it must be fast and
#: must not mutate the table.  The query service bridges these calls onto its
#: event loop to push ``update`` / ``evicted`` frames to the subscriber.
ChangeCallback = Callable[["Subscription"], None]


@dataclass
class SubscriptionStats:
    """Maintenance accounting of one standing query."""

    refreshes: int = 0
    skipped: int = 0
    objects_recomputed: int = 0
    objects_rekeyed: int = 0
    last_churn: int = 0
    churn_total: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "refreshes": self.refreshes,
            "skipped": self.skipped,
            "objects_recomputed": self.objects_recomputed,
            "objects_rekeyed": self.objects_rekeyed,
            "last_churn": self.last_churn,
            "churn_total": self.churn_total,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


class Subscription:
    """A standing query registered with a :class:`ContinuousQueryEngine`.

    Holds the latest maintained result; reading :attr:`result` (or
    :meth:`top_k_ids` / :meth:`flow_of`) after retention evicted part of the
    registered window raises :class:`~repro.storage.base.EvictedRangeError`.
    """

    def __init__(
        self,
        sub_id: int,
        kind: str,
        window: Tuple[float, float],
        sloc_ids: Tuple[int, ...],
        query: Optional[TkPLQuery] = None,
    ):
        self.sub_id = sub_id
        self.kind = kind
        self.window = window
        self.sloc_ids = sloc_ids
        self.query = query
        #: The change hook (see :data:`ChangeCallback`); the maintenance
        #: engine reads it at fire time, under the store lock.
        self.on_change: Optional[ChangeCallback] = None
        self.stats = SubscriptionStats()
        self._result: Optional[object] = None
        self._error: Optional[EvictedRangeError] = None
        # Delta-maintenance state: the version token of the last refresh —
        # the store key of the entry the next one carries artefacts over from.
        self._data_key: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # Result access
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the subscription still has valid (non-evicted) history."""
        return self._error is None

    @property
    def result(self):
        """The maintained result: a :class:`~repro.core.query.TkPLQResult`
        for top-k subscriptions, a ``{sloc_id: flow}`` dict for flow ones."""
        if self._error is not None:
            raise self._error
        return self._result

    def top_k_ids(self) -> List[int]:
        """The current ranking (top-k subscriptions only)."""
        if self.kind != TOP_K:
            raise ValueError("top_k_ids() is only available on top-k subscriptions")
        return self.result.top_k_ids()

    def flow_of(self, sloc_id: int) -> Optional[float]:
        """The current flow of one registered S-location."""
        result = self.result
        flows = result.flows if isinstance(result, TkPLQResult) else result
        return flows.get(sloc_id)

    def describe(self) -> Dict[str, object]:
        """Subscription summary for logs and dashboards."""
        return {
            "id": self.sub_id,
            "kind": self.kind,
            "window": self.window,
            "slocations": len(self.sloc_ids),
            "active": self.active,
            **self.stats.as_dict(),
        }


def _entry(subscription: Subscription) -> Dict[str, object]:
    """The entry the table keeps for a standing query."""
    entry: Dict[str, object] = {
        "id": subscription.sub_id,
        "kind": subscription.kind,
        "slocs": list(subscription.sloc_ids),
        "window": [subscription.window[0], subscription.window[1]],
    }
    if subscription.query is not None:
        entry["k"] = subscription.query.k
    return entry


def _subscription_from_entry(entry: dict) -> Subscription:
    """One kept entry as an unregistered :class:`Subscription` (``KeyError`` /
    ``TypeError`` / ``ValueError`` / ``IndexError`` when it is malformed)."""
    sub_id = int(entry["id"])
    window = (float(entry["window"][0]), float(entry["window"][1]))
    sloc_ids = tuple(int(sloc) for sloc in entry["slocs"])
    kind = entry["kind"]
    if kind == FLOWS:
        # Held to a top-k entry's checks: a location, none twice, start <= end.
        TkPLQuery.build(sloc_ids, 1, *window)
        return Subscription(sub_id, FLOWS, window, sloc_ids)
    if kind not in (TOP_K, "top-k"):  # builds before 12.0 wrote "top-k"
        raise ValueError(f"unknown subscription kind {kind!r}")
    query = TkPLQuery.build(list(sloc_ids), int(entry["k"]), window[0], window[1])
    return Subscription(
        sub_id, TOP_K, query.interval, tuple(query.query_slocations), query=query
    )


class ContinuousQueryEngine:
    """Incrementally maintain standing queries over one streaming table.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.runtime.QueryEngine` whose pipeline, cache
        and indoor model answer the standing queries.
    iupt:
        The streaming table to subscribe to.  Every ``ingest_batch`` /
        ``evict_before`` on it triggers maintenance, and it keeps the
        registered standing queries: a durable table logs each one, and
        :meth:`restore_subscriptions` re-registers them — with their
        original subscription ids — after a process restart.
    """

    def __init__(self, engine: "QueryEngine", iupt: ShardedRecordStore):
        self._engine = engine
        self._iupt = iupt
        self._subscriptions: Dict[int, Subscription] = {}
        # New ids start above every id the table ever kept, so a
        # registration never reuses the id of a standing query this engine
        # has not restored, nor of one removed before a restart.
        self._next_id = iupt.next_standing_query_id()
        # Subscription state is synchronised on the *store's* re-entrant
        # lock rather than a private one: events arrive with that lock
        # already held (listeners fire inside the mutation), and
        # registration reads the store while holding it here — a second
        # lock would order the two paths oppositely and deadlock.  Sharing
        # the lock serialises concurrent ``ingest_batch`` threads' refreshes
        # against each other and against registration.
        self._lock = iupt.lock
        self._token: Optional[int] = iupt.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def close(self) -> None:
        """Detach from the table; registered results stop refreshing."""
        if self._token is not None:
            self._iupt.unsubscribe(self._token)
            self._token = None

    def __enter__(self) -> "ContinuousQueryEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, query: TkPLQuery) -> Subscription:
        """Register a standing top-k query; computes its first result now.

        Raises :class:`~repro.storage.base.EvictedRangeError` immediately if
        the window already reaches below the table's retention watermark.  A
        caller that must see every refresh from the first batch on sets
        :attr:`Subscription.on_change` while still holding the store lock it
        registered under (the lock is re-entrant).
        """
        return self._register(
            Subscription(
                0,  # the real id is minted under the lock in _register
                TOP_K,
                query.interval,
                tuple(query.query_slocations),
                query=query,
            )
        )

    def register_top_k(
        self, query_slocations: Sequence[int], k: int, start: float, end: float
    ) -> Subscription:
        """Convenience wrapper building the standing query in place."""
        return self.register(TkPLQuery.build(query_slocations, k, start, end))

    def register_flows(
        self, sloc_ids: Sequence[int], start: float, end: float
    ) -> Subscription:
        """Register a standing per-location flow set over ``[start, end]``."""
        ordered = tuple(dict.fromkeys(sloc_ids))
        if not ordered:
            raise ValueError("a flow subscription needs at least one S-location")
        return self._register(
            Subscription(0, FLOWS, (float(start), float(end)), ordered)
        )

    def _register(self, subscription: Subscription) -> Subscription:
        with self._lock:
            # Mint the id under the lock: concurrent registrations (the
            # query service runs them on worker threads) must never collide
            # — the table's log and the wire ``resume`` op key on it.
            subscription.sub_id = self._next_id
            self._next_id += 1
            self._compute(subscription)
            # Kept by the table before it is registered: a failed append
            # leaves it nowhere.
            self._iupt.log_standing_query(subscription.sub_id, _entry(subscription))
            self._subscriptions[subscription.sub_id] = subscription
            return subscription

    def unregister(self, subscription: Subscription) -> bool:
        """Drop a subscription; returns whether it was registered."""
        with self._lock:
            registered = subscription.sub_id in self._subscriptions
            if registered:
                self._iupt.log_standing_query(subscription.sub_id, None)
                del self._subscriptions[subscription.sub_id]
            return registered

    def subscription(self, sub_id: int) -> Optional[Subscription]:
        """Look up a registered subscription by id (``None`` if unknown)."""
        with self._lock:
            return self._subscriptions.get(sub_id)

    # ------------------------------------------------------------------
    # Restart
    # ------------------------------------------------------------------
    def restore_subscriptions(self) -> List[Subscription]:
        """Re-register the standing queries the table keeps.

        Called once after recovering a durable table: each kept entry is
        re-admitted under its **original subscription id** and its result is
        recomputed from the recovered data, so a client reconnecting after a
        restart can resume the same subscription.  A window that retention
        evicted while the process was down is restored in the *evicted*
        state (reading its result raises
        :class:`~repro.storage.base.EvictedRangeError`) rather than dropped
        silently.  Entries already registered are skipped; returns the
        restored subscriptions.  An entry that does not parse — missing a
        field or of an unknown kind, one
        :class:`~repro.core.query.TkPLQuery`'s checks refuse, or naming an
        S-location id the floor plan does not know — raises a ``ValueError``
        naming the standing query's id before anything is registered, the
        rule snapshots and log frames follow.
        """
        context = self._engine.pipeline.context  # the one unknown-id rule
        parsed: List[Subscription] = []
        for entry in self._iupt.standing_queries():
            try:
                subscription = _subscription_from_entry(entry)
                context(subscription.window, subscription.sloc_ids)
            except (ValueError, KeyError, TypeError, IndexError) as error:
                raise ValueError(
                    f"standing query {entry['id']}: damaged entry: {error!r}"
                ) from error
            parsed.append(subscription)
        with self._lock:
            restored: List[Subscription] = []
            for subscription in parsed:
                if subscription.sub_id in self._subscriptions:
                    continue
                try:
                    self._compute(subscription)
                except EvictedRangeError as error:
                    subscription._error = error
                self._subscriptions[subscription.sub_id] = subscription
                restored.append(subscription)
        return restored

    # ------------------------------------------------------------------
    # Storage events
    # ------------------------------------------------------------------
    def _on_event(self, event: object) -> None:
        if isinstance(event, IngestEvent):
            self._maintain(event.receipt)
        elif isinstance(event, EvictionEvent):
            # Listeners already run under the store lock; re-acquiring it
            # (re-entrant) keeps this path safe if a store ever notifies
            # without holding it.
            with self._lock:
                for subscription in self._subscriptions.values():
                    self._live(subscription, event.watermark)

    def resync(self) -> int:
        """Reconcile every standing result after an out-of-band store reset.

        :meth:`~repro.storage.sharded.ShardedRecordStore.reset_to_packed_shards`
        replaces the table without firing ingest/eviction events (a reset is
        not an ingest), so a replica that re-caught-up from a snapshot calls
        this once afterwards.  It takes the steps an ingest event takes with
        no receipt: a window now below the adopted retention watermark is
        marked evicted, one whose version token is unchanged is skipped
        (same shard versions ⇒ same records), and everything else is
        recomputed with nothing carried over.  Returns how many
        subscriptions were recomputed.
        """
        return self._maintain(None)

    def _maintain(self, receipt: Optional[IngestReceipt]) -> int:
        """The one refresh rule, per active subscription: the eviction check,
        the skip on an unchanged window token, then :meth:`_refresh`; the hook
        fires on every change.  Returns how many results were refreshed."""
        refreshed = 0
        with self._lock:
            watermark = self._iupt.eviction_watermark
            for subscription in self._subscriptions.values():
                if not self._live(subscription, watermark):
                    continue
                new_key = self._iupt.version_token(*subscription.window)
                if new_key == subscription._data_key:
                    # The window's visible records are untouched — the
                    # standing result is still exact; do nothing at all.
                    subscription.stats.skipped += 1
                    continue
                self._refresh(subscription, receipt, new_key)
                refreshed += 1
                if subscription.on_change is not None:
                    subscription.on_change(subscription)
        return refreshed

    @staticmethod
    def _live(subscription: Subscription, watermark: float) -> bool:
        """Whether the subscription survives ``watermark``; marks it evicted
        (and fires its hook, once) when its window starts below it."""
        if not subscription.active:
            return False
        start, end = subscription.window
        if start >= watermark:
            return True
        subscription._error = EvictedRangeError(start, end, watermark)
        if subscription.on_change is not None:
            subscription.on_change(subscription)
        return False

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    def _refresh(
        self,
        subscription: Subscription,
        receipt: Optional[IngestReceipt],
        new_key: Tuple,
    ) -> None:
        """Bring one standing result to ``new_key``, reusing what the batch left.

        An object is *touched* when the batch carried records whose time span
        overlaps the subscription window — only then can its visible sequence
        (and therefore its presence artefact) have changed.  Every other
        object of the superseded store entry keeps its artefact in the new
        one.  When nobody was touched the entry (its derived trees included)
        moves to the new token as it is and the standing result, computed
        from exactly these artefacts, stands.  Without a receipt (a store
        reset) nothing is carried over.  When another standing query over the
        same window refreshed first, the superseded entry is gone and the new
        one is served from the store.
        """
        began = time.perf_counter()
        window = subscription.window
        store = self._engine.store
        previous = None
        if store is not None and subscription._data_key is not None:
            previous = store.pop(window, subscription._data_key)
        carry: Dict[int, "StoredPresence"] = {}
        if previous is not None and receipt is not None:
            touched = receipt.objects_overlapping(*window)
            if not touched:
                carried = previous.objects_total
                store.put(window, previous, new_key, carried=carried)
                subscription._data_key = new_key
                subscription.stats.refreshes += 1
                subscription.stats.objects_rekeyed += carried
                subscription.stats.last_churn = 0
                subscription.stats.elapsed_seconds += time.perf_counter() - began
                return
            carry = {
                object_id: artefact
                for object_id, artefact in previous.entries
                if object_id not in touched
            }
        self._compute(subscription, carry=carry)
        subscription.stats.objects_rekeyed += len(carry)

    def _compute(
        self,
        subscription: Subscription,
        carry: Optional[Dict[int, "StoredPresence"]] = None,
    ) -> None:
        """(Re)compute one standing result through the engine pipeline.

        Objects in ``carry`` keep their artefacts, everything else is fetched
        and recomputed (or served, when the store already holds the window).
        Flows are re-accumulated over every per-object artefact in fetch
        order, so the result is bit-identical to a fresh engine's full
        recompute.  The read pins the window's token inside the hold of the
        table's lock that :meth:`_maintain` compared it in, so the entry it
        stores is the one that decision was made for.
        """
        began = time.perf_counter()
        pipeline = self._engine.pipeline
        ctx = pipeline.context(subscription.window, subscription.sloc_ids)
        flows = pipeline.flows(ctx, self._iupt, subscription.sloc_ids, carry=carry)
        result: object = flows
        if subscription.kind == TOP_K:
            result = TkPLQResult.ranked(
                subscription.query, flows, ctx.stats, CONTINUOUS_ALGORITHM
            )

        churn = self._churn(subscription._result, result, subscription.kind)
        subscription._result = result
        subscription._data_key = ctx.data_key
        subscription.stats.refreshes += 1
        subscription.stats.objects_recomputed += ctx.stats.objects_computed
        subscription.stats.last_churn = churn
        subscription.stats.churn_total += churn
        subscription.stats.elapsed_seconds += time.perf_counter() - began

    @staticmethod
    def _churn(previous: Optional[object], current: object, kind: str) -> int:
        """How much the maintained result moved in one refresh.

        Top-k: ranking positions whose S-location changed.  Flows: locations
        whose flow value changed.  The first computation counts as zero churn.
        """
        if previous is None:
            return 0
        if kind == TOP_K:
            old_ids = previous.top_k_ids()
            new_ids = current.top_k_ids()
            length = max(len(old_ids), len(new_ids))
            old_ids = old_ids + [None] * (length - len(old_ids))
            new_ids = new_ids + [None] * (length - len(new_ids))
            return sum(1 for old, new in zip(old_ids, new_ids) if old != new)
        return sum(
            1 for sloc_id, flow in current.items() if previous.get(sloc_id) != flow
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Engine-level maintenance summary (experiments and dashboards)."""
        totals = SubscriptionStats()
        subscriptions = self.subscriptions
        for subscription in subscriptions:
            stats = subscription.stats
            totals.refreshes += stats.refreshes
            totals.skipped += stats.skipped
            totals.objects_recomputed += stats.objects_recomputed
            totals.objects_rekeyed += stats.objects_rekeyed
            totals.churn_total += stats.churn_total
            totals.elapsed_seconds += stats.elapsed_seconds
        return {
            "subscriptions": len(subscriptions),
            "active": sum(1 for s in subscriptions if s.active),
            **{
                key: value
                for key, value in totals.as_dict().items()
                if key != "last_churn"
            },
        }
