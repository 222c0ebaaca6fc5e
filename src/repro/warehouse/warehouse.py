"""The warehouse: remote view maintenance over sources (paper Section 5).

The key claim of Section 5.1 is that "the warehouse can apply the same
algorithm" — Algorithm 1 — with the evaluation functions realized by
source queries, notification contents, and cached auxiliary structure.
We realize that literally:

* :class:`RemoteBaseStore` duck-types the read interface of
  :class:`~repro.gsdb.store.ObjectStore` (``get`` / ``get_optional`` /
  ``counters``), resolving each object through, in order, the current
  notification's payload *seeds*, the auxiliary cache, and finally a
  source query.  The unchanged traversal machinery (``eval``, path
  following) then runs against it, and every cache miss is a metered
  source query.
* :class:`RemoteParentIndex` duck-types
  :class:`~repro.gsdb.indexes.ParentIndex.parent`, resolving parents
  through level-3 path payloads, the cache, or ``fetch_parents``.
* :class:`RemoteViewMaintainer` *is*
  :class:`~repro.views.maintenance.SimpleViewMaintainer` — subclassed
  only to (a) screen notifications using labels/values shipped at level
  ≥ 2 and path knowledge (Section 5.2), and (b) answer ``path(ROOT,N)``
  from level-3 payloads before falling back to a ``PATH_TO_ROOT`` query.

:class:`Warehouse` wires sources, monitors, links, caches, and views
together and keeps per-update statistics for experiments E5/E6/E10.

Fault tolerance (experiment E15): the warehouse accepts *at-least-once,
possibly reordered* notification delivery — e.g. through a
:class:`repro.chaos.channel.FaultyChannel` — and restores exactly-once
in-order processing per source with a sequence-number ingress
(:class:`_SourceIngress`): duplicates are dropped, early arrivals are
held in a reorder buffer, and anything flushed late is processed as a
*stale* delivery using the batch-coalescing correctness argument (the
source state observed is newer than the one the notification was built
in, which is exactly the situation of batched dispatch).  Delivery gaps
are closed by :meth:`Warehouse.heal`: lost notifications are replayed
from the monitor's bounded history — O(lost messages), independent of
database size — and only when history has been evicted does a view fall
back to full recomputation (:meth:`Warehouse.resync_view`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    QueryTimeoutError,
    SourceUnavailableError,
    UnknownObjectError,
)
from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Update
from repro.instrumentation.counters import CostCounters
from repro.paths.path import Path
from repro.views.definition import ViewDefinition
from repro.views.dispatcher import coalesce_updates, screen_replayed
from repro.views.maintenance import SimpleViewMaintainer, unshared
from repro.views.materialized import MaterializedView
from repro.views.recompute import compute_view_members
from repro.warehouse.caching import AuxiliaryCache, CachePolicy
from repro.warehouse.monitor import Monitor
from repro.warehouse.protocol import (
    MessageLog,
    ObjectPayload,
    ReportingLevel,
    UpdateNotification,
)
from repro.warehouse.schema_knowledge import PathKnowledge
from repro.warehouse.source import Source
from repro.warehouse.wrapper import RetryPolicy, SourceLink


class _StaleContext:
    """Minimal maintenance context for out-of-order (stale) deliveries.

    A late-delivered notification is processed against a source state
    newer than the one it was built in — the same situation as batched
    dispatch, where the base is already at the final state.  Flagging
    ``batched`` makes the maintainer's delete handling history-aware
    (purge-by-inspection; see
    :func:`~repro.views.maintenance.purge_stranded`) instead of
    witness-driven.  The chain lookups of
    :class:`~repro.views.dispatcher.PathContext` are not needed: the
    remote maintainer overrides every evaluation function that would
    consult them.  Nothing is shared either — each remote view keeps
    charging its own source queries.
    """

    batched = True
    shared = staticmethod(unshared)


_STALE_CONTEXT = _StaleContext()


def _object_from_payload(payload: ObjectPayload) -> Object:
    if payload.type == "set":
        return Object.set_object(payload.oid, payload.label, payload.value)
    return Object(payload.oid, payload.label, payload.type, payload.value)


class RemoteBaseStore:
    """Store-shaped view of a remote source (seeds → cache → queries)."""

    def __init__(
        self,
        link: SourceLink,
        cache: AuxiliaryCache | None,
        counters: CostCounters,
    ) -> None:
        self.link = link
        self.cache = cache
        self.counters = counters
        self._seeds: dict[str, Object] = {}
        self._negative: set[str] = set()

    # -- seeding (per-notification payload) ----------------------------------

    def begin_update(self, notification: UpdateNotification) -> None:
        """Reset per-update memo and seed it from the notification."""
        self._seeds.clear()
        self._negative.clear()
        for payload in notification.contents:
            self._seeds[payload.oid] = _object_from_payload(payload)

    def reset(self) -> None:
        """Forget every memoized object (used when resyncing a view:
        memo entries may describe pre-loss state)."""
        self._seeds.clear()
        self._negative.clear()

    # -- ObjectStore read interface ----------------------------------------------

    def get_optional(self, oid: str) -> Object | None:
        self.counters.object_reads += 1
        seeded = self._seeds.get(oid)
        if seeded is not None:
            return seeded
        if oid in self._negative:
            return None
        if self.cache is not None:
            entry = self.cache.lookup(oid)
            if entry is not None:
                if entry.is_set:
                    obj = Object.set_object(oid, entry.label, entry.children)
                    self._seeds[oid] = obj
                    return obj
                if entry.value is not None:
                    obj = Object(oid, entry.label, entry.type, entry.value)
                    self._seeds[oid] = obj
                    return obj
                # STRUCTURE policy: atomic value not cached — fall through
                # to a source query (the paper's "some simple queries may
                # need to be sent back to the source to test a condition").
        payload = self.link.fetch_object(oid)
        if payload is None:
            self._negative.add(oid)
            return None
        obj = _object_from_payload(payload)
        self._seeds[oid] = obj
        return obj

    def get(self, oid: str) -> Object:
        obj = self.get_optional(oid)
        if obj is None:
            raise UnknownObjectError(oid)
        return obj

    def __contains__(self, oid: str) -> bool:
        return self.get_optional(oid) is not None


class RemoteParentIndex:
    """Parent lookups resolved via path payloads, cache, or queries."""

    def __init__(
        self, link: SourceLink, cache: AuxiliaryCache | None
    ) -> None:
        self.link = link
        self.cache = cache
        self._hints: dict[str, str] = {}

    def begin_update(self, notification: UpdateNotification) -> None:
        self._hints.clear()
        for payload in notification.paths:
            chain = payload.oid_chain
            for parent, child in zip(chain, chain[1:]):
                self._hints[child] = parent

    def add_hint(self, child: str, parent: str) -> None:
        self._hints[child] = parent

    def reset(self) -> None:
        """Forget every memoized parent (stale-delivery hygiene)."""
        self._hints.clear()

    def parent(self, oid: str) -> str | None:
        hinted = self._hints.get(oid)
        if hinted is not None:
            return hinted
        if self.cache is not None:
            cached = self.cache.parent_of(oid)
            if cached is not None:
                self._hints[oid] = cached
                return cached
        parents = self.link.fetch_parents(oid)
        if not parents:
            return None
        parent = parents[0].oid
        self._hints[oid] = parent
        return parent

    def parents(self, oid: str) -> set[str]:
        parent = self.parent(oid)
        return {parent} if parent is not None else set()


class RemoteViewMaintainer(SimpleViewMaintainer):
    """Algorithm 1 at the warehouse, with screening and payload reuse."""

    def __init__(
        self,
        view: MaterializedView,
        remote_store: RemoteBaseStore,
        remote_index: RemoteParentIndex,
        link: SourceLink,
        *,
        knowledge: PathKnowledge | None = None,
        screen: bool = True,
    ) -> None:
        super().__init__(view, parent_index=remote_index)  # type: ignore[arg-type]
        self.base = remote_store  # remote resolution replaces local store
        self.link = link
        self.knowledge = knowledge
        self.screen = screen
        self.notifications_processed = 0
        self.notifications_screened = 0
        self._current: UpdateNotification | None = None

    # -- entry point -----------------------------------------------------------

    def process(
        self, notification: UpdateNotification, *, stale: bool = False
    ) -> bool:
        """Handle one notification; returns False when screened out.

        *stale* marks late deliveries (reordered or replayed): the
        update is then handled under :class:`_StaleContext` so deletes
        purge by inspection rather than trusting witnesses evaluated
        against the newer source state.  Screening stays sound for
        stale deletes because it uses only the label gate and current
        membership, never final-state reachability (same argument as
        the dispatcher's batched-delete screen).
        """
        self.notifications_processed += 1
        if self.screen and self._screened_out(notification):
            self.notifications_screened += 1
            return False
        index = self.parent_index
        assert isinstance(index, RemoteParentIndex)
        if stale:
            # The payloads describe the source as it was when the
            # notification was built; evaluation must run against the
            # *current* source state (the final-state argument), so
            # clear the memos instead of seeding them and resolve
            # everything through the cache or live queries.  (Screening
            # above may still use the payload *labels* — labels never
            # change.)
            self._current = None
            self.base.reset()
            index.reset()
        else:
            self._current = notification
            self.base.begin_update(notification)
            index.begin_update(notification)
        try:
            self.handle(
                notification.update,
                _STALE_CONTEXT if stale else None,  # type: ignore[arg-type]
            )
        finally:
            self._current = None
        return True

    # -- screening (paper Section 5.1 scenario 2 + Section 5.2 knowledge) ----------

    def _screened_out(self, notification: UpdateNotification) -> bool:
        update = notification.update
        label = self._moved_label(notification)
        if label is None:
            return False  # level 1: nothing to screen with
        full_labels = set(self.full_path.labels)
        if label not in full_labels:
            # The moved/modified object's label does not occur on the
            # view path at all: irrelevant, unless it is a *member's*
            # value change that needs a delegate refresh.
            return not self._affects_member(update)
        if self.knowledge is not None:
            expression = self.view.definition.full_expression()
            if not self.knowledge.label_feasible_on(expression, label):
                return not self._affects_member(update)
        return False

    def _moved_label(self, notification: UpdateNotification) -> str | None:
        """Label of the moved/modified object, when the level ships it."""
        if notification.level < ReportingLevel.WITH_CONTENTS:
            return None
        update = notification.update
        # insert/delete move a child; modify touches one object.
        target = getattr(update, "child", None) or update.oid
        payload = notification.content_for(target)
        return payload.label if payload is not None else None

    def _affects_member(self, update: Update) -> bool:
        return any(
            self.view.contains(oid) for oid in update.directly_affected
        )

    # -- evaluation-function overrides ---------------------------------------------

    def _eval(self, oid: str, path: Path) -> set[str]:
        """``eval(N, p, cond)``, answered from the cached region when the
        walk stays inside it (the region is complete for path-relevant
        children, so no sibling probing is needed); atomic values absent
        under the STRUCTURE policy are fetched individually — "some
        simple queries may need to be sent back to the source to test a
        condition" (Section 5.2)."""
        cache = self.base.cache if isinstance(self.base, RemoteBaseStore) else None
        if cache is not None:
            entries = cache.region_descendants(oid, tuple(path.labels))
            if entries is not None:
                witnesses: set[str] = set()
                for entry in entries:
                    if entry.is_set:
                        continue
                    value = entry.value
                    if value is None:  # STRUCTURE policy: fetch the value
                        obj = self.base.get_optional(entry.oid)
                        if obj is None or obj.is_set:
                            continue
                        value = obj.atomic_value()
                    if self.cond(value):
                        witnesses.add(entry.oid)
                return witnesses
        return super()._eval(oid, path)

    def _path_from_root(self, oid: str) -> Path | None:
        # Level 3 ships path(ROOT, N) for the directly affected objects;
        # the cached region can reconstruct it for any cached object;
        # otherwise one PATH_TO_ROOT query.
        if oid == self.root:
            return Path(())
        if self._current is not None:
            payload = self._current.path_for(oid)
            if payload is not None:
                return Path(payload.labels)
        cache = self.base.cache if isinstance(self.base, RemoteBaseStore) else None
        if cache is not None:
            reconstructed = cache.root_path(oid)
            if reconstructed is not None:
                chain, labels = reconstructed
                self._hint_chain(chain)
                return Path(labels)
        answer = self.link.path_to_root(oid)
        if answer is None:
            return None
        self._hint_chain(answer.oid_chain)
        return Path(answer.labels)

    def _hint_chain(self, chain) -> None:
        index = self.parent_index
        assert isinstance(index, RemoteParentIndex)
        for parent, child in zip(chain, chain[1:]):
            index.add_hint(child, parent)

    def _surviving_ancestor(self, parent_oid: str) -> str | None:
        chain = self._oid_chain(parent_oid)
        if chain is None or len(self.sel_path) >= len(chain):
            return None
        return chain[len(self.sel_path)]

    def _oid_chain(self, oid: str) -> list[str] | None:
        if oid == self.root:
            return [oid]
        if self._current is not None:
            payload = self._current.path_for(oid)
            if payload is not None:
                return list(payload.oid_chain)
        cache = self.base.cache if isinstance(self.base, RemoteBaseStore) else None
        if cache is not None:
            reconstructed = cache.root_path(oid)
            if reconstructed is not None:
                return reconstructed[0]
        answer = self.link.path_to_root(oid)
        return list(answer.oid_chain) if answer is not None else None


@dataclass
class WarehouseViewStats:
    """Per-view accounting across processed notifications."""

    notifications: int = 0
    screened: int = 0
    source_queries: int = 0
    per_update_queries: list[int] = field(default_factory=list)
    bulk_batches: int = 0
    bulk_batches_screened: int = 0
    failures: int = 0
    resyncs: int = 0


@dataclass
class IngressStats:
    """Channel-facing delivery accounting for one source."""

    received: int = 0  # notifications handed to _receive (incl. dups)
    applied: int = 0  # notifications admitted in order and dispatched
    duplicates: int = 0  # dropped by sequence-number dedup
    held: int = 0  # early arrivals parked in the reorder buffer
    max_lag: int = 0  # widest observed gap (staleness window, in msgs)
    replayed: int = 0  # gap fillers retransmitted from monitor history


class _SourceIngress:
    """Sequence-tracking state for one source's notification stream.

    The channel may drop, duplicate, and reorder; the ingress restores
    exactly-once in-order processing: ``next_expected`` is the cursor,
    ``pending`` the reorder buffer (early arrivals keyed by sequence),
    and ``out_of_band`` the sequences consumed outside the channel
    (bulk-update descriptors) that gap detection must not mistake for
    losses.
    """

    def __init__(self) -> None:
        self.next_expected = 1
        self.pending: dict[int, UpdateNotification] = {}
        self.out_of_band: set[int] = set()
        self.stats = IngressStats()


class Warehouse:
    """Views + caches over one or more monitored sources (Figure 6)."""

    def __init__(self) -> None:
        self.view_store = ObjectStore()
        self.counters = self.view_store.counters
        self.log = MessageLog()
        self.links: dict[str, SourceLink] = {}
        self.monitors: dict[str, Monitor] = {}
        self.views: dict[str, "WarehouseView"] = {}
        self.ingress: dict[str, _SourceIngress] = {}

    # -- wiring -------------------------------------------------------------------

    def connect(
        self,
        source: Source,
        *,
        level: ReportingLevel = ReportingLevel.OIDS_ONLY,
        channel=None,
        retry: RetryPolicy | None = None,
    ) -> SourceLink:
        """Attach a source: create its link, monitor, and ingress state.

        *channel* is an optional fault-injecting transport between the
        monitor and the warehouse — anything with ``bind(monitor,
        sink)`` and (optionally) ``attach_link(link)``, e.g.
        :class:`repro.chaos.channel.FaultyChannel`.  Without one,
        notifications are delivered directly (still through the
        sequence-checked ingress).  *retry* arms the link's
        backoff state machine for source queries.
        """
        link = SourceLink(
            source, log=self.log, counters=self.counters, retry=retry
        )
        self.links[source.source_id] = link
        monitor = Monitor(source, level)
        self.ingress[source.source_id] = _SourceIngress()
        if channel is None:
            monitor.register(self._receive)
        else:
            channel.bind(monitor, self._receive)
            attach = getattr(channel, "attach_link", None)
            if attach is not None:
                attach(link)
        self.monitors[source.source_id] = monitor
        return link

    def define_view(
        self,
        definition: ViewDefinition | str,
        source_id: str,
        *,
        cache_policy: CachePolicy = CachePolicy.NONE,
        knowledge: PathKnowledge | None = None,
        screen: bool = True,
    ) -> "WarehouseView":
        """Define and initially populate a warehouse view over a source."""
        if isinstance(definition, str):
            definition = ViewDefinition.parse(definition)
        link = self.links[source_id]
        cache: AuxiliaryCache | None = None
        if cache_policy is not CachePolicy.NONE:
            cache = AuxiliaryCache(
                definition.entry,
                definition.full_path().labels,
                cache_policy,
                link,
            )
            cache.seed()
        remote_store = RemoteBaseStore(link, cache, self.counters)
        remote_index = RemoteParentIndex(link, cache)
        mview = MaterializedView(
            definition, remote_store, self.view_store  # type: ignore[arg-type]
        )
        members = compute_view_members(definition, remote_store)  # type: ignore[arg-type]
        mview.load_members(members)
        maintainer = RemoteViewMaintainer(
            mview,
            remote_store,
            remote_index,
            link,
            knowledge=knowledge,
            screen=screen,
        )
        wview = WarehouseView(
            source_id=source_id,
            view=mview,
            maintainer=maintainer,
            cache=cache,
            stats=WarehouseViewStats(),
        )
        self.views[definition.name] = wview
        return wview

    # -- bulk updates (Section 6, fourth open issue) -----------------------------------

    def apply_bulk(self, source_id: str, bulk) -> list:
        """Execute an intensional bulk update at a source and maintain
        warehouse views *descriptor-first*.

        The source's monitor is paused so the batch ships as one
        descriptor instead of N notifications; each view is screened
        with :func:`~repro.warehouse.bulk.bulk_is_relevant` and only
        relevant views process the batch's individual updates.  Returns
        the basic updates the bulk performed.

        (Post-hoc notification assembly is safe for bulk *modifies*:
        each atom is modified at most once per batch and modifies never
        change paths, so per-update payloads equal post-batch state.)
        """
        from repro.warehouse.bulk import bulk_is_relevant, execute_bulk

        monitor = self.monitors[source_id]
        source = monitor.source
        monitor.pause()
        try:
            applied = execute_bulk(source.store, source.root, bulk)
            notifications = [
                monitor.build_notification(update) for update in applied
            ]
        finally:
            monitor.resume()
        self._mark_delivered(
            source_id, (n.sequence for n in notifications)
        )
        for wview in self.views.values():
            if wview.source_id != source_id:
                continue
            wview.stats.bulk_batches += 1
            if not bulk_is_relevant(wview.view.definition, bulk):
                wview.stats.bulk_batches_screened += 1
                continue
            for notification in notifications:
                self.log.record_notification(notification)
                self._deliver(wview, notification)
        return applied

    def process_batch(self, source_id: str, updates) -> list[Update]:
        """Apply a batch of basic updates at a source, then maintain
        warehouse views on the *coalesced* net batch.

        The source's monitor is paused while the batch commits, the
        batch is reduced with
        :func:`~repro.views.dispatcher.coalesce_updates` (insert/delete
        pairs that leave an edge unchanged cancel; modify chains fold
        to first-old/last-new), and one notification per surviving
        update is assembled from the post-batch source state — which is
        exactly the state Algorithm 1's evaluation functions query, so
        deferred assembly is safe (same argument as :meth:`apply_bulk`,
        extended to edges by the net-effect cancellation).  Returns the
        surviving updates.

        At-least-once tolerance: updates whose effect the source store
        already reflects (a re-delivered batch, or a prefix of one) are
        screened out by
        :func:`~repro.views.dispatcher.screen_replayed` before
        application, so retrying a batch is a no-op rather than an
        ``InvalidUpdateError``.  The surviving notifications are
        shipped through the monitor's sinks — i.e. through the fault
        channel when one is bound.
        """
        updates = list(updates)
        monitor = self.monitors[source_id]
        monitor.pause()
        try:
            fresh = screen_replayed(
                monitor.source.store, updates, counters=self.counters
            )
            monitor.source.store.apply_all(fresh)
            survivors = coalesce_updates(fresh, counters=self.counters)
            notifications = [
                monitor.build_notification(update) for update in survivors
            ]
        finally:
            monitor.resume()
        for notification in notifications:
            monitor.ship(notification)
        return survivors

    # -- ingress: dedup + reorder buffering (experiment E15) ---------------------------

    def _receive(
        self, notification: UpdateNotification, *, late: bool = False
    ) -> None:
        """Channel-facing entry point: restore exactly-once, in-order.

        Duplicates (sequence already admitted, held, or consumed
        out-of-band) are dropped; early arrivals are parked until the
        gap fills; the in-order notification is dispatched, then the
        buffer is flushed as far as it is contiguous.  Everything that
        waited — and every *late* retransmission from
        :meth:`Monitor.replay` — dispatches as a stale delivery.
        """
        ingress = self.ingress[notification.source_id]
        stats = ingress.stats
        stats.received += 1
        sequence = notification.sequence
        if (
            sequence < ingress.next_expected
            or sequence in ingress.pending
            or sequence in ingress.out_of_band
        ):
            stats.duplicates += 1
            self.counters.notifications_deduped += 1
            return
        if sequence > ingress.next_expected:
            ingress.pending[sequence] = notification
            stats.held += 1
            stats.max_lag = max(
                stats.max_lag, sequence - ingress.next_expected
            )
            return
        self._admit(ingress, notification, stale=late)
        while ingress.next_expected in ingress.pending:
            held = ingress.pending.pop(ingress.next_expected)
            self._admit(ingress, held, stale=True)

    def _admit(
        self,
        ingress: _SourceIngress,
        notification: UpdateNotification,
        *,
        stale: bool,
    ) -> None:
        ingress.stats.applied += 1
        ingress.next_expected = notification.sequence + 1
        while ingress.next_expected in ingress.out_of_band:
            ingress.out_of_band.discard(ingress.next_expected)
            ingress.next_expected += 1
        self._dispatch(notification, stale=stale)

    def _mark_delivered(self, source_id: str, sequences) -> None:
        """Record sequences consumed outside the channel (bulk-update
        descriptors) so gap detection does not misread them as losses.

        Monitor sequences are strictly increasing, so a freshly built
        run is either contiguous at the cursor (advance it) or ahead of
        a genuine gap (park it in ``out_of_band``; :meth:`_admit` skips
        over it once the gap fills)."""
        ingress = self.ingress[source_id]
        for sequence in sorted(sequences):
            if sequence == ingress.next_expected:
                ingress.next_expected += 1
            elif sequence > ingress.next_expected:
                ingress.out_of_band.add(sequence)

    # -- notification routing ----------------------------------------------------------

    def _dispatch(
        self, notification: UpdateNotification, *, stale: bool = False
    ) -> None:
        self.log.record_notification(notification)
        self.counters.messages_sent += 1
        self.counters.bytes_sent += notification.estimated_size()
        for wview in self.views.values():
            if wview.source_id != notification.source_id:
                continue
            self._deliver(wview, notification, stale=stale)

    def _deliver(
        self,
        wview: "WarehouseView",
        notification: UpdateNotification,
        *,
        stale: bool = False,
    ) -> None:
        before = self.log.queries
        try:
            if wview.cache is not None:
                wview.cache.apply_notification(notification)
            processed = wview.maintainer.process(notification, stale=stale)
        except (QueryTimeoutError, SourceUnavailableError):
            # The link's retry budget ran out mid-maintenance: the view
            # (or its cache) may hold a partial delta.  Flag it; heal()
            # rebuilds it once the source is reachable again.  The
            # notification stream continues — source-side updates must
            # never be blocked by warehouse-side maintenance failures.
            wview.stats.failures += 1
            wview.needs_resync = True
            processed = True
        spent = self.log.queries - before
        wview.stats.notifications += 1
        if not processed:
            wview.stats.screened += 1
        wview.stats.source_queries += spent
        wview.stats.per_update_queries.append(spent)

    # -- recovery (experiment E15) -------------------------------------------------

    def heal(self, source_id: str | None = None) -> int:
        """Close delivery gaps and rebuild damaged views.

        For each source (or just *source_id*): every sequence between
        the ingress cursor and the monitor's last built notification
        that is neither held in the reorder buffer nor accounted
        out-of-band was lost in the channel.  The monitor is asked to
        :meth:`~Monitor.replay` the missing range from its bounded
        history — O(lost messages), independent of database size.  When
        part of the range has been evicted, the stream is abandoned:
        the cursor fast-forwards and every view over the source falls
        back to full recomputation.  Finally any view still flagged
        ``needs_resync`` (maintenance failure, evicted history) is
        resynced.  Idempotent; returns the number of views resynced.
        """
        source_ids = (
            [source_id] if source_id is not None else list(self.monitors)
        )
        resynced = 0
        for sid in source_ids:
            ingress = self.ingress[sid]
            monitor = self.monitors[sid]
            missing = [
                sequence
                for sequence in range(
                    ingress.next_expected, monitor.last_sequence + 1
                )
                if sequence not in ingress.pending
                and sequence not in ingress.out_of_band
            ]
            if missing:
                replayed = monitor.replay(missing)
                if replayed is None:
                    self._abandon_stream(ingress, monitor, sid)
                else:
                    for notification in replayed:
                        self.counters.notifications_replayed += 1
                        ingress.stats.replayed += 1
                        self._receive(notification, late=True)
            for name, wview in self.views.items():
                if wview.source_id == sid and wview.needs_resync:
                    if self.resync_view(name):
                        resynced += 1
        return resynced

    def _abandon_stream(
        self, ingress: _SourceIngress, monitor: Monitor, source_id: str
    ) -> None:
        """History eviction: the missing range is unrecoverable by
        replay.  Fast-forward the cursor past everything built so far
        and flag every view over the source for recomputation (held
        notifications are subsumed by the rebuild)."""
        ingress.next_expected = monitor.last_sequence + 1
        ingress.pending = {
            sequence: notification
            for sequence, notification in ingress.pending.items()
            if sequence >= ingress.next_expected
        }
        ingress.out_of_band = {
            sequence
            for sequence in ingress.out_of_band
            if sequence >= ingress.next_expected
        }
        for wview in self.views.values():
            if wview.source_id == source_id:
                wview.needs_resync = True

    def resync_view(self, name: str) -> bool:
        """Rebuild one view by recomputation from the current source
        state — the recovery of last resort, O(database size).

        The remote memos and the auxiliary cache are discarded first
        (both may describe pre-loss state), then membership is diffed
        against a fresh evaluation; surviving members are refreshed so
        delegate values catch up too.  Returns True on success; a
        still-unreachable source leaves the view flagged and returns
        False so a later :meth:`heal` retries.
        """
        wview = self.views[name]
        wview.needs_resync = True
        base = wview.maintainer.base
        try:
            if isinstance(base, RemoteBaseStore):
                base.reset()
            if isinstance(wview.maintainer.parent_index, RemoteParentIndex):
                wview.maintainer.parent_index.reset()
            if wview.cache is not None:
                wview.cache.reseed()
            members = compute_view_members(
                wview.view.definition, base  # type: ignore[arg-type]
            )
            for gone in sorted(wview.view.members() - members):
                wview.view.v_delete(gone)
            for member in sorted(members):
                wview.view.v_insert(member)  # refreshes existing delegates
        except (QueryTimeoutError, SourceUnavailableError):
            wview.stats.failures += 1
            return False
        wview.stats.resyncs += 1
        self.counters.view_resyncs += 1
        self.counters.view_recomputations += 1
        wview.needs_resync = False
        return True


@dataclass
class WarehouseView:
    """A warehouse-resident materialized view and its machinery."""

    source_id: str
    view: MaterializedView
    maintainer: RemoteViewMaintainer
    cache: AuxiliaryCache | None
    stats: WarehouseViewStats
    #: set when maintenance failed mid-notification or delivery history
    #: was lost; cleared by a successful :meth:`Warehouse.resync_view`.
    needs_resync: bool = False

    def members(self) -> set[str]:
        return self.view.members()
