"""Source monitors: detecting updates and reporting them upstream.

Paper Section 5 / Figure 6: "each source is also associated with a
source monitor that detects the update events as described in Section
4.1 and reports them to the warehouse".  Section 5.1 defines the three
reporting levels; the monitor assembles the corresponding
:class:`~repro.warehouse.protocol.UpdateNotification` right after each
update commits at the source (so contents and paths reflect the
post-update state, exactly as Algorithm 1 expects).

For fault recovery (experiment E15) the monitor keeps a bounded history
of the notifications it built, keyed by sequence number.  When the
warehouse detects a delivery gap it asks for a :meth:`Monitor.replay`
of the missing range — O(lost messages), independent of database size —
and only falls back to full view recomputation when the history has
already evicted part of the range.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable

from repro.gsdb.updates import Update
from repro.warehouse.protocol import (
    ObjectPayload,
    PathPayload,
    ReportingLevel,
    UpdateNotification,
    payload_from_object,
)
from repro.warehouse.source import Source

NotificationSink = Callable[[UpdateNotification], None]


class Monitor:
    """Watches one source and ships notifications to registered sinks."""

    def __init__(
        self,
        source: Source,
        level: ReportingLevel = ReportingLevel.OIDS_ONLY,
        *,
        history_limit: int = 256,
    ) -> None:
        self.source = source
        self.level = ReportingLevel(level)
        self.history_limit = history_limit
        self._sinks: list[NotificationSink] = []
        self._sequence = 0
        self._paused = 0
        self._history: OrderedDict[int, UpdateNotification] = OrderedDict()
        source.store.subscribe(self._on_update)

    def register(self, sink: NotificationSink) -> None:
        """Add a warehouse-side receiver of this monitor's reports."""
        self._sinks.append(sink)

    @property
    def last_sequence(self) -> int:
        """Sequence number of the most recently built notification."""
        return self._sequence

    # -- replay (gap-detection resync, experiment E15) -------------------------

    def replay(
        self, sequences: Iterable[int]
    ) -> list[UpdateNotification] | None:
        """Retransmit past notifications by sequence number, in order.

        Returns None when any requested sequence has been evicted from
        the bounded history (the warehouse must then fall back to full
        recomputation for the affected views).  Payloads are the ones
        shipped originally — they reflect the source state at build
        time, so the warehouse processes them as *stale* deliveries.
        """
        out: list[UpdateNotification] = []
        for sequence in sorted(set(sequences)):
            notification = self._history.get(sequence)
            if notification is None:
                return None
            out.append(notification)
        return out

    # -- pausing (bulk-update sessions, Section 6 issue 4) ---------------------

    def pause(self) -> None:
        """Suppress per-update notifications (a bulk descriptor will be
        shipped instead); nestable."""
        self._paused += 1

    def resume(self) -> None:
        if self._paused <= 0:
            raise RuntimeError("monitor is not paused")
        self._paused -= 1

    @property
    def paused(self) -> bool:
        return self._paused > 0

    # -- notification assembly -------------------------------------------------

    def _on_update(self, update: Update) -> None:
        if self._paused:
            return
        self.ship(self.build_notification(update))

    def ship(self, notification: UpdateNotification) -> None:
        """Send one built notification to every registered sink."""
        for sink in self._sinks:
            sink(notification)

    def build_notification(self, update: Update) -> UpdateNotification:
        """Assemble a notification for an already-applied update."""
        self._sequence += 1
        contents: tuple[ObjectPayload, ...] = ()
        paths: tuple[PathPayload, ...] = ()
        if self.level >= ReportingLevel.WITH_CONTENTS:
            contents = self._contents(update)
        if self.level >= ReportingLevel.WITH_PATHS:
            paths = self._paths(update)
        notification = UpdateNotification(
            source_id=self.source.source_id,
            sequence=self._sequence,
            update=update,
            level=self.level,
            contents=contents,
            paths=paths,
        )
        self._history[self._sequence] = notification
        while len(self._history) > self.history_limit:
            self._history.popitem(last=False)
        return notification

    def _contents(self, update: Update) -> tuple[ObjectPayload, ...]:
        payloads = []
        for oid in update.directly_affected:
            obj = self.source.store.get_optional(oid)
            if obj is not None:
                payloads.append(payload_from_object(obj))
        return tuple(payloads)

    def _paths(self, update: Update) -> tuple[PathPayload, ...]:
        """Root paths of the directly affected objects.

        The paper motivates this as nearly free for the source: "when
        the source does the update, it needs to traverse the source
        database until reaching the updated object", so the path is a
        by-product.  We recover it through the source's parent index.
        For ``insert``/``delete`` the *parent*'s path is reported (the
        child's connectivity is exactly what changed).
        """
        payloads = []
        for oid in update.directly_affected:
            answer = self._root_path(oid)
            if answer is not None:
                payloads.append(answer)
        return tuple(payloads)

    def _root_path(self, oid: str) -> PathPayload | None:
        store = self.source.store
        index = self.source.parent_index
        root = self.source.root
        if oid not in store:
            return None
        chain = [oid]
        labels: list[str] = []
        current = oid
        while current != root:
            obj = store.get_optional(current)
            if obj is None:
                return None
            parent = index.parent(current)
            if parent is None or parent in chain:  # a detached cycle
                return None
            labels.append(obj.label)
            chain.append(parent)
            current = parent
        chain.reverse()
        labels.reverse()
        return PathPayload(
            target=oid, oid_chain=tuple(chain), labels=tuple(labels)
        )
