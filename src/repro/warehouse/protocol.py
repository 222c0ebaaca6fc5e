"""Warehouse ↔ source protocol messages and traffic accounting.

Paper Section 5: sources report updates through monitors; the warehouse
sends queries back and receives answers through wrappers.  Experiments
E5/E10 need the *number* and *size* of these messages, so every message
type knows how to estimate its payload size and every exchange passes
through a :class:`MessageLog`.

Reporting levels (Section 5.1):

1. type of update + OIDs of directly affected objects;
2. level 1 + label, type and value of the directly affected objects;
3. level 2 + ``path(ROOT, N)`` (labels *and* the OID chain) for each
   directly affected object — "the source may record the path to the
   updated object and report it as part of the update information".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.gsdb.updates import Update


class ReportingLevel(enum.IntEnum):
    """How much a source monitor tells the warehouse (Section 5.1)."""

    OIDS_ONLY = 1
    WITH_CONTENTS = 2
    WITH_PATHS = 3


@dataclass(frozen=True)
class ObjectPayload:
    """Shipped contents of one object (level ≥ 2)."""

    oid: str
    label: str
    type: str
    value: object  # atomic value, or tuple of child OIDs for set objects

    def estimated_size(self) -> int:
        return (
            len(self.oid)
            + len(self.label)
            + len(self.type)
            + len(repr(self.value))
        )


@dataclass(frozen=True)
class PathPayload:
    """Shipped root path of one object (level 3): parallel chains of
    OIDs (``ROOT ... N``) and the labels between them."""

    target: str
    oid_chain: tuple[str, ...]
    labels: tuple[str, ...]

    def estimated_size(self) -> int:
        return sum(len(oid) for oid in self.oid_chain) + sum(
            len(label) for label in self.labels
        )


@dataclass(frozen=True)
class UpdateNotification:
    """One monitored update, at some reporting level."""

    source_id: str
    sequence: int
    update: Update
    level: ReportingLevel
    contents: tuple[ObjectPayload, ...] = ()
    paths: tuple[PathPayload, ...] = ()

    def estimated_size(self) -> int:
        base = len(self.source_id) + 8 + len(repr(self.update))
        base += sum(payload.estimated_size() for payload in self.contents)
        base += sum(payload.estimated_size() for payload in self.paths)
        return base

    def content_for(self, oid: str) -> ObjectPayload | None:
        for payload in self.contents:
            if payload.oid == oid:
                return payload
        return None

    def path_for(self, oid: str) -> PathPayload | None:
        for payload in self.paths:
            if payload.target == oid:
                return payload
        return None


class QueryKind(enum.Enum):
    """Source-query kinds (the ``fetch X where func(X)`` of Example 9)."""

    FETCH_OBJECT = "fetch_object"  # fetch X where oid(X) = o
    FETCH_PARENTS = "fetch_parents"  # fetch X where path(X, o) = label(o)
    PATH_FROM = "path_from"  # fetch X where path(o, X) = p
    PATH_TO_ROOT = "path_to_root"  # fetch path(ROOT, o) (labels + chain)


@dataclass(frozen=True)
class SourceQuery:
    """A query sent from the warehouse to a source."""

    kind: QueryKind
    target: str
    labels: tuple[str, ...] = ()
    root: str | None = None

    def estimated_size(self) -> int:
        return (
            len(self.kind.value)
            + len(self.target)
            + sum(len(label) for label in self.labels)
            + (len(self.root) if self.root else 0)
        )


@dataclass(frozen=True)
class QueryAnswer:
    """A source's reply: objects and/or a path."""

    objects: tuple[ObjectPayload, ...] = ()
    path: PathPayload | None = None

    def estimated_size(self) -> int:
        size = sum(payload.estimated_size() for payload in self.objects)
        if self.path is not None:
            size += self.path.estimated_size()
        return size


@dataclass
class MessageLog:
    """Counts and sizes of protocol traffic (experiments E5/E10)."""

    notifications: int = 0
    notification_bytes: int = 0
    queries: int = 0
    query_bytes: int = 0
    answers_bytes: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def record_notification(self, notification: UpdateNotification) -> None:
        self.notifications += 1
        self.notification_bytes += notification.estimated_size()

    def record_query(self, query: SourceQuery, answer: QueryAnswer) -> None:
        self.queries += 1
        self.query_bytes += query.estimated_size()
        self.answers_bytes += answer.estimated_size()
        key = query.kind.value
        self.by_kind[key] = self.by_kind.get(key, 0) + 1

    @property
    def total_bytes(self) -> int:
        return self.notification_bytes + self.query_bytes + self.answers_bytes

    def snapshot(self) -> "MessageLog":
        clone = MessageLog(
            notifications=self.notifications,
            notification_bytes=self.notification_bytes,
            queries=self.queries,
            query_bytes=self.query_bytes,
            answers_bytes=self.answers_bytes,
        )
        clone.by_kind = dict(self.by_kind)
        return clone

    def delta_since(self, earlier: "MessageLog") -> "MessageLog":
        delta = MessageLog(
            notifications=self.notifications - earlier.notifications,
            notification_bytes=self.notification_bytes
            - earlier.notification_bytes,
            queries=self.queries - earlier.queries,
            query_bytes=self.query_bytes - earlier.query_bytes,
            answers_bytes=self.answers_bytes - earlier.answers_bytes,
        )
        delta.by_kind = {
            kind: self.by_kind.get(kind, 0) - earlier.by_kind.get(kind, 0)
            for kind in set(self.by_kind) | set(earlier.by_kind)
        }
        return delta


def payload_from_object(obj) -> ObjectPayload:
    """Build an :class:`ObjectPayload` from a store object."""
    value = (
        tuple(obj.sorted_children()) if obj.is_set else obj.atomic_value()
    )
    return ObjectPayload(
        oid=obj.oid, label=obj.label, type=obj.type, value=value
    )
