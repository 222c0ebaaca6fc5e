"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Sub-hierarchies mirror the major
subsystems: the object store, the path machinery, the query language, the
view layer, the relational substrate, and the warehouse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Object store / data model
# ---------------------------------------------------------------------------


class GSDBError(ReproError):
    """Base class for object-model and store errors."""


class UnknownObjectError(GSDBError, KeyError):
    """An OID was referenced that is not present in the store."""

    def __init__(self, oid: str) -> None:
        super().__init__(oid)
        self.oid = oid

    def __str__(self) -> str:  # KeyError quotes its arg; we want a message.
        return f"unknown object: {self.oid!r}"


class DuplicateObjectError(GSDBError):
    """An object with the same OID already exists in the store."""

    def __init__(self, oid: str) -> None:
        super().__init__(f"duplicate object: {oid!r}")
        self.oid = oid


class TypeMismatchError(GSDBError):
    """An operation required a set (or atomic) object but got the other."""


class InvalidUpdateError(GSDBError):
    """A basic update (insert/delete/modify) was not applicable."""


class IntegrityError(GSDBError):
    """A structural invariant of the database was violated.

    Raised by :mod:`repro.gsdb.validation` when, e.g., a set value
    references a missing OID, or a base claimed to be a tree contains a
    node with two parents.
    """


class PinnedEpochError(GSDBError):
    """A retained snapshot epoch was reclaimed while readers still pin it.

    Raised by :meth:`~repro.gsdb.columnar.SnapshotRetention.reclaim`:
    reclaiming a pinned epoch would pull an immutable view out from
    under a concurrent reader, so it is refused outright.  Superseded
    epochs with live pins are instead retained past the ring's capacity
    and reclaimed lazily once their last pin drops.
    """

    def __init__(self, seq: int, pins: int) -> None:
        super().__init__(
            f"epoch publication {seq} still has {pins} reader pin(s)"
        )
        self.seq = seq
        self.pins = pins


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


class PathError(ReproError):
    """Base class for path and path-expression errors."""


class PathSyntaxError(PathError):
    """A path or path expression string could not be parsed."""

    def __init__(self, text: str, position: int, message: str) -> None:
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


# ---------------------------------------------------------------------------
# Query language
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for query-language errors."""


class QuerySyntaxError(QueryError):
    """A query string could not be tokenized or parsed."""

    def __init__(self, text: str, position: int, message: str) -> None:
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


class QueryEvaluationError(QueryError):
    """A well-formed query failed during evaluation."""


class UnknownDatabaseError(QueryError):
    """A ``WITHIN`` or ``ANS INT`` clause named an unregistered database."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown database: {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


class ViewError(ReproError):
    """Base class for view-layer errors."""


class ViewDefinitionError(ViewError):
    """A view definition is malformed or unsupported by a maintainer."""


class MaintenanceError(ViewError):
    """Incremental maintenance failed or detected an inconsistency."""


class ViewConsistencyError(MaintenanceError):
    """A maintained view diverged from its recomputed reference."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for relational-substrate errors."""


class SchemaError(RelationalError):
    """A tuple did not match its table schema."""


# ---------------------------------------------------------------------------
# Warehouse
# ---------------------------------------------------------------------------


class WarehouseError(ReproError):
    """Base class for warehouse-architecture errors."""


class CapabilityError(WarehouseError):
    """A source was asked a query beyond its declared capability."""


class SourceUnavailableError(WarehouseError):
    """A source could not be reached (crashed or partitioned).

    Raised by :meth:`~repro.warehouse.source.Source.serve` while the
    source is down, and re-raised by
    :meth:`~repro.warehouse.wrapper.SourceLink.ask` once its retry
    budget is exhausted.
    """

    def __init__(self, source_id: str) -> None:
        super().__init__(f"source {source_id!r} is unavailable")
        self.source_id = source_id


class QueryTimeoutError(WarehouseError):
    """A source query timed out: the source may have served it, but the
    answer was lost in flight (the timeout-then-late-reply race).  The
    query is read-only, so retrying is always safe."""


class QuiescenceError(WarehouseError):
    """The quiescence oracle found a maintained view that differs from
    fresh recomputation after the update channel drained."""
