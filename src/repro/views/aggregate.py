"""Aggregate views — the paper's second open issue (Section 6).

"How does one define and handle views in which the value of one
delegate object is obtained from more than one base objects, for
example, aggregate views?"

An :class:`AggregateView` materializes a single object whose value is
an aggregate (count / sum / avg / min / max) over the witness values of
a simple view's members, e.g. "the number of young professors" or "the
minimum age among them".  It is maintained *incrementally on top of* a
maintained :class:`~repro.views.materialized.MaterializedView`: the
maintenance dispatcher delivers each base update (each coalesced batch)
to the aggregate after the view's maintainer, and the aggregate
recomputes only each member's contribution when that member's region
is touched, and applies algebraic deltas.

Incrementality notes (the classic self-maintainability asymmetry):

* ``count``/``sum``/``avg`` are fully incremental — contributions add
  and subtract.
* ``min``/``max`` are incremental on inserts and on deletes of
  non-extremal contributions; deleting the current extremum triggers a
  rescan of the surviving contributions (still only view members, never
  the base at large).
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.errors import ViewDefinitionError
from repro.gsdb.object import Object

from repro.gsdb.traversal import follow_path
from repro.gsdb.updates import Update
from repro.views.materialized import MaterializedView


class AggregateKind(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


class AggregateView:
    """A one-object materialized aggregate over a maintained view.

    Args:
        name: OID/label base for the aggregate object.
        view: the (separately maintained) materialized view to
            aggregate over.  Deliver updates to this aggregate *after*
            the view's maintainer so it observes post-maintenance state
            (:meth:`~repro.views.catalog.ViewCatalog.define_aggregate`
            registers it with the dispatcher in that order).
        kind: which aggregate.
        value_path: labels from a member to the aggregated atomic
            values; defaults to the view's condition path, so "sum of
            ages of young professors" needs no extra configuration.
        value_filter: optional predicate on atomic values (defaults to
            numbers only, protecting sums from stray strings).
    """

    def __init__(
        self,
        name: str,
        view: MaterializedView,
        kind: AggregateKind,
        *,
        value_path: tuple[str, ...] | None = None,
        value_filter: Callable[[object], bool] | None = None,
    ) -> None:
        self.name = name
        self.view = view
        self.kind = AggregateKind(kind)
        if value_path is None:
            if self.kind is not AggregateKind.COUNT:
                value_path = tuple(view.definition.cond_path().labels)
            else:
                value_path = ()
        self.value_path = tuple(value_path)
        self.value_filter = value_filter or (
            lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        )
        self._contributions: dict[str, list[float]] = {}
        self.object = Object.atomic(name, f"{self.kind.value}", 0)
        store = view.view_store
        previous = store.check_references
        store.check_references = False
        try:
            store.add_object(self.object)
        finally:
            store.check_references = previous
        self.refresh_all()

    # -- contribution extraction --------------------------------------------

    def _member_contribution(self, member: str) -> list[float]:
        base = self.view.base_store
        if self.kind is AggregateKind.COUNT and not self.value_path:
            return [1.0]
        values: list[float] = []
        for oid in sorted(follow_path(base, member, self.value_path)):
            obj = base.get_optional(oid)
            if obj is None or obj.is_set:
                continue
            value = obj.atomic_value()
            if not self.value_filter(value):
                continue
            if self.kind is AggregateKind.COUNT:
                values.append(1.0)  # count matches; no numeric coercion
            else:
                values.append(float(value))
        return values

    # -- recomputation ---------------------------------------------------------

    def refresh_all(self) -> None:
        """Recompute every contribution (initialization / audit)."""
        self._contributions = {
            member: self._member_contribution(member)
            for member in self.view.members()
        }
        self._publish()

    # -- maintenance --------------------------------------------------------------

    def handle(self, update: Update) -> None:
        """React to one base update (after the view's maintainer ran).

        Membership changes and value changes are detected by comparing
        the view's current member set with the tracked contributions,
        plus re-extracting contributions of members whose region the
        update touched.
        """
        members = self.view.members()
        tracked = set(self._contributions)
        for gone in tracked - members:
            del self._contributions[gone]
        for new in members - tracked:
            self._contributions[new] = self._member_contribution(new)
        # A value change below a surviving member: re-extract only the
        # members whose value region contains a directly affected object.
        affected = set(update.directly_affected)
        for member in members & tracked:
            if self._touches(member, affected):
                self._contributions[member] = self._member_contribution(
                    member
                )
        self._publish()

    def _touches(self, member: str, affected: set[str]) -> bool:
        """Is a directly affected object anywhere on the member's value
        path (including the member itself)?"""
        base = self.view.base_store
        for length in range(len(self.value_path) + 1):
            prefix = self.value_path[:length]
            if affected & follow_path(base, member, prefix):
                return True
        return False

    # -- publication ------------------------------------------------------------------

    def _flat_values(self) -> list[float]:
        return [
            value
            for values in self._contributions.values()
            for value in values
        ]

    def current_value(self) -> float | int | None:
        values = self._flat_values()
        if self.kind is AggregateKind.COUNT:
            return len(values)
        if not values:
            return None
        if self.kind is AggregateKind.SUM:
            return sum(values)
        if self.kind is AggregateKind.AVG:
            return sum(values) / len(values)
        if self.kind is AggregateKind.MIN:
            return min(values)
        if self.kind is AggregateKind.MAX:
            return max(values)
        raise ViewDefinitionError(f"unknown aggregate {self.kind}")

    def _publish(self) -> None:
        value = self.current_value()
        self.object.value = value if value is not None else 0

    def check(self) -> bool:
        """Audit: recompute from scratch and compare."""
        snapshot = self.object.value
        contributions = dict(self._contributions)
        self.refresh_all()
        ok = self.object.value == snapshot and (
            self._contributions == contributions
        )
        return ok
