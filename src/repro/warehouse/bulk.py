"""Update-query-aware maintenance — the paper's fourth open issue (§6).

"How does one maintain materialized views when not only the updated
base objects, but also the update query that generated them is known?
For example, we may know that the salary of each person named 'Mark'
was increased by $1000.  Then a view containing the salary of persons
named 'John' should be unaffected."

A :class:`BulkUpdate` describes such an update query intensionally:
*owners* selected by a path expression and a guard comparison, whose
atomic children with a given label get their values transformed.
:func:`execute_bulk` applies it at a source as ordinary basic updates;
the warehouse receives **one** descriptor instead of N notifications
and screens whole batches per view with :func:`bulk_is_relevant`.

Soundness analysis (False ⇒ provably unaffected):

*Membership* of a simple/extended view can only change when the
modified atoms can be condition witnesses: the target label must occur
at a feasible position of ``sel_path.cond_path`` *and* the target
selector must intersect that path language.  The guard never helps
here — the transform's output is opaque (renaming the Marks could mint
new Johns), so a guarded witness change must be processed.

*Copied values* (the paper's "view containing the salary"): plain
materialized views with a WHERE clause copy only set objects' OID sets,
which value modifies never touch.  The value dimension matters for
depth-2 :class:`~repro.views.partial.PartialMaterializedView`
fragments, which copy the members' atomic children.  There the owner
of each modified atom *is* the member, so if the guard and the view's
condition are provably disjoint (:func:`comparisons_disjoint`) no
member's fragment is touched — exactly the paper's Marks-vs-Johns
argument.  This step assumes a *functional* guard path (at most one
guard witness per owner, e.g. one name per person — the paper's
implicit reading; an owner with names {'Mark', 'John'} would defeat
existential disjointness), declared via ``BulkUpdate.functional_guard``.
For deeper fragments the owner of a modified atom may be an interior
node the view's condition says nothing about, so the screen stays
conservative (relevant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.gsdb.object import AtomicValue
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Modify
from repro.paths.automaton import ChargeLedger, compile_expression
from repro.paths.containment import is_empty_intersection
from repro.paths.expression import (
    AnyLabelSegment,
    LabelSegment,
    PathExpression,
)
from repro.query.ast import Comparison
from repro.query.conditions import comparisons_disjoint, filter_on_store
from repro.views.definition import ViewDefinition


@dataclass(frozen=True)
class BulkUpdate:
    """An intensional description of a bulk modify.

    Attributes:
        owner_path: selects the owner objects from the root (e.g.
            ``*.person`` or ``professor``).
        guard: comparison the owner must satisfy (e.g. name = 'Mark');
            None applies to every owner.
        target_label: label of the owners' atomic children to modify.
        transform: value transformation (e.g. ``lambda v: v + 1000``).
        functional_guard: the guard path yields at most one witness per
            owner (one name per person); required for guard-based
            screening to be sound under existential cond() semantics.
        description: human-readable form, for logging.
    """

    owner_path: PathExpression
    guard: Comparison | None
    target_label: str
    transform: Callable[[AtomicValue], AtomicValue]
    functional_guard: bool = True
    description: str = "<bulk update>"

    def target_expression(self) -> PathExpression:
        """Path expression selecting the modified atoms from the root."""
        return self.owner_path.concat(
            PathExpression((LabelSegment(frozenset({self.target_label})),))
        )


def execute_bulk(
    store: ObjectStore, root: str, bulk: BulkUpdate
) -> list[Modify]:
    """Apply *bulk* at the source; returns the basic updates performed."""
    ledger = ChargeLedger()
    owners = compile_expression(bulk.owner_path).evaluate_many(
        store, (root,), charged=ledger
    )[root]
    if bulk.guard is not None:
        owners = filter_on_store(store, owners, bulk.guard, charged=ledger)
    applied: list[Modify] = []
    for owner in sorted(owners):
        obj = store.get_optional(owner)
        if obj is None or not obj.is_set:
            continue
        for child_oid in obj.sorted_children():
            child = store.get_optional(child_oid)
            if (
                child is None
                or child.is_set
                or child.label != bulk.target_label
            ):
                continue
            new_value = bulk.transform(child.atomic_value())
            if new_value != child.atomic_value():
                applied.append(store.modify_value(child_oid, new_value))
    return applied


def bulk_is_relevant(
    definition: ViewDefinition,
    bulk: BulkUpdate,
    *,
    fragment_depth: int = 1,
) -> bool:
    """Can *bulk* possibly affect a view with *definition*?

    Args:
        definition: the view's definition (simple or extended class).
        bulk: the update-query descriptor.
        fragment_depth: 1 for a plain materialized view; ≥ 2 when the
            view partially materializes that many levels per member
            (:class:`~repro.views.partial.PartialMaterializedView`).
    """
    return _membership_relevant(definition, bulk) or _value_relevant(
        definition, bulk, fragment_depth
    )


def _membership_relevant(
    definition: ViewDefinition, bulk: BulkUpdate
) -> bool:
    full = definition.full_expression()
    if bulk.target_label not in _possible_labels(full):
        return False
    return not is_empty_intersection(full, bulk.target_expression())


def _value_relevant(
    definition: ViewDefinition, bulk: BulkUpdate, fragment_depth: int
) -> bool:
    condition = definition.condition
    if fragment_depth <= 1:
        if condition is not None:
            # Members are set objects (atomic members can never satisfy
            # a condition); their copied values are OID sets.
            return False
        # No condition: atomic members' own values are copied.  The
        # modified atoms must be members for their delegates to change.
        return not is_empty_intersection(
            definition.select_expression, bulk.target_expression()
        )
    # Fragments copy descendants down to fragment_depth - 1 levels
    # below each member.  Find at which levels k the modified atoms can
    # sit inside a fragment (target ∈ sel ⧺ ?^k).
    target = bulk.target_expression()
    intersecting_levels = []
    for k in range(1, fragment_depth):
        region = definition.select_expression
        for _ in range(k):
            region = region.concat(PathExpression((AnyLabelSegment(),)))
        if not is_empty_intersection(region, target):
            intersecting_levels.append(k)
    if not intersecting_levels:
        return False
    # Guard screen: sound only when every intersecting level is k = 1,
    # where the owner of each modified atom is the member itself; then
    # disjoint guard/condition ⇒ no member's fragment is touched.  At
    # deeper levels the owner is an interior node the view's condition
    # says nothing about: stay conservative.
    if (
        intersecting_levels == [1]
        and bulk.guard is not None
        and bulk.functional_guard
        and isinstance(condition, Comparison)
        and comparisons_disjoint(bulk.guard, condition)
    ):
        return False
    return True


def _possible_labels(expression: PathExpression) -> "set[str] | _AnyLabels":
    """Concrete labels an instance may step through; wildcard segments
    admit every label."""
    labels: set[str] = set()
    for segment in expression.segments:
        if isinstance(segment, LabelSegment):
            labels.update(segment.labels)
        else:
            return _AnyLabels()
    return labels


class _AnyLabels(set):
    """A set that contains every label (wildcard paths)."""

    def __contains__(self, item) -> bool:
        return True
