"""Full view (re)computation — the baseline incremental maintenance
is measured against (paper Section 4.4, Example 7).

Recomputation evaluates the defining query from scratch on the current
base state and reconciles the materialized view with the result:
missing delegates are inserted, extraneous ones deleted, and survivors
refreshed (the paper notes "many objects would have to be recreated in
the materialized view each time a base update occurs" — the refresh of
survivors is that recreation cost, which we meter).
"""

from __future__ import annotations

from repro.errors import QueryEvaluationError
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex
from repro.gsdb.store import ObjectStore
from repro.query.evaluator import (
    QueryEvaluator,
    index_applies,
    select_and_filter,
)
from repro.views.definition import ViewDefinition
from repro.views.materialized import MaterializedView


def compute_view_members(
    definition: ViewDefinition,
    base_store: ObjectStore,
    *,
    registry: DatabaseRegistry | None = None,
    label_index: LabelIndex | None = None,
) -> set[str]:
    """Evaluate the defining query, returning the member OID set.

    When the definition has scope clauses (``WITHIN``/``ANS INT``) a
    registry is required to resolve the database names; scope-free
    definitions are evaluated directly against the store, one select
    sweep plus one sweep per WHERE leaf under one charge ledger
    (:func:`~repro.query.evaluator.select_and_filter`).  A
    *label_index* over *base_store* resolves the select and condition
    paths through its adjacency where :func:`index_applies` allows.
    A union of several select queries is the union of its branches'
    members.
    """
    query = definition.query
    if query is None:
        return set().union(*(
            compute_view_members(b, base_store, registry=registry,
                                 label_index=label_index)
            for b in definition.branches
        ))
    if query.within is not None or query.ans_int is not None:
        if registry is None:
            raise QueryEvaluationError(
                f"view {definition.name!r} has scope clauses; "
                "a database registry is required"
            )
        return QueryEvaluator(registry, label_index=label_index).evaluate_oids(
            query
        )
    names = registry.names() if registry is not None else frozenset()
    if label_index is not None and not index_applies(query, names):
        label_index = None
    entry = query.entry
    if entry in names:
        entry = registry.resolve(entry).oid
    if entry not in base_store:
        raise QueryEvaluationError(f"entry object {entry!r} not in store")
    return select_and_filter(base_store, entry, query, label_index=label_index)


def recompute_view(
    view: MaterializedView,
    *,
    registry: DatabaseRegistry | None = None,
    label_index: LabelIndex | None = None,
) -> tuple[int, int]:
    """Recompute *view* from scratch; returns ``(inserted, deleted)``.

    Surviving members are refreshed (their values re-copied), modelling
    the full "recreate the materialized view" cost the paper describes.
    *label_index* is passed to :func:`compute_view_members`.
    """
    view.view_store.counters.view_recomputations += 1
    new_members = compute_view_members(
        view.definition,
        view.base_store,
        registry=registry,
        label_index=label_index,
    )
    old_members = view.members()
    deleted = 0
    for base_oid in sorted(old_members - new_members):
        view.v_delete(base_oid)
        deleted += 1
    inserted = 0
    for base_oid in sorted(new_members - old_members):
        view.v_insert(base_oid)
        inserted += 1
    for base_oid in sorted(new_members & old_members):
        view.refresh(base_oid)
    return inserted, deleted


def populate_view(
    view: MaterializedView,
    *,
    registry: DatabaseRegistry | None = None,
) -> int:
    """Initial population of an empty materialized view.

    Returns the number of delegates created.  (Initial computation is
    not metered as a recomputation — every scheme pays it once.)
    """
    members = compute_view_members(
        view.definition, view.base_store, registry=registry
    )
    view.load_members(members)
    return len(members)
