"""Query evaluation with ``WITHIN`` and ``ANS INT`` scoping.

Evaluation follows paper Section 2:

1. Resolve the entry point (an OID, or a registered database/view name).
2. Compute the candidate set ``entry.sel_path_exp``.
3. If a WHERE clause is present, keep candidates ``X`` for which
   ``cond(X.cond_path_exp)`` holds.
4. Apply ``ANS INT DB2`` by intersecting with ``value(DB2)``.
5. Wrap the result in an answer object.

``WITHIN DB1`` makes every OID outside ``DB1`` "completely ignored by
the query": we evaluate against a :class:`ScopedStore` that pretends
out-of-scope objects do not exist, so they are invisible both as
intermediate path nodes and in conditions (the paper's example: with
``WITHIN D1`` and ``A1`` stored elsewhere, ``X.age > 40`` fails).

Steps 2 and 3 are set-at-a-time (:func:`select_and_filter`): one
:meth:`~repro.paths.automaton.PathNFA.evaluate_many` sweep for the
select path, then one sweep per WHERE leaf from every candidate at
once (:func:`~repro.query.conditions.filter_on_store`), all charged
against one :class:`~repro.paths.automaton.ChargeLedger` — each object
is read, and each parent expanded, at most once per query.

Given a :class:`~repro.gsdb.indexes.LabelIndex` (the view catalog
passes the one it builds with ``with_label_index=True``), an unscoped
query resolves its select path and every condition path through the
index's children-by-label adjacency: an expanded object costs one
index probe, and only out-edges whose label the path can consume are
followed — the base accesses the paper's indexes exist to avoid
(Section 4.4).  A ``WITHIN`` query keeps
the scan: the index sees the whole store, so it would reach children
the :class:`ScopedStore` must hide, and skip the probe reads an
out-of-scope child charges.  So does a query entered at a registered
database or view, or at an object in one's namespace (a delegate
``MV.P1``): view maintenance rewires view objects and delegates without
store updates, so the index, fed by those updates, never sees their
edges (:func:`index_applies`).  Without an index every query scans;
answers are the same either way.

This evaluator always reads the base.  The view catalog may answer a
query from a materialized view it implies instead
(:func:`~repro.query.rewrite.view_answers`: same entry and select path,
no scope clauses, the view's condition implied by the query's), and only
while the view is current: no batch open, no dispatch running, no
failed dispatch left it behind.  Recomputation and the consistency
oracles call this evaluator directly, never the catalog's read path:
they must derive a view from the base, not from itself.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from repro.errors import QueryEvaluationError
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex
from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.paths.automaton import ChargeLedger, compile_expression
from repro.query.answer import make_answer
from repro.query.ast import Query
from repro.query.conditions import filter_on_store
from repro.query.parser import parse_query


class ScopedStore:
    """A read-only view of a store restricted to a set of OIDs.

    Implements the subset of the :class:`ObjectStore` read interface the
    traversal and condition machinery uses (``get_optional``, ``get``,
    ``peek``, ``counters``, ``__contains__``), returning None/absent for
    objects outside the scope.  The uncharged ``peek`` lets a sweep
    charge by the ledger's rule, where an out-of-scope probe still
    costs its one read.  The entry point of the running query is always
    admitted, since the user evidently holds its OID already.
    """

    def __init__(
        self,
        store: ObjectStore,
        scope: frozenset[str],
        *,
        admit: Iterable[str] = (),
    ) -> None:
        self._store = store
        self._scope = scope | frozenset(admit)
        self.counters = store.counters

    def get_optional(self, oid: str) -> Object | None:
        if oid not in self._scope:
            self.counters.object_reads += 1  # the probe still happened
            return None
        return self._store.get_optional(oid)

    def peek(self, oid: str) -> Object | None:
        return self._store.peek(oid) if oid in self._scope else None

    def get(self, oid: str) -> Object:
        obj = self.get_optional(oid)
        if obj is None:
            from repro.errors import UnknownObjectError

            raise UnknownObjectError(oid)
        return obj

    def __contains__(self, oid: str) -> bool:
        return oid in self._scope and oid in self._store


def select_and_filter(
    store: ObjectStore | ScopedStore,
    entry_oid: str,
    query: Query,
    *,
    label_index: LabelIndex | None = None,
) -> set[str]:
    """Steps 2–3: ``entry.sel_path_exp`` filtered by the WHERE clause,
    one select sweep plus one sweep per WHERE leaf under one charge
    ledger (see the module docstring)."""
    ledger = ChargeLedger()
    candidates = compile_expression(query.select_path).evaluate_many(
        store, [entry_oid], label_index=label_index, charged=ledger
    )[entry_oid]
    if query.condition is None:
        return candidates
    return filter_on_store(
        store,
        candidates,
        query.condition,
        label_index=label_index,
        charged=ledger,
    )


def index_applies(query: Query, names: AbstractSet[str]) -> bool:
    """May *query* resolve its paths through a label index?

    Not under ``WITHIN`` (see the module docstring), and not when the
    entry is one of the registered *names* or dotted below one: the
    registry does not tell views from databases, and view objects and
    their delegates change without the store updates the index follows.
    """
    return query.within is None and not under_names(query.entry, names)


def under_names(entry: str, names: AbstractSet[str]) -> bool:
    """Is *entry* one of *names*, or dotted below one (``MV.P1``)?"""
    return entry in names or any(
        entry[:i] in names for i, char in enumerate(entry) if char == "."
    )


class QueryEvaluator:
    """Evaluates parsed queries against a store + database registry.

    *label_index*, when given, must be built over ``registry.store``;
    queries :func:`index_applies` admits then resolve their select and
    condition paths through it.
    """

    def __init__(
        self,
        registry: DatabaseRegistry,
        *,
        label_index: LabelIndex | None = None,
    ) -> None:
        self.registry = registry
        self.store = registry.store
        self.label_index = label_index

    # -- public API ----------------------------------------------------------

    def evaluate(self, query: Query | str) -> Object:
        """Evaluate and return the answer object (registered in store)."""
        oids = self.evaluate_oids(query)
        return make_answer(sorted(oids), store=self.store)

    def evaluate_oids(self, query: Query | str) -> set[str]:
        """Evaluate and return the raw answer OID set."""
        if isinstance(query, str):
            query = parse_query(query)
        return self.evaluate_from(query, self._resolve_entry(query.entry))

    def evaluate_from(self, query: Query, entry_oid: str) -> set[str]:
        """Steps 2–4 from the resolved *entry_oid*: select, filter by the
        WHERE clause, intersect with ``ANS INT``."""
        store = self._scoped_store(query)
        index = self.label_index
        if index is not None and not index_applies(
            query, self.registry.names()
        ):
            index = None
        candidates = select_and_filter(
            store, entry_oid, query, label_index=index
        )
        if query.ans_int is not None:
            candidates &= self.registry.members(query.ans_int)
        return candidates

    # -- helpers ----------------------------------------------------------------

    def _resolve_entry(self, entry: str) -> str:
        """An entry is a database/view name or a bare OID."""
        if entry in self.registry.names():
            return self.registry.resolve(entry).oid
        if entry in self.store:
            return entry
        raise QueryEvaluationError(
            f"entry point {entry!r} is neither a database nor an OID"
        )

    def _scoped_store(self, query: Query) -> ObjectStore | ScopedStore:
        if query.within is None:
            return self.store
        scope = frozenset(self.registry.members(query.within))
        entry_oid = self._resolve_entry(query.entry)
        # The scope database object itself is admitted so that a query
        # can use the scoped database as its own entry point.
        scope_object = self.registry.resolve(query.within).oid
        return ScopedStore(
            self.store, scope, admit=(entry_oid, scope_object)
        )
