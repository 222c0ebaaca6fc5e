"""Answering queries over *virtual* views (paper Section 3.3).

The paper discusses two strategies:

1. **Rewrite** the query into an equivalent one over base objects.
   Lacking a query algebra, brute-force rewriting can blow up; for our
   view language the composition is tractable because a view's value is
   itself computed by one query: a follow-on query with the view as its
   entry point composes into a two-stage *pipeline* whose first stage is
   the view's definition.
2. **Materialize on demand** — compute the view's value, then run the
   follow-on query against it, which "could contain a large number of
   objects [when] the query accesses a small number of them".

Both strategies are implemented so the benchmarks can compare them.
The two are observably equivalent; tests assert that.

The other direction is answering a query over the *base* from a
*materialized* view it implies (:func:`view_answers`,
:func:`answer_from_view`), the read MV4PG's query rewriting gets its
speed from.  A query Q may read view V's extent when both have the same
entry and select path, neither has ``WITHIN`` or ``ANS INT``, and every
conjunct of V's condition is implied by a conjunct of Q's
(:func:`~repro.query.conditions.condition_implies`): then Q's answer is
contained in V's, and Q's own condition evaluated on V's members alone
is exactly Q's answer.  The caller must vouch that V's membership is
current -- the view catalog does so only when no batch is open, no
dispatch is running and no failed dispatch left V behind.  Only V's
membership is read, never its delegates, so value-level edits of the
view (swizzling, hidden edges) do not matter.  Consistency oracles never
take this path: they recompute from the base, or they would check a
view against itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex
from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.paths.automaton import ChargeLedger, compile_expression
from repro.query.answer import make_answer
from repro.query.ast import Query
from repro.query.conditions import condition_implies, filter_on_store
from repro.query.evaluator import QueryEvaluator


class Strategy(enum.Enum):
    """How to answer a query whose entry point is a virtual view."""

    REWRITE = "rewrite"
    MATERIALIZE_ON_DEMAND = "materialize_on_demand"


@dataclass(frozen=True)
class Pipeline:
    """The rewritten form: evaluate *view_query*, then continue the
    follow-on traversal from each member of its result."""

    view_query: Query
    follow_on: Query

    def __str__(self) -> str:
        return f"[{self.view_query}] |> [{self.follow_on}]"


def rewrite_over_view(query: Query, view_query: Query) -> Pipeline:
    """Compose *query* (whose entry is a view) with the view definition."""
    return Pipeline(view_query=view_query, follow_on=query)


def answer_over_virtual_view(
    evaluator: QueryEvaluator,
    query: Query,
    view_query: Query,
    *,
    strategy: Strategy = Strategy.REWRITE,
) -> Object:
    """Answer *query* whose entry point names a virtual view.

    Args:
        evaluator: evaluator over the base store.
        query: the follow-on query; its ``entry`` is ignored — the view
            stands in for it.
        view_query: the view's definition query.
        strategy: rewrite (stream members through the follow-on without
            building a view object) or materialize-on-demand (compute
            the full view value first, register it, then query it).
    """
    if strategy is Strategy.MATERIALIZE_ON_DEMAND:
        return _materialize_then_query(evaluator, query, view_query)
    return _rewritten(evaluator, query, view_query)


def _rewritten(
    evaluator: QueryEvaluator, query: Query, view_query: Query
) -> Object:
    members = evaluator.evaluate_oids(view_query)
    store = evaluator.store
    nfa = compile_expression(query.select_path)
    ledger = ChargeLedger()
    results: set[str] = set()
    # The (virtual) view object is the entry point, so the select path's
    # first step consumes the edge from the view object to a member:
    # feed each member's label to the NFA, then continue from the member.
    initial = nfa.initial()
    for member in sorted(members):
        obj = ledger.touch(store, member)
        if obj is None:
            continue
        states = nfa.step(initial, obj.label)
        if states:
            results |= nfa.evaluate_many(
                store, (member,), charged=ledger, from_states=states
            )[member]
    if query.condition is not None:
        results = filter_on_store(
            store, results, query.condition, charged=ledger
        )
    if query.ans_int is not None:
        results &= evaluator.registry.members(query.ans_int)
    return make_answer(sorted(results), store=store)


def _materialize_then_query(
    evaluator: QueryEvaluator, query: Query, view_query: Query
) -> Object:
    registry: DatabaseRegistry = evaluator.registry
    view_answer = evaluator.evaluate(view_query)
    temp_name = f"__odv_{view_answer.oid}"
    registry.register(temp_name, view_answer.oid)
    try:
        effective = Query(
            entry=temp_name,
            select_path=query.select_path,
            variable=query.variable,
            condition=query.condition,
            within=query.within,
            ans_int=query.ans_int,
        )
        return evaluator.evaluate(effective)
    finally:
        registry.unregister(temp_name)


def view_answers(query: Query, view_query: Query) -> bool:
    """May *query* be answered from the extent of a materialized view
    defined by *view_query* (see the module docstring)?"""
    return (
        query.entry == view_query.entry
        and query.select_path == view_query.select_path
        and query.within is None
        and query.ans_int is None
        and view_query.within is None
        and view_query.ans_int is None
        and condition_implies(query.condition, view_query.condition)
    )


def answer_from_view(
    store: ObjectStore,
    query: Query,
    members: set[str],
    *,
    label_index: LabelIndex | None = None,
) -> set[str]:
    """*query*'s answer from the current *members* of a view it
    implies (:func:`view_answers`): its condition, evaluated on those
    members alone by one :func:`~repro.query.conditions.filter_on_store`
    under one charge ledger.  Reading the membership charges one read,
    for the view object."""
    store.counters.object_reads += 1
    if query.condition is None:
        return members
    return filter_on_store(
        store, members, query.condition, label_index=label_index
    )
