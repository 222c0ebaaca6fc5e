"""Property suite: the indexed read path ≡ the scanning one ≡ brute force.

A :class:`~repro.query.evaluator.QueryEvaluator` given a
:class:`~repro.gsdb.indexes.LabelIndex` resolves select and condition
paths through the index's children-by-label adjacency; without one it
scans out-edges.  On random stores with cycles, before and after churn
— including children removed while their parent's edge and the index's
adjacency still name them — both must return what a brute-force
reference computes straight from the definitions of paper Section 2,
and the indexed evaluator must never charge more base accesses.

Separately, :meth:`~repro.paths.automaton.PathNFA.evaluate_frontier`
without an index must charge *exactly* what
:meth:`~repro.paths.automaton.PathNFA.evaluate` charges: the frontier's
expansion order is free, so neither the answer nor a single counter may
depend on it.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb import DatabaseRegistry, LabelIndex, ObjectStore
from repro.instrumentation import Meter
from repro.paths import PathExpression, compile_expression
from repro.paths.expression import AnyPathSegment
from repro.query import QueryEvaluator, parse_query
from repro.query.ast import And, Comparison, Exists, Not, Or, Query
from tests.property.support import build_store, common_settings, mutate

COMMON = common_settings(25)

SELECT_PATHS = ("a", "a.b", "*", "a.*", "?.b", "*.c", "a|b.?", "a.*.c", "?")

#: WHERE clauses: none, the empty (``self``) condition path, constant
#: and wildcard comparison paths, and every connective.
CONDITIONS = (
    None,
    "X > 40",
    "X.c > 50",
    "X.*.b <= 40",
    "X.?.a >= 30",
    "EXISTS X.b",
    "NOT X.a < 50",
    "X.a < 20 OR X.b.c > 60",
    "X.b > 10 AND NOT EXISTS X.*.c",
)

#: ``WITHIN`` keeps the scan; ``ANS INT`` alone may use the index.
SCOPES = ("", " WITHIN SOME", " ANS INT SOME", " WITHIN ALL ANS INT SOME")

#: Object entries use the index; a database entry keeps the scan.
ENTRIES = ("root0", "node3", "SOME")

PROTECTED = frozenset({"root0", "node3", "SOME", "ALL"})


def build(seed: int, nodes: int):
    """A random cyclic store, its label index (built first, so every
    later change reaches it incrementally) and databases SOME / ALL."""
    store, _ = build_store(seed, nodes)
    index = LabelIndex(store)
    registry = DatabaseRegistry(store)
    rng = random.Random(seed ^ 0x5EED)
    oids = sorted(store.oids())
    registry.create_database("SOME", rng.sample(oids, len(oids) // 2))
    registry.create_database("ALL", oids)
    return store, index, registry


def churn(store: ObjectStore, rng: random.Random, steps: int) -> None:
    """Random updates, creations and removals; a quarter of the steps
    remove a child outright, leaving its parents' edges (and the label
    index's adjacency) pointing at nothing."""
    for tag in range(steps):
        if rng.random() < 0.25:
            stranded = [
                child
                for oid in sorted(store.oids())
                if store.peek(oid).is_set
                for child in sorted(store.peek(oid).children())
                if child in store and child not in PROTECTED
            ]
            if stranded:
                store.remove_object(rng.choice(stranded))
        else:
            mutate(store, rng, tag, protected=PROTECTED)


# -- the brute-force reference ------------------------------------------------


def reference_answer(store: ObjectStore, registry, query: Query) -> set[str]:
    """``entry.sel_path_exp`` filtered by ``cond``, scoped by ``WITHIN``
    and ``ANS INT``, from the definitions alone: a search over
    (object, segment position) pairs, reading the store uncharged."""
    entry = query.entry
    if entry in registry.names():
        entry = registry.resolve(entry).oid
    visible = None
    if query.within is not None:
        visible = registry.members(query.within) | {
            entry,
            registry.resolve(query.within).oid,
        }

    def exists(oid: str) -> bool:
        return oid in store and (visible is None or oid in visible)

    def reach(start: str, path: PathExpression) -> set[str]:
        segments = path.segments
        todo = [(start, 0)]
        seen = set(todo)
        found = set()
        while todo:
            oid, position = todo.pop()
            if position == len(segments):
                found.add(oid)
                continue
            segment = segments[position]
            star = isinstance(segment, AnyPathSegment)
            moves = [(oid, position + 1)] if star else []
            obj = store.peek(oid) if exists(oid) else None
            if obj is not None and obj.is_set:
                for child in obj.children():
                    if not exists(child):
                        continue
                    if star:
                        moves.append((child, position))
                    elif segment.matches(store.peek(child).label):
                        moves.append((child, position + 1))
            for move in moves:
                if move not in seen:
                    seen.add(move)
                    todo.append(move)
        return found

    def holds(condition, oid: str) -> bool:
        if isinstance(condition, Comparison):
            return any(
                condition.test_value(store.peek(hit).atomic_value())
                for hit in reach(oid, condition.path)
                if exists(hit) and store.peek(hit).is_atomic
            )
        if isinstance(condition, Exists):
            return bool(reach(oid, condition.path))
        if isinstance(condition, Not):
            return not holds(condition.operand, oid)
        if isinstance(condition, And):
            return all(holds(part, oid) for part in condition.operands)
        assert isinstance(condition, Or)
        return any(holds(part, oid) for part in condition.operands)

    answer = {
        oid
        for oid in reach(entry, query.select_path)
        if query.condition is None or holds(query.condition, oid)
    }
    if query.ans_int is not None:
        answer &= registry.members(query.ans_int)
    return answer


# -- properties ---------------------------------------------------------------


def assert_read_paths_agree(store, index, registry, query: Query) -> None:
    scan = QueryEvaluator(registry)
    indexed = QueryEvaluator(registry, label_index=index)
    with Meter(store.counters) as scanned:
        scan_answer = scan.evaluate_oids(query)
    with Meter(store.counters) as probed:
        indexed_answer = indexed.evaluate_oids(query)
    expected = reference_answer(store, registry, query)
    assert scan_answer == expected, query
    assert indexed_answer == expected, query
    charged = probed.delta.total_base_accesses()
    assert charged <= scanned.delta.total_base_accesses(), query
    if query.within is not None or query.entry in registry.names():
        # The index does not apply: the very same scan runs.
        assert probed.delta.as_dict() == scanned.delta.as_dict(), query


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(5, 40),
    steps=st.integers(0, 12),
    select=st.sampled_from(SELECT_PATHS),
    condition=st.sampled_from(CONDITIONS),
    scope=st.sampled_from(SCOPES),
    entry=st.sampled_from(ENTRIES),
)
@settings(**COMMON)
def test_indexed_equals_scan_equals_reference(
    seed, nodes, steps, select, condition, scope, entry
):
    store, index, registry = build(seed, nodes)
    text = f"SELECT {entry}.{select} X"
    if condition is not None:
        text += f" WHERE {condition}"
    query = parse_query(text + scope)
    assert_read_paths_agree(store, index, registry, query)
    churn(store, random.Random(seed ^ 0xC0DE), steps)
    assert_read_paths_agree(store, index, registry, query)


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(5, 40),
    steps=st.integers(0, 12),
    text=st.sampled_from(SELECT_PATHS),
)
@settings(**COMMON)
def test_unindexed_frontier_charges_exactly_evaluate(seed, nodes, steps, text):
    store, index, _ = build(seed, nodes)
    churn(store, random.Random(seed ^ 0xFACE), steps)
    nfa = compile_expression(PathExpression.parse(text))
    for start in ("root0", "node3", "SOME", "absent"):
        with Meter(store.counters) as scanned:
            expected = nfa.evaluate(store, start)
        with Meter(store.counters) as frontier:
            got = nfa.evaluate_frontier(store, start)
        assert got == expected, (text, start)
        assert frontier.delta.as_dict() == scanned.delta.as_dict(), (text, start)
        with Meter(store.counters) as probed:
            indexed = nfa.evaluate_frontier(store, start, label_index=index)
        assert indexed == expected, (text, start)
        assert (
            probed.delta.total_base_accesses()
            <= scanned.delta.total_base_accesses()
        ), (text, start)
