"""Property suite: every read-path evaluator ≡ a brute-force reference.

``N.e`` has one evaluator per graph representation:
:meth:`~repro.paths.automaton.PathNFA.evaluate_many` over the store —
scanning out-edges, or probing a
:class:`~repro.gsdb.indexes.LabelIndex`'s children-by-label adjacency —
and :func:`~repro.paths.kernel.evaluate_many_on_snapshot` over a frozen
columnar epoch, with one start or with every object as a start at once.
On random stores with cycles, before and after churn — including
children removed while their parent's edge and the index's adjacency
still name them — each must return what
:func:`tests.property.support.reach` computes straight from the
definitions of paper Section 2, and the indexed evaluation must never
charge more base accesses than the scan.

Query evaluation (select, WHERE, ``WITHIN``, ``ANS INT``) is checked
the same way, with and without the index, against
:func:`tests.property.support.reference_answer`.  The epoch side is
checked across delta refreshes, forced rebuilds and re-created OIDs,
and an old epoch must keep answering for the state it froze.

The store's multi-source sweep from a residual start (``from_states``
after a random consumed label prefix, shared by every start) must equal
the reference started at those segment positions on the scan, indexed
and ``WITHIN`` paths, and a one-start sweep must equal its share of a
many-start one; :func:`~repro.query.conditions.filter_candidates` over
the store must equal the per-candidate reference
(:func:`tests.property.support.reference_holds`) and the epoch under
every connective; and one evaluation must answer as the reference and
keep the charge rule: no more reads than distinct OIDs touched.

A catalog's reads must equal the reference whether a materialized view
they imply answers them or the base does: after every streamed update
and every ``apply_batch``, inside an open dispatcher batch (views not
yet maintained), and after a maintainer raised mid-dispatch (views left
behind until recomputed).
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gsdb.columnar as columnar
from repro.gsdb import DatabaseRegistry, LabelIndex, ObjectStore
from repro.gsdb.columnar import ColumnarSnapshot, EpochView
from repro.gsdb.updates import Delete, Insert, Modify
from repro.instrumentation import Meter
from repro.paths import PathExpression, compile_expression
from repro.paths.kernel import evaluate_many_on_snapshot
from repro.query import QueryEvaluator, ScopedStore, parse_query
from repro.query.ast import Query
from repro.query.conditions import filter_candidates, filter_on_store
from repro.query.evaluator import select_and_filter
from repro.serving.mvcc import _epoch_readers
from repro.views import ViewCatalog
from repro.workloads.generators import random_labelled_tree
from tests.property.support import (
    TouchRecorder,
    build_store,
    common_settings,
    mutate,
    reach,
    reference_answer,
    reference_holds,
)

COMMON = common_settings(25)
EPOCH = common_settings(15)

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

#: Nested connectives for the set-at-a-time filter.
NESTED_CONDITIONS = CONDITIONS[1:] + (
    "EXISTS X.a AND (X.b > 30 OR NOT X.*.c < 50)",
    "NOT (X.? > 30 AND EXISTS X.b.c) OR X < 20",
    "(X.a > 10 OR X.b < 90) AND NOT (EXISTS X.c OR X.*.a = 55)",
)

#: ``WITHIN`` keeps the scan; ``ANS INT`` alone may use the index.
SCOPES = ("", " WITHIN SOME", " ANS INT SOME", " WITHIN ALL ANS INT SOME")

#: Object entries use the index; a database entry keeps the scan.
ENTRIES = ("root0", "node3", "SOME")

#: Path evaluation starts: objects, a database object, and no object.
STARTS = ("root0", "node3", "SOME", "absent")

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


def churn_step(store: ObjectStore, rng: random.Random, tag: int) -> None:
    """One random update, creation or removal; a quarter of the steps
    remove a child outright, leaving its parents' edges (and the label
    index's adjacency) pointing at nothing."""
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


def churn(store: ObjectStore, rng: random.Random, steps: int) -> None:
    for tag in range(steps):
        churn_step(store, rng, tag)


# -- path evaluation ------------------------------------------------------------


def assert_evaluators_agree(store, index, view, text: str) -> None:
    """Scan, indexed and epoch evaluation of *text* equal the reference
    from :data:`STARTS`; the epoch kernel also from every object (and
    an absent one) at once.  *view* must image the store as it is."""
    path = PathExpression.parse(text)
    nfa = compile_expression(path)
    for start in STARTS:
        expected = reach(store, start, path)
        with Meter(store.counters) as scanned:
            scan = nfa.evaluate_many(store, [start])
        assert scan == {start: expected}, (text, start)
        with Meter(store.counters) as probed:
            indexed = nfa.evaluate_many(store, [start], label_index=index)
        assert indexed == {start: expected}, (text, start)
        assert (
            probed.delta.total_base_accesses()
            <= scanned.delta.total_base_accesses()
        ), (text, start)
        one = evaluate_many_on_snapshot(view, nfa, [start])
        assert one == {start: expected}, (text, start)
    everyone = sorted(store.oids()) + ["absent"]
    every = evaluate_many_on_snapshot(view, nfa, everyone)
    assert set(every) == set(everyone)
    for start in everyone:
        assert every[start] == reach(store, start, path), (text, start)


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(5, 40),
    steps=st.integers(0, 12),
    text=st.sampled_from(SELECT_PATHS),
)
@settings(**EPOCH)
def test_every_evaluator_equals_reference(seed, nodes, steps, text):
    # Each step is imaged by a delta refresh of the same snapshot.
    store, index, _ = build(seed, nodes)
    manager = ColumnarSnapshot(store)
    assert_evaluators_agree(store, index, manager.freeze(), text)
    rng = random.Random(seed ^ 0xFACE)
    for tag in range(steps):
        churn_step(store, rng, tag)
        manager.refresh()
        assert manager.is_fresh()
        assert_evaluators_agree(store, index, manager.freeze(), text)


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(8, 30),
    text=st.sampled_from(SELECT_PATHS),
)
@settings(**EPOCH)
def test_tiny_threshold_forces_rebuilds(seed, nodes, text):
    # A threshold so small every delta rebuilds: the rebuild path must
    # be just as equivalent as the patch path.
    store, index, _ = build(seed, nodes)
    with mock.patch.object(columnar, "REBUILD_THRESHOLD", 1e-9):
        manager = ColumnarSnapshot(store)
        manager.refresh()
        churn(store, random.Random(seed ^ 0xF00D), 4)
        view = manager.freeze()
    assert manager.full_rebuilds >= 2
    assert_evaluators_agree(store, index, view, text)


@given(seed=st.integers(0, 10_000), nodes=st.integers(8, 30))
@settings(**EPOCH)
def test_stale_epoch_answers_its_own_state(seed, nodes):
    store, index, _ = build(seed, nodes)
    path = PathExpression.parse("*")
    nfa = compile_expression(path)
    manager = ColumnarSnapshot(store)
    old = manager.freeze()
    frozen_answer = reach(store, "root0", path)
    churn(store, random.Random(seed ^ 0xCAFE), 3)
    store.add_atomic("definitely-new", "a", 1)  # never a no-op
    store.insert_edge("root0", "definitely-new")
    # Readers only ever see frozen epochs, and freezing refreshes
    # first: the new epoch has the updates, the old one keeps its own.
    assert not manager.is_fresh()
    view = manager.freeze()
    assert manager.is_fresh()
    assert_evaluators_agree(store, index, view, "*")
    assert "definitely-new" not in frozen_answer
    assert evaluate_many_on_snapshot(old, nfa, ["root0"]) == {
        "root0": frozen_answer
    }


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(8, 40),
    steps=st.integers(1, 8),
    text=st.sampled_from(SELECT_PATHS),
)
@settings(**EPOCH)
def test_one_refresh_images_recreated_oids(seed, nodes, steps, text):
    # Delta replay refuses a re-created OID and must rebuild in the
    # same refresh: an image taken straight after one refresh (no
    # freeze, which would refresh again) equals the store.
    store, index, _ = build(seed, nodes)
    manager = ColumnarSnapshot(store)
    manager.refresh()
    rng = random.Random(seed ^ 0xD00D)
    for tag in range(steps):
        churn_step(store, rng, tag)
        victims = sorted(
            oid
            for oid in store.oids()
            if oid not in PROTECTED and not store.peek(oid).is_set
        )
        if victims:
            victim = rng.choice(victims)
            label = store.peek(victim).label
            for parent in sorted(store.oids()):
                obj = store.peek(parent)
                if obj.is_set and victim in obj.children():
                    store.delete_edge(parent, victim)
            store.remove_object(victim)
            store.add_atomic(victim, label, rng.randint(0, 100))
            store.insert_edge("root0", victim)
        manager.refresh()
        assert manager.is_fresh()
        view = EpochView(manager, store.counters)
        assert_evaluators_agree(store, index, view, text)


# -- query evaluation -----------------------------------------------------------


def assert_queries_agree(store, index, registry, query: Query) -> None:
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
    assert_queries_agree(store, index, registry, query)
    churn(store, random.Random(seed ^ 0xC0DE), steps)
    assert_queries_agree(store, index, registry, query)


# -- set-at-a-time evaluation over the store -------------------------------------


def scoped(store, registry, entry: str) -> ScopedStore:
    """The store as ``WITHIN SOME`` sees it from *entry*."""
    return ScopedStore(
        store,
        frozenset(registry.members("SOME")),
        admit=(entry, registry.resolve("SOME").oid),
    )


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(5, 40),
    steps=st.integers(0, 12),
    text=st.sampled_from(SELECT_PATHS),
    prefix=st.lists(st.sampled_from(("a", "b", "c")), max_size=3),
)
@settings(**COMMON)
def test_residual_sweep_equals_reference(seed, nodes, steps, text, prefix):
    # The maintainers' residual walk: the NFA has consumed *prefix*
    # (possibly dying on it), and every start continues from there.
    store, index, registry = build(seed, nodes)
    churn(store, random.Random(seed ^ 0x5EEB), steps)
    path = PathExpression.parse(text)
    nfa = compile_expression(path)
    states = nfa.residual(prefix)
    starts = sorted(store.oids()) + ["absent"]
    for target, label_index in (
        (store, None),
        (store, index),
        (scoped(store, registry, "root0"), None),
    ):
        many = nfa.evaluate_many(
            target, starts, label_index=label_index, from_states=states
        )
        assert set(many) == set(starts)
        for start in starts:
            expected = reach(target, start, path, positions=states)
            assert many[start] == expected, (text, prefix, start, label_index)
        one = random.Random(seed).choice(starts)
        assert nfa.evaluate_many(
            target, [one], label_index=label_index, from_states=states
        ) == {one: many[one]}


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(5, 40),
    steps=st.integers(0, 12),
    condition=st.sampled_from(NESTED_CONDITIONS),
)
@settings(**COMMON)
def test_filter_candidates_store_equals_reference_equals_epoch(
    seed, nodes, steps, condition
):
    store, index, _ = build(seed, nodes)
    churn(store, random.Random(seed ^ 0xF117), steps)
    where = parse_query(f"SELECT root0 X WHERE {condition}").condition
    candidates = set(store.oids()) | {"absent"}
    expected = {
        oid for oid in candidates if reference_holds(store, where, oid)
    }
    assert filter_on_store(store, candidates, where) == expected, condition
    assert (
        filter_on_store(store, candidates, where, label_index=index) == expected
    ), condition
    view = ColumnarSnapshot(store).freeze()
    epoch = filter_candidates(candidates, where, *_epoch_readers(view))
    assert epoch == expected, condition


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(5, 40),
    steps=st.integers(0, 12),
    select=st.sampled_from(SELECT_PATHS),
    condition=st.sampled_from((None,) + NESTED_CONDITIONS),
    entry=st.sampled_from(("root0", "node3")),
    mode=st.sampled_from(("scan", "indexed", "within")),
)
@settings(**COMMON)
def test_one_evaluation_charges_each_object_once(
    seed, nodes, steps, select, condition, entry, mode
):
    store, index, registry = build(seed, nodes)
    churn(store, random.Random(seed ^ 0xC4A6), steps)
    text = f"SELECT {entry}.{select} X"
    if condition is not None:
        text += f" WHERE {condition}"
    query = parse_query(text)
    label_index = index if mode == "indexed" else None
    if mode == "within":
        target = scoped(store, registry, entry)
        expected = reference_answer(
            store, registry, parse_query(text + " WITHIN SOME")
        )
    else:
        target = store
        expected = reference_answer(store, registry, query)

    recorder = TouchRecorder(target)
    with Meter(store.counters) as swept:
        answer = select_and_filter(recorder, entry, query, label_index=label_index)
    assert answer == expected, (text, mode)
    assert swept.delta.object_reads <= len(recorder.touched), (text, mode)


# -- reads answered from the materialized views they imply -----------------------

#: View definitions over ``root0``: ``{t}``/``{u}`` are drawn thresholds.
#: On a tree base, constant paths get Algorithm 1, wildcards and
#: conjunctions the extended maintainer, the disjunction
#: recompute-on-update.
VIEW_TEMPLATES = (
    "SELECT root0.a X WHERE X.b > {t}",
    "SELECT root0.a X WHERE X.b <= {t}",
    "SELECT root0.a X",
    "SELECT root0.a.b X WHERE X.c >= {t}",
    "SELECT root0.* X WHERE X.c > {t}",
    "SELECT root0.?.b X WHERE X > {t}",
    "SELECT root0.* X WHERE X.a > {t} AND X.b < {u}",
    "SELECT root0.a X WHERE X.b > {t} OR X.c < {u}",
)

#: Conjuncts a query may add to its view's condition.
EXTRA_CONJUNCTS = (
    "X.c < 50",
    "EXISTS X.a",
    "NOT X.b > 70",
    "X.a > 20 OR X.c < 30",
)


def draw_view_queries(rng: random.Random, template: str, t: int, u: int):
    """Queries with *template*'s entry and select path: its condition
    with thresholds moved either way (so implied or not), maybe one
    conjunct more, or no condition at all."""
    head, _, where = template.partition(" WHERE ")
    queries = [head]
    for _ in range(3):
        moved = where.format(t=t + rng.randint(-15, 15), u=u + rng.randint(-15, 15))
        condition = " AND ".join(
            part for part in (moved, rng.choice(("",) + EXTRA_CONJUNCTS)) if part
        )
        if condition:
            queries.append(f"{head} WHERE {condition}")
    return [parse_query(text) for text in queries]


def draw_batch(
    store: ObjectStore, rng: random.Random, size: int, *, tree: bool, tag: int
) -> list:
    """*size* updates valid in sequence from the store's current state.
    With *tree*, the base stays a forest: inserts attach objects created
    here (objects are created without updates), never existing ones."""
    oids = sorted(store.oids())
    sets = [oid for oid in oids if store.peek(oid).is_set]
    edges = {oid: set(store.peek(oid).children()) for oid in sets}
    values = {oid: store.peek(oid).value for oid in oids if oid not in edges}
    batch = []
    for ordinal in range(size):
        kind = rng.randrange(3)
        parent = rng.choice(sets)
        if kind == 0:
            if tree:
                child = f"fresh{tag}_{ordinal}"
                label = rng.choice(("a", "b", "c"))
                if rng.random() < 0.5:
                    store.add_atomic(child, label, rng.randint(0, 100))
                else:
                    store.add_set(child, label, [])
            else:
                child = rng.choice(oids)
            if child not in edges[parent]:
                edges[parent].add(child)
                batch.append(Insert(parent, child))
        elif kind == 1 and edges[parent]:
            child = rng.choice(sorted(edges[parent]))
            edges[parent].discard(child)
            batch.append(Delete(parent, child))
        elif values:
            atom = rng.choice(sorted(values))
            new = rng.randint(0, 100)
            if new != values[atom]:
                batch.append(Modify(atom, values[atom], new))
                values[atom] = new
    return batch


class Raising:
    """A maintainer that raises on every *every*-th update it is handed."""

    def __init__(self, every: int) -> None:
        self.every = every
        self.handed = 0

    def handle(self, update) -> None:
        self.handed += 1
        if self.handed % self.every == 0:
            raise RuntimeError("injected maintenance failure")

    def handle_all(self, updates) -> None:
        for update in updates:
            self.handle(update)


def assert_reads_agree(catalog: ViewCatalog, queries, when: str) -> None:
    for query in queries:
        expected = reference_answer(catalog.store, catalog.registry, query)
        assert catalog.query_oids(query) == expected, (when, str(query))


@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(8, 30),
    steps=st.integers(1, 12),
    tree=st.booleans(),
    with_label_index=st.booleans(),
    raise_every=st.integers(2, 6),
)
@settings(**COMMON)
def test_view_answered_reads_equal_reference(
    seed, nodes, steps, tree, with_label_index, raise_every
):
    # Algorithm 1 and the extended maintainer need a tree base; over
    # build_store's cycles every view is recomputed on each update.
    if tree:
        store, _ = random_labelled_tree(
            nodes=nodes, labels=("a", "b", "c"), atomic_fraction=0.4, seed=seed
        )
    else:
        store, _ = build_store(seed, nodes)
    catalog = ViewCatalog(store, with_label_index=with_label_index)
    rng = random.Random(seed ^ 0x71E3)
    queries = []
    templates = rng.sample(VIEW_TEMPLATES, 4)
    # The failing maintainer sits among the views, so some see the
    # update it raises on and some do not.
    position = rng.randrange(len(templates) + 1)
    for ordinal, template in enumerate(templates):
        if ordinal == position:
            catalog.dispatcher.register(Raising(raise_every))
        t, u = rng.randint(0, 100), rng.randint(0, 100)
        catalog.define(
            f"define mview V{ordinal} as: {template.format(t=t, u=u)}",
            maintainer="auto" if tree else "recompute",
            view_store=ObjectStore(),  # the updates below never touch it
        )
        queries += draw_view_queries(rng, template, t, u)
    if position == len(templates):
        catalog.dispatcher.register(Raising(raise_every))
    assert_reads_agree(catalog, queries, "defined")
    for tag in range(steps):
        when = rng.choice(("streamed", "apply_batch", "batch"))
        try:
            if when == "streamed" and not tree:
                mutate(store, rng, tag)
            elif when == "streamed":
                store.apply_all(draw_batch(store, rng, 1, tree=True, tag=tag))
            else:
                batch = draw_batch(
                    store, rng, rng.randint(1, 8), tree=tree, tag=tag
                )
                if when == "apply_batch":
                    catalog.apply_batch(batch)
                else:
                    with catalog.dispatcher.batch():
                        store.apply_all(batch)
                        assert_reads_agree(catalog, queries, "batch open")
        except RuntimeError:
            when = "raised"
        assert_reads_agree(catalog, queries, when)
        if catalog.dispatcher.behind and rng.random() < 0.5:
            catalog.recompute(rng.choice(sorted(catalog.materialized_views)))
            assert_reads_agree(catalog, queries, "recomputed")
