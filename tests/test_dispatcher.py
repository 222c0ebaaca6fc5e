"""Tests for the shared maintenance dispatcher.

Unit tests pin down the coalescing rules and the screening/caching
counters; hypothesis drives the equivalence property the tentpole must
preserve — for random trees, random update streams, and 2–8 random
views, dispatcher-maintained views ≡ individually maintained views ≡
``recompute_view``, including under batch coalescing.

The equivalence tests run *identical* seeded update streams against
structurally identical stores.  Views live in separate view stores so
maintenance side effects never perturb the base store, which keeps the
two streams byte-for-byte identical by construction.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property.support import (
    Recorder,
    check_matching_against_screens,
    common_settings,
    draw_catalog,
    register_catalog,
    use_per_view_screens,
)

from repro.gsdb import ObjectStore, ParentIndex
from repro.gsdb.updates import Delete, Insert, Modify
from repro.views import (
    ExtendedViewMaintainer,
    MaintenanceDispatcher,
    MaterializedView,
    PathContext,
    SimpleViewMaintainer,
    ViewCatalog,
    ViewDefinition,
    check_consistency,
    coalesce_updates,
    populate_view,
)
from repro.views.recompute import compute_view_members
from repro.warehouse import ReportingLevel, Source, Warehouse
from repro.workloads import UpdateStream, random_labelled_tree

COMMON = common_settings(25)

SIMPLE_QUERIES = (
    "SELECT root0.a X",
    "SELECT root0.b X",
    "SELECT root0.a.b X",
    "SELECT root0.b.c X",
    "SELECT root0.c X WHERE X.a > 40",
    "SELECT root0.a X WHERE X.b > 50",
    "SELECT root0.b X WHERE X.c <= 30",
    "SELECT root0.a.b X WHERE X.a = 77",
)

EXTENDED_QUERIES = (
    "SELECT root0.* X WHERE X.b > 50",
    "SELECT root0.?.? X",
    "SELECT root0.a X WHERE X.b > 20 AND X.c < 80",
)


def _build_views(seed, nodes, simple_indices, extended_indices, *, dispatch):
    """One store + its views, maintained either individually or via a
    dispatcher.  Returns (store, root, views, dispatcher-or-None)."""
    store, root = random_labelled_tree(
        nodes=nodes,
        labels=("a", "b", "c"),
        value_range=(0, 100),
        atomic_fraction=0.5,
        seed=seed,
    )
    index = ParentIndex(store)
    dispatcher = (
        MaintenanceDispatcher(store, parent_index=index, subscribe=True)
        if dispatch
        else None
    )
    views = []
    specs = [(i, SIMPLE_QUERIES[i], SimpleViewMaintainer) for i in simple_indices]
    specs += [
        (len(SIMPLE_QUERIES) + i, EXTENDED_QUERIES[i], ExtendedViewMaintainer)
        for i in extended_indices
    ]
    for ordinal, (_key, query, maintainer_cls) in enumerate(specs):
        definition = ViewDefinition.parse(
            f"define mview V{ordinal} as: {query}"
        )
        view = MaterializedView(definition, store, ObjectStore())
        populate_view(view)
        maintainer = maintainer_cls(view, parent_index=index)
        if dispatcher is None:
            store.subscribe(maintainer.handle)
        else:
            dispatcher.register(maintainer)
        views.append(view)
    return store, root, views, dispatcher


def _stream(store, root, seed, steps):
    return UpdateStream(
        store,
        seed=seed,
        protected=frozenset({root}),
        labels_for_new=("a", "b", "c"),
    ).run(steps)


class TestDispatcherEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(10, 50),
        steps=st.integers(1, 20),
        simple=st.lists(
            st.integers(0, len(SIMPLE_QUERIES) - 1), min_size=2, max_size=8
        ),
    )
    @settings(**COMMON)
    def test_streaming_equals_individual_and_recompute(
        self, seed, nodes, steps, simple
    ):
        store_a, root_a, views_a, _ = _build_views(
            seed, nodes, simple, (), dispatch=False
        )
        store_b, root_b, views_b, _ = _build_views(
            seed, nodes, simple, (), dispatch=True
        )
        _stream(store_a, root_a, seed + 1, steps)
        _stream(store_b, root_b, seed + 1, steps)
        for individual, dispatched in zip(views_a, views_b):
            assert dispatched.members() == individual.members()
            report = check_consistency(dispatched)
            assert report.ok, report.describe()

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(10, 50),
        steps=st.integers(1, 20),
        simple=st.lists(
            st.integers(0, len(SIMPLE_QUERIES) - 1), min_size=2, max_size=6
        ),
        extended=st.lists(
            st.integers(0, len(EXTENDED_QUERIES) - 1), min_size=0, max_size=2
        ),
    )
    @settings(**COMMON)
    def test_batched_equals_individual_and_recompute(
        self, seed, nodes, steps, simple, extended
    ):
        store_a, root_a, views_a, _ = _build_views(
            seed, nodes, simple, extended, dispatch=False
        )
        store_b, root_b, views_b, dispatcher = _build_views(
            seed, nodes, simple, extended, dispatch=True
        )
        _stream(store_a, root_a, seed + 1, steps)
        with dispatcher.batch():
            _stream(store_b, root_b, seed + 1, steps)
        for individual, dispatched in zip(views_a, views_b):
            assert dispatched.members() == individual.members()
            report = check_consistency(dispatched)
            assert report.ok, report.describe()


def _random_catalog(seed, nodes, count, *, chain_cache=True):
    """A random tree with *count* drawn views over several roots —
    simple (shared prefixes, empty select path, condition-less),
    partial, extended, unscreened and context-free maintainers
    interleaved — behind one dispatcher."""
    store, root = random_labelled_tree(
        nodes=nodes,
        labels=("a", "b", "c"),
        value_range=(0, 100),
        atomic_fraction=0.5,
        seed=seed,
    )
    index = ParentIndex(store, chain_cache=chain_cache)
    dispatcher = MaintenanceDispatcher(
        store, parent_index=index, subscribe=True
    )
    rng = random.Random(seed)
    inner = sorted(
        oid for oid in store.oids() if oid != root and store.peek(oid).is_set
    )
    atoms = sorted(oid for oid in store.oids() if not store.peek(oid).is_set)
    # Several roots: the tree root, two inner sets, and an atom (a view
    # of an atomic ROOT is the one a modify of ROOT itself can reach).
    roots = [root] + rng.sample(inner, min(2, len(inner))) + atoms[:1]
    log: list = []
    views = register_catalog(
        dispatcher, store, index, draw_catalog(rng, roots, count), log
    )
    return store, root, dispatcher, views, log


def _drive(store, root, dispatcher, seed, steps, batched):
    if batched:
        with dispatcher.batch():
            _stream(store, root, seed, steps)
    else:
        _stream(store, root, seed, steps)


class TestDefinitionIndex:
    """The dispatcher's index over the view definitions ≡ asking every
    registration's own screen in turn: same matches, same charges."""

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(10, 50),
        steps=st.integers(1, 20),
        count=st.integers(1, 10),
        batched=st.booleans(),
    )
    @settings(**COMMON)
    def test_matches_are_exactly_the_relevant_screens(
        self, seed, nodes, steps, count, batched
    ):
        store, root, dispatcher, views, _ = _random_catalog(seed, nodes, count)
        checked = check_matching_against_screens(dispatcher)
        _drive(store, root, dispatcher, seed + 1, steps, batched)
        assert len(checked) == dispatcher.updates_dispatched
        # Every drawn view, inner-rooted ones included: a batched delete
        # above an inner root must not purge what that root derives.
        for view in views:
            if view is not None:
                assert view.members() == compute_view_members(
                    view.definition, store
                ), view.definition.query

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(10, 50),
        steps=st.integers(1, 20),
        count=st.integers(1, 10),
        batched=st.booleans(),
        chain_cache=st.booleans(),
    )
    @settings(**COMMON)
    def test_charges_equal_the_per_view_loop(
        self, seed, nodes, steps, count, batched, chain_cache
    ):
        runs = []
        for reference in (False, True):
            store, root, dispatcher, views, log = _random_catalog(
                seed, nodes, count, chain_cache=chain_cache
            )
            if reference:
                use_per_view_screens(dispatcher)
            _drive(store, root, dispatcher, seed + 1, steps, batched)
            runs.append(
                (
                    store.counters.as_dict(),
                    dispatcher.updates_dispatched,
                    log,
                    [None if v is None else v.members() for v in views],
                )
            )
        indexed, per_view = runs
        # updates_screened, every base-access field and the chain-memo
        # hits/misses are all in the counter dict.
        assert indexed == per_view


class _Named(SimpleViewMaintainer):
    """A simple maintainer that logs its name before handling."""

    def __init__(self, view, log, **kwargs):
        super().__init__(view, **kwargs)
        self.log = log

    def handle(self, update, context=None):
        self.log.append((self.view.oid, update))
        super().handle(update, context)


class TestIndexLifecycle:
    def test_view_defined_after_updates_flowed_is_matched(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        s.modify_value("A1v", 20)  # the index exists by now
        catalog.define("define mview VC as: SELECT ROOT.b X WHERE X.val > 50")
        assert catalog.materialized_views["VC"].contains("B1")
        s.modify_value("B1v", 7)
        assert not catalog.materialized_views["VC"].contains("B1")
        assert all(r.ok for r in catalog.check_all().values())

    def test_dropped_view_is_no_longer_matched_or_counted(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        (dropped,) = catalog.maintainers["VB"]
        s.modify_value("B1v", 50)
        seen = dropped.updates_processed
        assert seen == 1
        catalog.drop_view("VB")
        snapshot = s.counters.snapshot()
        s.modify_value("B1v", 60)
        assert dropped.updates_processed == seen
        assert catalog.dispatcher.registered() == [*catalog.maintainers["VA"]]
        # One view left, and it is the one screened.
        assert s.counters.delta_since(snapshot).updates_screened == 1

    def test_failed_define_registers_nothing(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        s.modify_value("A1v", 20)
        with pytest.raises(Exception):
            catalog.define("define mview VX as: SELECT NOPE.a X WHERE X.val > 5")
        assert len(catalog.dispatcher.registered()) == 2
        snapshot = s.counters.snapshot()
        s.modify_value("A1v", 30)
        assert s.counters.delta_since(snapshot).updates_screened == 1
        assert all(r.ok for r in catalog.check_all().values())

    def test_unregister_removes_from_the_index(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        s.modify_value("A1v", 20)
        (maintainer,) = catalog.maintainers["VA"]
        seen = maintainer.updates_processed
        catalog.dispatcher.unregister(maintainer)
        s.modify_value("A1v", 30)
        assert maintainer.updates_processed == seen

    def test_modify_of_an_atomic_root_reaches_its_condition_view(self):
        # No path and no label to bucket by: the view of ROOT itself.
        catalog = ViewCatalog()
        catalog.store.add_atomic("T", "t", 10)
        catalog.define("define mview V as: SELECT T X WHERE X > 30")
        catalog.define("define mview W as: SELECT T X")
        view = catalog.materialized_views["V"]
        checked = check_matching_against_screens(catalog.dispatcher)
        assert not view.contains("T")
        catalog.store.modify_value("T", 70)  # not a member yet: N == ROOT
        assert view.contains("T")
        catalog.store.modify_value("T", 5)
        assert not view.contains("T")
        assert len(checked) == 2
        assert all(r.ok for r in catalog.check_all().values())

    def test_dispatch_order_is_registration_order(self):
        store = ObjectStore()
        store.add_tree(
            ("ROOT", "root", [("A1", "a", [("A1v", "val", 10)])])
        )
        index = ParentIndex(store)
        dispatcher = MaintenanceDispatcher(
            store, parent_index=index, subscribe=True
        )
        log: list = []
        # A context-free recorder, a prefix-matched view, an extended
        # view (its verdict flips at 10 -> 70), an unscreened view, a
        # view the update never reaches, a second prefix-matched view, a
        # trailing recorder.
        queries = [
            None,
            "SELECT ROOT.a X WHERE X.val > 5",
            "SELECT ROOT.* X WHERE X.val > 50",
            "SELECT ROOT.b X",
            "SELECT ROOT.b X WHERE X.val > 5",
            "SELECT ROOT.a X WHERE X.val > 50",
            None,
        ]
        for ordinal, query in enumerate(queries):
            if query is None:
                dispatcher.register(Recorder(log, f"V{ordinal}"))
                continue
            view = MaterializedView(
                ViewDefinition.parse(f"define mview V{ordinal} as: {query}"),
                store,
                ObjectStore(),
            )
            populate_view(view)
            if "*" in query:
                dispatcher.register(
                    ExtendedViewMaintainer(view, parent_index=index)
                )
                continue
            dispatcher.register(
                _Named(view, log, parent_index=index), screen=ordinal != 3
            )
        store.modify_value("A1v", 70)
        # V2 (extended) is not logged; V3 is unscreened, V4 screened out.
        assert [name for name, _ in log] == ["V0", "V1", "V3", "V5", "V6"]
        assert store.counters.updates_screened == 1
        # A member's value refresh joins in order too: A1 is in V1 and
        # V5 now, so an edge under it reaches both (V5 only as member
        # — its prefix probe fails on label "w").
        del log[:]
        store.add_atomic("A1w", "w", 1)
        store.insert_edge("A1", "A1w")
        assert [name for name, _ in log] == ["V0", "V1", "V3", "V5", "V6"]

    def test_a_view_is_delivered_an_update_once(self):
        # V holds ROOT itself; deleting ROOT's ``a`` child drops it, so
        # when W's turn resolves ROOT's gate, V no longer holds ROOT and
        # looks gated again.  Its turn has passed: one delivery each,
        # exactly as asking every screen in turn.
        store = ObjectStore()
        store.add_tree(("ROOT", "root", [("A", "a", 47), ("B", "b", 1)]))
        index = ParentIndex(store)
        dispatcher = MaintenanceDispatcher(
            store, parent_index=index, subscribe=True
        )
        log: list = []
        for name, query in (
            ("V", "SELECT ROOT X WHERE X.a < 60"),
            ("W", "SELECT ROOT.a X"),
        ):
            view = MaterializedView(
                ViewDefinition.parse(f"define mview {name} as: {query}"),
                store,
                ObjectStore(),
            )
            populate_view(view)
            dispatcher.register(_Named(view, log, parent_index=index))
        store.delete_edge("ROOT", "A")
        assert [name for name, _ in log] == ["V", "W"]
        assert store.counters.updates_screened == 0


class TestCoalescing:
    def test_insert_then_delete_cancels(self):
        assert coalesce_updates([Insert("p", "c"), Delete("p", "c")]) == []

    def test_delete_then_reinsert_cancels(self):
        assert coalesce_updates([Delete("p", "c"), Insert("p", "c")]) == []

    def test_odd_parity_keeps_last_op(self):
        flips = [Insert("p", "c"), Delete("p", "c"), Insert("p", "c")]
        assert coalesce_updates(flips) == [Insert("p", "c")]

    def test_modify_chain_folds_to_first_old_last_new(self):
        chain = [Modify("x", 1, 2), Modify("x", 2, 3), Modify("x", 3, 7)]
        assert coalesce_updates(chain) == [Modify("x", 1, 7)]

    def test_modify_roundtrip_vanishes(self):
        assert coalesce_updates([Modify("x", 1, 2), Modify("x", 2, 1)]) == []

    def test_distinct_edges_untouched_and_order_preserved(self):
        batch = [Delete("p", "c"), Insert("q", "c"), Modify("x", 1, 2)]
        assert coalesce_updates(batch) == batch

    def test_survivor_sits_at_last_occurrence(self):
        batch = [
            Modify("x", 1, 2),
            Delete("p", "c"),
            Modify("x", 2, 3),
        ]
        # The folded modify lands where its last op was: after the delete.
        assert coalesce_updates(batch) == [
            Delete("p", "c"),
            Modify("x", 1, 3),
        ]

    def test_counter_charged_for_removals(self):
        counters = ObjectStore().counters
        coalesce_updates(
            [Insert("p", "c"), Delete("p", "c"), Modify("x", 1, 2)],
            counters=counters,
        )
        assert counters.updates_coalesced == 2


class TestCoalesceFold:
    """A surviving modify folds into the surviving insert of its object."""

    def test_modify_after_insert_folds_into_insert(self):
        counters = ObjectStore().counters
        result = coalesce_updates(
            [Insert("p", "x"), Modify("x", 1, 2)], counters=counters
        )
        assert result == [Insert("p", "x")]
        assert counters.updates_coalesced == 1

    def test_chain_then_surviving_insert(self):
        counters = ObjectStore().counters
        result = coalesce_updates(
            [Insert("p", "x"), Modify("x", 1, 2), Modify("x", 2, 3)],
            counters=counters,
        )
        assert result == [Insert("p", "x")]
        assert counters.updates_coalesced == 2

    def test_parity_cancelled_insert_keeps_modify(self):
        counters = ObjectStore().counters
        result = coalesce_updates(
            [Insert("p", "x"), Modify("x", 1, 2), Delete("p", "x")],
            counters=counters,
        )
        assert result == [Modify("x", 1, 2)]
        assert counters.updates_coalesced == 2

    def test_modify_of_uninserted_object_survives(self):
        result = coalesce_updates([Insert("p", "x"), Modify("y", 1, 2)])
        assert result == [Insert("p", "x"), Modify("y", 1, 2)]


class TestBatchedCascadingDeletes:
    """Deletes dispatched against the final batch state are
    history-dependent: a later update may mutate the subtree an earlier
    delete detached, so witness-driven discovery under-approximates.
    These pin the purge semantics that keep batches ≡ streaming."""

    def _catalog(self):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            (
                "root0",
                "root",
                [("A", "a", [("B", "b", [("C", "c", 60)])])],
            )
        )
        return catalog

    def test_detach_then_subdelete_purges_deep_member(self):
        catalog = self._catalog()
        catalog.define("define mview V as: SELECT root0.a.b X")
        assert catalog.materialized_views["V"].contains("B")
        # Detach A's subtree, then cut B loose from the detached A: at
        # the final state B is no longer under A, so the first delete's
        # subtree walk cannot find it.
        catalog.apply_batch([Delete("root0", "A"), Delete("A", "B")])
        assert not catalog.materialized_views["V"].contains("B")
        assert catalog.check("V").ok

    def test_detach_then_witness_delete_purges_member_above(self):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            ("root0", "root", [("A", "a", [("B", "b", 60)])])
        )
        catalog.define("define mview V as: SELECT root0.a X WHERE X.b > 5")
        assert catalog.materialized_views["V"].contains("A")
        # A's witness B is gone by the time the outer delete runs, so
        # witness-driven eviction finds nothing; the purge must still
        # remove A (it sits inside the detached subtree).
        catalog.apply_batch([Delete("root0", "A"), Delete("A", "B")])
        assert not catalog.materialized_views["V"].contains("A")
        assert catalog.check("V").ok

    def test_lost_witness_reeval_without_shortcut(self):
        catalog = self._catalog()
        catalog.define(
            "define mview V as: SELECT root0.a X WHERE X.b.c > 5"
        )
        assert catalog.materialized_views["V"].contains("A")
        # The witness C is detached first, then B: at dispatch time
        # eval(B, "c") is empty, so the no-lost-witness shortcut would
        # wrongly skip re-evaluating the surviving ancestor A.
        catalog.apply_batch([Delete("B", "C"), Delete("A", "B")])
        assert not catalog.materialized_views["V"].contains("A")
        assert catalog.check("V").ok

    def test_moved_parent_still_purges(self):
        catalog = self._catalog()
        catalog.store.add_set("D", "d")
        catalog.store.insert_edge("root0", "D")
        catalog.define("define mview V as: SELECT root0.a.b X")
        assert catalog.materialized_views["V"].contains("B")
        # B is cut from A, then A itself moves under D: A's *final*
        # root path (d.a) no longer lines up with the view, so any
        # final-path screen would wrongly drop the first delete.
        catalog.apply_batch(
            [Delete("A", "B"), Delete("root0", "A"), Insert("D", "A")]
        )
        assert not catalog.materialized_views["V"].contains("B")
        assert catalog.check("V").ok

    def test_extended_detach_then_subdelete(self):
        catalog = self._catalog()
        catalog.define("define mview V as: SELECT root0.* X WHERE X.c > 50")
        assert catalog.materialized_views["V"].contains("B")
        catalog.apply_batch([Delete("root0", "A"), Delete("A", "B")])
        assert not catalog.materialized_views["V"].contains("B")
        assert catalog.check("V").ok

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT B.a X",
            "SELECT B.a X WHERE X > 5",
            "SELECT B.? X",
            "SELECT B.* X WHERE X > 5",
        ],
    )
    def test_detach_above_an_inner_root_keeps_what_it_derives(self, query):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            ("root0", "root", [("A", "a", [("B", "b", [("C", "a", 60)])])])
        )
        catalog.define("define mview R as: SELECT root0.a X")
        catalog.define(f"define mview V as: {query}")
        assert catalog.materialized_views["V"].members() == {"C"}
        # The purge walks A's subtree, which holds V's own root B: C is
        # still derived from B and stays; R's A is stranded and goes.
        catalog.apply_batch([Delete("root0", "A")])
        assert catalog.materialized_views["V"].members() == {"C"}
        assert not catalog.materialized_views["R"].contains("A")
        assert all(r.ok for r in catalog.check_all().values())

    def test_inner_root_member_lost_in_the_same_batch_goes(self):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            ("root0", "root", [("A", "a", [("B", "b", [("C", "a", 60)])])])
        )
        catalog.define("define mview V as: SELECT B.a X WHERE X > 5")
        catalog.apply_batch([Delete("root0", "A"), Modify("C", 60, 1)])
        assert not catalog.materialized_views["V"].contains("C")
        assert catalog.check("V").ok


class TestStableChains:
    """A batched delete gets the streamed prefix probe when N1's upward
    chain provably held all batch: known, and no node on it the child
    of an edge update in the batch.  Otherwise only the label gate."""

    def test_parent_relabelling_move_reaches_the_view(self):
        catalog = ViewCatalog()
        store = catalog.store
        store.add_tree(("root", "root", [("A", "a", []), ("A2", "a2", [])]))
        parent = "A"
        chain = (("B", "b"), ("N1", "n1"), ("N2", "n2"), ("I1", "item"))
        for oid, label in chain:
            store.add_set(oid, label)
            store.insert_edge(parent, oid)
            parent = oid
        store.add_atomic("I1p", "price", 60)
        store.insert_edge("I1", "I1p")
        catalog.define(
            "define mview V as: "
            "SELECT root.a.b.n1.n2.item X WHERE X.price > 50"
        )
        assert catalog.materialized_views["V"].contains("I1")
        # B moves under A2: N1's final path is a2.b.n1, which the view's
        # prefix does not continue.  The path N1 had when (N1, N2) was
        # cut is a.b.n1, so the delete must still reach V.
        catalog.apply_batch(
            [Delete("A", "B"), Delete("N1", "N2"), Insert("A2", "B")]
        )
        assert not catalog.materialized_views["V"].contains("I1")
        assert catalog.check("V").ok

    def _dispatcher(self, query):
        """root -> A(a) -> N1(n1) -> N2(item), and *query*'s view
        registered with a dispatcher fed batches by hand."""
        store = ObjectStore()
        store.add_tree(("root", "root", [("A", "a", [("N1", "n1", [])])]))
        store.add_set("N2", "item")
        store.insert_edge("N1", "N2")
        index = ParentIndex(store)
        dispatcher = MaintenanceDispatcher(store, parent_index=index)
        view = MaterializedView(
            ViewDefinition.parse(f"define mview V as: {query}"),
            store,
            ObjectStore(),
        )
        populate_view(view)
        maintainer = dispatcher.register(
            SimpleViewMaintainer(view, parent_index=index)
        )
        checked = check_matching_against_screens(dispatcher)
        return store, index, dispatcher, maintainer, checked

    def _delivered(self, store, dispatcher, maintainer, batch) -> bool:
        snapshot = store.counters.snapshot()
        seen = maintainer.updates_processed
        dispatcher.handle_batch(batch)
        screened = store.counters.delta_since(snapshot).updates_screened
        delivered = maintainer.updates_processed > seen
        assert screened == (0 if delivered else 1)
        return delivered

    def test_stable_chain_takes_the_prefix_probe(self):
        # N1's path is a.n1: item continues b.n1.item by label only.
        store, index, dispatcher, maintainer, checked = self._dispatcher(
            "SELECT root.b.n1.item X"
        )
        store.delete_edge("N1", "N2")
        context = PathContext(store, index, moved=frozenset({"N2"}))
        assert not context.label_only(Delete("N1", "N2"))
        assert not self._delivered(
            store, dispatcher, maintainer, [Delete("N1", "N2")]
        )
        assert len(checked) == 1

    def test_absent_n1_fails_open_to_the_label_gate(self):
        store, index, dispatcher, maintainer, checked = self._dispatcher(
            "SELECT root.b.n1.item X"
        )
        store.delete_edge("N1", "N2")
        store.delete_edge("A", "N1")
        store.remove_object("N1")
        context = PathContext(store, index, moved=frozenset())
        assert context.label_only(Delete("N1", "N2"))
        assert self._delivered(
            store, dispatcher, maintainer, [Delete("N1", "N2")]
        )
        assert len(checked) == 1

    def test_multi_parent_n1_fails_open_to_the_label_gate(self):
        # Rooted at N1 itself, so the maintainer never walks above the
        # multi-parent node: its prefix is item, not z.item.
        store, index, dispatcher, maintainer, checked = self._dispatcher(
            "SELECT N1.z.item X"
        )
        store.add_set("M", "m")
        store.insert_edge("root", "M")
        store.insert_edge("M", "N1")  # N1 now has parents A and M
        store.delete_edge("N1", "N2")
        context = PathContext(store, index, moved=frozenset({"N2"}))
        assert context.label_only(Delete("N1", "N2"))
        assert self._delivered(
            store, dispatcher, maintainer, [Delete("N1", "N2")]
        )
        assert len(checked) == 1

    def test_stable_delete_reaches_only_matching_prefixes(self):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            (
                "root",
                "root",
                [
                    (
                        f"C{k}",
                        f"c{k}",
                        [(f"I{k}", "item", [(f"I{k}p", "price", 60 + k)])],
                    )
                    for k in range(3)
                ],
            )
        )
        for k in range(3):
            catalog.define(
                f"define mview V{k} as: SELECT root.c{k}.item X "
                "WHERE X.price > 50"
            )
        catalog.define("define mview W as: SELECT root.c1.item X")
        checked = check_matching_against_screens(catalog.dispatcher)
        processed = {
            name: m.updates_processed
            for name, (m,) in catalog.maintainers.items()
        }
        snapshot = catalog.store.counters.snapshot()
        catalog.apply_batch([Delete("C1", "I1")])
        delta = catalog.store.counters.delta_since(snapshot)
        reached = {
            name
            for name, (m,) in catalog.maintainers.items()
            if m.updates_processed > processed[name]
        }
        assert reached == {"V1", "W"}
        assert delta.updates_screened == 2
        assert len(checked) == 1
        assert not catalog.materialized_views["V1"].contains("I1")
        assert all(r.ok for r in catalog.check_all().values())


class TestExtendedValueScreen:
    """A modify reaches an extended view only when some comparison's
    verdict flips between the old and the new value, or when the
    modified object is a member (its delegate's value refresh)."""

    def _catalog(self, query):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            (
                "root",
                "root",
                [("P", "p", [("Pa", "a", 10), ("Pb", "b", 7)])],
            )
        )
        catalog.define(f"define mview V as: {query}")
        return catalog, catalog.maintainers["V"][0]

    def _modify(self, catalog, maintainer, oid, new) -> bool:
        """Apply one modify; True when it reached V (and not screened)."""
        store = catalog.store
        snapshot = store.counters.snapshot()
        seen = maintainer.updates_processed
        store.modify_value(oid, new)
        screened = store.counters.delta_since(snapshot).updates_screened
        delivered = maintainer.updates_processed > seen
        assert screened == (0 if delivered else 1)
        assert catalog.check("V").ok
        return delivered

    def test_non_flipping_modify_is_screened(self):
        catalog, m = self._catalog("SELECT root.* X WHERE X.a > 50")
        assert not self._modify(catalog, m, "Pa", 20)

    def test_flipping_modify_is_delivered(self):
        catalog, m = self._catalog("SELECT root.* X WHERE X.a > 50")
        assert self._modify(catalog, m, "Pa", 70)
        assert catalog.materialized_views["V"].contains("P")

    def test_member_refresh_is_delivered(self):
        catalog, m = self._catalog("SELECT root.* X WHERE X > 5")
        view = catalog.materialized_views["V"]
        assert view.contains("Pa")
        assert self._modify(catalog, m, "Pa", 20)  # 10 -> 20: no flip
        assert view.delegate("Pa").value == 20

    def test_one_flipping_comparison_of_two_is_delivered(self):
        catalog, m = self._catalog(
            "SELECT root.* X WHERE X.a > 5 AND X.b < 3"
        )
        assert not self._modify(catalog, m, "Pb", 8)  # neither flips
        assert self._modify(catalog, m, "Pb", 1)  # only X.b < 3 flips
        assert catalog.materialized_views["V"].contains("P")


def _two_branch_catalog():
    catalog = ViewCatalog()
    catalog.store.add_tree(
        (
            "ROOT",
            "root",
            [
                ("A1", "a", [("A1v", "val", 10)]),
                ("B1", "b", [("B1v", "val", 99)]),
            ],
        )
    )
    catalog.define("define mview VA as: SELECT ROOT.a X WHERE X.val > 5")
    catalog.define("define mview VB as: SELECT ROOT.b X WHERE X.val > 5")
    return catalog


class TestScreeningAndCaching:
    def test_incompatible_update_is_screened(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        before = s.counters.updates_screened
        s.add_atomic("A2v", "val", 50)
        s.insert_edge("A1", "A2v")  # on VA's path, off VB's
        assert s.counters.updates_screened > before
        reports = catalog.check_all()
        assert all(r.ok for r in reports.values())

    def test_screened_update_costs_no_base_accesses(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        s.add_set("C1", "c")  # label on no view's path, not a member
        snapshot = s.counters.snapshot()
        s.insert_edge("ROOT", "C1")
        delta = s.counters.delta_since(snapshot)
        # Both views screened; the apply itself writes, never reads base.
        assert delta.updates_screened == 2
        assert delta.object_reads == 0
        assert delta.edge_traversals == 0
        assert delta.object_scans == 0

    def test_chain_cache_hit_on_repeated_maintenance(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        s.modify_value("A1v", 20)  # first: cold chain walk
        before = s.counters.chain_cache_hits
        s.modify_value("A1v", 30)  # second: memoized chain
        assert s.counters.chain_cache_hits > before
        assert all(r.ok for r in catalog.check_all().values())

    def test_chain_cache_invalidated_by_structural_update(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        s.modify_value("A1v", 20)
        s.delete_edge("A1", "A1v")  # structural: cached chains dropped
        s.add_atomic("A4v", "val", 88)
        s.insert_edge("A1", "A4v")
        assert all(r.ok for r in catalog.check_all().values())
        assert catalog.materialized_views["VA"].contains("A1")

    def test_catalog_batch_coalesces(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        s.add_atomic("A2v", "val", 70)
        applied = catalog.apply_batch(
            [
                Insert("A1", "A2v"),
                Delete("A1", "A2v"),
                Modify("A1v", 10, 3),
                Modify("A1v", 3, 80),
            ]
        )
        assert applied == 4
        assert s.counters.updates_coalesced == 3
        assert all(r.ok for r in catalog.check_all().values())

    def test_batch_flushes_even_when_body_raises(self):
        catalog = _two_branch_catalog()
        s = catalog.store
        with pytest.raises(RuntimeError, match="boom"):
            with catalog.dispatcher.batch():
                s.modify_value("A1v", 2)
                raise RuntimeError("boom")
        # The applied update was still dispatched on exit.
        assert all(r.ok for r in catalog.check_all().values())


class TestPathContext:
    def test_paths_computed_once_per_context(self):
        store, root = random_labelled_tree(
            nodes=30, labels=("a", "b", "c"), seed=5
        )
        index = ParentIndex(store, chain_cache=False)
        context = PathContext(store, index)

        def depth(oid):
            steps = 0
            while (oid := index.parent(oid)) is not None:
                steps += 1
            return steps

        leaf = max(store.oids(), key=depth)
        first = context.path_between(root, leaf)
        snapshot = store.counters.snapshot()
        second = context.path_between(root, leaf)
        delta = store.counters.delta_since(snapshot)
        assert second == first
        assert delta.total_base_accesses() == 0

    @staticmethod
    def _wildcard_views_charge(constants, *, context_free=False):
        """Base accesses one price modify charges the views
        ``SELECT root.?.item X WHERE X.price > k``, k in *constants*."""
        catalog = ViewCatalog()
        catalog.store.add_tree(
            ("root", "root", [("C0", "c0", [("I1", "item", [("P1", "price", 5)])])])
        )
        for i, constant in enumerate(constants):
            catalog.define(
                f"define mview W{i} as: "
                f"SELECT root.?.item X WHERE X.price > {constant}"
            )
        if context_free:
            for (maintainer,) in catalog.maintainers.values():
                catalog.dispatcher.unregister(maintainer)
                catalog.store.subscribe(maintainer.handle)
        snapshot = catalog.store.counters.snapshot()
        catalog.store.modify_value("P1", 50)
        charged = catalog.store.counters.delta_since(snapshot)
        assert all(r.ok for r in catalog.check_all().values())
        assert all(
            view.contains("I1") for view in catalog.materialized_views.values()
        )
        return charged.total_base_accesses()

    def test_definition_parts_are_read_once_per_update(self):
        charge = self._wildcard_views_charge
        # Alone, a view charges what it charges without a context ...
        assert charge([10]) == charge([10], context_free=True)
        # ... and each view differing only in its constant adds just the
        # read its own V_insert makes: candidates, chain and the price
        # witness are shared.
        assert charge([10, 20]) == charge([10]) + 1
        assert charge([10, 20, 30]) == charge([10]) + 2
        assert charge([10, 20, 30]) < charge([10, 20, 30], context_free=True)

    def test_views_over_different_roots_share_nothing(self):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            ("root0", "root", [("K", "c", 60), ("A", "a", [("B", "b", [])])])
        )
        catalog.define("define mview R as: SELECT root0.* X WHERE X.c > 50")
        catalog.define("define mview V as: SELECT A.* X WHERE X.c > 50")
        catalog.store.add_atomic("D", "c", 70)
        # One select path, two roots: the candidates on root0's chain to
        # B are not the candidates on A's.
        catalog.store.insert_edge("B", "D")
        assert catalog.materialized_views["R"].members() == {"root0", "B"}
        assert catalog.materialized_views["V"].members() == {"B"}
        assert all(r.ok for r in catalog.check_all().values())

    def test_parts_below_one_object_are_keyed_by_their_path(self):
        catalog = ViewCatalog()
        catalog.store.add_tree(
            (
                "root0",
                "root",
                [("A", "a", [("Bn", "b", 50), ("Bs", "b", [("Cs", "c", 30)])])],
            )
        )
        catalog.define("define mview V1 as: SELECT root0.a X WHERE X.b > 40")
        catalog.define("define mview V2 as: SELECT root0.a X WHERE X.b.c <= 60")
        assert all(
            view.members() == {"A"}
            for view in catalog.materialized_views.values()
        )
        # eval(A, b) and eval(A, b.c) start at one object, yet differ.
        catalog.store.delete_edge("root0", "A")
        assert all(
            not view.members() for view in catalog.materialized_views.values()
        )
        assert all(r.ok for r in catalog.check_all().values())

    def test_label_lookup_is_uncharged(self):
        store = ObjectStore()
        store.add_atomic("x", "a", 1)
        context = PathContext(store)
        snapshot = store.counters.snapshot()
        assert context.label("x") == "a"
        assert context.label("missing") is None
        assert store.counters.delta_since(snapshot).object_reads == 0


class TestWarehouseBatch:
    def test_process_batch_coalesces_and_maintains(self):
        store = ObjectStore()
        store.add_tree(
            (
                "root0",
                "root",
                [
                    ("A1", "a", [("A1b", "b", 60)]),
                    ("A2", "a", [("A2b", "b", 10)]),
                ],
            )
        )
        warehouse = Warehouse()
        warehouse.connect(
            Source("S1", store, "root0"), level=ReportingLevel.WITH_PATHS
        )
        wview = warehouse.define_view(
            "define mview V as: SELECT root0.a X WHERE X.b > 50", "S1"
        )
        assert wview.members() == {"A1"}
        survivors = warehouse.process_batch(
            "S1",
            [
                Delete("A1", "A1b"),
                Insert("A1", "A1b"),
                Modify("A2b", 10, 80),
                Modify("A2b", 80, 90),
            ],
        )
        assert survivors == [Modify("A2b", 10, 90)]
        assert wview.members() == {"A1", "A2"}
