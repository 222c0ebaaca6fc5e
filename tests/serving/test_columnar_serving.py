"""Columnar kernel on the serving read path: equivalence + fallbacks.

The server may answer a cold miss from the columnar snapshot only when
the snapshot is provably fresh; otherwise it must fall back to the
interpreted evaluators (and say so via ``kernel_fallbacks``).  Scoped
(``WITHIN``) queries never use the kernel — their charging contract
goes through :class:`ScopedStore` and must stay untouched.
"""

from repro.gsdb import ObjectStore
from repro.gsdb.columnar import enable_columnar
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.query.evaluator import QueryEvaluator
from repro.serving import QueryServer

QUERIES = (
    "SELECT R.emp X",
    "SELECT R.emp.name X",
    "SELECT R.* X WHERE X.age > 20",
    "SELECT R.?.name X",
)


def build_env(*, with_parent_index: bool = True):
    store = ObjectStore()
    store.add_atomic("A1", "name", "ann")
    store.add_atomic("A2", "age", 30)
    store.add_set("A", "emp", ["A1", "A2"])
    store.add_atomic("B1", "name", "bob")
    store.add_set("B", "emp", ["B1"])
    store.add_set("R", "root", ["A", "B"])
    registry = DatabaseRegistry(store)
    server = QueryServer(
        registry,
        parent_index=ParentIndex(store) if with_parent_index else None,
        label_index=LabelIndex(store),
        cache_size=8,
    )
    return store, registry, server


class TestKernelServing:
    def test_cold_miss_answers_match_interpreted(self):
        store, registry, server = build_env()
        enable_columnar(store)
        fresh = QueryEvaluator(registry)
        for text in QUERIES:
            assert server.evaluate_oids(text) == fresh.evaluate_oids(text)
        assert store.counters.kernel_fallbacks == 0
        assert store.counters.snapshot_rows_scanned > 0

    def test_answers_track_updates_with_zero_stale_reads(self):
        store, _, server = build_env()
        enable_columnar(store)
        text = "SELECT R.emp.name X"
        assert server.evaluate_oids(text) == {"A1", "B1"}
        store.delete_edge("R", "B")
        # Invalidation evicts, the next miss re-evaluates on the
        # delta-refreshed snapshot: never the pre-update extent.
        assert server.evaluate_oids(text) == {"A1"}
        store.insert_edge("R", "B")
        assert server.evaluate_oids(text) == {"A1", "B1"}
        assert store.counters.kernel_fallbacks == 0

    def test_stale_snapshot_charges_fallback(self):
        store, registry, server = build_env()
        manager = enable_columnar(store, auto_refresh=False)
        manager.refresh()
        store.insert_edge("A", "B1")
        fresh = QueryEvaluator(registry)
        text = "SELECT R.emp.name X"
        assert server.evaluate_oids(text) == fresh.evaluate_oids(text)
        assert store.counters.kernel_fallbacks >= 1

    def test_disabled_snapshot_charges_fallback(self):
        store, _, server = build_env()
        manager = enable_columnar(store)
        manager.disable()
        assert server.evaluate_oids("SELECT R.emp X") == {"A", "B"}
        assert store.counters.kernel_fallbacks == 1

    def test_no_manager_means_no_fallback_charge(self):
        store, _, server = build_env()
        server.evaluate_oids("SELECT R.emp X")
        assert store.counters.kernel_fallbacks == 0
        assert store.counters.snapshot_rows_scanned == 0

    def test_scoped_queries_stay_interpreted(self):
        store, registry, server = build_env()
        registry.create_database("D1", ["A"])
        server.parent_index.ignore_parent("D1")
        enable_columnar(store)
        before = store.counters.snapshot_rows_scanned
        assert server.evaluate_oids("SELECT R.emp X WITHIN D1") == {"A"}
        # Scope charging (ScopedStore) handled it; the kernel did not
        # run and — by design — no fallback was charged either.
        assert store.counters.snapshot_rows_scanned == before
        assert store.counters.kernel_fallbacks == 0

    def test_cache_hits_skip_the_kernel(self):
        store, _, server = build_env()
        enable_columnar(store)
        text = "SELECT R.emp X"
        server.evaluate_oids(text)
        scanned = store.counters.snapshot_rows_scanned
        server.evaluate_oids(text)
        assert store.counters.snapshot_rows_scanned == scanned
        assert server.stats()["hits"] == 1


class TestFailOpenRefinement:
    """A fresh columnar snapshot turns the invalidator's fail-opens (no
    parent index; an upward chain that stops at a multi-parent node)
    into exact downward-reachability tests: same evictions where the
    anchor really sits under the entry, retained entries where it does
    not."""

    def dag_env(self, *, columnar: bool):
        """R -> A, B, D; ``S`` is shared by A and B (a DAG), so every
        chain from below S stops there.  One entry that reaches S and
        one (under D) that does not."""
        store, _, server = build_env()
        store.add_atomic("S1", "name", "sam")
        store.add_set("S", "team", ["S1"])
        store.insert_edge("A", "S")
        store.insert_edge("B", "S")
        store.add_atomic("D1", "name", "dee")
        store.add_set("D", "emp", ["D1"])
        store.insert_edge("R", "D")
        if columnar:
            enable_columnar(store)
        assert server.evaluate_oids("SELECT A.team.name X") == {"S1"}
        assert server.evaluate_oids("SELECT D.name X") == {"D1"}
        return store, server

    def grow_team(self, store):
        store.add_atomic("S2", "name", "sue")
        store.insert_edge("S", "S2")  # anchor S has two parents

    def test_multi_parent_stop_fails_open_without_snapshot(self):
        store, server = self.dag_env(columnar=False)
        hits = server.stats()["hits"]
        self.grow_team(store)
        assert server.evaluate_oids("SELECT A.team.name X") == {"S1", "S2"}
        # Sound but imprecise: D's entry shares the label and goes too.
        assert server.evaluate_oids("SELECT D.name X") == {"D1"}
        assert server.stats()["hits"] == hits

    def test_snapshot_refines_multi_parent_stop(self):
        store, server = self.dag_env(columnar=True)
        hits = server.stats()["hits"]
        self.grow_team(store)
        # Still never stale for the entry that reaches S ...
        assert server.evaluate_oids("SELECT A.team.name X") == {"S1", "S2"}
        # ... while the kernel proves D never does: entry retained.
        assert server.evaluate_oids("SELECT D.name X") == {"D1"}
        assert server.stats()["hits"] == hits + 1

    def test_snapshot_refines_missing_parent_index(self):
        store, _, server = build_env(with_parent_index=False)
        enable_columnar(store)
        assert server.evaluate_oids("SELECT A.name X") == {"A1"}
        assert server.evaluate_oids("SELECT B.name X") == {"B1"}
        hits = server.stats()["hits"]
        store.add_atomic("B2", "name", "beth")
        store.insert_edge("B", "B2")
        # Without the snapshot both entries fail open (see
        # test_invalidation's test_no_parent_index_fails_open).
        assert server.evaluate_oids("SELECT A.name X") == {"A1"}
        assert server.stats()["hits"] == hits + 1
        assert server.evaluate_oids("SELECT B.name X") == {"B1", "B2"}


class TestInvalidatorRefinement:
    def test_single_store_invalidation_unchanged(self):
        # On a tree with a parent index the refinement branches never
        # fire; this pins that enabling columnar does not alter
        # hit/miss flow.
        plain_store, plain_reg, plain_server = build_env()
        col_store, col_reg, col_server = build_env()
        enable_columnar(col_store)
        text = "SELECT R.emp.name X"
        for server, store in (
            (plain_server, plain_store),
            (col_server, col_store),
        ):
            server.evaluate_oids(text)
            store.modify_value("A1", "anne")
            server.evaluate_oids(text)
        assert plain_server.stats() == col_server.stats()
