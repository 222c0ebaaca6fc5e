"""Tests for the QueryServer front door and its integrations."""

import pytest

from repro.gsdb import ObjectStore
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.instrumentation import Meter
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.serving import QueryServer
from repro.serving.cache import cache_key
from repro.views import ViewCatalog
from repro.warehouse import ReportingLevel, Source, Warehouse
from repro.workloads import person_db, register_person_database


def build_env(*, indexed=True, **server_kwargs):
    store = ObjectStore()
    store.add_atomic("A1", "name", "ann")
    store.add_atomic("A2", "age", 30)
    store.add_set("A", "emp", ["A1", "A2"])
    store.add_atomic("B1", "name", "bob")
    store.add_set("B", "emp", ["B1"])
    store.add_set("R", "root", ["A", "B"])
    parent_index = ParentIndex(store)
    label_index = LabelIndex(store)
    registry = DatabaseRegistry(store)
    server = QueryServer(
        registry,
        parent_index=parent_index,
        label_index=label_index if indexed else None,
        cache_size=8,
        **server_kwargs,
    )
    return store, registry, parent_index, server


class TestServerBasics:
    def test_miss_then_hit_same_answer(self):
        store, _, _, server = build_env()
        first = server.evaluate_oids("SELECT R.emp.name X")
        second = server.evaluate_oids("SELECT R.emp.name X")
        assert first == second == {"A1", "B1"}
        assert server.stats()["hits"] == 1
        assert server.stats()["misses"] == 1
        assert server.hit_rate() == 0.5

    def test_matches_plain_evaluator(self):
        store, registry, _, server = build_env()
        fresh = QueryEvaluator(registry)
        for text in (
            "SELECT R.emp X",
            "SELECT R.emp.name X",
            "SELECT R.* X WHERE X.age > 20",
            "SELECT R.?.name X",
        ):
            assert server.evaluate_oids(text) == fresh.evaluate_oids(text)
            # ... and again from the cache.
            assert server.evaluate_oids(text) == fresh.evaluate_oids(text)

    def test_evaluate_returns_answer_object(self):
        store, _, _, server = build_env()
        answer = server.evaluate("SELECT R.emp X")
        assert answer.label == "answer"
        assert answer.children() == {"A", "B"}
        assert answer.oid in store

    def test_classic_evaluation_mode(self):
        store, registry, _, server = build_env(indexed=False)
        fresh = QueryEvaluator(registry)
        text = "SELECT R.emp.name X"
        assert server.evaluate_oids(text) == fresh.evaluate_oids(text)
        assert server.evaluate_oids(text) == fresh.evaluate_oids(text)

    def test_cacheable_predicate_bypasses_cache(self):
        store, _, _, server = build_env(
            cacheable=lambda query: query.entry != "A"
        )
        server.evaluate_oids("SELECT A.name X")
        server.evaluate_oids("SELECT A.name X")
        assert len(server.cache) == 0
        assert server.stats()["hits"] == 0
        server.evaluate_oids("SELECT B.name X")
        assert len(server.cache) == 1

    def test_answer_is_a_private_copy(self):
        store, _, _, server = build_env()
        first = server.evaluate_oids("SELECT R.emp X")
        first.add("tampered")
        assert server.evaluate_oids("SELECT R.emp X") == {"A", "B"}


class TestIndexedMisses:
    """A cold miss is the query evaluator's select-filter-intersect
    body: indexed with a label index, scanning without one."""

    TEXTS = (
        "SELECT R.emp X",
        "SELECT R.emp.name X",
        "SELECT R.* X WHERE X.age > 20",
        "SELECT R.?.name X",
        "SELECT R.emp X WHERE X.name = 'bob'",
        "SELECT R.emp X WHERE NOT EXISTS X.age",
    )

    @pytest.mark.parametrize("text", TEXTS)
    def test_miss_matches_unindexed_and_never_charges_more(self, text):
        store, registry, _, server = build_env()
        unindexed_store, unindexed_registry, _, unindexed = build_env(
            indexed=False
        )
        fresh = QueryEvaluator(unindexed_registry)
        with Meter(unindexed_store.counters) as plain:
            expected = fresh.evaluate_oids(text)
        with Meter(unindexed_store.counters) as scanned:
            assert unindexed.evaluate_oids(text) == expected
        with Meter(store.counters) as probed:
            assert server.evaluate_oids(text) == expected
        # Without the index the miss is exactly the plain evaluation.
        for name in ("object_reads", "edge_traversals", "index_probes"):
            assert getattr(scanned.delta, name) == getattr(plain.delta, name)
        assert (
            probed.delta.total_base_accesses()
            <= scanned.delta.total_base_accesses()
        )

    def test_miss_condition_probes_the_index(self):
        store, _, _, server = build_env()
        with Meter(store.counters) as meter:
            assert server.evaluate_oids(
                "SELECT R.emp X WHERE X.name = 'bob'"
            ) == {"B"}
        # R for the select path, then A and B for their ``name``.
        assert meter.delta.index_probes == 3


class TestScopedQueriesShareNothing:
    """A WITHIN-scoped query must never share a cache slot with its
    unscoped twin — their answers differ even though select path and
    entry coincide."""

    def scoped_env(self):
        store, registry, parent_index, server = build_env()
        registry.create_database("D1", ["A"])
        parent_index.ignore_parent("D1")
        return store, registry, server

    def test_twins_cache_separately(self):
        store, _, server = self.scoped_env()
        bare = "SELECT R.emp X"
        scoped = "SELECT R.emp X WITHIN D1"
        assert server.evaluate_oids(scoped) == {"A"}
        assert server.evaluate_oids(bare) == {"A", "B"}
        assert len(server.cache) == 2
        k_bare = cache_key(parse_query(bare), "R")
        k_scoped = cache_key(parse_query(scoped), "R")
        assert k_bare != k_scoped
        assert k_bare in server.cache and k_scoped in server.cache
        # Both hits serve their own answers.
        assert server.evaluate_oids(scoped) == {"A"}
        assert server.evaluate_oids(bare) == {"A", "B"}
        assert server.stats()["hits"] == 2

    def test_scope_probe_charging_stays_exact(self):
        """Regression pin: the scoped miss pays one charged probe for
        each out-of-scope rejection (B here), the scan path (no label
        index through a ScopedStore), and zero charges on a hit."""
        store, _, server = self.scoped_env()
        scoped = "SELECT R.emp X WITHIN D1"
        bare = "SELECT R.emp X"
        with Meter(store.counters) as scoped_miss:
            assert server.evaluate_oids(scoped) == {"A"}
        assert scoped_miss.delta.object_reads == 9
        assert scoped_miss.delta.edge_traversals == 4
        assert scoped_miss.delta.index_probes == 0  # scan, not index
        with Meter(store.counters) as bare_miss:
            assert server.evaluate_oids(bare) == {"A", "B"}
        assert bare_miss.delta.object_reads == 3
        assert bare_miss.delta.edge_traversals == 2
        assert bare_miss.delta.index_probes == 1  # frontier probes R
        with Meter(store.counters) as scoped_hit:
            assert server.evaluate_oids(scoped) == {"A"}
        assert scoped_hit.delta.total_base_accesses() == 0
        assert scoped_hit.delta.query_cache_hits == 1


class TestWarehouseServing:
    def make_warehouse(self):
        store = person_db(tree=True)
        source = Source("S1", store, "ROOT")
        wh = Warehouse()
        wh.connect(source, level=ReportingLevel(2))
        wh.define_view(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45",
            "S1",
        )
        return store, wh

    def test_served_view_query_tracks_maintenance(self):
        store, wh = self.make_warehouse()
        server = wh.enable_serving()
        text = "SELECT YP.professor X"
        assert server.evaluate_oids(text) == {"YP.P1"}
        assert server.evaluate_oids(text) == {"YP.P1"}
        assert server.stats()["hits"] == 1
        # Age P1 out of the view: maintenance rewires delegates without
        # store updates, so the warehouse pings invalidate_entry.
        store.modify_value("A1", 60)
        assert server.evaluate_oids(text) == set()

    def test_enable_serving_idempotent_and_new_views_registered(self):
        store, wh = self.make_warehouse()
        server = wh.enable_serving()
        assert wh.enable_serving() is server
        wh.define_view(
            "define mview ALLP as: SELECT ROOT.professor X", "S1"
        )
        assert server.evaluate_oids("SELECT ALLP.professor X") == {
            "ALLP.P1",
            "ALLP.P2",
        }


class TestCatalogServing:
    def make_catalog(self):
        catalog = ViewCatalog()
        person_db(catalog.store, tree=True)
        register_person_database(catalog)
        return catalog

    def test_serve_caches_base_queries(self):
        catalog = self.make_catalog()
        text = "SELECT ROOT.professor X"
        first = catalog.serve_oids(text)
        second = catalog.serve_oids(text)
        assert first == second == {"P1", "P2"}
        assert catalog.server.stats()["hits"] == 1

    def test_view_backed_queries_served_fresh(self):
        catalog = self.make_catalog()
        catalog.define(
            "define mview PROF as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        text = "SELECT PROF.professor X"
        assert catalog.serve_oids(text) == {"PROF.P1"}
        assert len(catalog.server.cache) == 0  # never cached
        # Maintenance flows straight through on the next serve.
        catalog.store.modify_value("A1", 60)
        assert catalog.serve_oids(text) == set()

    def test_serve_matches_query(self):
        catalog = self.make_catalog()
        for text in (
            "SELECT ROOT.professor X WHERE X.age > 40",
            "SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
            "SELECT ROOT.?.student X",
        ):
            assert catalog.serve_oids(text) == catalog.query_oids(text)
