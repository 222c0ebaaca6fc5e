"""Tests for the one read-path server's front door and its catalog
integration: an :class:`~repro.serving.mvcc.EpochServer` driven
synchronously, every read at the ``fresh`` policy unless stated."""

import random

import pytest

from repro.gsdb import ObjectStore
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.gsdb.updates import Delete, Insert, Modify
from repro.instrumentation import Meter
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.serving import EpochAnswer, EpochServer
from repro.serving.cache import cache_key
from repro.views import ViewCatalog
from repro.workloads import person_db, register_person_database
from repro.workloads.generators import TreeSpec, layered_tree
from repro.workloads.serving import build_query_pool


def build_env(*, indexed=True, **server_kwargs):
    """The two-employee company; interpreted reads go through a query
    evaluator probing a label index (scanning with ``indexed=False``)."""
    store = ObjectStore()
    store.add_atomic("A1", "name", "ann")
    store.add_atomic("A2", "age", 30)
    store.add_set("A", "emp", ["A1", "A2"])
    store.add_atomic("B1", "name", "bob")
    store.add_set("B", "emp", ["B1"])
    store.add_set("R", "root", ["A", "B"])
    parent_index = ParentIndex(store)
    registry = DatabaseRegistry(store)
    evaluator = QueryEvaluator(
        registry, label_index=LabelIndex(store) if indexed else None
    )
    server = EpochServer(
        registry,
        parent_index=parent_index,
        cache_size=8,
        query_fn=evaluator.evaluate_oids,
        **server_kwargs,
    )
    return store, registry, parent_index, server


def never_cached(query):
    return False


def oids(server, text):
    return set(server.read(text).oids)


class TestServerBasics:
    def test_miss_then_hit_same_answer(self):
        store, _, _, server = build_env()
        first = server.read("SELECT R.emp.name X")
        second = server.read("SELECT R.emp.name X")
        assert first.oids == second.oids == {"A1", "B1"}
        assert (first.source, second.source) == ("kernel", "carry")
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
            assert oids(server, text) == fresh.evaluate_oids(text)
            # ... and again from the cache.
            assert oids(server, text) == fresh.evaluate_oids(text)

    def test_read_returns_an_epoch_answer(self):
        store, _, _, server = build_env()
        size = len(store)
        answer = server.read("SELECT R.emp X")
        assert isinstance(answer, EpochAnswer)
        assert answer.oids == {"A", "B"}
        assert (answer.seq, answer.lag, answer.allowed) == (0, 0, 0)
        # No answer object enters the store, so a read never dirties it
        # and the next read needs no new epoch.
        assert len(store) == size
        assert not server.retention.store_dirty()
        assert server.read("SELECT R.emp X").seq == 0

    def test_classic_evaluation_mode(self):
        store, registry, _, server = build_env(
            indexed=False, cacheable=never_cached
        )
        fresh = QueryEvaluator(registry)
        text = "SELECT R.emp.name X"
        assert oids(server, text) == fresh.evaluate_oids(text)
        assert oids(server, text) == fresh.evaluate_oids(text)

    def test_cacheable_predicate_bypasses_cache(self):
        store, _, _, server = build_env(
            cacheable=lambda query: query.entry != "A"
        )
        assert server.read("SELECT A.name X").source == "interpreted"
        assert server.read("SELECT A.name X").source == "interpreted"
        assert len(server.carry) == 0
        assert server.stats()["hits"] == 0
        server.read("SELECT B.name X")
        assert len(server.carry) == 1

    def test_answer_is_a_private_copy(self):
        store, _, _, server = build_env()
        first = server.read("SELECT R.emp X").oids
        assert isinstance(first, frozenset)  # callers cannot tamper
        copy = set(first)
        copy.add("tampered")
        assert oids(server, "SELECT R.emp X") == {"A", "B"}


class TestIndexedMisses:
    """A read the epochs do not answer (here: the cacheable predicate
    declines every query) is the owner's query path, which is the query
    evaluator's select-filter-intersect body: indexed with a label
    index, scanning without one."""

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
        store, registry, _, server = build_env(cacheable=never_cached)
        unindexed_store, unindexed_registry, _, unindexed = build_env(
            indexed=False, cacheable=never_cached
        )
        fresh = QueryEvaluator(unindexed_registry)
        with Meter(unindexed_store.counters) as plain:
            expected = fresh.evaluate_oids(text)
        with Meter(unindexed_store.counters) as scanned:
            assert oids(unindexed, text) == expected
        with Meter(store.counters) as probed:
            assert oids(server, text) == expected
        # Without the index the miss is exactly the plain evaluation.
        for name in ("object_reads", "edge_traversals", "index_probes"):
            assert getattr(scanned.delta, name) == getattr(plain.delta, name)
        assert (
            probed.delta.total_base_accesses()
            <= scanned.delta.total_base_accesses()
        )

    def test_miss_condition_probes_the_index(self):
        store, _, _, server = build_env(cacheable=never_cached)
        with Meter(store.counters) as meter:
            assert oids(server, "SELECT R.emp X WHERE X.name = 'bob'") == {
                "B"
            }
        # R for the select path, then A and B for their ``name``.
        assert meter.delta.index_probes == 3

    @pytest.mark.parametrize("text", TEXTS)
    def test_kernel_miss_charges_the_reader_ledger_only(self, text):
        store, registry, _, server = build_env()
        server.checkpoint()  # the set-up build
        with Meter(store.counters) as writer:
            answer = server.read(text)
        assert answer.source == "kernel"
        assert set(answer.oids) == QueryEvaluator(registry).evaluate_oids(
            text
        )
        assert writer.delta.as_dict() == {}
        assert server.read_counters.snapshot_rows_scanned > 0


class TestScopedQueriesShareNothing:
    """A WITHIN-scoped query must never share a cache slot with its
    unscoped twin — their answers differ even though select path and
    entry coincide.  The scoped twin reads the live store through a
    scoped view, so it is never cached at all."""

    def scoped_env(self):
        store, registry, parent_index, server = build_env()
        registry.create_database("D1", ["A"])
        parent_index.ignore_parent("D1")
        return store, registry, server

    def test_twins_cache_separately(self):
        store, _, server = self.scoped_env()
        bare = "SELECT R.emp X"
        scoped = "SELECT R.emp X WITHIN D1"
        assert oids(server, scoped) == {"A"}
        assert oids(server, bare) == {"A", "B"}
        k_bare = cache_key(parse_query(bare), "R")
        k_scoped = cache_key(parse_query(scoped), "R")
        assert k_bare != k_scoped
        assert k_bare in server.carry and k_scoped not in server.carry
        assert len(server.carry) == 1
        # Each twin keeps serving its own answer.
        assert server.read(scoped).source == "interpreted"
        assert oids(server, scoped) == {"A"}
        assert server.read(bare).source == "carry"
        assert oids(server, bare) == {"A", "B"}
        assert server.stats()["hits"] == 2

    def test_scope_probe_charging_stays_exact(self):
        """Regression pin: the scoped read pays one charged probe for
        each out-of-scope rejection (B here) on the scan path (no label
        index through a ScopedStore), on every read, exactly as a
        direct evaluation does; the bare twin's kernel miss and its hit
        charge the store nothing.

        By hand: resolving D1 for the scope and for its admission reads
        it twice; the select sweep reads R, follows its two out-edges
        and reads A and the out-of-scope B once each.  A is accepted
        with no transition left, so it is never expanded and A1/A2
        are never touched: 2 + 3 = 5 reads, 2 traversals."""
        store, registry, server = self.scoped_env()
        scoped = "SELECT R.emp X WITHIN D1"
        bare = "SELECT R.emp X"
        with Meter(store.counters) as direct:
            QueryEvaluator(registry).evaluate_oids(scoped)
        for _ in range(2):
            with Meter(store.counters) as scoped_read:
                assert oids(server, scoped) == {"A"}
            assert scoped_read.delta.object_reads == 5
            assert scoped_read.delta.edge_traversals == 2
            assert scoped_read.delta.index_probes == 0  # scan, not index
            assert scoped_read.delta.as_dict() == direct.delta.as_dict()
        server.checkpoint()
        with Meter(store.counters) as bare_miss:
            assert oids(server, bare) == {"A", "B"}
        assert bare_miss.delta.total_base_accesses() == 0
        assert bare_miss.delta.index_probes == 0
        with Meter(server.read_counters) as bare_hit:
            assert oids(server, bare) == {"A", "B"}
        assert bare_hit.delta.snapshot_rows_scanned == 0
        assert bare_hit.delta.query_cache_hits == 1


class TestCatalogServing:
    def make_catalog(self, **kwargs):
        catalog = ViewCatalog(**kwargs)
        person_db(catalog.store, tree=True)
        register_person_database(catalog)
        return catalog

    def test_enable_serving_builds_one_server(self):
        catalog = self.make_catalog()
        server = catalog.enable_serving(retention_capacity=2, cache_size=16)
        assert catalog.enable_serving() is server is catalog.server
        assert catalog.enable_async_serving().core is server
        assert server.retention.capacity == 2
        assert server.cache_size == 16

    def test_serve_caches_base_queries(self):
        catalog = self.make_catalog()
        text = "SELECT ROOT.professor X"
        first = catalog.serve(text)
        second = catalog.serve(text)
        assert first.oids == second.oids == {"P1", "P2"}
        assert (first.source, second.source) == ("kernel", "carry")
        assert catalog.server.stats()["hits"] == 1

    def test_serve_honours_the_policy(self):
        catalog = self.make_catalog()
        text = "SELECT ROOT.professor X"
        catalog.serve(text)
        catalog.store.delete_edge("ROOT", "P2")
        stale = catalog.serve(text, "any")
        assert stale.oids == {"P1", "P2"}
        assert stale.lag == 1
        fresh = catalog.serve(text)
        assert fresh.oids == {"P1"}
        assert fresh.lag == 0

    def test_view_backed_queries_served_fresh(self):
        catalog = self.make_catalog()
        catalog.define(
            "define mview PROF as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        text = "SELECT PROF.professor X"
        assert catalog.serve(text).oids == {"PROF.P1"}
        assert len(catalog.server.carry) == 0  # never cached
        # Maintenance flows straight through on the next serve.
        catalog.store.modify_value("A1", 60)
        answer = catalog.serve(text)
        assert answer.oids == set()
        assert answer.source == "interpreted"

    def test_serve_matches_query(self):
        for with_label_index in (False, True):
            catalog = self.make_catalog(with_label_index=with_label_index)
            for text in (
                "SELECT ROOT.professor X WHERE X.age > 40",
                "SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
                "SELECT ROOT.?.student X",
            ):
                assert catalog.serve(text).oids == catalog.query_oids(text)


class TestWriterIsolationWithViews:
    """The writer's store-charged cost is the same with a warm answer
    cache being invalidated beside it as with an empty one.  The invalidator walks
    each update's anchor chain; were those walks memoized, a later
    update's view maintainer would find them and charge less with
    readers than without."""

    SPEC = TreeSpec(depth=3, fanout=4, seed=5)

    def script(self, steps: int) -> list[tuple]:
        """Subtree moves, fresh ``score`` leaves and value changes over
        the tree, drawn on a replica with uncharged peeks."""
        store, root = layered_tree(self.SPEC)
        rng = random.Random(17)
        parent_of = {
            child: oid
            for oid in store.oids()
            if store.peek(oid).is_set
            for child in store.peek(oid).children()
        }
        by_label: dict[str, list[str]] = {}
        for oid in sorted(store.oids()):
            by_label.setdefault(store.peek(oid).label, []).append(oid)
        ops: list[tuple] = []
        for step in range(steps):
            kind = rng.choice(("move", "move", "new", "modify", "modify"))
            if kind == "move":  # an l2 subtree to another l1 node
                child = rng.choice(by_label["l2"])
                target = rng.choice(by_label["l1"])
                if parent_of[child] != target:
                    ops.append(("move", parent_of[child], target, child))
                    parent_of[child] = target
            elif kind == "new":
                oid = f"score{step}"
                ops.append(("new", rng.choice(by_label["l2"]), oid,
                            rng.randint(0, 100)))
                by_label.setdefault("score", []).append(oid)
            else:
                leaves = by_label["l3"] + by_label.get("score", [])
                ops.append(("modify", rng.choice(leaves),
                            rng.randint(0, 100)))
        return ops

    def writer_cost(self, ops, *, warm: bool, batched: bool) -> dict:
        store, root = layered_tree(self.SPEC)
        catalog = ViewCatalog(store)
        for name, text in (
            ("V1", f"SELECT {root}.l1 X WHERE X.l2.l3 > 50"),
            ("V2", f"SELECT {root}.l1.l2 X WHERE X.l3 < 40"),
            ("V3", f"SELECT {root}.l1.l2.l3 X"),
            ("V4", f"SELECT {root}.* X WHERE X.l3 > 70"),
        ):
            catalog.define(f"define mview {name} as: {text}")
        server = catalog.enable_serving(cache_size=128)
        # The score queries make the invalidator walk the chains of
        # leaves no view reads, which the writer never asks for.
        pool = build_query_pool(root, self.SPEC, store=store) + [
            f"SELECT {root}.l1.l2 X WHERE X.score > 50",
            f"SELECT {root}.l1 X WHERE X.l2.score < 30",
        ]
        before = store.counters.snapshot()
        for op in ops:
            # Both sides publish alike; only the warm side reads, which
            # refills the cache the last update's evictions drained.
            server.checkpoint()
            if warm:
                for text in pool:
                    server.read(text)
                assert server.invalidator.tracked() > 0
            if op[0] == "move":
                _, old, new, child = op
                updates = [Delete(old, child), Insert(new, child)]
            elif op[0] == "new":
                _, parent, oid, value = op
                store.add_atomic(oid, "score", value)
                updates = [Insert(parent, oid)]
            else:
                _, oid, value = op
                updates = [Modify(oid, store.peek(oid).atomic_value(), value)]
            if batched:
                catalog.apply_batch(updates)
            else:
                for update in updates:
                    store.apply(update)
        assert all(report.ok for report in catalog.check_all().values())
        if warm:
            assert server.read_counters.index_probes > 0
        return store.counters.delta_since(before).as_dict()

    @pytest.mark.parametrize("batched", [False, True])
    def test_store_counters_identical_with_and_without_a_warm_cache(
        self, batched
    ):
        ops = self.script(120)
        cold = self.writer_cost(ops, warm=False, batched=batched)
        warm = self.writer_cost(ops, warm=True, batched=batched)
        assert cold["chain_cache_misses"] > 0
        assert warm == cold
