"""Tests for the precise incremental invalidator.

The environment is a two-subtree company: ``R`` (root) holds employees
``A`` and ``B``; each employee holds atoms.  The invalidator under test
is the one keeping an :class:`~repro.serving.mvcc.EpochServer`'s carry
cache current; reads are ``fresh``.  Precision claims are phrased as
*non*-invalidation: an update that cannot affect a cached answer must
leave its entry in place.
"""

from repro.gsdb import ObjectStore
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.serving import EpochServer, Invalidator, QueryCache, build_screen
from repro.serving.cache import cache_key


def build_env(*, with_parent_index: bool = True, cache_size: int = 8):
    store = ObjectStore()
    store.add_atomic("A1", "name", "ann")
    store.add_atomic("A2", "age", 30)
    store.add_set("A", "emp", ["A1", "A2"])
    store.add_atomic("B1", "name", "bob")
    store.add_set("B", "emp", ["B1"])
    store.add_set("R", "root", ["A", "B"])
    parent_index = ParentIndex(store) if with_parent_index else None
    registry = DatabaseRegistry(store)
    server = EpochServer(
        registry, parent_index=parent_index, cache_size=cache_size
    )
    return store, registry, parent_index, server


def key_of(registry, text: str):
    query = parse_query(text)
    return cache_key(query, QueryEvaluator(registry)._resolve_entry(query.entry))


def cached(server, text: str) -> bool:
    return key_of(server.registry, text) in server.carry


def remember(store, registry, parent_index, text: str):
    """Cache *text*'s answer under a bare invalidator subscribed to the
    store.  The server never caches a ``WITHIN``/``ANS INT`` query (it
    reads those off the live store), so their screens are exercised
    here directly.  Returns the cache and the entry's key."""
    cache = QueryCache(8)
    invalidator = Invalidator(store, cache, parent_index=parent_index)
    store.subscribe(invalidator.on_update)
    key = key_of(registry, text)
    cache.store(key, frozenset(QueryEvaluator(registry).evaluate_oids(text)))
    invalidator.register(build_screen(key, registry))
    return cache, key


class TestLabelGate:
    def test_off_label_insert_does_not_invalidate(self):
        store, _, _, server = build_env()
        assert server.evaluate_oids("SELECT R.emp X") == {"A", "B"}
        store.add_atomic("N1", "noise", 1)
        store.insert_edge("A", "N1")
        assert cached(server, "SELECT R.emp X")

    def test_matching_label_insert_invalidates(self):
        store, _, _, server = build_env()
        server.evaluate_oids("SELECT R.emp X")
        store.add_set("C", "emp", [])
        store.insert_edge("R", "C")
        assert not cached(server, "SELECT R.emp X")
        assert server.evaluate_oids("SELECT R.emp X") == {"A", "B", "C"}

    def test_matching_label_delete_invalidates(self):
        store, _, _, server = build_env()
        server.evaluate_oids("SELECT R.emp X")
        store.delete_edge("R", "B")
        assert not cached(server, "SELECT R.emp X")
        assert server.evaluate_oids("SELECT R.emp X") == {"A"}

    def test_condition_path_labels_are_gated_too(self):
        store, _, _, server = build_env()
        text = "SELECT R.emp X WHERE X.name = 'ann'"
        assert server.evaluate_oids(text) == {"A"}
        store.add_atomic("B2", "name", "ann")
        store.insert_edge("B", "B2")
        assert not cached(server, text)
        assert server.evaluate_oids(text) == {"A", "B"}

    def test_wildcard_entry_sees_every_label(self):
        store, _, _, server = build_env()
        server.evaluate_oids("SELECT R.* X")
        store.add_atomic("N1", "noise", 1)
        store.insert_edge("A", "N1")
        assert not cached(server, "SELECT R.* X")


class TestReachabilityScreen:
    def test_update_in_sibling_subtree_does_not_invalidate(self):
        store, _, _, server = build_env()
        server.evaluate_oids("SELECT A.name X")
        server.evaluate_oids("SELECT B.name X")
        store.add_atomic("B2", "name", "beth")
        store.insert_edge("B", "B2")
        assert cached(server, "SELECT A.name X")
        assert not cached(server, "SELECT B.name X")

    def test_no_parent_index_fails_open(self):
        store, _, _, server = build_env(with_parent_index=False)
        server.evaluate_oids("SELECT A.name X")
        server.evaluate_oids("SELECT B.name X")
        store.add_atomic("B2", "name", "beth")
        store.insert_edge("B", "B2")
        # Fail open: without chains, both label-matching entries go.
        assert not cached(server, "SELECT A.name X")
        assert not cached(server, "SELECT B.name X")


class TestWitnessGate:
    def test_modify_spares_unconditioned_entries(self):
        store, _, _, server = build_env()
        server.evaluate_oids("SELECT R.emp X")
        store.modify_value("A2", 31)
        assert cached(server, "SELECT R.emp X")

    def test_modify_hits_matching_witness_label(self):
        store, _, _, server = build_env()
        text = "SELECT R.emp X WHERE X.age > 30"
        assert server.evaluate_oids(text) == set()
        store.modify_value("A2", 31)
        assert not cached(server, text)
        assert server.evaluate_oids(text) == {"A"}

    def test_modify_spares_other_witness_labels(self):
        store, _, _, server = build_env()
        text = "SELECT R.emp X WHERE X.age > 30"
        server.evaluate_oids(text)
        store.modify_value("A1", "anne")  # a name, not an age
        assert cached(server, text)

    def test_modify_outside_subtree_spares_entry(self):
        store, _, _, server = build_env()
        text = "SELECT A.age X WHERE X.age > 10"
        server.evaluate_oids(text)
        store.add_atomic("B3", "age", 50)
        store.insert_edge("B", "B3")  # invalidates (label gate) ...
        server.evaluate_oids(text)
        store.modify_value("B3", 60)  # ... but this modify is under B
        assert cached(server, text)


class TestScopeWatch:
    def test_membership_change_invalidates_within_query(self):
        store, registry, parent_index, server = build_env()
        registry.create_database("D1", ["A"])
        parent_index.ignore_parent("D1")
        text = "SELECT R.emp X WITHIN D1"
        cache, key = remember(store, registry, parent_index, text)
        assert server.evaluate_oids(text) == {"A"}
        registry.add_member("D1", "B")
        assert key not in cache
        assert not cached(server, text)
        assert server.evaluate_oids(text) == {"A", "B"}

    def test_membership_change_invalidates_ans_int_query(self):
        store, registry, parent_index, server = build_env()
        registry.create_database("D1", ["A", "B"])
        parent_index.ignore_parent("D1")
        text = "SELECT R.emp X ANS INT D1"
        cache, key = remember(store, registry, parent_index, text)
        assert server.evaluate_oids(text) == {"A", "B"}
        registry.remove_member("D1", "B")
        assert key not in cache
        assert not cached(server, text)
        assert server.evaluate_oids(text) == {"A"}

    def test_database_entry_point_watches_membership(self):
        store, registry, parent_index, server = build_env()
        registry.create_database("D1", ["A"])
        parent_index.ignore_parent("D1")
        text = "SELECT D1.emp.name X"
        assert server.evaluate_oids(text) == {"A1"}
        registry.add_member("D1", "B")
        assert not cached(server, text)
        assert server.evaluate_oids(text) == {"A1", "B1"}


class TestGroupingEntryReachability:
    def test_update_under_member_invalidates(self):
        store, registry, parent_index, server = build_env()
        registry.create_database("D1", ["A"])
        parent_index.ignore_parent("D1")
        text = "SELECT D1.emp.name X"
        server.evaluate_oids(text)
        store.add_atomic("A3", "name", "anna")
        store.insert_edge("A", "A3")
        assert not cached(server, text)
        assert server.evaluate_oids(text) == {"A1", "A3"}

    def test_update_under_non_member_spares_entry(self):
        store, registry, parent_index, server = build_env()
        registry.create_database("D1", ["A"])
        parent_index.ignore_parent("D1")
        text = "SELECT D1.emp.name X"
        server.evaluate_oids(text)
        store.add_atomic("B2", "name", "beth")
        store.insert_edge("B", "B2")  # B is not a member of D1
        assert cached(server, text)


class TestBucketLifecycle:
    def test_eviction_forgets_screen(self):
        store, _, _, server = build_env(cache_size=1)
        server.evaluate_oids("SELECT A.name X")
        assert server.invalidator.tracked() == 1
        server.evaluate_oids("SELECT B.name X")  # evicts the A entry
        assert server.invalidator.tracked() == 1
        assert not cached(server, "SELECT A.name X")
        # The forgotten screen no longer fires: an A-subtree update
        # invalidates nothing.
        before = server.read_counters.query_cache_invalidations
        store.add_atomic("A3", "name", "amy")
        store.insert_edge("A", "A3")
        assert server.read_counters.query_cache_invalidations == before
