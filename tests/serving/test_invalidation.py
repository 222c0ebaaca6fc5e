"""Tests for the precise incremental invalidator.

The environment is a two-subtree company: ``R`` (root) holds employees
``A`` and ``B``; each employee holds atoms.  The invalidator under test
is the one keeping an :class:`~repro.serving.mvcc.EpochServer`'s carry
cache current; reads are ``fresh``.  Precision claims are phrased as
*non*-invalidation: an update that cannot affect a cached answer must
leave its entry in place.
"""

import random

import pytest

from repro.gsdb import ObjectStore
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.updates import Modify
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.serving import EpochServer, Invalidator, QueryCache, build_screen
from repro.serving.cache import cache_key
from repro.views import PathContext, ViewCatalog


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


# ---------------------------------------------------------------------------
# equivalence with the per-candidate screen
# ---------------------------------------------------------------------------


class ReferenceInvalidator(Invalidator):
    """The reference the chain probe must equal: every label-admitted
    candidate tests the update's chain itself, an entry off the chain
    by its member set (what the invalidator did before its entry
    index existed)."""

    def on_update(self, update):
        if not self._screens:
            return 0
        ctx = PathContext(self._store, self._parent_index)
        hit = set()
        if isinstance(update, Modify):
            label = ctx.label(update.oid)
            candidates = set(self._witness_any)
            if label is None:
                for bucket in self._witness.values():
                    candidates |= bucket
            else:
                candidates |= self._witness.get(label, set())
            anchor = update.oid
        else:
            hit |= self._scope.get(update.parent, set())
            label = ctx.label(update.child)
            candidates = set(self._edge_any)
            if label is None:
                for bucket in self._edge.values():
                    candidates |= bucket
            else:
                candidates |= self._edge.get(label, set())
            anchor = update.parent
        candidates -= hit
        if candidates:
            chain = ctx.chain_set(anchor)
            for key in candidates:
                if self._reaches_entry(self._screens[key], chain):
                    hit.add(key)
        for key in sorted(hit, key=str):
            self._cache.invalidate(key)
        return len(hit)

    def _reaches_entry(self, screen, chain):
        if chain is None:
            return True
        oids, stopped_at_multi = chain
        if stopped_at_multi or screen.entry_oid in oids:
            return True
        entry = self._store.peek(screen.entry_oid)
        return (
            entry is not None
            and entry.is_set
            and not oids.isdisjoint(entry.children())
        )


#: Query shapes over an entry ``{e}``: label paths, wildcards, empty
#: select paths, conditions (witness gates), and scoped reads.
EQUIVALENCE_TEMPLATES = (
    "SELECT {e}.a X",
    "SELECT {e}.a.b X",
    "SELECT {e}.b X WHERE X > 40",
    "SELECT {e}.a X WHERE X.c > 50",
    "SELECT {e}.* X WHERE X.b < 30",
    "SELECT {e}.?.c X",
    "SELECT {e} X WHERE X.a > 20",
    "SELECT {e}.a X WITHIN D1",
    "SELECT {e}.* X ANS INT D1",
)


class PairedInvalidators:
    """The invalidator and the reference, each over its own cache of the
    same keys; every update must evict the same key set from both, and
    every evicted key is re-cached, so each update screens them all."""

    def __init__(self, catalog, keys, *, parent_index) -> None:
        self.registry = catalog.registry
        self.keys = set(keys)
        self.pairs = []
        for cls in (Invalidator, ReferenceInvalidator):
            cache = QueryCache(len(self.keys) + 1)
            invalidator = cls(catalog.store, cache, parent_index=parent_index)
            cache.on_evict = invalidator.forget
            self.pairs.append((cache, invalidator))
        self.recache()
        self.evictions = 0
        catalog.store.subscribe(self.on_update)

    def recache(self) -> None:
        for cache, invalidator in self.pairs:
            for key in self.keys - set(cache.keys()):
                cache.store(key, frozenset())
                invalidator.register(build_screen(key, self.registry))

    def on_update(self, update) -> None:
        evicted = []
        for cache, invalidator in self.pairs:
            invalidator.on_update(update)
            evicted.append(self.keys - set(cache.keys()))
        assert evicted[0] == evicted[1], update
        self.evictions += len(evicted[0])
        self.recache()


def equivalence_catalog(seed: int):
    """A random base with extra edges (multi-parent nodes, cycles), a
    database ``D1`` over some of it, a same-store view ``V`` with its
    delegates (``V`` and two delegates are entry points: their edges
    are outside the parent index, like ``D1``'s), and ``cx -> cy``,
    which the stream turns into a detached cycle."""
    from tests.property.support import build_store

    store, root = build_store(seed, 30)
    catalog = ViewCatalog(store)
    rng = random.Random(seed)
    sets = sorted(o for o in store.oids() if store.peek(o).is_set)
    catalog.create_database("D1", rng.sample(sets, 3))
    catalog.define(f"define mview V as: SELECT {root}.* X", maintainer="recompute")
    delegates = [
        oid for oid in sorted(store.peek("V").children())
        if store.peek(oid).is_set and store.peek(oid).children()
    ][:2]
    store.add_set("cy", "b", [])
    store.add_set("cx", "a", ["cy"])
    store.insert_edge(root, "cx")
    entries = [root, "D1", "V", "cx", "cy", *delegates] + rng.sample(sets, 4)
    keys = [
        cache_key(parse_query(template.format(e="E")), oid)
        for oid in (registry_oid(catalog, entry) for entry in entries)
        for template in EQUIVALENCE_TEMPLATES
    ]
    return catalog, root, keys, rng


def registry_oid(catalog, entry: str) -> str:
    """The OID an entry resolves to (a delegate OID is its own)."""
    if entry in catalog.registry.names():
        return catalog.registry.resolve(entry).oid
    return entry


def equivalence_step(catalog, rng, tag: int) -> None:
    """One random base update, membership change or creation."""
    store = catalog.store
    base = sorted(
        oid for oid in store.oids()
        if oid != "D1" and oid != "V" and not oid.startswith("V.")
    )
    sets = [oid for oid in base if store.peek(oid).is_set]
    op = rng.randrange(6)
    if op == 0:
        parent, child = rng.choice(sets), rng.choice(base)
        if child not in store.peek(parent).children():
            store.insert_edge(parent, child)
    elif op == 1:
        parent = rng.choice(sets)
        children = sorted(store.peek(parent).children())
        if children:
            store.delete_edge(parent, rng.choice(children))
    elif op == 2:
        atoms = [oid for oid in base if not store.peek(oid).is_set]
        store.modify_value(rng.choice(atoms), rng.randint(0, 100))
    elif op == 3:
        member = rng.choice(sets)
        if member in catalog.registry.members("D1"):
            catalog.registry.remove_member("D1", member)
        else:
            catalog.registry.add_member("D1", member)
    else:
        oid = f"new{tag}"
        label = rng.choice(("a", "b", "c"))
        if op == 4:
            store.add_atomic(oid, label, rng.randint(0, 100))
        else:
            store.add_set(oid, label, [])
        store.insert_edge(rng.choice(sets), oid)


class TestEquivalenceWithPerCandidateScreen:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_evict_the_same_keys(self, seed):
        catalog, root, keys, rng = equivalence_catalog(seed)
        paired = PairedInvalidators(
            catalog, keys, parent_index=catalog.parent_index
        )
        # Detach the cycle: each of cx, cy keeps one parent.
        catalog.store.insert_edge("cy", "cx")
        catalog.store.delete_edge(root, "cx")
        for tag in range(60):
            equivalence_step(catalog, rng, tag)
        assert paired.evictions > 0

    def test_without_parent_index_both_fail_open(self):
        catalog, _, keys, rng = equivalence_catalog(0)
        paired = PairedInvalidators(catalog, keys, parent_index=None)
        for tag in range(30):
            equivalence_step(catalog, rng, tag)
        assert paired.evictions > 0
