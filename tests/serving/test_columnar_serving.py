"""Each epoch server keeps its columnar snapshot to itself.

An :class:`~repro.serving.mvcc.EpochServer` owns a columnar snapshot
privately, and its invalidator fails open wherever the upward chain
cannot resolve the dependency — sound, at the price of a later miss —
whether or not a second epoch server shares the store.
"""

from repro.gsdb import ObjectStore
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.serving import EpochServer


def build_env():
    store = ObjectStore()
    store.add_atomic("A1", "name", "ann")
    store.add_atomic("A2", "age", 30)
    store.add_set("A", "emp", ["A1", "A2"])
    store.add_atomic("B1", "name", "bob")
    store.add_set("B", "emp", ["B1"])
    store.add_set("R", "root", ["A", "B"])
    registry = DatabaseRegistry(store)
    server = EpochServer(registry, parent_index=ParentIndex(store), cache_size=8)
    return store, registry, server


class TestFailOpenRefinement:
    """An upward chain that stops at a multi-parent node fails open: it
    evicts every label candidate (the no-index fail-open is pinned in
    ``test_invalidation.py``)."""

    def dag_env(self):
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
        assert server.evaluate_oids("SELECT A.team.name X") == {"S1"}
        assert server.evaluate_oids("SELECT D.name X") == {"D1"}
        return store, server

    def grow_team(self, store):
        store.add_atomic("S2", "name", "sue")
        store.insert_edge("S", "S2")  # anchor S has two parents

    def test_multi_parent_stop_fails_open_without_snapshot(self):
        store, server = self.dag_env()
        hits = server.stats()["hits"]
        self.grow_team(store)
        assert server.evaluate_oids("SELECT A.team.name X") == {"S1", "S2"}
        # Sound but imprecise: D's entry shares the label and goes too.
        assert server.evaluate_oids("SELECT D.name X") == {"D1"}
        assert server.stats()["hits"] == hits

    def test_epoch_server_on_the_store_does_not_refine(self):
        store, server = self.dag_env()
        EpochServer(server.registry, parent_index=ParentIndex(store)).publish()
        hits = server.stats()["hits"]
        self.grow_team(store)
        assert server.evaluate_oids("SELECT A.team.name X") == {"S1", "S2"}
        assert server.evaluate_oids("SELECT D.name X") == {"D1"}
        assert server.stats()["hits"] == hits


class TestInvalidatorRefinement:
    def test_single_store_invalidation_unchanged(self):
        # A second epoch server over the same store keeps its snapshot
        # to itself: the first server's hit/miss flow and charges are
        # those of a store with no other server at all.
        plain_store, _, plain_server = build_env()
        epoch_store, epoch_reg, epoch_server = build_env()
        EpochServer(epoch_reg, parent_index=ParentIndex(epoch_store)).publish()
        text = "SELECT R.emp.name X"
        deltas = []
        for server, store in (
            (plain_server, plain_store),
            (epoch_server, epoch_store),
        ):
            before = store.counters.snapshot()
            read_before = server.read_counters.snapshot()
            server.evaluate_oids(text)
            store.modify_value("A1", "anne")
            server.evaluate_oids(text)
            deltas.append(
                (
                    store.counters.delta_since(before).as_dict(),
                    server.read_counters.delta_since(read_before).as_dict(),
                )
            )
        assert plain_server.stats() == epoch_server.stats()
        assert deltas[0] == deltas[1]
        assert not hasattr(epoch_store, "columnar")
