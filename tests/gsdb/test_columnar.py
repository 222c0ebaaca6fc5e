"""Unit tests for the epoch-versioned columnar snapshot."""

import pytest

from repro.gsdb import ObjectStore
from repro.gsdb.columnar import ColumnarSnapshot, enable_columnar


def small_store() -> ObjectStore:
    store = ObjectStore()
    store.add_atomic("a1", "age", 45)
    store.add_atomic("a2", "age", 30)
    store.add_set("p1", "professor", ["a1"])
    store.add_set("p2", "professor", ["a2"])
    store.add_set("root", "root", ["p1", "p2"])
    return store


class TestBuild:
    def test_rows_in_sorted_oid_order(self):
        store = small_store()
        snap = enable_columnar(store).current()
        assert snap.oid_of == sorted(store.oids())
        assert all(snap.row(oid) == i for i, oid in enumerate(snap.oid_of))
        assert snap.nrows == 5

    def test_label_names_sorted(self):
        snap = enable_columnar(small_store()).current()
        assert snap.label_names() == ["age", "professor", "root"]

    def test_gather_per_label(self):
        store = small_store()
        snap = enable_columnar(store).current()
        root = snap.row("root")
        children = snap.gather([root], "professor")
        assert sorted(snap.oid(r) for r in children) == ["p1", "p2"]
        assert snap.gather([root], "age") == []

    def test_gather_all_labels(self):
        store = small_store()
        snap = enable_columnar(store).current()
        rows = snap.gather([snap.row("p1"), snap.row("p2")], None)
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a2"]

    def test_atomic_rows_have_no_children(self):
        snap = enable_columnar(small_store()).current()
        assert snap.gather([snap.row("a1")], None) == []

    def test_build_charges_refresh_and_rows(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        assert store.counters.snapshot_refreshes == 1
        assert store.counters.snapshot_rows_scanned >= 5

    def test_rebuild_threshold_validation(self):
        with pytest.raises(ValueError):
            ColumnarSnapshot(ObjectStore(), rebuild_threshold=0)


class TestFreshness:
    def test_fresh_after_refresh(self):
        store = small_store()
        manager = enable_columnar(store)
        snap = manager.current()
        assert snap.is_fresh()
        assert manager.current() is snap
        assert store.counters.snapshot_refreshes == 1  # no re-refresh

    def test_update_staleness_and_delta_refresh(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("p1", "a2")
        assert not manager.is_fresh()
        snap = manager.current()
        assert snap.is_fresh()
        assert snap.delta_refreshes == 1
        rows = snap.gather([snap.row("p1")], "age")
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a2"]

    def test_auto_refresh_off_serves_none_when_stale(self):
        store = small_store()
        manager = enable_columnar(store, auto_refresh=False)
        manager.refresh()
        assert manager.current() is not None
        store.insert_edge("p1", "a2")
        assert manager.current() is None  # stale: fall back, never serve
        manager.refresh()
        assert manager.current() is not None

    def test_disable_serves_none(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        manager.disable()
        assert manager.current() is None
        manager.enable()
        assert manager.current() is not None

    def test_epoch_bumps_only_on_change(self):
        store = small_store()
        manager = enable_columnar(store)
        snap = manager.current()
        epoch = snap.epoch
        manager.current()
        assert snap.epoch == epoch
        store.modify_value("a1", 46)
        manager.current()
        assert snap.epoch == epoch + 1


class TestDeltaReplay:
    def test_delete_edge(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.delete_edge("root", "p2")
        snap = manager.current()
        rows = snap.gather([snap.row("root")], "professor")
        assert [snap.oid(r) for r in rows] == ["p1"]

    def test_modify_is_structural_noop(self):
        store = small_store()
        manager = enable_columnar(store)
        before = manager.current().gather([0, 1, 2, 3, 4], None)
        store.modify_value("a1", 46)
        after = manager.current().gather([0, 1, 2, 3, 4], None)
        assert sorted(before) == sorted(after)

    def test_creation_appends_row(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.add_atomic("a3", "age", 20)
        store.insert_edge("p1", "a3")
        snap = manager.current()
        assert snap.row("a3") is not None
        rows = snap.gather([snap.row("p1")], "age")
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a3"]

    def test_created_set_object_with_children(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.add_set("p3", "professor", ["a1", "a2"])
        store.insert_edge("root", "p3")
        snap = manager.current()
        rows = snap.gather([snap.row("p3")], "age")
        assert sorted(snap.oid(r) for r in rows) == ["a1", "a2"]

    def test_removal_tombstones_row(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        store.delete_edge("p2", "a2")
        store.remove_object("a2")
        snap = manager.current()
        assert snap.row("a2") is None
        assert snap.gather([snap.row("p2")], None) == []

    def test_dangling_edge_hidden_until_child_exists(self):
        store = ObjectStore(check_references=False)
        store.add_set("root", "root")
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("root", "ghost")  # child does not exist yet
        snap = manager.current()
        assert snap.gather([snap.row("root")], None) == []
        store.add_atomic("ghost", "age", 1)
        snap = manager.current()
        rows = snap.gather([snap.row("root")], "age")
        assert [snap.oid(r) for r in rows] == ["ghost"]

    def test_pending_edge_deleted_before_resolution(self):
        store = ObjectStore(check_references=False)
        store.add_set("root", "root")
        manager = enable_columnar(store)
        manager.current()
        store.insert_edge("root", "ghost")
        store.delete_edge("root", "ghost")
        store.add_atomic("ghost", "age", 1)
        snap = manager.current()
        assert snap.gather([snap.row("root")], None) == []

    def test_recreated_oid_forces_rebuild(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        rebuilds = manager.full_rebuilds
        store.delete_edge("p2", "a2")
        store.remove_object("a2")
        store.add_atomic("a2", "age", 99)
        store.insert_edge("p2", "a2")
        snap = manager.current()
        assert snap.full_rebuilds == rebuilds + 1
        rows = snap.gather([snap.row("p2")], "age")
        assert [snap.oid(r) for r in rows] == ["a2"]

    def test_large_delta_triggers_rebuild(self):
        store = small_store()
        manager = enable_columnar(store, rebuild_threshold=0.25)
        manager.current()
        rebuilds = manager.full_rebuilds
        for _ in range(3):  # 6 updates > 0.25 * 5 rows
            store.insert_edge("p1", "a2")
            store.delete_edge("p1", "a2")
        manager.current()
        assert manager.full_rebuilds == rebuilds + 1

    def test_describe_mentions_state(self):
        store = small_store()
        manager = enable_columnar(store)
        manager.current()
        assert "fresh" in manager.describe()
        store.modify_value("a1", 46)
        assert "stale" in manager.describe()
