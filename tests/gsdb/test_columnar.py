"""Unit tests for the epoch-versioned columnar snapshot.

The live :class:`ColumnarSnapshot` only refreshes and freezes; every
read below goes through the :class:`EpochView` it freezes.
"""

import repro.gsdb.columnar as columnar
from repro.gsdb import ObjectStore
from repro.gsdb.columnar import ColumnarSnapshot, EpochView, SnapshotRetention
from repro.gsdb.indexes import ParentIndex
from repro.paths import PathExpression, compile_expression
from repro.paths.kernel import evaluate_many_on_snapshot


def small_store() -> ObjectStore:
    store = ObjectStore()
    store.add_atomic("a1", "age", 45)
    store.add_atomic("a2", "age", 30)
    store.add_set("p1", "professor", ["a1"])
    store.add_set("p2", "professor", ["a2"])
    store.add_set("root", "root", ["p1", "p2"])
    return store


def built(store: ObjectStore) -> ColumnarSnapshot:
    snap = ColumnarSnapshot(store)
    snap.refresh()
    return snap


class TestBuild:
    def test_rows_in_sorted_oid_order(self):
        store = small_store()
        view = ColumnarSnapshot(store).freeze()
        assert view.oid_of == sorted(store.oids())
        assert all(view.row(oid) == i for i, oid in enumerate(view.oid_of))
        assert view.nrows == 5

    def test_gather_per_label(self):
        view = ColumnarSnapshot(small_store()).freeze()
        root = view.row("root")
        children = view.gather([root], "professor")
        assert sorted(view.oid(r) for r in children) == ["p1", "p2"]
        assert view.gather([root], "age") == []

    def test_gather_all_labels(self):
        view = ColumnarSnapshot(small_store()).freeze()
        rows = view.gather([view.row("p1"), view.row("p2")], None)
        assert sorted(view.oid(r) for r in rows) == ["a1", "a2"]

    def test_atomic_rows_have_no_children(self):
        view = ColumnarSnapshot(small_store()).freeze()
        assert view.gather([view.row("a1")], None) == []

    def test_build_charges_refresh_and_rows(self):
        store = small_store()
        built(store)
        assert store.counters.snapshot_refreshes == 1
        assert store.counters.snapshot_rows_scanned >= 5


class TestFreshness:
    def test_fresh_after_refresh(self):
        store = small_store()
        snap = built(store)
        assert snap.is_fresh()
        assert snap.refresh() is snap
        assert store.counters.snapshot_refreshes == 1  # no re-refresh

    def test_update_staleness_and_delta_refresh(self):
        store = small_store()
        snap = built(store)
        store.insert_edge("p1", "a2")
        assert not snap.is_fresh()
        snap.refresh()
        assert snap.is_fresh()
        assert snap.delta_refreshes == 1
        view = snap.freeze()
        rows = view.gather([view.row("p1")], "age")
        assert sorted(view.oid(r) for r in rows) == ["a1", "a2"]

    def test_epoch_bumps_only_on_change(self):
        store = small_store()
        snap = built(store)
        epoch = snap.epoch
        snap.refresh()
        assert snap.epoch == epoch
        store.modify_value("a1", 46)
        snap.refresh()
        assert snap.epoch == epoch + 1


class TestDeltaReplay:
    def test_delete_edge(self):
        store = small_store()
        snap = built(store)
        store.delete_edge("root", "p2")
        view = snap.freeze()
        rows = view.gather([view.row("root")], "professor")
        assert [view.oid(r) for r in rows] == ["p1"]

    def test_modify_is_structural_noop(self):
        store = small_store()
        snap = ColumnarSnapshot(store)
        before = snap.freeze().gather([0, 1, 2, 3, 4], None)
        store.modify_value("a1", 46)
        after = snap.freeze().gather([0, 1, 2, 3, 4], None)
        assert sorted(before) == sorted(after)

    def test_creation_appends_row(self):
        store = small_store()
        snap = built(store)
        store.add_atomic("a3", "age", 20)
        store.insert_edge("p1", "a3")
        view = snap.freeze()
        assert view.row("a3") is not None
        rows = view.gather([view.row("p1")], "age")
        assert sorted(view.oid(r) for r in rows) == ["a1", "a3"]

    def test_created_set_object_with_children(self):
        store = small_store()
        snap = built(store)
        store.add_set("p3", "professor", ["a1", "a2"])
        store.insert_edge("root", "p3")
        view = snap.freeze()
        rows = view.gather([view.row("p3")], "age")
        assert sorted(view.oid(r) for r in rows) == ["a1", "a2"]

    def test_removal_tombstones_row(self):
        store = small_store()
        snap = built(store)
        store.delete_edge("p2", "a2")
        store.remove_object("a2")
        view = snap.freeze()
        assert view.row("a2") is None
        assert view.gather([view.row("p2")], None) == []

    def test_dangling_edge_hidden_until_child_exists(self):
        store = ObjectStore(check_references=False)
        store.add_set("root", "root")
        snap = built(store)
        store.insert_edge("root", "ghost")  # child does not exist yet
        view = snap.freeze()
        assert view.gather([view.row("root")], None) == []
        store.add_atomic("ghost", "age", 1)
        view = snap.freeze()
        rows = view.gather([view.row("root")], "age")
        assert [view.oid(r) for r in rows] == ["ghost"]

    def test_pending_edge_deleted_before_resolution(self):
        store = ObjectStore(check_references=False)
        store.add_set("root", "root")
        snap = built(store)
        store.insert_edge("root", "ghost")
        store.delete_edge("root", "ghost")
        store.add_atomic("ghost", "age", 1)
        view = snap.freeze()
        assert view.gather([view.row("root")], None) == []

    def test_recreated_oid_forces_rebuild(self):
        store = small_store()
        snap = built(store)
        rebuilds = snap.full_rebuilds
        store.delete_edge("p2", "a2")
        store.remove_object("a2")
        store.add_atomic("a2", "age", 99)
        store.insert_edge("p2", "a2")
        view = snap.freeze()
        assert snap.full_rebuilds == rebuilds + 1
        rows = view.gather([view.row("p2")], "age")
        assert [view.oid(r) for r in rows] == ["a2"]

    def test_large_delta_triggers_rebuild(self):
        store = small_store()
        snap = built(store)
        rebuilds = snap.full_rebuilds
        for _ in range(3):  # 6 updates > REBUILD_THRESHOLD * 5 rows
            store.insert_edge("p1", "a2")
            store.delete_edge("p1", "a2")
        snap.refresh()
        assert snap.full_rebuilds == rebuilds + 1


def wide_store(children: int = 40) -> ObjectStore:
    """A root over many atoms: a four-event delta stays far below the
    rebuild threshold, so refresh tries delta replay first."""
    store = ObjectStore()
    for i in range(children):
        store.add_atomic(f"a{i}", "age", i)
    store.add_set("r", "root", [f"a{i}" for i in range(children)])
    return store


def recreate_a2(store: ObjectStore) -> None:
    store.delete_edge("r", "a2")
    store.remove_object("a2")
    store.add_atomic("a2", "age", 2)
    store.insert_edge("r", "a2")


AGE = compile_expression(PathExpression.parse("age"))


class TestRefreshPostcondition:
    """``is_fresh()`` holds after every ``refresh()``, including when
    delta replay meets an event it refuses to patch (a re-created OID)
    while the delta is too small to escalate to a rebuild up front."""

    def test_one_refresh_leaves_snapshot_fresh(self):
        store = wide_store()
        snap = built(store)
        recreate_a2(store)
        snap.refresh()
        assert snap.is_fresh()

    def test_refused_replay_rebuilds_in_the_same_refresh(self):
        store = wide_store()
        snap = built(store)
        recreate_a2(store)
        snap.refresh()
        assert snap.delta_refreshes == 1
        assert snap.full_rebuilds == 2  # the initial build + this one

    def test_image_after_one_refresh_has_the_reattached_edge(self):
        # The view is built straight from the refreshed snapshot, not
        # through freeze(), which would refresh a second time.
        store = wide_store()
        snap = built(store)
        recreate_a2(store)
        snap.refresh()
        view = EpochView(snap, store.counters)
        members = evaluate_many_on_snapshot(view, AGE, ["r"])["r"]
        assert "a2" in members
        assert members == AGE.evaluate_many(store, ["r"])["r"]

    def test_epoch_advances_once_per_refresh(self):
        store = wide_store()
        snap = built(store)
        epoch = snap.epoch
        recreate_a2(store)
        snap.refresh()
        assert snap.epoch == epoch + 1
        snap.refresh()
        assert snap.epoch == epoch + 1

    def test_publish_refreshes_once(self):
        store = wide_store()
        snap = ColumnarSnapshot(store)
        retention = SnapshotRetention(snap)
        retention.publish()
        recreate_a2(store)
        before = store.counters.snapshot_refreshes
        entry = retention.publish()
        assert store.counters.snapshot_refreshes == before + 1
        assert entry.epoch == snap.epoch
        assert "a2" in evaluate_many_on_snapshot(entry.view, AGE, ["r"])["r"]

    def test_recreated_oid_with_new_label(self):
        store = wide_store()
        snap = built(store)
        store.delete_edge("r", "a2")
        store.remove_object("a2")
        store.add_atomic("a2", "name", "two")
        store.insert_edge("r", "a2")
        snap.refresh()
        view = EpochView(snap, store.counters)
        assert view.label(view.row("a2")) == "name"
        assert "a2" not in evaluate_many_on_snapshot(view, AGE, ["r"])["r"]


class TestRebuildThreshold:
    def test_threshold_is_a_module_constant(self, monkeypatch):
        # No caller tunes it; tests that must force rebuilds patch it.
        store = small_store()
        snap = built(store)
        monkeypatch.setattr(columnar, "REBUILD_THRESHOLD", 1e-9)
        store.modify_value("a1", 46)
        snap.refresh()
        assert snap.full_rebuilds == 2
        assert snap.delta_refreshes == 0

    def test_small_delta_replays_at_the_default(self):
        store = wide_store()
        snap = built(store)
        store.modify_value("a1", 7)
        snap.refresh()
        assert snap.full_rebuilds == 1
        assert snap.delta_refreshes == 1


def with_view(store: ObjectStore) -> ColumnarSnapshot:
    """A built snapshot of *store* that leaves view ``V`` out: ``V`` is
    registered with the parent index before its view object exists,
    as the catalog does."""
    index = ParentIndex(store)
    index.ignore_view("V")
    store.add_set("V", "view")
    snap = ColumnarSnapshot(store, is_view_object=index.is_view_object)
    snap.refresh()
    return snap


class TestViewObjectsOutsideImage:
    def test_build_skips_the_view_object(self):
        store = wide_store()
        snap = with_view(store)
        view = snap.freeze()
        assert snap.nrows == len(store) - 1
        assert view.row("V") is None

    def test_recreated_delegate_costs_no_rebuild(self):
        store = wide_store()
        snap = with_view(store)
        for _ in range(3):
            store.add_atomic("V.a1", "age", 1)
            store.insert_edge("V", "V.a1")
            store.delete_edge("V", "V.a1")
            store.remove_object("V.a1")
        store.add_atomic("V.a1", "age", 1)
        view = snap.freeze()
        assert snap.full_rebuilds == 1
        assert snap.nrows == len(store) - 2
        assert view.row("V.a1") is None
        assert sorted(view.oid(r) for r in view.gather([view.row("r")])) == (
            sorted(f"a{i}" for i in range(40))
        )

    def test_recreated_base_oid_still_rebuilds(self):
        store = wide_store()
        snap = with_view(store)
        recreate_a2(store)
        snap.refresh()
        assert snap.full_rebuilds == 2


def professors(count: int = 10) -> ObjectStore:
    """A root over *count* professors with one age each: three patched
    rows stay below the rebuild threshold."""
    store = ObjectStore()
    for i in range(count):
        store.add_atomic(f"a{i}", "age", i)
        store.add_set(f"p{i}", "professor", [f"a{i}"])
    store.add_set("root", "root", [f"p{i}" for i in range(count)])
    return store


def ages_of(view: EpochView, oid: str) -> set[str]:
    return {view.oid(r) for r in view.gather([view.row(oid)], "age")}


class TestCopyOnWriteOverlay:
    def test_three_epochs_patch_one_row_in_turn(self):
        store = professors()
        snap = built(store)
        store.insert_edge("p0", "a1")
        first = snap.freeze()
        store.insert_edge("p0", "a2")
        second = snap.freeze()
        store.delete_edge("p0", "a0")
        third = snap.freeze()
        assert snap.full_rebuilds == 1
        assert ages_of(first, "p0") == {"a0", "a1"}
        assert ages_of(second, "p0") == {"a0", "a1", "a2"}
        assert ages_of(third, "p0") == {"a1", "a2"}

    def test_row_untouched_since_the_last_freeze_is_shared(self):
        store = professors()
        snap = built(store)
        store.insert_edge("p0", "a1")
        first = snap.freeze()
        store.insert_edge("p1", "a0")
        second = snap.freeze()
        p0, p1 = first.row("p0"), first.row("p1")
        assert second._patched[p0] is first._patched[p0]
        assert p1 not in first._patched
        assert ages_of(first, "p1") == {"a1"}
        assert ages_of(second, "p1") == {"a0", "a1"}
