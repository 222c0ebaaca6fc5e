"""Tests for epoch freezing and the pinned snapshot retention ring."""

import pytest

from repro.errors import PinnedEpochError
from repro.gsdb import ObjectStore
from repro.gsdb.columnar import ColumnarSnapshot, EpochView, SnapshotRetention
from repro.instrumentation.counters import CostCounters


def small_store():
    store = ObjectStore()
    store.add_atomic("a1", "name", "ann")
    store.add_atomic("a2", "age", 30)
    store.add_set("A", "emp", ["a1", "a2"])
    store.add_set("R", "root", ["A"])
    return store


class TestEpochView:
    def test_freeze_matches_live_snapshot(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        view = manager.freeze()
        assert isinstance(view, EpochView)
        assert view.nrows == manager.nrows
        assert view.epoch == manager.epoch
        for oid in store.oids():
            row = view.row(oid)
            assert row is not None
            assert view.oid(row) == oid
            assert view.label(row) == store.get(oid).label
        root = view.row("R")
        assert set(view.gather([root], None)) == {view.row("A")}

    def test_frozen_view_is_immune_to_later_writes(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        view = manager.freeze()
        before_rows = view.nrows
        a1 = view.row("a1")
        store.add_atomic("a3", "name", "cy")
        store.insert_edge("A", "a3")
        store.delete_edge("A", "a1")
        store.modify_value("a2", 77)
        manager.refresh()
        # The frozen epoch still answers with its own state.
        assert view.nrows == before_rows
        assert view.row("a3") is None
        assert view.row("a1") == a1
        assert view.atomic_value(view.row("a2")) == 30
        gathered = set(view.gather([view.row("A")], None))
        assert view.row("a1") in gathered

    def test_value_column_images_atoms_not_sets(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        view = manager.freeze()
        assert view.atomic_value(view.row("a1")) == "ann"
        assert view.atomic_value(view.row("A")) is None  # set object


class TestSnapshotRetention:
    def test_publish_is_idempotent_until_store_moves(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        retention = SnapshotRetention(manager)
        first = retention.publish()
        again = retention.publish()
        assert again is first
        assert len(retention.entries()) == 1
        store.modify_value("a2", 31)
        second = retention.publish()
        assert second.seq == first.seq + 1
        assert len(retention.entries()) == 2

    def test_reclaiming_a_pinned_epoch_raises(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        counters = CostCounters()
        retention = SnapshotRetention(manager, counters=counters)
        entry = retention.publish()
        assert retention.pin(entry)
        assert counters.snapshot_pins == 1
        with pytest.raises(PinnedEpochError) as exc:
            retention.reclaim(entry.seq)
        assert exc.value.seq == entry.seq
        assert exc.value.pins == 1
        # After the reader unpins, reclamation goes through.
        retention.unpin(entry)
        retention.reclaim(entry.seq)
        assert entry.reclaimed
        assert not retention.pin(entry)

    def test_capacity_eviction_skips_pinned_epochs(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        counters = CostCounters()
        retention = SnapshotRetention(manager, capacity=1, counters=counters)
        first = retention.publish()
        assert retention.pin(first)
        for value in (41, 42, 43):
            store.modify_value("a2", value)
            retention.publish()
        # Ring is over capacity, but the pinned oldest epoch survives.
        assert not first.reclaimed
        assert first in retention.entries()
        assert counters.epochs_published == 4
        # Unpinning lets the deferred eviction reclaim it.
        retention.unpin(first)
        assert first.reclaimed
        assert first not in retention.entries()
        assert len(retention.entries()) == 1
        assert counters.epochs_reclaimed >= 1

    def test_unpin_without_pin_raises(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        retention = SnapshotRetention(manager)
        entry = retention.publish()
        with pytest.raises(ValueError):
            retention.unpin(entry)

    def test_lag_counts_publications_and_dirty_tail(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        retention = SnapshotRetention(manager)
        first = retention.publish()
        assert retention.lag_of(first) == 0
        assert not retention.store_dirty()
        store.modify_value("a2", 50)
        assert retention.store_dirty()
        assert retention.lag_of(first) == 1  # unpublished tail counts
        second = retention.publish()
        assert retention.lag_of(second) == 0
        assert retention.lag_of(first) == 1

    def test_pinned_reader_answers_from_its_epoch_after_churn(self):
        store = small_store()
        manager = ColumnarSnapshot(store)
        retention = SnapshotRetention(manager, capacity=2)
        entry = retention.publish()
        retention.pin(entry)
        for value in range(60, 70):
            store.modify_value("a2", value)
            retention.publish()
        assert entry.view.atomic_value(entry.view.row("a2")) == 30
        retention.unpin(entry)
