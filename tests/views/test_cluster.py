"""Tests for view clusters: shared delegates (paper Section 3.2, end)."""

import pytest

from repro.errors import ViewError
from repro.gsdb import ParentIndex
from repro.views import (
    SimpleViewMaintainer,
    ViewCluster,
    ViewDefinition,
    check_consistency,
)
from repro.views.recompute import compute_view_members


@pytest.fixture
def cluster(person_tree_store) -> ViewCluster:
    return ViewCluster("CL", person_tree_store)


YOUNG = "define mview YOUNG as: SELECT ROOT.professor X WHERE X.age <= 45"
JOHNS = "define mview JOHNS as: SELECT ROOT.professor X WHERE X.name = 'John'"


class TestSharedDelegates:
    def test_single_physical_copy(self, cluster, person_tree_store):
        young = cluster.add_view(ViewDefinition.parse(YOUNG))
        johns = cluster.add_view(ViewDefinition.parse(JOHNS))
        young.v_insert("P1")
        johns.v_insert("P1")
        # One shared delegate, two references.
        assert cluster.refcount("P1") == 2
        assert cluster.shared_delegates() == {"CL.P1"}
        assert young.delegate("P1") is johns.delegate("P1")

    def test_delegate_survives_partial_release(self, cluster):
        young = cluster.add_view(ViewDefinition.parse(YOUNG))
        johns = cluster.add_view(ViewDefinition.parse(JOHNS))
        young.v_insert("P1")
        johns.v_insert("P1")
        young.v_delete("P1")
        assert cluster.refcount("P1") == 1
        assert johns.delegate("P1") is not None

    def test_delegate_collected_at_zero(self, cluster, person_tree_store):
        young = cluster.add_view(ViewDefinition.parse(YOUNG))
        young.v_insert("P1")
        young.v_delete("P1")
        assert cluster.refcount("P1") == 0
        assert "CL.P1" not in person_tree_store

    def test_release_unreferenced_raises(self, cluster):
        with pytest.raises(ViewError):
            cluster.release("P1")

    def test_duplicate_view_name_rejected(self, cluster):
        cluster.add_view(ViewDefinition.parse(YOUNG))
        with pytest.raises(ViewError):
            cluster.add_view(ViewDefinition.parse(YOUNG))

    def test_refresh_shared_delegate(self, cluster, person_tree_store):
        young = cluster.add_view(ViewDefinition.parse(YOUNG))
        young.v_insert("P1")
        person_tree_store.add_atomic("H", "hobby", "golf")
        person_tree_store.insert_edge("P1", "H")
        young.refresh("P1")
        assert "H" in young.delegate("P1").children()


class TestMaintainedCluster:
    def test_maintainers_drive_cluster_views(self, cluster, person_tree_store):
        s = person_tree_store
        index = ParentIndex(s)
        index.ignore_view("CL")
        for definition in (YOUNG, JOHNS):
            d = ViewDefinition.parse(definition)
            view = cluster.add_view(d)
            index.ignore_parent(view.oid)
            view.load_members(compute_view_members(d, s))
            s.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
        young = cluster.views["YOUNG"]
        johns = cluster.views["JOHNS"]
        assert young.members() == {"P1"}
        assert johns.members() == {"P1"}
        assert cluster.refcount("P1") == 2

        s.modify_value("A1", 99)  # P1 too old now, still John
        assert young.members() == set()
        assert johns.members() == {"P1"}
        assert cluster.refcount("P1") == 1
        assert check_consistency(young).ok
        assert check_consistency(johns).ok

        s.add_atomic("A2", "age", 20)
        s.insert_edge("P2", "A2")
        assert young.members() == {"P2"}
        assert cluster.shared_delegates() == {"CL.P1", "CL.P2"}

    def test_view_objects_point_into_pool(self, cluster, person_tree_store):
        young = cluster.add_view(ViewDefinition.parse(YOUNG))
        young.v_insert("P1")
        assert young.view_object.children() == {"CL.P1"}
        assert young.delegates() == {"CL.P1"}
