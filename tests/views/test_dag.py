"""Tests for DAG-base maintenance via derivation counting (Section 6)."""

import pytest

from repro.gsdb import ObjectStore, ParentIndex
from repro.views import (
    DagCountingMaintainer,
    MaterializedView,
    ViewDefinition,
    check_consistency,
    populate_view,
)


def make_dag_view(store, definition):
    index = ParentIndex(store)
    view = MaterializedView(ViewDefinition.parse(definition), store)
    maintainer = DagCountingMaintainer(view, index)
    store.subscribe(maintainer.handle)
    return view, maintainer


@pytest.fixture
def shared_store() -> ObjectStore:
    """Two relations sharing one tuple (a genuine DAG)."""
    s = ObjectStore()
    s.add_atomic("a1", "age", 50)
    s.add_set("t1", "tuple", ["a1"])
    s.add_set("r1", "rel", ["t1"])
    s.add_set("r2", "rel", ["t1"])
    s.add_set("R", "top", ["r1", "r2"])
    return s


DEF = "define mview DV as: SELECT R.rel.tuple X WHERE X.age > 30"


class TestInitialization:
    def test_counts_both_derivations(self, shared_store):
        view, m = make_dag_view(shared_store, DEF)
        assert view.members() == {"t1"}
        assert m.reach["t1"] == 2
        assert m.wit["t1"] == 1

    def test_view_populated_on_init(self, shared_store):
        view, _ = make_dag_view(shared_store, DEF)
        assert check_consistency(view).ok


class TestMultiPathDeletion:
    """The core DAG difficulty: one derivation dies, another survives."""

    def test_one_path_removed_member_stays(self, shared_store):
        view, m = make_dag_view(shared_store, DEF)
        shared_store.delete_edge("r1", "t1")
        assert view.members() == {"t1"}
        assert m.reach["t1"] == 1
        assert check_consistency(view).ok

    def test_last_path_removed_member_leaves(self, shared_store):
        view, _ = make_dag_view(shared_store, DEF)
        shared_store.delete_edge("r1", "t1")
        shared_store.delete_edge("r2", "t1")
        assert view.members() == set()
        assert check_consistency(view).ok

    def test_upper_edge_removal_decrements(self, shared_store):
        view, m = make_dag_view(shared_store, DEF)
        shared_store.delete_edge("R", "r1")
        assert m.reach["t1"] == 1
        assert view.members() == {"t1"}
        assert check_consistency(view).ok


class TestInsertions:
    def test_new_sharing_edge_increments(self, shared_store):
        view, m = make_dag_view(shared_store, DEF)
        shared_store.add_set("r3", "rel", [])
        shared_store.insert_edge("R", "r3")
        shared_store.insert_edge("r3", "t1")
        assert m.reach["t1"] == 3
        assert view.members() == {"t1"}
        assert check_consistency(view).ok

    def test_new_subgraph_with_fresh_member(self, shared_store):
        view, m = make_dag_view(shared_store, DEF)
        shared_store.add_atomic("a2", "age", 60)
        shared_store.add_set("t2", "tuple", ["a2"])
        shared_store.insert_edge("r1", "t2")
        assert view.members() == {"t1", "t2"}
        assert m.wit["t2"] == 1
        assert check_consistency(view).ok

    def test_witness_sharing_counts_pairs(self, shared_store):
        # a1 shared by two tuples: each tuple has its own witness count.
        view, m = make_dag_view(shared_store, DEF)
        shared_store.add_set("t2", "tuple", [])
        shared_store.insert_edge("r1", "t2")
        shared_store.insert_edge("t2", "a1")  # a1 now under t1 and t2
        assert view.members() == {"t1", "t2"}
        assert m.wit["t2"] == 1
        shared_store.delete_edge("t2", "a1")
        assert view.members() == {"t1"}
        assert check_consistency(view).ok


class TestModify:
    def test_modify_affects_all_sharing_ancestors(self, shared_store):
        s = shared_store
        view, m = make_dag_view(s, DEF)
        s.add_set("t2", "tuple", ["a1"])  # a1 shared by t1 and t2
        s.insert_edge("r2", "t2")
        assert view.members() == {"t1", "t2"}
        s.modify_value("a1", 10)  # condition now false everywhere
        assert view.members() == set()
        s.modify_value("a1", 99)
        assert view.members() == {"t1", "t2"}
        assert check_consistency(view).ok

    def test_modify_without_condition_flip_is_cheap(self, shared_store):
        view, m = make_dag_view(shared_store, DEF)
        shared_store.modify_value("a1", 45)  # still > 30
        assert view.members() == {"t1"}
        assert view.delegate("a1") is None
        assert check_consistency(view).ok


class TestDiamond:
    """A diamond: two distinct paths ROOT→member through different mids."""

    @pytest.fixture
    def diamond(self):
        s = ObjectStore()
        s.add_atomic("v", "age", 99)
        s.add_set("leaf", "tuple", ["v"])
        s.add_set("m1", "rel", ["leaf"])
        s.add_set("m2", "rel", ["leaf"])
        s.add_set("R", "top", ["m1", "m2"])
        return s

    def test_two_distinct_full_paths(self, diamond):
        view, m = make_dag_view(diamond, DEF)
        assert m.reach["leaf"] == 2

    def test_cut_one_diamond_arm(self, diamond):
        view, m = make_dag_view(diamond, DEF)
        diamond.delete_edge("m1", "leaf")
        assert m.reach["leaf"] == 1
        assert view.members() == {"leaf"}
        assert check_consistency(view).ok


class TestNoConditionDag:
    DEF2 = "define mview T as: SELECT R.rel.tuple X"

    def test_membership_by_reach_only(self, shared_store):
        view, m = make_dag_view(shared_store, self.DEF2)
        assert view.members() == {"t1"}
        shared_store.delete_edge("r1", "t1")
        assert view.members() == {"t1"}
        shared_store.delete_edge("r2", "t1")
        assert view.members() == set()
        assert check_consistency(view).ok


class TestRepeatedLabels:
    """Labels repeating across path positions: an edge can factor into
    the delta at several split points of sel_path."""

    DEF3 = "define mview DV as: SELECT R.n.n X WHERE X.age > 30"

    @pytest.fixture
    def nn_store(self):
        s = ObjectStore()
        s.add_atomic("v1", "age", 50)
        s.add_set("n3", "n", ["v1"])  # level-2 'n'
        s.add_set("n2", "n", ["n3"])  # level-1 'n'
        s.add_set("n1", "n", ["n3"])  # shares n3: a DAG
        s.add_set("R", "root", ["n1", "n2"])
        return s

    def test_multi_position_edge(self, nn_store):
        s = nn_store
        view, m = make_dag_view(s, self.DEF3)
        assert m.reach["n3"] == 2
        # R -> n3: n3's label matches sel position 0 too, but there is
        # no continuation below it matching position 1, so reach holds.
        s.insert_edge("R", "n3")
        assert m.reach["n3"] == 2
        assert check_consistency(view).ok
        # A new child under n3 becomes reachable via R.n(n3).n(n4).
        s.add_set("n4", "n", [])
        s.insert_edge("n3", "n4")
        assert m.reach.get("n4") == 1
        s.add_atomic("v2", "age", 99)
        s.insert_edge("n4", "v2")
        assert view.members() == {"n3", "n4"}
        assert check_consistency(view).ok
        # Removing the short route drops n4 but keeps n3's two routes.
        s.delete_edge("R", "n3")
        assert view.members() == {"n3"}
        assert m.reach == {"n3": 2}
        assert check_consistency(view).ok

    def test_witness_paths_with_repeated_labels(self, nn_store):
        s = nn_store
        view, m = make_dag_view(
            s, "define mview DV as: SELECT R.n X WHERE X.n.age > 30"
        )
        # Members: n1, n2 (witness v1 via n3); n3 after R->n3 insert.
        assert view.members() == {"n1", "n2"}
        s.insert_edge("R", "n3")
        assert view.members() == {"n1", "n2"}  # n3 has no n.age below
        assert check_consistency(view).ok


class TestDelegateRefresh:
    def test_member_value_refreshed(self, shared_store):
        view, _ = make_dag_view(shared_store, DEF)
        shared_store.add_atomic("x", "extra", 0)
        shared_store.insert_edge("t1", "x")
        assert "x" in view.delegate("t1").children()
        assert check_consistency(view).ok
