"""Tests for extended maintenance: wildcards and conjunctions (Section 6)."""

import pytest

from repro.errors import MaintenanceError
from repro.gsdb import ObjectStore, ParentIndex
from repro.views import (
    ExtendedViewMaintainer,
    MaterializedView,
    ViewDefinition,
    check_consistency,
    populate_view,
)


def make_view(store, definition):
    index = ParentIndex(store)
    view = MaterializedView(ViewDefinition.parse(definition), store)
    populate_view(view)
    store.subscribe(ExtendedViewMaintainer(view, parent_index=index).handle)
    return view


class TestWildcardSelectPath:
    DEF = "define mview VJ as: SELECT ROOT.* X WHERE X.name = 'John'"

    def test_initial_members(self, person_tree_store):
        view = make_view(person_tree_store, self.DEF)
        assert view.members() == {"P1", "P3"}

    def test_insert_member_anywhere(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        # Deep new student named John under P3.
        s.add_atomic("N9", "name", "John")
        s.add_set("S9", "advisee", ["N9"])
        s.insert_edge("P3", "S9")
        assert view.members() == {"P1", "P3", "S9"}
        assert check_consistency(view).ok

    def test_modify_into_and_out(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        s.modify_value("N2", "John")
        assert "P2" in view.members()
        s.modify_value("N2", "Sally")
        assert "P2" not in view.members()
        assert check_consistency(view).ok

    def test_delete_subtree_removes_members(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        s.delete_edge("ROOT", "P1")
        # Both P1 and P3 (inside P1's subtree) leave.
        assert view.members() == set()
        assert check_consistency(view).ok

    def test_ancestors_gain_membership_via_inserted_witness(
        self, person_tree_store
    ):
        s = person_tree_store
        view = make_view(s, self.DEF)
        s.add_atomic("N8", "name", "John")
        s.insert_edge("P4", "N8")  # the secretary is now a John
        assert "P4" in view.members()
        assert check_consistency(view).ok


class TestQuestionMark:
    DEF = "define mview KIDS as: SELECT ROOT.?.? X"

    def test_two_level_children(self, person_tree_store):
        view = make_view(person_tree_store, self.DEF)
        assert view.members() == {
            "N1", "A1", "S1", "P3", "N2", "ADD2", "N4", "A4",
        }

    def test_insert_at_matched_depth(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        s.add_atomic("X1", "anything", 5)
        s.insert_edge("P2", "X1")
        assert "X1" in view.members()
        s.insert_edge("ROOT", "X1") if False else None
        assert check_consistency(view).ok

    def test_insert_too_deep_ignored(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        s.add_atomic("X2", "deep", 5)
        s.insert_edge("P3", "X2")  # depth 3
        assert "X2" not in view.members()
        assert check_consistency(view).ok


class TestConjunction:
    DEF = (
        "define mview YJ as: SELECT ROOT.professor X "
        "WHERE X.age <= 45 AND X.name = 'John'"
    )

    def test_both_conditions_required(self, person_tree_store):
        view = make_view(person_tree_store, self.DEF)
        assert view.members() == {"P1"}

    def test_losing_one_conjunct(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        s.modify_value("N1", "Johann")
        assert view.members() == set()
        s.modify_value("N1", "John")
        assert view.members() == {"P1"}
        assert check_consistency(view).ok

    def test_gaining_second_conjunct(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        # P2 (Sally) gets an age, still not John.
        s.add_atomic("A2", "age", 30)
        s.insert_edge("P2", "A2")
        assert view.members() == {"P1"}
        s.modify_value("N2", "John")
        assert view.members() == {"P1", "P2"}
        assert check_consistency(view).ok


class TestWildcardConditionPath:
    DEF = (
        "define mview GJ as: SELECT ROOT.professor X "
        "WHERE X.*.name = 'John'"
    )

    def test_descendant_condition(self, person_tree_store):
        # P1 qualifies via its own name and via its student's name.
        view = make_view(person_tree_store, self.DEF)
        assert view.members() == {"P1"}

    def test_removing_one_of_two_witnesses(self, person_tree_store):
        s = person_tree_store
        view = make_view(s, self.DEF)
        s.modify_value("N1", "X")  # student N3 still 'John'
        assert view.members() == {"P1"}
        s.modify_value("N3", "Y")
        assert view.members() == set()
        assert check_consistency(view).ok


class TestRejection:
    def test_or_condition_rejected(self, person_tree_store):
        view = MaterializedView(
            ViewDefinition.parse(
                "define mview B as: SELECT ROOT.professor X "
                "WHERE X.age > 1 OR X.age < 0"
            ),
            person_tree_store,
        )
        with pytest.raises(MaintenanceError):
            ExtendedViewMaintainer(view)


class TestStarDepthBeyondOne:
    DEF = "define mview DS as: SELECT R.a.*.leaf X"

    @pytest.fixture
    def chain_store(self):
        s = ObjectStore()
        s.add_atomic("leaf1", "leaf", 1)
        s.add_set("m2", "mid", ["leaf1"])
        s.add_set("m1", "mid", ["m2"])
        s.add_set("a1", "a", ["m1"])
        s.add_set("R", "root", ["a1"])
        return s

    def test_star_spans_levels(self, chain_store):
        view = make_view(chain_store, self.DEF)
        assert view.members() == {"leaf1"}

    def test_insert_extends_star_region(self, chain_store):
        s = chain_store
        view = make_view(s, self.DEF)
        s.add_atomic("leaf2", "leaf", 2)
        s.insert_edge("m1", "leaf2")
        assert view.members() == {"leaf1", "leaf2"}
        s.delete_edge("a1", "m1")
        assert view.members() == set()
        assert check_consistency(view).ok
