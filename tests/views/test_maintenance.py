"""Tests for Algorithm 1 — the paper's core contribution (Section 4.3).

Covers the full case analysis: the three update kinds, both delete
sub-cases, non-unique labels, unreachable regions, views without a
WHERE clause, indexed and unindexed evaluation, and the delegate
value-refresh extension.
"""

import pytest

from repro.gsdb import ObjectStore, ParentIndex
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    check_consistency,
    populate_view,
)

YP_DEF = "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"


def make_view(store, definition=YP_DEF, *, indexed=True):
    index = ParentIndex(store) if indexed else None
    view = MaterializedView(ViewDefinition.parse(definition), store)
    populate_view(view)
    maintainer = SimpleViewMaintainer(view, parent_index=index)
    store.subscribe(maintainer.handle)
    return view, maintainer


@pytest.fixture
def tree(person_tree_store) -> ObjectStore:
    return person_tree_store


class TestPaperExamples:
    def test_example_5_insert_p2_a2(self, tree):
        view, _ = make_view(tree)
        assert view.members() == {"P1"}
        tree.add_atomic("A2", "age", 40)
        tree.insert_edge("P2", "A2")
        # Figure 4: YP.P2 appears.
        assert view.members() == {"P1", "P2"}
        assert check_consistency(view).ok

    def test_example_6_delete_root_p1(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("A2", "age", 40)
        tree.insert_edge("P2", "A2")
        tree.delete_edge("ROOT", "P1")
        # "The resulting view is the original view with YP.P1 removed."
        assert view.members() == {"P2"}
        assert check_consistency(view).ok


class TestInsertCases:
    def test_insert_condition_witness(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("A2", "age", 30)
        tree.insert_edge("P2", "A2")
        assert "P2" in view.members()

    def test_insert_nonmatching_label_ignored(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("Z", "zipcode", 94305)
        tree.insert_edge("P2", "Z")
        assert view.members() == {"P1"}
        assert check_consistency(view).ok

    def test_insert_witness_not_satisfying(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("A2", "age", 90)
        tree.insert_edge("P2", "A2")
        assert view.members() == {"P1"}

    def test_insert_whole_subtree_with_members(self, tree):
        # Graft a new professor (with satisfying age) under ROOT.
        view, _ = make_view(tree)
        tree.add_atomic("A5", "age", 30)
        tree.add_set("P5", "professor", ["A5"])
        tree.insert_edge("ROOT", "P5")
        assert view.members() == {"P1", "P5"}
        assert check_consistency(view).ok

    def test_insert_in_unreachable_region_ignored(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("A9", "age", 10)
        tree.add_set("ORPHAN", "professor", [])
        tree.insert_edge("ORPHAN", "A9")  # ORPHAN not under ROOT
        assert view.members() == {"P1"}

    def test_insert_below_member_refreshes_delegate(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("HOBBY", "hobby", "golf")
        tree.insert_edge("P1", "HOBBY")
        assert "HOBBY" in view.delegate("P1").children()
        assert check_consistency(view).ok

    def test_reattach_subtree(self, tree):
        view, _ = make_view(tree)
        tree.delete_edge("ROOT", "P1")
        assert view.members() == set()
        tree.insert_edge("ROOT", "P1")
        assert view.members() == {"P1"}
        assert check_consistency(view).ok


class TestDeleteCases:
    def test_delete_inside_subtree_case(self, tree):
        # p = p1.cond_path: the member is detached with the subtree.
        view, _ = make_view(tree)
        tree.delete_edge("ROOT", "P1")
        assert view.members() == set()

    def test_delete_surviving_ancestor_loses_only_witness(self, tree):
        # Y survives above the deleted edge; no other derivation.
        view, _ = make_view(tree)
        tree.delete_edge("P1", "A1")
        assert view.members() == set()
        assert check_consistency(view).ok

    def test_delete_with_remaining_derivation(self, tree):
        # Non-unique labels: P1 has two ages; deleting one keeps P1.
        view, _ = make_view(tree)
        tree.add_atomic("A1b", "age", 40)
        tree.insert_edge("P1", "A1b")
        tree.delete_edge("P1", "A1")
        assert view.members() == {"P1"}  # A1b still satisfies
        tree.delete_edge("P1", "A1b")
        assert view.members() == set()
        assert check_consistency(view).ok

    def test_delete_with_nonsatisfying_remaining_witness(self, tree):
        # Remaining age exists but does not satisfy: member leaves.
        view, _ = make_view(tree)
        tree.add_atomic("A1b", "age", 80)
        tree.insert_edge("P1", "A1b")
        tree.delete_edge("P1", "A1")
        assert view.members() == set()

    def test_delete_nonmatching_label_ignored(self, tree):
        view, _ = make_view(tree)
        tree.delete_edge("P1", "N1")
        assert view.members() == {"P1"}
        assert check_consistency(view).ok

    def test_delete_refreshes_member_delegate(self, tree):
        view, _ = make_view(tree)
        tree.delete_edge("P1", "S1")
        assert "S1" not in view.delegate("P1").children()


class TestModifyCases:
    def test_modify_into_view(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("A2", "age", 90)
        tree.insert_edge("P2", "A2")
        tree.modify_value("A2", 40)
        assert view.members() == {"P1", "P2"}

    def test_modify_out_of_view(self, tree):
        view, _ = make_view(tree)
        tree.modify_value("A1", 50)
        assert view.members() == set()

    def test_modify_no_membership_change(self, tree):
        view, _ = make_view(tree)
        tree.modify_value("A1", 44)
        assert view.members() == {"P1"}
        assert check_consistency(view).ok

    def test_modify_other_derivation_keeps_member(self, tree):
        view, _ = make_view(tree)
        tree.add_atomic("A1b", "age", 30)
        tree.insert_edge("P1", "A1b")
        tree.modify_value("A1", 99)  # A1b still satisfies
        assert view.members() == {"P1"}

    def test_modify_off_path_ignored(self, tree):
        view, _ = make_view(tree)
        tree.modify_value("A4", 10)  # secretary age: wrong sel path
        assert view.members() == {"P1"}

    def test_modify_unreachable_ignored(self, tree):
        view, _ = make_view(tree)
        tree.delete_edge("ROOT", "P1")
        tree.modify_value("A1", 10)
        assert view.members() == set()


class TestNoConditionViews:
    DEF = "define mview PS as: SELECT ROOT.professor.student X"

    def test_initial(self, tree):
        view, _ = make_view(tree, self.DEF)
        assert view.members() == {"P3"}

    def test_insert_new_member(self, tree):
        view, _ = make_view(tree, self.DEF)
        tree.add_set("P3b", "student", [])
        tree.insert_edge("P2", "P3b")
        assert view.members() == {"P3", "P3b"}

    def test_insert_subtree_with_members(self, tree):
        view, _ = make_view(tree, self.DEF)
        tree.add_set("S9", "student", [])
        tree.add_set("P9", "professor", ["S9"])
        tree.insert_edge("ROOT", "P9")
        assert view.members() == {"P3", "S9"}

    def test_delete_removes_member(self, tree):
        view, _ = make_view(tree, self.DEF)
        tree.delete_edge("P1", "P3")
        assert view.members() == set()

    def test_delete_above_members(self, tree):
        view, _ = make_view(tree, self.DEF)
        tree.delete_edge("ROOT", "P1")
        assert view.members() == set()

    def test_modify_is_irrelevant(self, tree):
        view, _ = make_view(tree, self.DEF)
        tree.modify_value("A3", 99)
        assert view.members() == {"P3"}
        assert check_consistency(view).ok


class TestAtomicMemberViews:
    """cond_path empty: the selected objects are the tested atoms."""

    DEF = "define mview AGES as: SELECT ROOT.professor.age X WHERE X.age > 0"

    def test_wrong_def(self):
        # X.age under an age object never matches: the sensible form
        # tests the object's own value via the empty-suffix trick below.
        pass

    DEF2 = "define mview NAMES as: SELECT ROOT.professor.name X"

    def test_atomic_members_selected(self, tree):
        view, _ = make_view(tree, self.DEF2)
        assert view.members() == {"N1", "N2"}

    def test_modify_refreshes_atomic_delegate(self, tree):
        view, _ = make_view(tree, self.DEF2)
        tree.modify_value("N1", "Johnny")
        assert view.delegate("N1").value == "Johnny"
        assert check_consistency(view).ok


class TestUnindexedMaintenance:
    """Section 4.4: without the inverse index the functions traverse
    from ROOT; results must be identical."""

    def test_same_results_without_index(self, tree):
        view, _ = make_view(tree, indexed=False)
        tree.add_atomic("A2", "age", 40)
        tree.insert_edge("P2", "A2")
        tree.modify_value("A2", 99)
        tree.delete_edge("P1", "A1")
        assert view.members() == set()
        assert check_consistency(view).ok

    def test_delete_subtree_without_index(self, tree):
        view, _ = make_view(tree, indexed=False)
        tree.delete_edge("ROOT", "P1")
        assert view.members() == set()
        assert check_consistency(view).ok


class TestDeepPaths:
    DEF = "define mview D as: SELECT R.a.b X WHERE X.c.d > 10"

    @pytest.fixture
    def deep(self):
        s = ObjectStore()
        s.add_atomic("d1", "d", 20)
        s.add_set("c1", "c", ["d1"])
        s.add_set("b1", "b", ["c1"])
        s.add_set("a1", "a", ["b1"])
        s.add_set("R", "root", ["a1"])
        return s

    def test_member_via_two_level_condition(self, deep):
        view, _ = make_view(deep, self.DEF)
        assert view.members() == {"b1"}

    def test_insert_mid_condition_path(self, deep):
        view, _ = make_view(deep, self.DEF)
        deep.add_atomic("d2", "d", 99)
        deep.add_set("c2", "c", ["d2"])
        deep.delete_edge("P_nothing", "x") if False else None
        deep.insert_edge("b1", "c2")
        assert view.members() == {"b1"}
        deep.modify_value("d1", 0)
        assert view.members() == {"b1"}  # d2 still witnesses
        deep.delete_edge("b1", "c2")
        assert view.members() == set()  # d1 no longer satisfies
        assert check_consistency(view).ok

    def test_delete_between_sel_and_cond(self, deep):
        view, _ = make_view(deep, self.DEF)
        deep.delete_edge("c1", "d1")
        assert view.members() == set()

    def test_delete_edge_above_everything(self, deep):
        view, _ = make_view(deep, self.DEF)
        deep.delete_edge("R", "a1")
        assert view.members() == set()
        assert check_consistency(view).ok


class TestDegenerateEmptySelectPath:
    """``SELECT ROOT X WHERE ...``: the root itself is the candidate."""

    DEF = "define mview Z as: SELECT ROOT X WHERE X.professor.age <= 45"

    def test_root_membership_tracks_condition(self, tree):
        view, _ = make_view(tree, self.DEF)
        assert view.members() == {"ROOT"}
        tree.modify_value("A1", 99)
        assert view.members() == set()
        assert check_consistency(view).ok
        tree.modify_value("A1", 20)
        assert view.members() == {"ROOT"}
        assert check_consistency(view).ok


class TestMaintainerBookkeeping:
    def test_updates_processed_counted(self, tree):
        _, maintainer = make_view(tree)
        tree.modify_value("A1", 44)
        tree.modify_value("A1", 43)
        assert maintainer.updates_processed == 2

    def test_handle_all(self, tree):
        view, maintainer = make_view(tree)
        tree.unsubscribe(maintainer.handle)
        updates = [
            tree.modify_value("A1", 99),
        ]
        # Manually applied but not maintained; replay through handle_all
        # is not possible post-hoc (state moved), so verify recompute
        # catches it instead.
        report = check_consistency(view)
        assert not report.ok

    def test_non_simple_definition_rejected(self, tree):
        view = MaterializedView(
            ViewDefinition.parse(
                "define mview W as: SELECT ROOT.* X WHERE X.name = 'J'"
            ),
            tree,
        )
        from repro.errors import ViewDefinitionError

        with pytest.raises(ViewDefinitionError):
            SimpleViewMaintainer(view)
