"""Tests for multi-select-path views (paper Section 6)."""

import pytest

from repro.errors import ViewDefinitionError
from repro.gsdb import ParentIndex
from repro.views import MultiPathView
from repro.workloads import UpdateStream, person_db

DEFS = (
    "define mview U as: SELECT ROOT.professor X WHERE X.age <= 45",
    "define mview U as: SELECT ROOT.secretary X WHERE X.age <= 45",
)


def maintained(view):
    """Subscribe each branch's maintainer to the base store."""
    for maintainer in view.maintainers:
        view.base_store.subscribe(maintainer.handle)
    return view


@pytest.fixture
def setup():
    store = person_db(tree=True)
    index = ParentIndex(store)
    view = maintained(MultiPathView("U", DEFS, store, parent_index=index))
    return store, view


class TestUnionSemantics:
    def test_initial_union(self, setup):
        store, view = setup
        # P1 (professor, 45) and P4 (secretary, 40).
        assert view.members() == {"P1", "P4"}
        assert view.check()

    def test_branches_tracked(self, setup):
        store, view = setup
        assert view.supporting_branches("P1") == {0}
        assert view.supporting_branches("P4") == {1}

    def test_shared_support(self):
        # One object selected by both branches (two label paths to it
        # is impossible in a tree, so use overlapping conditions).
        store = person_db(tree=True)
        index = ParentIndex(store)
        defs = (
            "define mview U as: SELECT ROOT.professor X WHERE X.age <= 45",
            "define mview U as: SELECT ROOT.professor X WHERE X.name = 'John'",
        )
        view = maintained(MultiPathView("U", defs, store, parent_index=index))
        assert view.supporting_branches("P1") == {0, 1}
        # Losing one derivation keeps the member.
        store.modify_value("A1", 99)  # too old, still John
        assert view.members() == {"P1"}
        assert view.supporting_branches("P1") == {1}
        store.modify_value("N1", "X")
        assert view.members() == set()
        assert view.check()

    def test_maintenance_per_branch(self, setup):
        store, view = setup
        store.add_atomic("A2", "age", 40)
        store.insert_edge("P2", "A2")
        assert view.members() == {"P1", "P2", "P4"}
        store.delete_edge("ROOT", "P4")
        assert view.members() == {"P1", "P2"}
        assert view.check()

    def test_random_stream_stays_consistent(self, setup):
        store, view = setup
        UpdateStream(
            store,
            seed=9,
            protected=frozenset({"ROOT"}),
            protected_prefixes=("U",),
        ).run(80)
        assert view.check()


class TestValidation:
    def test_needs_definitions(self, setup):
        store, _ = setup
        with pytest.raises(ViewDefinitionError):
            MultiPathView("Z", [], store)

    def test_rejects_non_simple(self, setup):
        store, _ = setup
        with pytest.raises(ViewDefinitionError):
            MultiPathView(
                "Z",
                ["define mview Z as: SELECT ROOT.* X WHERE X.age > 1"],
                store,
            )

    def test_rejects_mixed_entries(self, setup):
        store, _ = setup
        store.add_set("OTHER", "root2", [])
        with pytest.raises(ViewDefinitionError):
            MultiPathView(
                "Z",
                [
                    "define mview Z as: SELECT ROOT.professor X",
                    "define mview Z as: SELECT OTHER.professor X",
                ],
                store,
            )


class TestDelegates:
    def test_single_delegate_for_shared_member(self):
        store = person_db(tree=True)
        index = ParentIndex(store)
        defs = (
            "define mview U as: SELECT ROOT.professor X WHERE X.age <= 45",
            "define mview U as: SELECT ROOT.professor X WHERE X.name = 'John'",
        )
        view = maintained(MultiPathView("U", defs, store, parent_index=index))
        assert view.view.delegates() == {"U.P1"}
        assert view.delegate("P1").label == "professor"

    def test_delegate_refreshed_on_member_change(self, setup):
        store, view = setup
        store.add_atomic("H", "hobby", "golf")
        store.insert_edge("P1", "H")
        assert "H" in view.delegate("P1").children()
