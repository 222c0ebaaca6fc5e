"""Union views through the catalog (paper Section 6): several select
paths or OR conditions, one materialized view, a maintainer per
branch."""

import pytest

from repro.errors import ViewDefinitionError
from repro.views import ViewCatalog, ViewDefinition, compute_view_members
from repro.workloads import UpdateStream, random_labelled_tree

DEFS = (
    "define mview U as: SELECT ROOT.professor X WHERE X.age <= 45",
    "define mview U as: SELECT ROOT.secretary X WHERE X.age <= 45",
)
#: Two branches selecting P1 (professor, age 45, name John).
OVERLAPPING = (
    "define mview U as: SELECT ROOT.professor X WHERE X.age <= 45",
    "define mview U as: SELECT ROOT.professor X WHERE X.name = 'John'",
)


def supporting(catalog, name, oid):
    """Indexes of the branches whose maintainer's view holds *oid*."""
    return {
        index
        for index, maintainer in enumerate(catalog.maintainers[name])
        if maintainer.view.contains(oid)
    }


@pytest.fixture
def union(person_catalog):
    view = person_catalog.define(ViewDefinition.union("U", DEFS))
    return person_catalog, view


class TestUnionSemantics:
    def test_initial_union(self, union):
        catalog, view = union
        # P1 (professor, 45) and P4 (secretary, 40).
        assert view.members() == {"P1", "P4"}
        assert catalog.check("U").ok

    def test_branches_tracked(self, union):
        catalog, _ = union
        assert supporting(catalog, "U", "P1") == {0}
        assert supporting(catalog, "U", "P4") == {1}

    def test_shared_support(self, person_catalog):
        catalog = person_catalog
        view = catalog.define(ViewDefinition.union("U", OVERLAPPING))
        assert supporting(catalog, "U", "P1") == {0, 1}
        # Losing one derivation keeps the member.
        catalog.store.modify_value("A1", 99)  # too old, still John
        assert view.members() == {"P1"}
        assert supporting(catalog, "U", "P1") == {1}
        catalog.store.modify_value("N1", "X")
        assert view.members() == set()
        assert catalog.check("U").ok

    def test_or_condition_shares_support(self, person_catalog):
        catalog = person_catalog
        view = catalog.define(
            "define mview U as: SELECT ROOT.professor X "
            "WHERE X.age <= 45 OR X.name = 'John'"
        )
        assert len(catalog.maintainers["U"]) == 2
        assert supporting(catalog, "U", "P1") == {0, 1}
        catalog.store.modify_value("A1", 99)
        assert view.members() == {"P1"}
        catalog.store.modify_value("N1", "X")
        assert view.members() == set()
        assert catalog.check("U").ok

    def test_maintenance_per_branch(self, union):
        catalog, view = union
        store = catalog.store
        store.add_atomic("A2", "age", 40)
        store.insert_edge("P2", "A2")
        assert view.members() == {"P1", "P2", "P4"}
        store.delete_edge("ROOT", "P4")
        assert view.members() == {"P1", "P2"}
        assert catalog.check("U").ok

    def test_random_stream_stays_consistent(self, union):
        catalog, _ = union
        UpdateStream(
            catalog.store,
            seed=9,
            protected=frozenset({"ROOT"}),
            protected_prefixes=("U",),
        ).run(80)
        assert catalog.check("U").ok

    def test_drop_unregisters_every_branch(self, union):
        catalog, _ = union
        catalog.drop_view("U")
        assert catalog.dispatcher.registered() == []
        assert "U" not in catalog.store


class TestValidation:
    def test_needs_definitions(self):
        with pytest.raises(ViewDefinitionError):
            ViewDefinition.union("Z", [])

    def test_rejects_mixed_entries(self):
        with pytest.raises(ViewDefinitionError):
            ViewDefinition.union(
                "Z",
                [
                    "define mview Z as: SELECT ROOT.professor X",
                    "define mview Z as: SELECT OTHER.professor X",
                ],
            )

    def test_extended_branch_gets_the_extended_maintainer(
        self, person_catalog
    ):
        view = person_catalog.define(
            ViewDefinition.union(
                "Z",
                [
                    "define mview Z as: SELECT ROOT.* X WHERE X.age > 40",
                    "define mview Z as: SELECT ROOT.secretary X",
                ],
            )
        )
        kinds = [type(m).__name__ for m in person_catalog.maintainers["Z"]]
        assert kinds == ["ExtendedViewMaintainer", "SimpleViewMaintainer"]
        assert person_catalog.check("Z").ok
        person_catalog.store.modify_value("A1", 30)
        assert person_catalog.check("Z").ok
        assert "P4" in view.members()


class TestDelegates:
    def test_single_delegate_for_shared_member(self, person_catalog):
        view = person_catalog.define(ViewDefinition.union("U", OVERLAPPING))
        assert view.delegates() == {"U.P1"}
        assert view.delegate("P1").label == "professor"

    def test_delegate_refreshed_on_member_change(self, union):
        catalog, view = union
        catalog.store.add_atomic("H", "hobby", "golf")
        catalog.store.insert_edge("P1", "H")
        assert "H" in view.delegate("P1").children()


class TestOracle:
    """``check`` and ``recompute`` read the whole union, not one
    branch."""

    BRANCHES = (
        "define mview M as: SELECT root0.a X WHERE X.b > 50",
        "define mview M as: SELECT root0.b X WHERE X.a < 40",
        "define mview M as: SELECT root0.c X",
    )

    def test_check_and_recompute_see_every_branch(self):
        store, _ = random_labelled_tree(
            nodes=25, labels=("a", "b", "c"), seed=0
        )
        catalog = ViewCatalog(store)
        view = catalog.define(ViewDefinition.union("M", self.BRANCHES))
        members = view.members()
        assert members
        assert catalog.check("M").ok
        assert catalog.recompute("M") == (0, 0)
        assert view.members() == members
        assert catalog.check("M").ok

    def test_recompute_clears_every_branch_from_behind(self, union):
        catalog, view = union
        _, secretary = catalog.maintainers["U"]

        def fail(update, context=None):
            raise RuntimeError("maintenance failed")

        secretary.handle = fail
        with pytest.raises(RuntimeError):
            catalog.store.delete_edge("ROOT", "P4")
        del secretary.handle
        assert set(catalog.maintainers["U"]) <= catalog.dispatcher.behind
        assert not catalog.check("U").ok
        assert catalog.recompute("U") == (0, 1)
        assert catalog.dispatcher.behind.isdisjoint(catalog.maintainers["U"])
        assert catalog.check("U").ok
        assert supporting(catalog, "U", "P4") == set()
        catalog.store.insert_edge("ROOT", "P4")
        assert view.members() == {"P1", "P4"}
        assert catalog.check("U").ok


class TestRecomputedBranch:
    def test_a_branch_under_not_is_recomputed_on_its_own(
        self, person_catalog
    ):
        catalog = person_catalog
        view = catalog.define(
            ViewDefinition.union(
                "Z",
                [
                    "define mview Z as: SELECT ROOT.professor X "
                    "WHERE NOT X.age > 45",
                    "define mview Z as: SELECT ROOT.secretary X",
                ],
            )
        )
        kinds = [type(m).__name__ for m in catalog.maintainers["Z"]]
        assert kinds == ["_RecomputeMaintainer", "SimpleViewMaintainer"]
        # P2 has no age, so NOT X.age > 45 holds for it.
        assert view.members() == {"P1", "P2", "P4"}
        catalog.store.modify_value("A1", 60)
        assert view.members() == {"P2", "P4"}
        UpdateStream(
            catalog.store,
            seed=3,
            protected=frozenset({"ROOT"}),
            protected_prefixes=("Z",),
        ).run(60)
        assert catalog.check("Z").ok
        for maintainer in catalog.maintainers["Z"]:
            branch = maintainer.view
            assert branch.members() == compute_view_members(
                branch.definition, catalog.store
            )
