"""Tests for full view (re)computation — the baseline of Section 4.4."""

import pytest

from repro.errors import QueryEvaluationError
from repro.gsdb import LabelIndex
from repro.instrumentation import Meter
from repro.views import (
    MaterializedView,
    ViewDefinition,
    check_consistency,
    compute_view_members,
    populate_view,
    recompute_view,
)

YP_DEF = "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"


class TestComputeMembers:
    def test_simple_view(self, person_tree_store):
        d = ViewDefinition.parse(YP_DEF)
        assert compute_view_members(d, person_tree_store) == {"P1"}

    def test_wildcard_view(self, person_store):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.* X WHERE X.name = 'John'"
        )
        assert compute_view_members(d, person_store) == {"P1", "P3"}

    @pytest.mark.parametrize(
        "text",
        [
            YP_DEF,
            "define mview V as: SELECT ROOT.* X WHERE X.name = 'John'",
            "define mview V as: SELECT ROOT.professor X ANS INT PERSON",
            "define mview V as: SELECT PERSON.? X WHERE X.age > 40",
            "define mview V as: SELECT ROOT.professor.student X",
            "define mview V as: SELECT ROOT.?.? X WHERE X > 30",
            "define mview V as: SELECT ROOT.* X WHERE EXISTS X.salary",
            "define mview V as: SELECT ROOT.* X "
            "WHERE X.name = 'John' WITHIN PERSON",
        ],
    )
    def test_label_index_same_members_never_more_accesses(
        self, person_registry, person_store, text
    ):
        d = ViewDefinition.parse(text)
        index = LabelIndex(person_store)
        with Meter(person_store.counters) as scanned:
            expected = compute_view_members(
                d, person_store, registry=person_registry
            )
        with Meter(person_store.counters) as probed:
            got = compute_view_members(
                d, person_store, registry=person_registry, label_index=index
            )
        assert got == expected
        assert (
            probed.delta.total_base_accesses()
            <= scanned.delta.total_base_accesses()
        )

    def test_scoped_view_requires_registry(self, person_store):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.* X "
            "WHERE X.name = 'John' WITHIN PERSON"
        )
        with pytest.raises(QueryEvaluationError):
            compute_view_members(d, person_store)

    def test_scoped_view_with_registry(self, person_registry):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.* X "
            "WHERE X.name = 'John' WITHIN PERSON"
        )
        assert compute_view_members(
            d, person_registry.store, registry=person_registry
        ) == {"P1", "P3"}

    def test_entry_resolution_via_registry(self, person_registry):
        d = ViewDefinition.parse("define mview V as: SELECT PERSON.? X")
        members = compute_view_members(
            d, person_registry.store, registry=person_registry
        )
        assert "P1" in members

    def test_unknown_entry(self, person_store):
        d = ViewDefinition.parse("define mview V as: SELECT NOPE.a X")
        with pytest.raises(QueryEvaluationError):
            compute_view_members(d, person_store)


class TestPopulateAndRecompute:
    def test_populate(self, person_tree_store):
        view = MaterializedView(
            ViewDefinition.parse(YP_DEF), person_tree_store
        )
        count = populate_view(view)
        assert count == 1
        assert view.members() == {"P1"}

    def test_recompute_inserts_and_deletes(self, person_tree_store):
        s = person_tree_store
        view = MaterializedView(ViewDefinition.parse(YP_DEF), s)
        populate_view(view)
        s.modify_value("A1", 99)  # no maintainer attached: view stale
        s.add_atomic("A2", "age", 10)
        s.insert_edge("P2", "A2")
        inserted, deleted = recompute_view(view)
        assert (inserted, deleted) == (1, 1)
        assert view.members() == {"P2"}

    def test_recompute_with_label_index(self, person_tree_store):
        s = person_tree_store
        index = LabelIndex(s)  # built first: it follows every update
        view = MaterializedView(ViewDefinition.parse(YP_DEF), s)
        populate_view(view)
        s.modify_value("A1", 99)
        s.add_atomic("A2", "age", 10)
        s.insert_edge("P2", "A2")
        with Meter(s.counters) as probed:
            assert recompute_view(view, label_index=index) == (1, 1)
        assert view.members() == {"P2"}
        assert probed.delta.index_probes > 0

    def test_check_consistency_with_label_index(self, person_tree_store):
        s = person_tree_store
        index = LabelIndex(s)
        view = MaterializedView(ViewDefinition.parse(YP_DEF), s)
        populate_view(view)
        assert check_consistency(view, label_index=index).ok
        s.modify_value("A1", 99)  # no maintainer attached: view stale
        report = check_consistency(view, label_index=index)
        assert not report.ok
        assert report.extra == {"P1"}

    def test_recompute_refreshes_survivors(self, person_tree_store):
        s = person_tree_store
        view = MaterializedView(ViewDefinition.parse(YP_DEF), s)
        populate_view(view)
        s.add_atomic("H", "hobby", "golf")
        s.insert_edge("P1", "H")
        recompute_view(view)
        assert "H" in view.delegate("P1").children()

    def test_recompute_counted(self, person_tree_store):
        view = MaterializedView(
            ViewDefinition.parse(YP_DEF), person_tree_store
        )
        populate_view(view)
        before = person_tree_store.counters.view_recomputations
        recompute_view(view)
        recompute_view(view)
        assert person_tree_store.counters.view_recomputations == before + 2

    def test_populate_not_counted_as_recomputation(self, person_tree_store):
        view = MaterializedView(
            ViewDefinition.parse(YP_DEF), person_tree_store
        )
        before = person_tree_store.counters.view_recomputations
        populate_view(view)
        assert person_tree_store.counters.view_recomputations == before


class TestRecomputeBesideEpochServer:
    """An epoch server's columnar snapshot is private: recomputation on
    the same store reads the live store, charges what it charges
    without the server, and never refreshes the server's snapshot."""

    def attach(self, store):
        from repro.gsdb import DatabaseRegistry
        from repro.serving import EpochServer

        server = EpochServer(DatabaseRegistry(store))
        server.publish()
        return server

    def test_members_and_charges_match_a_bare_store(self, person_tree_store):
        from repro.workloads import person_db

        bare = person_db(tree=True)
        d = ViewDefinition.parse(YP_DEF)
        self.attach(person_tree_store)
        before = person_tree_store.counters.snapshot()
        members = compute_view_members(d, person_tree_store)
        delta = person_tree_store.counters.delta_since(before)
        bare_before = bare.counters.snapshot()
        assert members == compute_view_members(d, bare) == {"P1"}
        assert delta.as_dict() == bare.counters.delta_since(bare_before).as_dict()

    def test_sees_updates_the_server_has_not_published(self, person_tree_store):
        d = ViewDefinition.parse(YP_DEF)
        server = self.attach(person_tree_store)
        refreshes = person_tree_store.counters.snapshot_refreshes
        person_tree_store.delete_edge("ROOT", "P1")
        assert compute_view_members(d, person_tree_store) == set()
        person_tree_store.insert_edge("ROOT", "P1")
        assert compute_view_members(d, person_tree_store) == {"P1"}
        assert person_tree_store.counters.snapshot_refreshes == refreshes
        assert server.retention.store_dirty()
