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


class TestColumnarRecompute:
    """Scope-free recomputation through the columnar kernel: same
    member sets, fallback discipline, counters."""

    def test_members_match_interpreted(self, person_tree_store):
        from repro.gsdb.columnar import enable_columnar

        d = ViewDefinition.parse(YP_DEF)
        interpreted = compute_view_members(d, person_tree_store)
        enable_columnar(person_tree_store)
        assert compute_view_members(d, person_tree_store) == interpreted
        assert person_tree_store.counters.kernel_fallbacks == 0
        assert person_tree_store.counters.snapshot_rows_scanned > 0

    def test_members_match_after_updates(self, person_tree_store):
        from repro.gsdb.columnar import enable_columnar

        d = ViewDefinition.parse(YP_DEF)
        enable_columnar(person_tree_store)
        compute_view_members(d, person_tree_store)
        person_tree_store.delete_edge("ROOT", "P1")
        assert compute_view_members(d, person_tree_store) == set()
        person_tree_store.insert_edge("ROOT", "P1")
        assert compute_view_members(d, person_tree_store) == {"P1"}

    def test_stale_snapshot_charges_fallback(self, person_tree_store):
        from repro.gsdb.columnar import enable_columnar

        d = ViewDefinition.parse(YP_DEF)
        manager = enable_columnar(person_tree_store, auto_refresh=False)
        manager.refresh()
        person_tree_store.modify_value("N1", "Jon")
        assert compute_view_members(d, person_tree_store) == {"P1"}
        assert person_tree_store.counters.kernel_fallbacks == 1

    def test_scoped_views_never_use_kernel(self, person_registry):
        from repro.gsdb.columnar import enable_columnar

        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.* X "
            "WHERE X.name = 'John' WITHIN PERSON"
        )
        store = person_registry.store
        enable_columnar(store)
        before = store.counters.snapshot_rows_scanned
        assert compute_view_members(
            d, store, registry=person_registry
        ) == {"P1", "P3"}
        assert store.counters.snapshot_rows_scanned == before
        assert store.counters.kernel_fallbacks == 0
