"""Tests for aggregate views (paper Section 6, second open issue)."""

import pytest

from repro.gsdb import ParentIndex
from repro.views import (
    AggregateKind,
    AggregateView,
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    populate_view,
)

YP_DEF = "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"


@pytest.fixture
def setup(person_tree_store):
    store = person_tree_store
    index = ParentIndex(store)
    view = MaterializedView(ViewDefinition.parse(YP_DEF), store)
    populate_view(view)
    store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
    return store, view


def make_aggregate(view, kind, **kwargs):
    aggregate = AggregateView(f"AGG_{kind.value}", view, kind, **kwargs)
    view.base_store.subscribe(aggregate.handle)
    return aggregate


class TestInitialValues:
    def test_count(self, setup):
        store, view = setup
        agg = make_aggregate(view, AggregateKind.COUNT)
        assert agg.current_value() == 1  # just P1

    def test_sum_over_condition_path(self, setup):
        store, view = setup
        agg = make_aggregate(view, AggregateKind.SUM)
        assert agg.current_value() == 45  # P1's age

    def test_min_max_avg(self, setup):
        store, view = setup
        store.add_atomic("A2", "age", 30)
        store.insert_edge("P2", "A2")  # P2 joins: ages {45, 30}
        assert make_aggregate(view, AggregateKind.MIN).current_value() == 30
        assert make_aggregate(view, AggregateKind.MAX).current_value() == 45
        assert make_aggregate(view, AggregateKind.AVG).current_value() == 37.5

    def test_empty_view_aggregates(self, setup):
        store, view = setup
        store.delete_edge("ROOT", "P1")
        agg = make_aggregate(view, AggregateKind.SUM)
        assert agg.current_value() is None
        assert make_aggregate(view, AggregateKind.COUNT).current_value() == 0

    def test_aggregate_object_published(self, setup):
        store, view = setup
        agg = make_aggregate(view, AggregateKind.SUM)
        assert store.get(agg.name).value == 45


class TestMaintenance:
    def test_member_joins(self, setup):
        store, view = setup
        agg = make_aggregate(view, AggregateKind.SUM)
        store.add_atomic("A2", "age", 30)
        store.insert_edge("P2", "A2")
        assert agg.current_value() == 75
        assert agg.check()

    def test_member_leaves(self, setup):
        store, view = setup
        agg = make_aggregate(view, AggregateKind.COUNT)
        store.delete_edge("ROOT", "P1")
        assert agg.current_value() == 0
        assert agg.check()

    def test_value_change_within_member(self, setup):
        store, view = setup
        agg = make_aggregate(view, AggregateKind.SUM)
        store.modify_value("A1", 40)
        assert agg.current_value() == 40
        assert agg.check()

    def test_min_recovers_after_extremum_leaves(self, setup):
        store, view = setup
        store.add_atomic("A2", "age", 30)
        store.insert_edge("P2", "A2")
        agg = make_aggregate(view, AggregateKind.MIN)
        assert agg.current_value() == 30
        store.modify_value("A2", 99)  # P2 leaves the view
        assert agg.current_value() == 45
        assert agg.check()

    def test_multi_witness_member(self, setup):
        # Non-unique labels: a member with two ages contributes both.
        store, view = setup
        store.add_atomic("A1b", "age", 10)
        store.insert_edge("P1", "A1b")
        agg = make_aggregate(view, AggregateKind.SUM)
        assert agg.current_value() == 55
        store.delete_edge("P1", "A1b")
        assert agg.current_value() == 45
        assert agg.check()

    def test_irrelevant_update_noop(self, setup):
        store, view = setup
        agg = make_aggregate(view, AggregateKind.SUM)
        store.modify_value("A4", 1)  # secretary's age, not in view
        assert agg.current_value() == 45
        assert agg.check()


class TestCustomValuePath:
    def test_count_of_students_of_young_professors(self, setup):
        store, view = setup
        agg = AggregateView(
            "STUDENTS",
            view,
            AggregateKind.COUNT,
            value_path=("student",),
            value_filter=lambda v: True,
        )
        store.subscribe(agg.handle)
        # COUNT with a value path counts atomic values on it; P1's
        # student P3 is a set object, so count its name instead:
        agg2 = AggregateView(
            "STUDENT_NAMES",
            view,
            AggregateKind.COUNT,
            value_path=("student", "name"),
            value_filter=lambda v: True,
        )
        store.subscribe(agg2.handle)
        assert agg2.current_value() == 1  # N3
        store.delete_edge("P1", "P3")
        assert agg2.current_value() == 0
