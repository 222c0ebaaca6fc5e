"""Tests for the catalog façade over the extension view types."""

import pytest

from repro.errors import ViewError
from repro.gsdb import Insert, Modify, ObjectStore
from repro.views import AggregateKind, ViewCatalog, ViewDefinition

PRICED = "define mview V as: SELECT root.item X WHERE X.price > 65"


def priced_catalog() -> ViewCatalog:
    """Items A (70) and B (80) under root, C (20) not yet linked, and
    the view PRICED over them."""
    catalog = ViewCatalog()
    store = catalog.store
    for item, price in (("A", 70), ("B", 80), ("C", 20)):
        store.add_atomic(f"{item}p", "price", price)
        store.add_set(item, "item", [f"{item}p"])
    store.add_set("root", "root", ["A", "B"])
    catalog.define(PRICED)
    return catalog


class TestDefinePartial:
    def test_depth2_through_catalog(self, person_catalog):
        view = person_catalog.define_partial(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45",
            depth=2,
        )
        assert view.members() == {"P1"}
        assert view.delegate("A1").value == 45
        person_catalog.store.modify_value("A1", 44)
        assert view.delegate("A1").value == 44
        assert view.check_fragments() == []

    def test_membership_maintained(self, person_catalog):
        view = person_catalog.define_partial(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45",
            depth=2,
        )
        person_catalog.store.add_atomic("A2", "age", 40)
        person_catalog.store.insert_edge("P2", "A2")
        assert view.members() == {"P1", "P2"}
        assert "A2" in view.copied_oids()

    def test_external_store(self, person_catalog):
        local = ObjectStore()
        view = person_catalog.define_partial(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45",
            depth=2,
            view_store=local,
        )
        assert "PV.A1" in local
        assert "PV.A1" not in person_catalog.store

    def test_duplicate_name_rejected(self, person_catalog):
        person_catalog.define(
            "define mview PV as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        with pytest.raises(ViewError):
            person_catalog.define_partial(
                "define mview PV as: SELECT ROOT.professor X "
                "WHERE X.age <= 45"
            )


class TestDefineAggregate:
    def test_aggregate_over_catalog_view(self, person_catalog):
        person_catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        agg = person_catalog.define_aggregate(
            "YPSUM", "YP", AggregateKind.SUM
        )
        assert agg.current_value() == 45
        person_catalog.store.add_atomic("A2", "age", 30)
        person_catalog.store.insert_edge("P2", "A2")
        assert agg.current_value() == 75
        assert agg.check()

    def test_unknown_base_view(self, person_catalog):
        with pytest.raises(ViewError):
            person_catalog.define_aggregate(
                "X", "nope", AggregateKind.COUNT
            )


class TestDefineUnion:
    def test_union_through_catalog(self, person_catalog):
        view = person_catalog.define(
            ViewDefinition.union(
                "U",
                [
                    "define mview U as: SELECT ROOT.professor X "
                    "WHERE X.age <= 45",
                    "define mview U as: SELECT ROOT.secretary X "
                    "WHERE X.age <= 45",
                ],
            )
        )
        assert view.members() == {"P1", "P4"}
        person_catalog.store.delete_edge("ROOT", "P4")
        assert view.members() == {"P1"}
        assert person_catalog.check("U").ok

    def test_registered_for_queries(self, person_catalog):
        person_catalog.define(
            ViewDefinition.union(
                "U",
                [
                    "define mview U as: SELECT ROOT.professor X "
                    "WHERE X.age <= 45"
                ],
            )
        )
        # The shared view object is a registered scope.
        assert person_catalog.query_oids("SELECT U.? X WITHIN U") == {
            "U.P1"
        }


class TestDerivedViewsRideTheDispatcher:
    """Aggregates and partial-view fragment refreshes are dispatcher
    registrations after their view's maintainer(s)."""

    def test_batched_sum_reads_maintained_members(self):
        catalog = priced_catalog()
        total = catalog.define_aggregate("TOTAL", "V", AggregateKind.SUM)
        assert total.current_value() == 150
        catalog.apply_batch(
            [Insert("root", "C"), Modify("Cp", 20, 90), Modify("Ap", 70, 10)]
        )
        assert catalog.materialized_views["V"].members() == {"B", "C"}
        assert total.current_value() == 170
        assert total.check()

    def test_registered_after_the_maintainer(self):
        catalog = priced_catalog()
        partial = catalog.define_partial(
            "define mview P as: SELECT root.item X WHERE X.price > 65"
        )
        total = catalog.define_aggregate("TOTAL", "P", AggregateKind.SUM)
        registered = catalog.dispatcher.registered()
        assert registered[1:] == [*catalog.maintainers["P"], partial, total]

    def test_drop_partial_restores_the_store_listeners(self):
        catalog = priced_catalog()
        listeners = list(catalog.store._listeners)
        registered = catalog.dispatcher.registered()
        catalog.define_partial(
            "define mview P as: SELECT root.item X WHERE X.price > 65",
            depth=2,
        )
        catalog.define_aggregate("N", "P", AggregateKind.COUNT)
        catalog.drop_view("P")
        assert catalog.store._listeners == listeners
        assert catalog.dispatcher.registered() == registered
        assert "N" not in catalog.store

    def test_drop_view_retires_its_aggregates(self):
        catalog = priced_catalog()
        listeners = list(catalog.store._listeners)
        total = catalog.define_aggregate("TOTAL", "V", AggregateKind.SUM)
        catalog.drop_view("V")
        assert catalog.store._listeners == listeners
        assert total not in catalog.dispatcher.registered()
        assert "TOTAL" not in catalog.store
        catalog.store.modify_value("Bp", 99)
        assert total.current_value() == 150

    def test_recompute_catches_aggregates_up(self):
        class Failing:
            def handle(self, update):
                raise RuntimeError("maintenance failed")

        catalog = priced_catalog()
        failing = catalog.dispatcher.register(Failing())
        total = catalog.define_aggregate("TOTAL", "V", AggregateKind.SUM)
        with pytest.raises(RuntimeError):
            catalog.store.modify_value("Bp", 99)
        catalog.dispatcher.unregister(failing)
        assert total.current_value() == 150  # left behind
        catalog.recompute("V")
        assert total.current_value() == 169
        assert total not in catalog.dispatcher.behind
