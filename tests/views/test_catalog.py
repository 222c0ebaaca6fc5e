"""Tests for the ViewCatalog façade."""

import pytest

from repro.errors import (
    DuplicateObjectError,
    QueryEvaluationError,
    ViewDefinitionError,
    ViewError,
)
from repro.instrumentation import Meter
from repro.query import parse_query
from repro.views import ViewCatalog, ViewDefinition, catalog as catalog_module
from repro.views.catalog import _RecomputeMaintainer
from repro.views.dag import DagCountingMaintainer
from repro.views.extended import ExtendedViewMaintainer
from repro.views.maintenance import SimpleViewMaintainer
from repro.workloads import person_db, register_person_database


@pytest.fixture
def catalog(person_catalog) -> ViewCatalog:
    return person_catalog


class TestMaintainerSelection:
    def test_simple_gets_algorithm_1(self, catalog):
        catalog.define(
            "define mview A as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        (maintainer,) = catalog.maintainers["A"]
        assert isinstance(maintainer, SimpleViewMaintainer)

    def test_wildcard_gets_extended(self, catalog):
        catalog.define(
            "define mview B as: SELECT ROOT.* X WHERE X.name = 'John'"
        )
        (maintainer,) = catalog.maintainers["B"]
        assert isinstance(maintainer, ExtendedViewMaintainer)

    def test_or_condition_gets_a_maintainer_per_branch(self, catalog):
        view = catalog.define(
            "define mview C as: SELECT ROOT.professor X "
            "WHERE X.age > 90 OR (X.name = 'John' AND X.age < 50)"
        )
        simple, extended = catalog.maintainers["C"]
        assert isinstance(simple, SimpleViewMaintainer)
        assert isinstance(extended, ExtendedViewMaintainer)
        assert view.members() == {"P1"}
        catalog.store.modify_value("A1", 95)
        assert view.members() == {"P1"}
        assert catalog.check("C").ok

    @pytest.mark.parametrize(
        "condition",
        [
            "X.age > 90 OR NOT X.name = 'John'",
            "X.age > 90 OR EXISTS X.name",
        ],
    )
    def test_or_over_not_or_exists_falls_back_to_recompute(
        self, catalog, condition
    ):
        catalog.define(
            f"define mview C as: SELECT ROOT.professor X WHERE {condition}"
        )
        (maintainer,) = catalog.maintainers["C"]
        assert isinstance(maintainer, _RecomputeMaintainer)
        assert catalog.check("C").ok

    def test_explicit_dag_maintainer(self, catalog):
        catalog.define(
            "define mview D as: SELECT ROOT.professor X WHERE X.age <= 45",
            maintainer="dag",
        )
        (maintainer,) = catalog.maintainers["D"]
        assert isinstance(maintainer, DagCountingMaintainer)

    def test_duplicate_name_rejected(self, catalog):
        catalog.define("define view V as: SELECT ROOT.professor X")
        with pytest.raises(ViewError):
            catalog.define("define mview V as: SELECT ROOT.professor X")

    def test_failed_define_leaves_no_trace(self, catalog):
        with pytest.raises(QueryEvaluationError):
            catalog.define("define mview M as: SELECT NOPE.a X")
        assert "M" not in catalog.store
        assert "M" not in catalog.registry.names()
        assert not catalog.parent_index._is_ignored("M")
        assert not catalog.parent_index._is_ignored("M.P1")
        catalog.define(
            "define mview M as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        assert catalog.check("M").ok

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("define mview M as: SELECT ROOT.professor X", "bogus"),
            ("define mview M as: SELECT ROOT.* X WHERE X.age > 1", "dag"),
        ],
    )
    def test_failed_maintainer_leaves_no_zombie_view(
        self, catalog, text, kind
    ):
        registered = catalog.dispatcher.registered()
        with pytest.raises(ViewDefinitionError):
            catalog.define(text, maintainer=kind)
        assert "M" not in catalog.materialized_views
        assert "M" not in catalog.maintainers
        assert "M" not in catalog.store
        assert not catalog.parent_index.is_view_object("M")
        assert catalog.dispatcher.registered() == registered
        catalog.define(
            "define mview M as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        catalog.store.modify_value("A1", 40)
        assert catalog.check("M").ok

    def test_failed_virtual_define_leaves_no_trace(self, catalog):
        with pytest.raises(QueryEvaluationError):
            catalog.define("define view V as: SELECT NOPE.a X")
        assert "V" not in catalog.store
        view = catalog.define("define view V as: SELECT ROOT.professor X")
        assert view.members() == {"P1", "P2"}

    def test_failed_partial_and_union_define_leave_no_trace(self, catalog):
        registered = catalog.dispatcher.registered()
        with pytest.raises(ValueError):
            catalog.define_partial(
                "define mview P as: SELECT ROOT.professor X", depth=0
            )
        with pytest.raises(ViewDefinitionError):
            catalog.define(
                ViewDefinition.union(
                    "U",
                    [
                        "define mview U as: SELECT ROOT.professor X",
                        "define mview U as: SELECT ROOT.* X",
                    ],
                ),
                maintainer="dag",
            )
        for name in ("P", "U"):
            assert name not in catalog.store
            assert name not in catalog.maintainers
            assert not catalog.parent_index.is_view_object(name)
            assert not catalog.parent_index._is_ignored(name + ".x")
        assert catalog.dispatcher.registered() == registered

    def test_view_named_like_a_base_object_keeps_its_edges(self, catalog):
        child = min(catalog.store.get("P1").children())
        assert "P1" in catalog.parent_index.parents(child)
        with pytest.raises(DuplicateObjectError):
            catalog.define("define mview P1 as: SELECT ROOT.professor X")
        assert "P1" in catalog.parent_index.parents(child)
        assert not catalog.parent_index.is_view_object("P1")


class TestMaintenanceThroughCatalog:
    def test_all_maintainer_kinds_stay_consistent(self, catalog):
        s = catalog.store
        catalog.define(
            "define mview A as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        catalog.define(
            "define mview B as: SELECT ROOT.* X WHERE X.name = 'John'"
        )
        catalog.define(
            "define mview C as: SELECT ROOT.professor X "
            "WHERE X.age > 90 OR X.name = 'Sally'"
        )
        s.add_atomic("A2", "age", 30)
        s.insert_edge("P2", "A2")
        s.modify_value("N2", "John")
        s.delete_edge("P1", "A1")
        reports = catalog.check_all()
        assert all(r.ok for r in reports.values()), {
            k: r.describe() for k, r in reports.items()
        }

    def test_recompute_on_demand(self, catalog):
        s = catalog.store
        view = catalog.define(
            "define mview A as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        # Detach its maintainer, desync, then force recompute.
        (maintainer,) = catalog.maintainers["A"]
        catalog.dispatcher.unregister(maintainer)
        s.modify_value("A1", 99)
        assert not catalog.check("A").ok
        catalog.recompute("A")
        assert catalog.check("A").ok

    def test_check_unknown_view(self, catalog):
        with pytest.raises(ViewError):
            catalog.check("nope")


class TestQueries:
    def test_query_through_catalog(self, catalog):
        answer = catalog.query_oids(
            "SELECT ROOT.professor X WHERE X.age > 40"
        )
        assert answer == {"P1"}

    def test_query_oids_leaves_no_answer_object(self, catalog):
        size = len(catalog.store)
        catalog.query_oids("SELECT ROOT.professor X WHERE X.age > 40")
        assert len(catalog.store) == size
        # query() keeps the paper's answer object.
        answer = catalog.query("SELECT ROOT.professor X WHERE X.age > 40")
        assert len(catalog.store) == size + 1
        assert answer.oid in catalog.store

    def test_virtual_views_auto_refreshed(self, catalog):
        s = catalog.store
        catalog.define("define view PROFS as: SELECT ROOT.professor X")
        # One ? step from the view object reaches the members themselves.
        assert catalog.query_oids("SELECT PROFS.? X") == {"P1", "P2"}
        # Two steps reach the professors' subobjects.
        assert catalog.query_oids("SELECT PROFS.?.? X") == {
            "N1", "A1", "S1", "P3", "N2", "ADD2",
        }
        s.add_set("P9", "professor", [])
        s.insert_edge("ROOT", "P9")
        # The virtual view refreshes automatically on the next query.
        catalog.query_oids("SELECT PROFS.? X")
        assert catalog.virtual_views["PROFS"].contains("P9")

    def test_materialized_view_scoped_query(self, catalog):
        catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        # One step inside the view reaches the delegate itself...
        assert catalog.query_oids("SELECT YP.? X WITHIN YP") == {"YP.P1"}
        # ...but unswizzled base OIDs inside delegates are out of scope.
        assert catalog.query_oids("SELECT YP.?.? X WITHIN YP") == set()

    def test_views_on_views_virtual(self, catalog):
        catalog.define("define view PROF as: SELECT ROOT.*.professor X")
        catalog.define("define view STUDENT as: SELECT PROF.?.student X")
        catalog.query_oids("SELECT STUDENT.? X")
        assert catalog.virtual_views["STUDENT"].members() == {"P3"}


class TestDropView:
    def test_drop_materialized(self, catalog):
        catalog.define(
            "define mview A as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        catalog.drop_view("A")
        assert "A" not in catalog.materialized_views
        assert "A" not in catalog.store
        assert not catalog.parent_index._is_ignored("A.P1")
        # Updates after dropping must not crash (listener detached).
        catalog.store.modify_value("A1", 10)

    def test_drop_virtual(self, catalog):
        catalog.define("define view V as: SELECT ROOT.professor X")
        catalog.drop_view("V")
        assert "V" not in catalog.virtual_views
        assert "V" not in catalog.store


class TestLabelIndexedCatalog:
    def test_recompute_and_check_probe_the_label_index(self):
        catalog = ViewCatalog(with_label_index=True)
        person_db(catalog.store, tree=True)
        catalog.define(
            "define mview A as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        counters = catalog.store.counters
        before = counters.index_probes
        assert catalog.recompute("A") == (0, 0)
        assert catalog.check("A").ok
        assert counters.index_probes > before

    def test_queries_probe_the_label_index(self):
        catalog = ViewCatalog(with_label_index=True)
        person_db(catalog.store, tree=True)
        counters = catalog.store.counters
        before = counters.index_probes
        assert catalog.query_oids(
            "SELECT ROOT.professor X WHERE X.age > 40"
        ) == {"P1"}
        assert counters.index_probes > before

    @staticmethod
    def updated_catalog(with_label_index: bool) -> ViewCatalog:
        """Example 2 (tree), PERSON, two maintained views, then updates:
        P1 ages to 60, professor P9 (30) joins, P2 is detached."""
        catalog = ViewCatalog(with_label_index=with_label_index)
        person_db(catalog.store, tree=True)
        register_person_database(catalog)
        catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        catalog.define(
            "define mview JOHNS as: SELECT ROOT.* X WHERE X.name = 'John'"
        )
        store = catalog.store
        store.modify_value("A1", 60)
        store.add_atomic("A9", "age", 30)
        store.add_set("P9", "professor", ["A9"])
        store.insert_edge("ROOT", "P9")
        store.delete_edge("ROOT", "P2")
        return catalog

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("SELECT ROOT.professor X WHERE X.age > 40", {"P1"}),
            ("SELECT ROOT.* X WHERE X.name = 'John'", {"P1", "P3"}),
            ("SELECT ROOT.?.age X WHERE X < 50", {"A4", "A9"}),
            (
                "SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
                {"P1", "P3"},
            ),
            ("SELECT ROOT.professor X ANS INT PERSON", {"P1"}),
            ("SELECT YP.professor X", {"YP.P9"}),
            ("SELECT YP.professor.age X", {"A9"}),
        ],
    )
    def test_answers_after_updates_match_unindexed(self, text, expected):
        indexed = self.updated_catalog(True)
        unindexed = self.updated_catalog(False)
        assert unindexed.query_oids(text) == expected
        assert indexed.query_oids(text) == expected
        assert indexed.serve(text).oids == expected
        assert all(report.ok for report in indexed.check_all().values())


class TestAnswersFromViews:
    """A query a materialized view implies reads that view's members."""

    WIDE = "define mview WIDE as: SELECT ROOT.* X WHERE X.age < 50"
    NARROW = "define mview NARROW as: SELECT ROOT.* X WHERE X.age < 30"
    QUERY = "SELECT ROOT.* X WHERE X.age < 25"

    @staticmethod
    def views_read(monkeypatch) -> list:
        """Record the member sets the catalog answers from."""
        read = []
        real = catalog_module.answer_from_view

        def spy(store, query, members, **kwargs):
            read.append(set(members))
            return real(store, query, members, **kwargs)

        monkeypatch.setattr(catalog_module, "answer_from_view", spy)
        return read

    def test_smallest_implied_view_answers(self, catalog, monkeypatch):
        catalog.define(self.WIDE)
        catalog.define(self.NARROW)
        read = self.views_read(monkeypatch)
        assert catalog.query_oids(self.QUERY) == {"P3"}
        assert read == [{"P3"}]
        assert catalog.query(self.QUERY).children() == {"P3"}

    def test_the_query_condition_refilters_the_members(
        self, catalog, monkeypatch
    ):
        catalog.define(self.WIDE)
        read = self.views_read(monkeypatch)
        text = "SELECT ROOT.* X WHERE X.age < 42 AND X.name = 'Tom'"
        assert catalog.query_oids(text) == {"P4"}
        assert read == [{"P1", "P3", "P4"}]

    def test_reading_the_view_charges_one_read(self, catalog):
        catalog.define("define mview PROFS as: SELECT ROOT.professor X")
        with Meter(catalog.store.counters) as meter:
            answer = catalog.query_oids("SELECT ROOT.professor X")
        assert answer == {"P1", "P2"}
        assert meter.delta.as_dict() == {"object_reads": 1}

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ROOT.* X WHERE X.age < 40",
            "SELECT ROOT.* X",
            "SELECT ROOT.professor X WHERE X.age < 25",
            "SELECT ROOT.* X WHERE X.age < 25 WITHIN PERSON",
            "SELECT ROOT.* X WHERE X.age < 25 ANS INT PERSON",
            "SELECT ROOT.* X WHERE X.age < 25 OR X.age < 20",
            "SELECT PERSON.? X WHERE X.age < 25",
        ],
    )
    def test_queries_no_view_implies_read_the_base(
        self, catalog, monkeypatch, text
    ):
        catalog.define(self.NARROW)
        catalog.define(
            "define mview DB as: SELECT PERSON.? X WHERE X.age < 30"
        )
        read = self.views_read(monkeypatch)
        expected = catalog.evaluator.evaluate_oids(parse_query(text))
        assert catalog.query_oids(text) == expected
        assert read == []

    def test_an_open_batch_reads_the_base(self, catalog, monkeypatch):
        catalog.define(self.NARROW)
        read = self.views_read(monkeypatch)
        with catalog.dispatcher.batch():
            catalog.store.modify_value("A4", 10)  # NARROW not maintained yet
            assert catalog.query_oids(self.QUERY) == {"P3", "P4"}
        assert read == []
        assert catalog.query_oids(self.QUERY) == {"P3", "P4"}
        assert read == [{"P3", "P4"}]

    def test_views_a_failed_dispatch_left_behind_read_the_base(
        self, catalog, monkeypatch
    ):
        class Failing:
            def handle(self, update):
                raise RuntimeError("maintenance failed")

        failing = catalog.dispatcher.register(Failing())
        catalog.define(self.NARROW)
        with pytest.raises(RuntimeError):
            catalog.store.modify_value("A4", 10)
        catalog.dispatcher.unregister(failing)
        read = self.views_read(monkeypatch)
        assert catalog.query_oids(self.QUERY) == {"P3", "P4"}
        assert read == []
        catalog.recompute("NARROW")
        assert catalog.query_oids(self.QUERY) == {"P3", "P4"}
        assert read == [{"P3", "P4"}]

    def test_only_plain_defined_views_answer(self, catalog, monkeypatch):
        catalog.define_partial(
            "define mview PART as: SELECT ROOT.professor X WHERE X.age < 50"
        )
        catalog.define(self.NARROW)
        catalog.drop_view("NARROW")
        read = self.views_read(monkeypatch)
        assert catalog.query_oids(self.QUERY) == {"P3"}
        assert catalog.query_oids(
            "SELECT ROOT.professor X WHERE X.age < 46"
        ) == {"P1"}
        assert read == []


class TestCacheableQuery:
    """The serving tier caches only answers that no view delegate
    shapes."""

    @pytest.mark.parametrize(
        "text, cacheable",
        [
            ("SELECT YP.? X", False),  # a view name
            ("SELECT YP.P1.age X", False),  # dotted below a view
            ("SELECT HOLDS.? X", False),  # a database grouping a view
            ("SELECT PERSON.? X", True),  # a database grouping none
            ("SELECT ROOT.professor X", True),  # a plain OID
            ("SELECT ROOT.professor X WITHIN YP", False),
        ],
    )
    def test_verdicts(self, catalog, text, cacheable):
        catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        catalog.create_database("HOLDS", ["YP"])
        assert catalog._cacheable_query(parse_query(text)) is cacheable
