"""Cross-cutting edge cases and error-path coverage."""

import pytest

from repro.errors import (
    DuplicateObjectError,
    RelationalError,
    UnknownDatabaseError,
    UnknownObjectError,
)
from repro.gsdb import ObjectStore
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Database,
    Filter,
    Var,
    evaluate,
)
from repro.views import ViewCatalog, ViewDefinition
from repro.views.catalog import _RecomputeMaintainer


class TestErrorMessages:
    def test_unknown_object_message(self):
        error = UnknownObjectError("P1")
        assert str(error) == "unknown object: 'P1'"
        assert error.oid == "P1"

    def test_duplicate_object_message(self):
        assert "duplicate object: 'P1'" in str(DuplicateObjectError("P1"))

    def test_unknown_database_message(self):
        assert "unknown database: 'D9'" in str(UnknownDatabaseError("D9"))

    def test_errors_catchable_as_base(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            raise UnknownObjectError("x")

    def test_unknown_object_is_keyerror(self):
        # KeyError compatibility lets dict-style call sites catch it.
        with pytest.raises(KeyError):
            raise UnknownObjectError("x")


class TestRelationalEngineEdges:
    def test_unbound_filter_variable_raises(self):
        db = Database()
        db.create_table("T", ("a",))
        db.table("T").insert(("x",))
        query = ConjunctiveQuery(
            head=(Var("a"),),
            atoms=(Atom("T", (Var("a"),)),),
            filters=(Filter(Var("never_bound"), lambda v: True, "?"),),
        )
        with pytest.raises(RelationalError):
            evaluate(query, db)

    def test_query_with_no_atoms(self):
        db = Database()
        query = ConjunctiveQuery(head=(), atoms=())
        assert evaluate(query, db) == {(): 1}

    def test_str_rendering(self):
        query = ConjunctiveQuery(
            head=(Var("x"),),
            atoms=(Atom("T", (Var("x"), "const")),),
            filters=(Filter(Var("x"), lambda v: True, "> 1"),),
        )
        text = str(query)
        assert "T(" in text and "?x" in text and "> 1" in text


class TestCatalogSeparateStores:
    def test_materialized_view_in_external_store(self, person_catalog):
        external = ObjectStore()
        view = person_catalog.define(
            "define mview EXT as: SELECT ROOT.professor X WHERE X.age <= 45",
            view_store=external,
        )
        assert "EXT.P1" in external
        assert "EXT.P1" not in person_catalog.store
        person_catalog.store.modify_value("A1", 99)
        assert view.members() == set()

    def test_recompute_maintainer_handles_all(self, person_catalog):
        person_catalog.define(
            "define mview R as: SELECT ROOT.professor X "
            "WHERE X.age > 90 OR X.age < 10",
            maintainer="recompute",
        )
        (maintainer,) = person_catalog.maintainers["R"]
        assert isinstance(maintainer, _RecomputeMaintainer)
        person_catalog.store.modify_value("A1", 5)
        assert maintainer.updates_processed == 1
        assert person_catalog.materialized_views["R"].members() == {"P1"}


class TestStoreEdges:
    def test_empty_store_scan(self):
        assert list(ObjectStore().scan()) == []

    def test_peek_uncharged(self):
        store = ObjectStore()
        store.add_atomic("a", "v", 1)
        before = store.counters.object_reads
        store.peek("a")
        store.peek("missing")
        assert store.counters.object_reads == before

    def test_value_returns_copy_for_sets(self):
        store = ObjectStore()
        store.add_atomic("a", "v", 1)
        store.add_set("s", "set", ["a"])
        value = store.value("s")
        value.add("b")
        assert store.get("s").children() == {"a"}


class TestViewDefinitionEdges:
    def test_equality_and_reparse(self):
        text = (
            "define mview V as: SELECT ROOT.a.b X WHERE X.c.d <= 10"
        )
        first = ViewDefinition.parse(text)
        second = ViewDefinition.parse(str(first))
        assert first == second

    def test_unparseable_statement(self):
        from repro.errors import QuerySyntaxError

        with pytest.raises(QuerySyntaxError):
            ViewDefinition.parse("define mview V as: NONSENSE")
