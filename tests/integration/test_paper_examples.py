"""Every worked example of the paper, reproduced end-to-end.

One test class per paper example; assertions quote the paper's stated
outcomes.  This file doubles as executable documentation of the
reproduction (referenced by EXPERIMENTS.md).
"""

import pytest

from repro.gsdb import ObjectStore, ParentIndex, dump_object
from repro.query import QueryEvaluator
from repro.relational import Flattener, RelationalMirror
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewCatalog,
    ViewDefinition,
    VirtualView,
    check_consistency,
    populate_view,
)
from repro.warehouse import (
    CachePolicy,
    QueryKind,
    ReportingLevel,
    Source,
    SourceLink,
    SourceQuery,
    Warehouse,
)
from repro.workloads import (
    insert_tuple,
    person_db,
    register_person_database,
    relations_db,
)


class TestExample2DatabaseObjects:
    """Example 2: the PERSON collection and its textual form."""

    def test_objects_match_listing(self, person_store):
        assert dump_object(person_store.get("P1")) == (
            "< P1, professor, set, {A1, N1, P3, S1} >"
        )
        assert person_store.label("P2") == "professor"
        assert person_store.value("P2") == {"N2", "ADD2"}

    def test_person_database_object(self, person_registry):
        db = person_registry.resolve("PERSON")
        assert len(db.children()) == 15


class TestSection2Queries:
    """The sample queries of Section 2."""

    def test_professor_older_than_40(self, person_registry):
        evaluator = QueryEvaluator(person_registry)
        answer = evaluator.evaluate(
            "SELECT ROOT.professor X WHERE X.age > 40"
        )
        assert answer.children() == {"P1"}
        assert answer.label == "answer"

    def test_query_insensitive_to_location(self, person_registry):
        # "the query is insensitive to the 'location' of objects":
        # without scope clauses the result ignores database boundaries.
        evaluator = QueryEvaluator(person_registry)
        person_registry.create_database("D2", ["A1"])  # A1 "remote"
        assert evaluator.evaluate_oids(
            "SELECT ROOT.professor X WHERE X.age > 40"
        ) == {"P1"}


class TestExample3VirtualView:
    def test_vj_members(self, person_registry):
        view = VirtualView(
            ViewDefinition.parse(
                "define view VJ as: SELECT ROOT.* X "
                "WHERE X.name = 'John' WITHIN PERSON"
            ),
            person_registry,
        )
        assert view.members() == {"P1", "P3"}

    def test_query_3_3(self, person_registry):
        VirtualView(
            ViewDefinition.parse(
                "define view VJ as: SELECT ROOT.* X "
                "WHERE X.name = 'John' WITHIN PERSON"
            ),
            person_registry,
        )
        evaluator = QueryEvaluator(person_registry)
        # "will return {P1} as its answer.  Object P2 ... excluded."
        assert evaluator.evaluate_oids(
            "SELECT ROOT.professor X ANS INT VJ"
        ) == {"P1"}


class TestExpression34ViewsOnViews:
    def test_prof_and_student(self, person_registry):
        VirtualView(
            ViewDefinition.parse(
                "define view PROF as: SELECT ROOT.*.professor X"
            ),
            person_registry,
        )
        student = VirtualView(
            ViewDefinition.parse(
                "define view STUDENT as: SELECT PROF.?.student X"
            ),
            person_registry,
        )
        assert student.members() == {"P3"}


class TestExample4MaterializedView:
    def test_mvj_figure_3(self, person_registry, person_store):
        view = MaterializedView(
            ViewDefinition.parse(
                "define mview MVJ as: SELECT ROOT.* X "
                "WHERE X.name = 'John' WITHIN PERSON"
            ),
            person_store,
            registry=person_registry,
        )
        populate_view(view, registry=person_registry)
        assert view.delegates() == {"MVJ.P1", "MVJ.P3"}
        # Figure 3: <MVJ.P1, professor, {N1,A1,S1,P3}> — base OIDs.
        assert view.delegate("P1").children() == {"N1", "A1", "S1", "P3"}

    def test_materialization_does_not_change_results(
        self, person_registry, person_store
    ):
        # "Whether a view is materialized or not should not affect
        # query results."
        virtual = VirtualView(
            ViewDefinition.parse(
                "define view VJ as: SELECT ROOT.* X "
                "WHERE X.name = 'John' WITHIN PERSON"
            ),
            person_registry,
        )
        materialized = MaterializedView(
            ViewDefinition.parse(
                "define mview MVJ as: SELECT ROOT.* X "
                "WHERE X.name = 'John' WITHIN PERSON"
            ),
            person_store,
            registry=person_registry,
        )
        populate_view(materialized, registry=person_registry)
        assert virtual.members() == materialized.members()


class TestExamples5And6Maintenance:
    def test_figure_4_transition(self, person_catalog):
        catalog = person_catalog
        view = catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        assert view.delegates() == {"YP.P1"}
        catalog.store.add_atomic("A2", "age", 40)
        catalog.store.insert_edge("P2", "A2")
        # Figure 4 right side: YP.P1 and YP.P2.
        assert view.delegates() == {"YP.P1", "YP.P2"}
        catalog.store.delete_edge("ROOT", "P1")
        assert view.delegates() == {"YP.P2"}
        assert catalog.check("YP").ok


class TestExample7IncrementalVsRecompute:
    def test_sel_view_maintenance(self):
        store, root = relations_db(relations=2, tuples_per_relation=10)
        index = ParentIndex(store)
        view = MaterializedView(
            ViewDefinition.parse(
                "define mview SEL as: SELECT REL.r.tuple X WHERE X.age > 30"
            ),
            store,
        )
        populate_view(view)
        store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
        before = store.counters.snapshot()
        insert_tuple(store, "R0", "T", age=40)
        delta = store.counters.delta_since(before)
        assert "T" in view.members()
        # Incremental handling touches a handful of objects, not the db.
        assert delta.total_base_accesses() < len(store) / 2

    def test_update_to_other_relation_is_cheap(self):
        store, root = relations_db(relations=2, tuples_per_relation=10)
        index = ParentIndex(store)
        view = MaterializedView(
            ViewDefinition.parse(
                "define mview SEL as: SELECT REL.r.tuple X WHERE X.age > 30"
            ),
            store,
        )
        populate_view(view)
        store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
        members = view.members()
        insert_tuple(store, "R1", "T2", age=99)  # relation s
        assert view.members() == members


class TestExample8RelationalRepresentation:
    def test_three_tables(self, person_store):
        flattener = Flattener(person_store)
        flattener.load()
        assert flattener.db.table("OBJ").count(("P3", "student")) == 1
        assert flattener.db.table("CHILD").count(("ROOT", "P2")) == 1
        assert flattener.db.table("ATOM").count(("N2", "string", "Sally")) == 1

    def test_single_update_hits_multiple_tables(self):
        store, _ = relations_db(relations=1, tuples_per_relation=2)
        mirror = RelationalMirror(store)
        before = mirror.stats.table_deltas
        insert_tuple(store, "R0", "T", age=40, extra_fields=0)
        # tuple object (OBJ+CHILD), age object (OBJ+ATOM), edge (CHILD).
        assert mirror.stats.table_deltas - before == 5


class TestExample9SourceQueries:
    def test_fetch_style_interface(self, person_tree_store):
        link = SourceLink(Source("S1", person_tree_store, "ROOT"))
        # ancestor(Y, p) as: fetch X where path(X, Y) = p — here via the
        # dedicated path query.
        answer = link.ask(SourceQuery(QueryKind.PATH_TO_ROOT, "A1"))
        assert answer.path.labels == ("professor", "age")
        # eval(N, p, cond): fetch objects in N.p, test cond locally.
        payloads = link.path_from("P1", ("age",))
        assert [p.value for p in payloads] == [45]


class TestExample10Caching:
    def test_local_maintenance_with_cached_structure(self):
        store = person_db(tree=True)
        wh = Warehouse()
        wh.connect(
            Source("S1", store, "ROOT"),
            level=ReportingLevel.WITH_CONTENTS,
        )
        wview = wh.define_view(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45",
            "S1",
            cache_policy=CachePolicy.FULL,
        )
        before = wh.log.queries
        # "view maintenance corresponding to any base update can be done
        # locally at the warehouse given the directly affected objects"
        store.modify_value("A1", 50)
        store.modify_value("A1", 30)
        store.add_atomic("A2", "age", 40)
        store.insert_edge("P2", "A2")
        assert wh.log.queries == before
        assert wview.members() == {"P1", "P2"}
