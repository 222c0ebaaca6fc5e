"""Tests for scoped query evaluation — the paper's worked examples."""

import dataclasses

import pytest

from repro.errors import QueryEvaluationError
from repro.gsdb import DatabaseRegistry, LabelIndex
from repro.instrumentation import Meter
from repro.query import QueryEvaluator, parse_query
from repro.query.evaluator import index_applies
from repro.views import ViewCatalog
from repro.workloads import PERSON_OIDS, person_db, register_person_database


@pytest.fixture
def evaluator(person_registry) -> QueryEvaluator:
    return QueryEvaluator(person_registry)


class TestBasicEvaluation:
    def test_paper_section_2_query(self, evaluator):
        # SELECT ROOT.professor X WHERE X.age > 40 -> {P1}
        assert evaluator.evaluate_oids(
            "SELECT ROOT.professor X WHERE X.age > 40"
        ) == {"P1"}

    def test_example_3_view_query(self, evaluator):
        # SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON -> {P1, P3}
        assert evaluator.evaluate_oids(
            "SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON"
        ) == {"P1", "P3"}

    def test_no_condition(self, evaluator):
        assert evaluator.evaluate_oids("SELECT ROOT.professor X") == {
            "P1", "P2",
        }

    def test_answer_object_format(self, evaluator, person_store):
        answer = evaluator.evaluate("SELECT ROOT.professor X")
        assert answer.label == "answer"
        assert answer.is_set
        assert answer.children() == {"P1", "P2"}
        assert answer.oid in person_store  # registered for follow-ons

    def test_database_name_as_entry(self, evaluator):
        # DB.? = all objects in DB (paper Section 2).
        result = evaluator.evaluate_oids("SELECT PERSON.? X")
        assert result == set(PERSON_OIDS)

    def test_unknown_entry(self, evaluator):
        with pytest.raises(QueryEvaluationError):
            evaluator.evaluate_oids("SELECT NOWHERE.a X")


class TestWithinScope:
    """Paper Section 2: 'any OIDs that are not in DB1 are completely
    ignored by the query'."""

    def test_paper_example_a1_excluded(self, evaluator, person_registry):
        # All nodes in D1 except A1 -> empty result.
        person_registry.create_database(
            "D1", [o for o in PERSON_OIDS if o != "A1"]
        )
        assert (
            evaluator.evaluate_oids(
                "SELECT ROOT.professor X WHERE X.age > 40 WITHIN D1"
            )
            == set()
        )

    def test_within_hides_intermediate_objects(
        self, evaluator, person_registry
    ):
        # Excluding P1 cuts the path to its subobjects entirely.
        person_registry.create_database(
            "D2", [o for o in PERSON_OIDS if o != "P1"]
        )
        assert (
            evaluator.evaluate_oids(
                "SELECT ROOT.professor.student X WITHIN D2"
            )
            == set()
        )

    def test_within_full_database_unrestricted(self, evaluator):
        full = evaluator.evaluate_oids("SELECT ROOT.professor X")
        scoped = evaluator.evaluate_oids(
            "SELECT ROOT.professor X WITHIN PERSON"
        )
        assert full == scoped


class TestAnsIntScope:
    """Paper Section 2: evaluation may follow remote pointers; only the
    answer is intersected."""

    def test_paper_example_answer_restricted(
        self, evaluator, person_registry
    ):
        person_registry.create_database(
            "D1", [o for o in PERSON_OIDS if o != "A1"]
        )
        # Condition can read A1 (remote), but answer P1 must be in D1.
        assert evaluator.evaluate_oids(
            "SELECT ROOT.professor X WHERE X.age > 40 ANS INT D1"
        ) == {"P1"}

    def test_paper_example_member_excluded(self, evaluator, person_registry):
        person_registry.create_database(
            "D3", [o for o in PERSON_OIDS if o != "P1"]
        )
        assert (
            evaluator.evaluate_oids(
                "SELECT ROOT.professor X WHERE X.age > 40 ANS INT D3"
            )
            == set()
        )

    def test_example_3_3_ans_int_view_object(
        self, evaluator, person_registry, person_store
    ):
        # Register a "view" database VJ = {P1, P3}; paper query 3.3.
        person_store.add_set("VJ", "view", ["P1", "P3"])
        person_registry.register("VJ", "VJ")
        assert evaluator.evaluate_oids(
            "SELECT ROOT.professor X ANS INT VJ"
        ) == {"P1"}


class TestQueriesAcrossViews:
    def test_view_as_starting_point(self, evaluator, person_registry, person_store):
        # Paper: SELECT VJ.?.age gives ages of persons named John.
        person_store.add_set("VJ", "view", ["P1", "P3"])
        person_registry.register("VJ", "VJ")
        assert evaluator.evaluate_oids("SELECT VJ.?.age") == {"A1", "A3"}


class TestLabelIndexedEvaluation:
    """With the catalog's label index, unscoped select and condition
    paths probe the children-by-label adjacency instead of scanning."""

    QUERIES = (
        "SELECT ROOT.professor X WHERE X.age > 40",
        "SELECT ROOT.*.student X WHERE X.name = 'John'",
        "SELECT ROOT.? X WHERE EXISTS X.salary OR NOT X.age < 30",
        "SELECT ROOT.professor X WHERE X > 3",
        "SELECT ROOT.professor X WHERE X.age > 40 ANS INT PERSON",
    )

    def test_same_answers_fewer_base_accesses(self, person_registry, person_store):
        scan = QueryEvaluator(person_registry)
        indexed = QueryEvaluator(
            person_registry, label_index=LabelIndex(person_store)
        )
        for text in self.QUERIES:
            with Meter(person_store.counters) as scanned:
                expected = scan.evaluate_oids(text)
            with Meter(person_store.counters) as probed:
                assert indexed.evaluate_oids(text) == expected, text
            assert (
                probed.delta.total_base_accesses()
                <= scanned.delta.total_base_accesses()
            ), text
            assert probed.delta.index_probes > 0, text
        # A one-step comparison reads the matching child only.
        text = self.QUERIES[0]
        with Meter(person_store.counters) as scanned:
            scan.evaluate_oids(text)
        with Meter(person_store.counters) as probed:
            indexed.evaluate_oids(text)
        assert (
            probed.delta.total_base_accesses()
            < scanned.delta.total_base_accesses()
        )

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("SELECT ROOT.professor X", {"P1", "P2"}),
            ("SELECT ROOT.professor X WHERE X.age > 40", {"P1"}),
            ("SELECT ROOT.*.student X", {"P3"}),
            ("SELECT ROOT.* X WHERE X.name = 'John'", {"P1", "P3"}),
            ("SELECT ROOT.?.age X WHERE X < 42", {"A3", "A4"}),
            ("SELECT ROOT.? X WHERE EXISTS X.salary", {"P1"}),
            ("SELECT ROOT.? X WHERE NOT EXISTS X.age", {"P2"}),
            (
                "SELECT ROOT.professor|secretary X WHERE X.age >= 40",
                {"P1", "P4"},
            ),
            (
                "SELECT ROOT.professor.student X WHERE X.major = 'education'",
                {"P3"},
            ),
            ("SELECT ROOT.* X WHERE X.age > 30 AND X.name = 'Tom'", {"P4"}),
            ("SELECT ROOT.professor X ANS INT PERSON", {"P1", "P2"}),
            ("SELECT P1.* X WHERE X > 40", {"A1", "S1"}),
        ],
    )
    def test_pinned_answers_with_and_without_index(
        self, person_registry, person_store, text, expected
    ):
        scan = QueryEvaluator(person_registry)
        indexed = QueryEvaluator(
            person_registry, label_index=LabelIndex(person_store)
        )
        with Meter(person_store.counters) as scanned:
            assert scan.evaluate_oids(text) == expected
        with Meter(person_store.counters) as probed:
            assert indexed.evaluate_oids(text) == expected
        assert (
            probed.delta.total_base_accesses()
            <= scanned.delta.total_base_accesses()
        )

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ROOT.professor X WHERE X.age > 40 WITHIN PERSON",
            "SELECT PERSON.? X WHERE X.age > 40",
        ],
    )
    def test_scoped_or_database_entry_keeps_the_scan(
        self, person_registry, person_store, text
    ):
        scan = QueryEvaluator(person_registry)
        indexed = QueryEvaluator(
            person_registry, label_index=LabelIndex(person_store)
        )
        with Meter(person_store.counters) as scanned:
            expected = scan.evaluate_oids(text)
        with Meter(person_store.counters) as probed:
            assert indexed.evaluate_oids(text) == expected
        assert probed.delta.as_dict() == scanned.delta.as_dict()

    def test_view_entries_keep_the_scan(self):
        # Maintenance rewires view objects and delegates without store
        # updates, so the index never sees their edges.
        answers = []
        for with_label_index in (False, True):
            catalog = ViewCatalog(with_label_index=with_label_index)
            person_db(catalog.store)
            catalog.define(
                "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
            )
            catalog.define("define view VP as: SELECT ROOT.professor X")
            for read in (catalog.query_oids, lambda t: catalog.serve(t).oids):
                answers.append(
                    [
                        read(text)
                        for text in (
                            "SELECT YP.professor X",
                            "SELECT YP.professor.age X",
                            "SELECT VP.professor X",
                        )
                    ]
                )
        expected = [{"YP.P1"}, {"A1"}, {"P1", "P2"}]
        assert answers == [expected] * 4

    def test_index_applies(self):
        names = {"PERSON", "YP"}
        assert index_applies(parse_query("SELECT ROOT.a X"), names)
        assert index_applies(parse_query("SELECT ROOT.a X ANS INT YP"), names)
        assert not index_applies(
            parse_query("SELECT ROOT.a X WITHIN PERSON"), names
        )
        assert not index_applies(parse_query("SELECT YP.a X"), names)
        delegate = dataclasses.replace(parse_query("SELECT ROOT.a X"), entry="YP.P1")
        assert not index_applies(delegate, names)
