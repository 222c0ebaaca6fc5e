"""Tests for condition evaluation (cond() semantics, Section 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb import LabelIndex
from repro.instrumentation import Meter
from repro.paths import PathExpression, compile_expression
from repro.query import (
    And,
    Comparison,
    Exists,
    Not,
    Or,
    is_simple_condition,
)
from repro.query.ast import COMPARISON_OPS
from repro.query.conditions import (
    atomic_values_on_path,
    comparison_implies,
    condition_implies,
    filter_on_store,
)

p = PathExpression.parse


def holds(store, oid, condition, **kwargs):
    """Does candidate *oid* satisfy *condition*: a one-candidate filter."""
    return oid in filter_on_store(store, {oid}, condition, **kwargs)


def reached(store, start, path, **kwargs):
    """``start.path``: the one-start sweep."""
    return compile_expression(path).evaluate_many(
        store, (start,), **kwargs
    )[start]


class TestComparisonAtom:
    def test_existential_semantics(self, person_store):
        # P1 has one age (45); cond true if ANY value satisfies.
        assert holds(
            person_store, "P1", Comparison(p("age"), "<=", 45)
        )
        assert not holds(
            person_store, "P1", Comparison(p("age"), ">", 45)
        )

    def test_multiple_values_any(self, person_store):
        person_store.add_atomic("A1b", "age", 99)
        person_store.insert_edge("P1", "A1b")
        assert holds(
            person_store, "P1", Comparison(p("age"), ">", 90)
        )

    def test_missing_path_is_false(self, person_store):
        assert not holds(
            person_store, "P2", Comparison(p("age"), ">", 0)
        )

    def test_string_equality(self, person_store):
        assert holds(
            person_store, "P1", Comparison(p("name"), "=", "John")
        )

    def test_contains(self, person_store):
        assert holds(
            person_store, "P2", Comparison(p("address"), "contains", "Palo")
        )

    def test_matches_regex(self, person_store):
        assert holds(
            person_store, "P2", Comparison(p("name"), "matches", "^Sal")
        )

    def test_type_mismatch_is_false_not_error(self, person_store):
        assert not holds(
            person_store, "P1", Comparison(p("name"), ">", 40)
        )

    def test_wildcard_condition_path(self, person_store):
        # any descendant name = 'John' under P1 (includes student P3's).
        assert holds(
            person_store, "P1", Comparison(p("*.name"), "=", "John")
        )

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison(p("age"), "~~", 4)


class TestBooleanConnectives:
    def test_exists(self, person_store):
        assert holds(person_store, "P1", Exists(p("salary")))
        assert not holds(person_store, "P2", Exists(p("salary")))

    def test_and(self, person_store):
        cond = And((
            Comparison(p("age"), "<=", 45),
            Comparison(p("name"), "=", "John"),
        ))
        assert holds(person_store, "P1", cond)
        assert not holds(person_store, "P4", cond)

    def test_or(self, person_store):
        cond = Or((
            Comparison(p("age"), ">", 100),
            Comparison(p("name"), "=", "Sally"),
        ))
        assert holds(person_store, "P2", cond)

    def test_not(self, person_store):
        cond = Not(Exists(p("salary")))
        assert holds(person_store, "P2", cond)
        assert not holds(person_store, "P1", cond)


class TestPathHelpers:
    def test_reached(self, person_store):
        assert reached(person_store, "ROOT", p("professor")) == {
            "P1", "P2",
        }

    def test_atomic_values_sorted_by_oid(self, person_store):
        values = atomic_values_on_path(person_store, "P1", p("?"))
        assert values == [45, "John", 100000]  # A1, N1, S1 order

    def test_set_objects_excluded_from_values(self, person_store):
        values = atomic_values_on_path(person_store, "ROOT", p("professor"))
        assert values == []


class TestSimpleClassification:
    def test_simple(self):
        assert is_simple_condition(None)
        assert is_simple_condition(Comparison(p("age"), ">", 4))

    def test_not_simple(self):
        assert not is_simple_condition(Comparison(p("*.age"), ">", 4))
        assert not is_simple_condition(
            And((Comparison(p("a"), ">", 1), Comparison(p("b"), ">", 2)))
        )
        assert not is_simple_condition(Exists(p("a")))


class TestIndexedConditionPaths:
    """With a label index, condition paths probe the children-by-label
    adjacency: same verdicts and values, never more base accesses."""

    CONDITIONS = (
        Comparison(p("age"), ">", 40),
        Comparison(p("*.name"), "=", "John"),
        Comparison(p("?"), "=", 45),
        Exists(p("salary")),
        Not(Exists(p("salary"))),
        Or((Comparison(p("age"), ">", 100), Comparison(p("name"), "=", "Sally"))),
    )

    def test_same_verdicts_never_more_accesses(self, person_store):
        index = LabelIndex(person_store)
        for condition in self.CONDITIONS:
            for oid in ("P1", "P2", "P3", "P4"):
                with Meter(person_store.counters) as scanned:
                    expected = holds(person_store, oid, condition)
                with Meter(person_store.counters) as probed:
                    got = holds(
                        person_store, oid, condition, label_index=index
                    )
                assert got == expected, (condition, oid)
                assert (
                    probed.delta.total_base_accesses()
                    <= scanned.delta.total_base_accesses()
                ), (condition, oid)

    def test_one_step_lookup_reads_only_the_match(self, person_store):
        # P1 has age, name and salary children: the scan reads all
        # three, the index only the ``age`` one.
        index = LabelIndex(person_store)
        with Meter(person_store.counters) as probed:
            values = atomic_values_on_path(
                person_store, "P1", p("age"), label_index=index
            )
        assert values == [45]
        assert probed.delta.index_probes == 1
        # P1 read, edge to A1 + its read; the sweep reached A1, so its
        # value is read for free.
        assert probed.delta.total_base_accesses() == 3

    def test_self_path_is_the_start_object(self, person_store):
        index = LabelIndex(person_store)
        assert reached(person_store, "A1", p(""), label_index=index) == {
            "A1"
        }
        assert holds(
            person_store, "A1", Comparison(p(""), "=", 45), label_index=index
        )

    #: (condition, candidate, verdict) on Example 2 as printed.
    VERDICTS = (
        (Comparison(p("age"), ">", 40), "P1", True),
        (Comparison(p("age"), ">", 40), "P3", False),
        (Comparison(p("age"), ">", 40), "P2", False),  # no age at all
        (Comparison(p("*.name"), "=", "John"), "P1", True),
        (Comparison(p("*.name"), "=", "Tom"), "P1", False),
        (Comparison(p("?.age"), "<", 30), "P1", True),  # P1.P3.age
        (Exists(p("student.major")), "P1", True),
        (Exists(p("student.major")), "P4", False),
        (Not(Exists(p("salary"))), "P2", True),
        (
            And(
                (
                    Comparison(p("age"), ">=", 40),
                    Comparison(p("name"), "=", "Tom"),
                )
            ),
            "P4",
            True,
        ),
        (
            Or(
                (
                    Comparison(p("age"), ">", 100),
                    Comparison(p("address"), "contains", "Alto"),
                )
            ),
            "P2",
            True,
        ),
        (Comparison(p(""), "=", "Sally"), "N2", True),
    )

    @pytest.mark.parametrize(
        "condition, oid, verdict",
        VERDICTS,
        ids=[f"{oid}-{i}" for i, (_, oid, _) in enumerate(VERDICTS)],
    )
    def test_pinned_verdict_with_and_without_index(
        self, person_store, condition, oid, verdict
    ):
        index = LabelIndex(person_store)
        with Meter(person_store.counters) as scanned:
            assert holds(person_store, oid, condition) is verdict
        with Meter(person_store.counters) as probed:
            assert (
                holds(
                    person_store, oid, condition, label_index=index
                )
                is verdict
            )
        assert (
            probed.delta.total_base_accesses()
            <= scanned.delta.total_base_accesses()
        )

    def test_without_index_scans(self, person_store):
        # An Exists leaf is one sweep from the candidate set: without an
        # index it charges exactly the plain scan.
        for text in ("professor", "*.name", "?"):
            with Meter(person_store.counters) as via_helper:
                got = filter_on_store(person_store, {"ROOT"}, Exists(p(text)))
            with Meter(person_store.counters) as scanned:
                expected = reached(person_store, "ROOT", p(text))
            assert got == ({"ROOT"} if expected else set())
            assert via_helper.delta.as_dict() == scanned.delta.as_dict()


class TestImplication:
    """``comparison_implies``/``condition_implies`` are sound: True only
    when every value (every candidate) satisfying the first satisfies
    the second."""

    def test_tighter_threshold_implies_looser(self):
        assert comparison_implies(
            Comparison(p("price"), ">", 95), Comparison(p("price"), ">", 93)
        )
        assert not comparison_implies(
            Comparison(p("price"), ">", 93), Comparison(p("price"), ">", 95)
        )

    def test_integer_steps_are_not_assumed(self):
        # Schemaless values may be floats: 95.5 > 95 but not >= 96.
        assert not comparison_implies(
            Comparison(p("price"), ">", 95), Comparison(p("price"), ">=", 96)
        )
        assert comparison_implies(
            Comparison(p("price"), ">=", 96), Comparison(p("price"), ">", 95)
        )
        assert not comparison_implies(
            Comparison(p("price"), ">=", 95), Comparison(p("price"), ">", 95)
        )

    def test_different_paths_never_imply(self):
        assert not comparison_implies(
            Comparison(p("price"), ">", 95), Comparison(p("cost"), ">", 93)
        )
        assert not comparison_implies(
            Comparison(p("?.price"), ">", 95), Comparison(p("price"), ">", 93)
        )

    def test_mixed_literal_types_never_order(self):
        assert not comparison_implies(
            Comparison(p("a"), ">", 95), Comparison(p("a"), ">", "9")
        )
        assert comparison_implies(
            Comparison(p("a"), ">", 2.5), Comparison(p("a"), ">=", True)
        )

    def test_equality_and_inequality(self):
        assert comparison_implies(
            Comparison(p("a"), "=", 40), Comparison(p("a"), "<", 45)
        )
        assert comparison_implies(
            Comparison(p("a"), ">", 40), Comparison(p("a"), "!=", 40)
        )
        assert not comparison_implies(
            Comparison(p("a"), "!=", 40), Comparison(p("a"), ">", 40)
        )
        assert comparison_implies(
            Comparison(p("a"), "contains", "John"),
            Comparison(p("a"), "contains", "oh"),
        )

    def test_or_and_not_never_imply(self):
        tight = Comparison(p("a"), ">", 95)
        loose = Comparison(p("a"), ">", 90)
        either = Or((tight, tight))
        negated = Not(Comparison(p("a"), "<=", 95))
        assert not condition_implies(either, loose)
        assert not condition_implies(negated, loose)
        assert not condition_implies(tight, either)
        assert not condition_implies(either, either)

    def test_conjuncts_each_implied_by_some_conjunct(self):
        price = Comparison(p("price"), ">", 95)
        stock = Comparison(p("stock"), "<", 5)
        view = And((Comparison(p("price"), ">", 93), Exists(p("stock"))))
        assert condition_implies(And((price, stock)), view)
        assert not condition_implies(price, view)
        assert condition_implies(price, None)
        assert not condition_implies(None, price)


#: Values and literals of every schemaless kind, NaN and infinities
#: included, clustered so that implications are often provable.
ATOMS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, 2.5, math.nan, math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text("ab", max_size=3),
)


#: Every operator, the orderings (whose bounds need care) the likeliest.
OPS = st.sampled_from(COMPARISON_OPS) | st.sampled_from(("<", "<=", ">", ">="))


@given(
    first_op=OPS,
    first_literal=ATOMS,
    second_op=OPS,
    second_literal=ATOMS,
    shared=st.booleans(),
    values=st.lists(ATOMS, max_size=8),
)
@settings(max_examples=500, deadline=None)
def test_comparison_implies_is_sound(
    first_op, first_literal, second_op, second_literal, shared, values
):
    if shared:  # the boundary cases: one literal, two operators
        second_literal = first_literal
    first = Comparison(p("a"), first_op, first_literal)
    second = Comparison(p("a"), second_op, second_literal)
    if not comparison_implies(first, second):
        return
    for value in values + [first_literal, second_literal]:
        if first.test_value(value):
            assert second.test_value(value), (first, second, value)
