"""Tests for NFA compilation and graph evaluation of expressions."""

from repro.gsdb import LabelIndex, ObjectStore
from repro.instrumentation import Meter
from repro.paths import PathExpression, compile_expression
from repro.paths.automaton import ChargeLedger


def evaluate(store, start, expression, **kwargs):
    """``start.expression`` on *store*: the one-start sweep."""
    return compile_expression(expression).evaluate_many(
        store, (start,), **kwargs
    )[start]


class TestNfaAcceptance:
    def test_initial_accepting_for_star(self):
        nfa = compile_expression(PathExpression.parse("*"))
        assert nfa.is_accepting(nfa.initial())

    def test_step_and_dead_state(self):
        nfa = compile_expression(PathExpression.parse("a.b"))
        states = nfa.initial()
        states = nfa.step(states, "a")
        assert not nfa.is_accepting(states)
        assert nfa.is_accepting(nfa.step(states, "b"))
        assert nfa.is_dead(nfa.step(states, "z"))

    def test_residual(self):
        nfa = compile_expression(PathExpression.parse("a.b.c"))
        states = nfa.residual(["a", "b"])
        assert nfa.is_accepting(nfa.step(states, "c"))

    def test_compilation_cached(self):
        e = PathExpression.parse("a.*")
        assert compile_expression(e) is compile_expression(e)


class TestGraphEvaluation:
    def test_paper_view_vj(self, person_store):
        # ROOT.* reaches every descendant (and ROOT itself).
        result = evaluate(
            person_store, "ROOT", PathExpression.parse("*")
        )
        assert "ROOT" in result
        assert {"P1", "P2", "P3", "P4", "N1", "A3"} <= result

    def test_paper_view_prof(self, person_store):
        # Expression 3.4: SELECT ROOT.*.professor
        result = evaluate(
            person_store, "ROOT", PathExpression.parse("*.professor")
        )
        assert result == {"P1", "P2"}

    def test_paper_view_student_under_prof(self, person_store):
        result = evaluate(
            person_store, "ROOT", PathExpression.parse("*.professor.*.student")
        )
        assert result == {"P3"}

    def test_question_mark_children(self, person_store):
        result = evaluate(
            person_store, "P2", PathExpression.parse("?")
        )
        assert result == {"N2", "ADD2"}

    def test_constant_path(self, person_store):
        result = evaluate(
            person_store, "ROOT", PathExpression.parse("professor.age")
        )
        assert result == {"A1"}

    def test_cyclic_graph_terminates(self):
        s = ObjectStore(check_references=False)
        s.add_set("a", "x", ["b"])
        s.add_set("b", "x", ["a", "c"])
        s.add_atomic("c", "leaf", 1)
        result = evaluate(s, "a", PathExpression.parse("*.leaf"))
        assert result == {"c"}

    def test_from_states_residual_evaluation(self, person_store):
        # Continue matching professor.age after consuming "professor".
        e = PathExpression.parse("professor.age")
        nfa = compile_expression(e)
        states = nfa.residual(["professor"])
        result = evaluate(person_store, "P1", e, from_states=states)
        assert result == {"A1"}

    def test_empty_from_states(self, person_store):
        e = PathExpression.parse("a")
        empty = frozenset()
        assert evaluate(person_store, "ROOT", e, from_states=empty) == set()


class TestMultiSourceSweepCharges:
    """:meth:`PathNFA.evaluate_many` charges by the one-evaluation rule."""

    @staticmethod
    def store():
        store = ObjectStore()
        store.add_atomic("b1", "b", 1)
        store.add_atomic("b2", "b", 2)
        store.add_set("a", "a", ["b1", "b2"])
        store.add_set("root", "root", ["a"])
        return store

    def test_accepted_leaf_children_are_never_touched(self):
        # ``root.a`` accepts at ``a`` with no transition left: its two
        # children are neither traversed nor read, scanning or probing.
        nfa = compile_expression(PathExpression.parse("a"))
        for indexed in (False, True):
            store = self.store()
            index = LabelIndex(store) if indexed else None
            with Meter(store.counters) as sweep:
                found = nfa.evaluate_many(store, ["root"], label_index=index)
            assert found == {"root": {"a"}}
            assert sweep.delta.edge_traversals == 1  # root -> a only
            assert sweep.delta.object_reads == 2  # root, a
            assert sweep.delta.index_probes == (1 if indexed else 0)

    def test_one_ledger_charges_each_object_once(self):
        store = self.store()
        nfa = compile_expression(PathExpression.parse("?.b"))
        ledger = ChargeLedger()
        with Meter(store.counters) as first:
            nfa.evaluate_many(store, ["root"], charged=ledger)
        assert first.delta.object_reads == 4
        assert first.delta.edge_traversals == 3
        with Meter(store.counters) as again:
            assert nfa.evaluate_many(store, ["root"], charged=ledger) == {
                "root": {"b1", "b2"}
            }
            assert ledger.touch(store, "b1").value == 1
        assert again.delta.total_base_accesses() == 0

    def test_many_starts_equal_single_walks(self, person_store):
        nfa = compile_expression(PathExpression.parse("*.name"))
        starts = ["ROOT", "P1", "P3", "absent"]
        many = nfa.evaluate_many(person_store, starts)
        assert many == {
            start: nfa.evaluate_many(person_store, [start])[start]
            for start in starts
        }
