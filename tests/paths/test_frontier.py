"""Tests for frontier (set-at-a-time) evaluation and the step memo."""

import pytest

from repro.gsdb import LabelIndex, ObjectStore
from repro.instrumentation import Meter
from repro.paths import PathExpression, compile_expression
from repro.workloads import TreeSpec, layered_tree


def nfa_for(text: str):
    return compile_expression(PathExpression.parse(text))


class TestFrontierEquivalence:
    EXPRESSIONS = (
        "professor",
        "professor.name",
        "*.name",
        "?.name",
        "*",
        "professor.student.name",
        "(professor|student).name",
    )

    def test_matches_classic_on_person_dag(self, person_store):
        for text in self.EXPRESSIONS:
            nfa = nfa_for(text)
            classic = nfa.evaluate(person_store, "ROOT")
            plain = nfa.evaluate_frontier(person_store, "ROOT")
            assert plain == classic, text

    def test_matches_classic_with_label_index(self, person_store):
        index = LabelIndex(person_store)
        for text in self.EXPRESSIONS:
            nfa = nfa_for(text)
            classic = nfa.evaluate(person_store, "ROOT")
            indexed = nfa.evaluate_frontier(
                person_store, "ROOT", label_index=index
            )
            assert indexed == classic, text

    def test_tracks_updates(self, person_store):
        index = LabelIndex(person_store)
        nfa = nfa_for("professor.name")
        person_store.delete_edge("ROOT", "P1")
        assert nfa.evaluate_frontier(
            person_store, "ROOT", label_index=index
        ) == nfa.evaluate(person_store, "ROOT")

    def test_missing_entry_is_empty(self, person_store):
        assert nfa_for("professor").evaluate_frontier(
            person_store, "GHOST"
        ) == set()

    def test_cycle_terminates(self):
        store = ObjectStore(check_references=False)
        store.add_set("X", "node", ["Y"])
        store.add_set("Y", "node", ["X"])
        assert nfa_for("*").evaluate_frontier(store, "X") == {"X", "Y"}


class TestFrontierCharging:
    def test_indexed_frontier_skips_off_path_edges(self):
        store, root = layered_tree(TreeSpec(depth=3, fanout=4, seed=5))
        index = LabelIndex(store)
        nfa = nfa_for("l1.l2")
        with Meter(store.counters) as classic:
            expected = nfa.evaluate(store, root)
        with Meter(store.counters) as indexed:
            assert (
                nfa.evaluate_frontier(store, root, label_index=index)
                == expected
            )
        assert (
            indexed.delta.edge_traversals < classic.delta.edge_traversals
        )
        assert indexed.delta.index_probes > 0

    def test_accept_only_frontier_not_expanded(self):
        # ``l1`` accepts after one step: the frontier evaluator must not
        # look at the accepted objects' children at all.
        store, root = layered_tree(TreeSpec(depth=3, fanout=4, seed=5))
        index = LabelIndex(store)
        with Meter(store.counters) as meter:
            nfa_for("l1").evaluate_frontier(store, root, label_index=index)
        assert meter.delta.index_probes == 1  # the root only
        assert meter.delta.edge_traversals == 4  # one per admitted child


CYCLIC_EDGES = {
    "R": ["A", "B", "C"],
    "A": ["B", "D", "E"],
    "B": ["D", "F"],
    "C": ["F", "R"],
    "D": ["E", "C"],
}
CYCLIC_LABELS = {"R": "r", "A": "a", "B": "b", "C": "a", "D": "b"}


def cyclic_dag(name=lambda oid: oid, *, reverse: bool = False) -> ObjectStore:
    """A DAG with a cycle back to its root ``R``.  *name* renames every
    OID and *reverse* flips creation order and child lists, so two
    copies iterate their OID sets (and build frontiers) in different
    orders over the same shape."""
    store = ObjectStore(check_references=False)
    leaves = ["F", "E"] if reverse else ["E", "F"]
    for oid in leaves:
        store.add_atomic(name(oid), "c", ord(oid))
    sets = list(CYCLIC_EDGES)[::-1] if reverse else list(CYCLIC_EDGES)
    for oid in sets:
        children = CYCLIC_EDGES[oid][::-1] if reverse else CYCLIC_EDGES[oid]
        store.add_set(
            name(oid), CYCLIC_LABELS[oid], [name(child) for child in children]
        )
    return store


class TestUnindexedFrontierCharging:
    """Without an index the frontier expands exactly the (object,
    state-set) pairs :meth:`PathNFA.evaluate` expands, in whatever
    order: answers and every counter agree."""

    @pytest.mark.parametrize("text", TestFrontierEquivalence.EXPRESSIONS)
    def test_charges_exactly_evaluate_on_person_dag(self, person_store, text):
        nfa = nfa_for(text)
        with Meter(person_store.counters) as classic:
            expected = nfa.evaluate(person_store, "ROOT")
        with Meter(person_store.counters) as frontier:
            assert nfa.evaluate_frontier(person_store, "ROOT") == expected
        assert frontier.delta.as_dict() == classic.delta.as_dict()

    @pytest.mark.parametrize("text", TestFrontierEquivalence.EXPRESSIONS)
    def test_indexed_never_charges_more(self, person_store, text):
        index = LabelIndex(person_store)
        nfa = nfa_for(text)
        with Meter(person_store.counters) as classic:
            expected = nfa.evaluate(person_store, "ROOT")
        with Meter(person_store.counters) as indexed:
            assert (
                nfa.evaluate_frontier(person_store, "ROOT", label_index=index)
                == expected
            )
        assert (
            indexed.delta.total_base_accesses()
            <= classic.delta.total_base_accesses()
        )

    def test_charges_exactly_evaluate_on_a_cycle(self):
        store = cyclic_dag()
        for text in ("*", "*.c", "a.*.a", "?.b", "b.a.*"):
            nfa = nfa_for(text)
            with Meter(store.counters) as classic:
                expected = nfa.evaluate(store, "R")
            with Meter(store.counters) as frontier:
                assert nfa.evaluate_frontier(store, "R") == expected, text
            assert frontier.delta.as_dict() == classic.delta.as_dict(), text

    def test_charges_do_not_depend_on_iteration_order(self):
        copies = [
            (cyclic_dag(), str),
            (
                cyclic_dag(lambda oid: f"obj-{oid}-{ord(oid) * 7919}"),
                lambda oid: oid.split("-")[1],
            ),
            (cyclic_dag(lambda oid: oid * 3, reverse=True), lambda oid: oid[0]),
        ]
        for text in ("*", "*.c", "a.*.a", "?.b", "b.a.*"):
            for use_index in (False, True):
                runs = []
                for store, original in copies:
                    index = LabelIndex(store) if use_index else None
                    root = next(
                        oid for oid in store.oids() if original(oid) == "R"
                    )
                    with Meter(store.counters) as meter:
                        answer = nfa_for(text).evaluate_frontier(
                            store, root, label_index=index
                        )
                    renamed = {original(oid) for oid in answer}
                    runs.append((renamed, meter.delta.as_dict()))
                assert runs[0] == runs[1] == runs[2], (text, use_index)

    def test_dangling_child_charges_exactly_evaluate(self, person_store):
        index = LabelIndex(person_store)
        # P3 goes while ROOT's and P1's edges (and the index) still
        # name it.
        person_store.remove_object("P3")
        for text in ("*.name", "?", "professor.student"):
            nfa = nfa_for(text)
            with Meter(person_store.counters) as classic:
                expected = nfa.evaluate(person_store, "ROOT")
            with Meter(person_store.counters) as frontier:
                assert nfa.evaluate_frontier(person_store, "ROOT") == expected
            assert frontier.delta.as_dict() == classic.delta.as_dict(), text
            assert "P3" not in expected
            assert (
                nfa.evaluate_frontier(person_store, "ROOT", label_index=index)
                == expected
            ), text

    def test_initial_is_computed_once(self):
        nfa = nfa_for("*.name")
        assert nfa.initial() is nfa.initial()
        assert not nfa.is_accepting(nfa.initial())
        assert nfa_for("*").is_accepting(nfa_for("*").initial())


class TestStepMemo:
    def test_identical_results_with_fewer_recomputations(self):
        store, root = layered_tree(TreeSpec(depth=4, fanout=3, seed=2))
        nfa = nfa_for("l1.l2.l3.l4")
        first = nfa.evaluate(store, root)
        computed_after_first = nfa.step_computations
        assert computed_after_first > 0
        second = nfa.evaluate(store, root)
        assert second == first
        # The second pass re-asks only memoized (state-set, label)
        # transitions: zero new computations, hits instead.
        assert nfa.step_computations == computed_after_first
        assert nfa.step_cache_hits > 0

    def test_memo_is_per_state_set_and_label(self):
        nfa = nfa_for("a.b")
        states = nfa.initial()
        once = nfa.step(states, "a")
        again = nfa.step(states, "a")
        assert once == again
        assert nfa.step_cache_hits >= 1
