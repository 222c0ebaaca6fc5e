"""Tests for the bitset frontier kernel over frozen columnar epochs.

Answers are checked against the store evaluator
(``PathNFA.evaluate_many`` with one start)
— the kernel's contract is byte-identical member sets, corner cases
included — and the one-start sweep's row scans are pinned as literals.
"""

import pytest

from repro.gsdb import ObjectStore
from repro.gsdb.columnar import ColumnarSnapshot
from repro.instrumentation.counters import CostCounters
from repro.paths import PathExpression, compile_expression
from repro.paths.kernel import evaluate_many_on_snapshot


def nfa_for(text: str):
    return compile_expression(PathExpression.parse(text))


def frozen(store):
    return ColumnarSnapshot(store).freeze()


def on_store(store, nfa, start):
    """``start.e`` on *store*: the store evaluator with one start."""
    return nfa.evaluate_many(store, [start])[start]


def on_epoch(view, nfa, start):
    """``start.e`` on *view*: the kernel with one start."""
    return evaluate_many_on_snapshot(view, nfa, [start])[start]


EXPRESSIONS = (
    "professor",
    "professor.name",
    "*.name",
    "?.name",
    "*",
    "professor.student.name",
    "(professor|student).name",
)

#: What ``ROOT.e`` on the frozen person DAG charges the reader.
ROWS_SCANNED = {
    "professor": {"snapshot_rows_scanned": 3},
    "professor.name": {"snapshot_rows_scanned": 7},
    "*.name": {"snapshot_rows_scanned": 30},
    "?.name": {"snapshot_rows_scanned": 13},
    "*": {"snapshot_rows_scanned": 30},
    "professor.student.name": {"snapshot_rows_scanned": 8},
    "(professor|student).name": {"snapshot_rows_scanned": 2},
}


class TestEvaluateEquivalence:
    def test_matches_classic_on_person_dag(self, person_store):
        view = frozen(person_store)
        for text in EXPRESSIONS:
            nfa = nfa_for(text)
            assert on_epoch(view, nfa, "ROOT") == on_store(
                person_store, nfa, "ROOT"
            ), text

    def test_tracks_updates_through_delta_refresh(self, person_store):
        manager = ColumnarSnapshot(person_store)
        manager.refresh()
        person_store.delete_edge("ROOT", "P1")
        view = manager.freeze()
        nfa = nfa_for("professor.name")
        assert on_epoch(view, nfa, "ROOT") == on_store(
            person_store, nfa, "ROOT"
        )

    def test_missing_entry_matches_interpreted(self, person_store):
        view = frozen(person_store)
        nfa = nfa_for("professor")
        assert on_epoch(view, nfa, "GHOST") == on_store(
            person_store, nfa, "GHOST"
        )

    def test_empty_expression_admits_absent_start(self, person_store):
        # The store evaluator admits the start under an accepting NFA
        # even when the OID does not exist; the kernel must mirror that.
        view = frozen(person_store)
        nfa = nfa_for("*")
        assert "GHOST" in on_store(person_store, nfa, "GHOST")
        assert on_epoch(view, nfa, "GHOST") == on_store(
            person_store, nfa, "GHOST"
        )

    def test_non_set_start_never_expands(self, person_store):
        view = frozen(person_store)
        for text in ("*", "name"):
            nfa = nfa_for(text)
            assert on_epoch(view, nfa, "N1") == on_store(
                person_store, nfa, "N1"
            ), text

    def test_cycle_terminates(self):
        store = ObjectStore(check_references=False)
        store.add_set("X", "node", ["Y"])
        store.add_set("Y", "node", ["X"])
        view = frozen(store)
        assert on_epoch(view, nfa_for("*"), "X") == {"X", "Y"}

    def test_dangling_children_stay_hidden(self):
        store = ObjectStore(check_references=False)
        store.add_set("root", "root", ["gone"])
        view = frozen(store)
        nfa = nfa_for("*")
        assert on_epoch(view, nfa, "root") == on_store(store, nfa, "root")

    def test_shared_subtree_admitted_once(self, person_store):
        # P3 has two parents (DAG); results are sets either way but the
        # traversal must not loop or double-expand.
        view = frozen(person_store)
        nfa = nfa_for("?.?")
        assert on_epoch(view, nfa, "ROOT") == on_store(
            person_store, nfa, "ROOT"
        )


class TestFrozenEpoch:
    """A frozen epoch answers for the state it froze, whatever the
    store and the live snapshot do afterwards."""

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_answers_its_own_state_after_churn(self, person_store, text):
        nfa = nfa_for(text)
        manager = ColumnarSnapshot(person_store)
        view = manager.freeze()
        before = on_store(person_store, nfa, "ROOT")
        person_store.delete_edge("ROOT", "P1")
        person_store.add_atomic("N9", "name", "Nina")
        person_store.add_set("P9", "professor", ["N9"])
        person_store.insert_edge("ROOT", "P9")
        later = manager.freeze()
        assert on_epoch(view, nfa, "ROOT") == before, text
        assert on_epoch(later, nfa, "ROOT") == on_store(
            person_store, nfa, "ROOT"
        ), text

    def test_sweeps_charge_the_view_counters(self, person_store):
        for text in EXPRESSIONS:
            reader = CostCounters()
            view = ColumnarSnapshot(person_store).freeze(reader)
            before = person_store.counters.snapshot()
            on_epoch(view, nfa_for(text), "ROOT")
            assert reader.as_dict() == ROWS_SCANNED[text], text
            assert person_store.counters.delta_since(before).as_dict() == {}

    def test_many_starts_match_single_starts(self, person_store):
        view = frozen(person_store)
        nfa = nfa_for("*.name")
        starts = sorted(person_store.oids()) + ["GHOST"]
        many = evaluate_many_on_snapshot(view, nfa, starts)
        for start in starts:
            assert many[start] == on_epoch(view, nfa, start), start


class TestCostFollowsRowsReached:
    """A sweep pays for the rows it reaches, never for the labels the
    rest of the image carries."""

    @pytest.mark.parametrize("text", ["*.name", "?.name"])
    def test_unrelated_labels_cost_nothing(self, person_store, text):
        nfa = nfa_for(text)
        reader = CostCounters()
        on_epoch(ColumnarSnapshot(person_store).freeze(reader), nfa, "ROOT")
        before = reader.as_dict()
        graft = [f"G{i}" for i in range(200)]
        for i, oid in enumerate(graft):
            person_store.add_atomic(oid, f"unrelated{i}", i)
        person_store.add_set("GRAFT", "graft", graft)
        reader = CostCounters()
        view = ColumnarSnapshot(person_store).freeze(reader)
        answer = on_epoch(view, nfa, "ROOT")
        assert reader.as_dict() == before == ROWS_SCANNED[text]
        assert answer == on_store(person_store, nfa, "ROOT")
