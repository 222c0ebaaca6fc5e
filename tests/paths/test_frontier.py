"""Tests for path evaluation (set-at-a-time, scanning or indexed) and
the step memo.

The scan's charges are pinned as literals: every counter an
unindexed one-start :meth:`~repro.paths.automaton.PathNFA.evaluate_many`
moves, per expression, on the person DAG, a cycle, a dangling child and
E16's depth sweep.  Under the charge rule each touched object costs one
read, each expanded parent its out-edges once, and an accept-only
frontier is never expanded.
"""

import pytest

from repro.gsdb import LabelIndex, ObjectStore
from repro.instrumentation import Meter
from repro.paths import PathExpression, compile_expression
from repro.workloads import TreeSpec, layered_tree


def nfa_for(text: str):
    return compile_expression(PathExpression.parse(text))


def evaluate(nfa, store, start, **kwargs):
    """``start.e``: the one-start sweep."""
    return nfa.evaluate_many(store, (start,), **kwargs)[start]


#: ``ROOT.e`` on the person DAG without an index: the answer and every
#: counter the scan moves.  The DAG has 15 objects and 15 edges: ROOT
#: has 4 children, P1 4 (P3 among them), P2 2, P3 3 and P4 2.
PERSON_SCANS = {
    # ROOT + its 4 children read, ROOT's 4 edges; P1/P2 accept-only.
    "professor": ({"P1", "P2"}, {"object_reads": 5, "edge_traversals": 4}),
    # ... + P1's 3 unread children + P2's 2; edges 4 + 4 + 2.
    "professor.name": (
        {"N1", "N2"},
        {"object_reads": 10, "edge_traversals": 10},
    ),
    # Every object once, every parent's edges once: 15 and 15.
    "*.name": (
        {"N1", "N2", "N3", "N4"},
        {"object_reads": 15, "edge_traversals": 15},
    ),
    # ROOT and its 4 children expand: all 15 objects, all 15 edges.
    "?.name": (
        {"N1", "N2", "N3", "N4"},
        {"object_reads": 15, "edge_traversals": 15},
    ),
    # Every object once, every parent's edges once: 15 and 15.
    "*": (
        {"ROOT", "P1", "P2", "P3", "P4", "N1", "N2", "N3", "N4", "A1",
         "A3", "A4", "ADD2", "M3", "S1"},
        {"object_reads": 15, "edge_traversals": 15},
    ),
    # 1 + 4 + 3 (P1's) + 2 (P2's) + 3 (P3's, as a student) reads;
    # edges 4 + 4 + 2 + 3.
    "professor.student.name": (
        {"N3"},
        {"object_reads": 13, "edge_traversals": 13},
    ),
    # Parsed as the labels "(professor" | "student)", which no child
    # carries: ROOT + 4 children read, ROOT's 4 edges, nothing expands.
    "(professor|student).name": (
        set(),
        {"object_reads": 5, "edge_traversals": 4},
    ),
}


class TestFrontierEquivalence:
    EXPRESSIONS = tuple(PERSON_SCANS)

    def test_answers_on_person_dag(self, person_store):
        for text in self.EXPRESSIONS:
            expected, _ = PERSON_SCANS[text]
            assert evaluate(nfa_for(text), person_store, "ROOT") == expected

    def test_matches_classic_with_label_index(self, person_store):
        index = LabelIndex(person_store)
        for text in self.EXPRESSIONS:
            nfa = nfa_for(text)
            classic = evaluate(nfa, person_store, "ROOT")
            indexed = evaluate(nfa, person_store, "ROOT", label_index=index)
            assert indexed == classic, text

    def test_tracks_updates(self, person_store):
        index = LabelIndex(person_store)
        nfa = nfa_for("professor.name")
        person_store.delete_edge("ROOT", "P1")
        assert evaluate(
            nfa, person_store, "ROOT", label_index=index
        ) == evaluate(nfa, person_store, "ROOT") == {"N2"}

    def test_missing_entry_is_empty(self, person_store):
        assert evaluate(nfa_for("professor"), person_store, "GHOST") == set()

    def test_cycle_terminates(self):
        store = ObjectStore(check_references=False)
        store.add_set("X", "node", ["Y"])
        store.add_set("Y", "node", ["X"])
        with Meter(store.counters) as meter:
            assert evaluate(nfa_for("*"), store, "X") == {"X", "Y"}
        # Each object read once, each one's single edge followed once.
        assert meter.delta.as_dict() == {
            "object_reads": 2,
            "edge_traversals": 2,
        }


class TestFrontierCharging:
    def test_indexed_frontier_skips_off_path_edges(self):
        # The off-path edges are the noise atoms under the root and its
        # 4 l1 children; the l2 frontier accepts, so neither side reads
        # below it.
        store, root = noisy_tree(3, 4)
        index = LabelIndex(store)
        nfa = nfa_for("l1.l2")
        with Meter(store.counters) as classic:
            expected = evaluate(nfa, store, root)
        with Meter(store.counters) as indexed:
            assert evaluate(nfa, store, root, label_index=index) == expected
        # The scan follows 5 parents' 4 + 1 edges; the index skips the
        # 5 noise edges at one probe per expanded parent.
        assert classic.delta.edge_traversals == 25
        assert indexed.delta.edge_traversals == 20
        assert indexed.delta.index_probes == 5

    def test_accept_only_frontier_not_expanded(self):
        # ``l1`` accepts after one step: the frontier evaluator must not
        # look at the accepted objects' children at all.
        store, root = layered_tree(TreeSpec(depth=3, fanout=4, seed=5))
        index = LabelIndex(store)
        with Meter(store.counters) as meter:
            evaluate(nfa_for("l1"), store, root, label_index=index)
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


#: ``R.e`` on :func:`cyclic_dag` without an index: 7 objects, and 12
#: edges out of the 5 set objects (R 3, A 3, B 2, C 2, D 2).
CYCLE_SCANS = {
    # Every object once; every set object expands, its edges once.
    "*": (
        {"R", "A", "B", "C", "D", "E", "F"},
        {"object_reads": 7, "edge_traversals": 12},
    ),
    "*.c": ({"E", "F"}, {"object_reads": 7, "edge_traversals": 12}),
    # A parent reached under two state sets still pays its edges once.
    "a.*.a": ({"A", "C"}, {"object_reads": 7, "edge_traversals": 12}),
    # R, then A, B and C expand (3 + 3 + 2 + 2); every object is read.
    "?.b": ({"B", "D"}, {"object_reads": 7, "edge_traversals": 10}),
    # R's 3 edges and B's 2 (D, F read); then the automaton dies.
    "b.a.*": (set(), {"object_reads": 6, "edge_traversals": 5}),
}

#: ``ROOT.e`` on the person DAG after ``P3`` is removed while ROOT's and
#: P1's edges still name it; the failed lookup of P3 costs one read.
DANGLING_SCANS = {
    # 1 + 4 (P3's lookup included) + 3 (P1's) + 2 (P2's) + 2 (P4's)
    # reads; edges 4 + 4 + 2 + 2.
    "*.name": (
        {"N1", "N2", "N4"},
        {"object_reads": 12, "edge_traversals": 12},
    ),
    # ROOT + 4 lookups, ROOT's 4 edges; the children accept-only.
    "?": ({"P1", "P2", "P4"}, {"object_reads": 5, "edge_traversals": 4}),
    # 1 + 4 + 3 (P1's) + 2 (P2's) reads; edges 4 + 4 + 2.
    "professor.student": (
        set(),
        {"object_reads": 10, "edge_traversals": 10},
    ),
}

#: E16's depth sweep: (depth, fanout) → (answer size, counters) of the
#: first half of the ``l1.l2...`` path on a noisy layered tree.  The
#: levels above the accepting one expand, each parent's fanout + 1
#: (noise) edges once; reads are the root plus one per edge.
DEPTH_SWEEP_SCANS = {
    (2, 16): (16, {"object_reads": 18, "edge_traversals": 17}),  # 17
    (3, 8): (8, {"object_reads": 10, "edge_traversals": 9}),  # 9
    (4, 5): (25, {"object_reads": 37, "edge_traversals": 36}),  # 6 + 5·6
    (6, 3): (27, {"object_reads": 53, "edge_traversals": 52}),  # 4·(1+3+9)
    (8, 2): (16, {"object_reads": 46, "edge_traversals": 45}),  # 3·(1+…+8)
}


def noisy_tree(depth: int, fanout: int):
    """E16's tree: an E3 layered tree plus a ``noise`` atom under every
    set object."""
    store, root = layered_tree(TreeSpec(depth=depth, fanout=fanout, seed=29))
    for oid in [o for o in store.oids() if store.peek(o).is_set]:
        store.add_atomic(f"{oid}_noise", "noise", 1)
        store.insert_edge(oid, f"{oid}_noise")
    return store, root


class TestUnindexedFrontierCharging:
    """Without an index each touched object charges one read and each
    expanded parent one edge per out-edge, once per evaluation: the
    literals above are that accounting, and they hold in whatever order
    the frontier is expanded."""

    @pytest.mark.parametrize("text", TestFrontierEquivalence.EXPRESSIONS)
    def test_scan_charges_on_person_dag(self, person_store, text):
        expected, charges = PERSON_SCANS[text]
        with Meter(person_store.counters) as meter:
            assert evaluate(nfa_for(text), person_store, "ROOT") == expected
        assert meter.delta.as_dict() == charges

    @pytest.mark.parametrize("text", TestFrontierEquivalence.EXPRESSIONS)
    def test_indexed_never_charges_more(self, person_store, text):
        index = LabelIndex(person_store)
        nfa = nfa_for(text)
        with Meter(person_store.counters) as classic:
            expected = evaluate(nfa, person_store, "ROOT")
        with Meter(person_store.counters) as indexed:
            assert (
                evaluate(nfa, person_store, "ROOT", label_index=index)
                == expected
            )
        assert (
            indexed.delta.total_base_accesses()
            <= classic.delta.total_base_accesses()
        )

    def test_scan_charges_on_a_cycle(self):
        store = cyclic_dag()
        for text, (expected, charges) in CYCLE_SCANS.items():
            with Meter(store.counters) as meter:
                assert evaluate(nfa_for(text), store, "R") == expected, text
            assert meter.delta.as_dict() == charges, text

    @pytest.mark.parametrize(
        "shape", list(DEPTH_SWEEP_SCANS), ids=lambda shape: "%dx%d" % shape
    )
    def test_scan_charges_on_e16_depth_sweep(self, shape):
        depth, fanout = shape
        store, root = noisy_tree(depth, fanout)
        text = ".".join(f"l{i + 1}" for i in range(max(1, depth // 2)))
        size, charges = DEPTH_SWEEP_SCANS[shape]
        with Meter(store.counters) as meter:
            assert len(evaluate(nfa_for(text), store, root)) == size
        assert meter.delta.as_dict() == charges

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
                        answer = evaluate(
                            nfa_for(text), store, root, label_index=index
                        )
                    renamed = {original(oid) for oid in answer}
                    runs.append((renamed, meter.delta.as_dict()))
                assert runs[0] == runs[1] == runs[2], (text, use_index)

    def test_dangling_child_scan_charges(self, person_store):
        index = LabelIndex(person_store)
        # P3 goes while ROOT's and P1's edges (and the index) still
        # name it.
        person_store.remove_object("P3")
        for text, (expected, charges) in DANGLING_SCANS.items():
            nfa = nfa_for(text)
            with Meter(person_store.counters) as meter:
                assert evaluate(nfa, person_store, "ROOT") == expected, text
            assert meter.delta.as_dict() == charges, text
            assert (
                evaluate(nfa, person_store, "ROOT", label_index=index)
                == expected
            ), text

    def test_initial_is_computed_once(self):
        nfa = nfa_for("*.name")
        assert nfa.initial() is nfa.initial()
        assert not nfa.is_accepting(nfa.initial())
        assert nfa_for("*").is_accepting(nfa_for("*").initial())


class TestStepMemo:
    def test_repeat_evaluation_adds_no_transitions(self):
        store, root = layered_tree(TreeSpec(depth=4, fanout=3, seed=2))
        nfa = nfa_for("l1.l2.l3.l4")
        first = evaluate(nfa, store, root)
        table_after_first = len(nfa._step_cache)
        assert table_after_first > 0
        # The second pass re-asks only memoized (state-set, label)
        # transitions: the table does not grow.
        assert evaluate(nfa, store, root) == first
        assert len(nfa._step_cache) == table_after_first

    def test_memo_is_per_state_set_and_label(self):
        nfa = nfa_for("a.b")
        states = nfa.initial()
        once = nfa.step(states, "a")
        assert nfa._step_cache[(states, "a")] is once
        assert nfa.step(states, "a") is once
