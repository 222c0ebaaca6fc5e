"""Property suite: kernel ≡ frontier ≡ node-at-a-time evaluation.

The columnar kernel (:func:`evaluate_on_snapshot`) must compute exactly
the member set of the interpreted evaluators on a frozen epoch — on
random graph shapes, for expressions with cycles / wildcards /
alternation, from present and absent entry points, and across
mid-stream updates that force delta refreshes, rebuilds, and
re-created OIDs.  Seeds are drawn by hypothesis but every generator is
seed-deterministic, so failures replay exactly.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb import columnar
from repro.gsdb.columnar import ColumnarSnapshot, EpochView
from repro.paths import PathExpression, compile_expression
from repro.paths.kernel import evaluate_many_on_snapshot, evaluate_on_snapshot
from tests.property.support import build_store, common_settings, mutate

COMMON = common_settings(15)

EXPRESSIONS = (
    "a",
    "a.b",
    "*",
    "a.*",
    "?.b",
    "*.c",
    "(a|b).?",
    "a.*.c",
)

expression_st = st.sampled_from(EXPRESSIONS)


def assert_all_equal(store, view, text: str, starts) -> None:
    nfa = compile_expression(PathExpression.parse(text))
    for start in starts:
        kernel = evaluate_on_snapshot(view, nfa, start)
        assert kernel == nfa.evaluate(store, start), (text, start)
        assert kernel == nfa.evaluate_frontier(store, start), (text, start)


class TestStaticEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(5, 60),
        text=expression_st,
    )
    @settings(**COMMON)
    def test_kernel_matches_both_evaluators(self, seed, nodes, text):
        store, root = build_store(seed, nodes)
        view = ColumnarSnapshot(store).freeze()
        assert_all_equal(store, view, text, [root, "node3", "absent"])

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(5, 60),
        text=expression_st,
    )
    @settings(**COMMON)
    def test_multi_source_matches_per_start(self, seed, nodes, text):
        # evaluate_many must agree with the single-start kernel from
        # every object at once — overlapping reach sets, shared
        # substructure, cycles, and an absent start all at once.
        store, root = build_store(seed, nodes)
        view = ColumnarSnapshot(store).freeze()
        nfa = compile_expression(PathExpression.parse(text))
        starts = sorted(store.oids()) + ["absent", root]
        batched = evaluate_many_on_snapshot(view, nfa, starts)
        assert set(batched) == set(starts)
        for start in set(starts):
            assert batched[start] == evaluate_on_snapshot(
                view, nfa, start
            ), (text, start)

class TestMidStreamUpdates:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(8, 40),
        steps=st.integers(1, 12),
        text=expression_st,
    )
    @settings(**COMMON)
    def test_delta_refresh_stays_equivalent(self, seed, nodes, steps, text):
        store, root = build_store(seed, nodes)
        manager = ColumnarSnapshot(store)
        manager.refresh()
        rng = random.Random(seed ^ 0xBEEF)
        for i in range(steps):
            mutate(store, rng, i)
            manager.refresh()
            assert manager.is_fresh()
            assert_all_equal(store, manager.freeze(), text, [root, "absent"])

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(8, 30),
        text=expression_st,
    )
    @settings(**COMMON)
    def test_tiny_threshold_forces_rebuilds(self, seed, nodes, text):
        # threshold so small every delta rebuilds: rebuild path must be
        # just as equivalent as the patch path.
        store, root = build_store(seed, nodes)
        with mock.patch.object(columnar, "REBUILD_THRESHOLD", 1e-9):
            manager = ColumnarSnapshot(store)
            manager.refresh()
            rng = random.Random(seed ^ 0xF00D)
            for i in range(4):
                mutate(store, rng, i)
            view = manager.freeze()
        assert manager.full_rebuilds >= 2
        assert_all_equal(store, view, text, [root])

    @given(seed=st.integers(0, 10_000), nodes=st.integers(8, 30))
    @settings(**COMMON)
    def test_stale_snapshot_never_serves(self, seed, nodes):
        store, root = build_store(seed, nodes)
        manager = ColumnarSnapshot(store)
        old = manager.freeze()
        old_answer = evaluate_on_snapshot(old, compile_expression(
            PathExpression.parse("*")), root)
        rng = random.Random(seed ^ 0xCAFE)
        mutate(store, rng, 0)  # may be a no-op depending on the draw...
        store.add_atomic("definitely-new", "a", 1)  # ...this never is
        store.insert_edge(root, "definitely-new")
        # Readers only ever see frozen epochs, and freezing refreshes
        # first: the new epoch has the update, the old one keeps its own.
        assert not manager.is_fresh()
        view = manager.freeze()
        assert manager.is_fresh()
        assert_all_equal(store, view, "*", [root])
        assert "definitely-new" not in old_answer
        assert evaluate_on_snapshot(old, compile_expression(
            PathExpression.parse("*")), root) == old_answer

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(8, 40),
        steps=st.integers(1, 8),
        text=expression_st,
    )
    @settings(**COMMON)
    def test_one_refresh_is_enough(self, seed, nodes, steps, text):
        # Delta replay refuses a re-created OID and must rebuild in the
        # same refresh: an image taken straight after one refresh (no
        # freeze, which would refresh again) equals the store.
        store, root = build_store(seed, nodes)
        manager = ColumnarSnapshot(store)
        manager.refresh()
        rng = random.Random(seed ^ 0xD00D)
        for i in range(steps):
            mutate(store, rng, i)
            victims = sorted(
                oid for oid in store.oids()
                if oid != root and not store.peek(oid).is_set
            )
            if victims:
                victim = rng.choice(victims)
                label = store.peek(victim).label
                for parent in sorted(store.oids()):
                    obj = store.peek(parent)
                    if obj.is_set and victim in obj.children():
                        store.delete_edge(parent, victim)
                store.remove_object(victim)
                store.add_atomic(victim, label, rng.randint(0, 100))
                store.insert_edge(root, victim)
            manager.refresh()
            assert manager.is_fresh()
            view = EpochView(manager, store.counters)
            assert_all_equal(store, view, text, [root, "absent"])
