"""Property suite: kernel ≡ frontier ≡ node-at-a-time evaluation.

The columnar kernel (:func:`evaluate_on_snapshot`) must compute exactly
the member set of the interpreted evaluators — on random graph shapes,
for expressions with cycles / wildcards / alternation, from present and
absent entry points, and across mid-stream updates that force delta
refreshes or (with auto-refresh off) the interpreted fallback.  Seeds
are drawn by hypothesis but every generator is seed-deterministic, so
failures replay exactly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb.columnar import enable_columnar
from repro.gsdb.gc import reachable_from
from repro.paths import PathExpression, compile_expression
from repro.paths.kernel import (
    evaluate_many_on_snapshot,
    evaluate_on_snapshot,
    reachable_on_snapshot,
)
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
        view = enable_columnar(store).current()
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
        view = enable_columnar(store).current()
        nfa = compile_expression(PathExpression.parse(text))
        starts = sorted(store.oids()) + ["absent", root]
        batched = evaluate_many_on_snapshot(view, nfa, starts)
        assert set(batched) == set(starts)
        for start in set(starts):
            assert batched[start] == evaluate_on_snapshot(
                view, nfa, start
            ), (text, start)

    @given(seed=st.integers(0, 10_000), nodes=st.integers(5, 40))
    @settings(**COMMON)
    def test_reachable_matches_interpreted(self, seed, nodes):
        store, root = build_store(seed, nodes)
        interpreted = reachable_from(store, {root})  # before enabling
        view = enable_columnar(store).current()
        assert reachable_on_snapshot(view, {root}) == interpreted


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
        manager = enable_columnar(store)
        manager.current()
        rng = random.Random(seed ^ 0xBEEF)
        for i in range(steps):
            mutate(store, rng, i)
            view = manager.current()
            assert view.is_fresh()
            assert_all_equal(store, view, text, [root, "absent"])

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
        manager = enable_columnar(store, rebuild_threshold=1e-9)
        manager.current()
        rng = random.Random(seed ^ 0xF00D)
        for i in range(4):
            mutate(store, rng, i)
        view = manager.current()
        assert manager.full_rebuilds >= 2
        assert_all_equal(store, view, text, [root])

    @given(seed=st.integers(0, 10_000), nodes=st.integers(8, 30))
    @settings(**COMMON)
    def test_stale_snapshot_never_serves(self, seed, nodes):
        store, root = build_store(seed, nodes)
        manager = enable_columnar(store, auto_refresh=False)
        manager.refresh()
        rng = random.Random(seed ^ 0xCAFE)
        mutate(store, rng, 0)  # may be a no-op depending on the draw...
        store.add_atomic("definitely-new", "a", 1)  # ...this never is
        # Stale + no auto refresh: the read path must fall back rather
        # than expose the pre-update extent.
        assert not manager.is_fresh()
        assert manager.current() is None
        manager.refresh()
        view = manager.current()
        assert view is not None
        assert_all_equal(store, view, "*", [root])
