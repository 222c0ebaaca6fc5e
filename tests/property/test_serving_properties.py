"""Property-based tests for the read-path serving layer.

The central claim of experiment E16: for *any* seeded interleaving of
valid updates and reads, every served answer — cached, or evaluated on
an epoch by the kernel — is identical to fresh uncached scanning
evaluation, and the indexed store evaluator agrees with a brute-force
reference.
Failures shrink over the seed, step count, and the update mix.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property.support import common_settings, reach

from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.paths.automaton import compile_expression
from repro.paths.expression import PathExpression
from repro.query.evaluator import QueryEvaluator
from repro.serving import EpochServer
from repro.workloads import TreeSpec, layered_tree
from repro.workloads.serving import build_query_pool, run_serving_workload
from repro.workloads.updates import UpdateMix, UpdateStream

COMMON = common_settings(15)

mix_strategy = st.builds(
    UpdateMix,
    insert=st.floats(0.1, 3.0),
    delete=st.floats(0.1, 3.0),
    modify=st.floats(0.1, 3.0),
)


def build_serving_env(seed: int, cache_size: int):
    spec = TreeSpec(depth=3, fanout=3, seed=seed)
    store, root = layered_tree(spec)
    registry = DatabaseRegistry(store)
    server = EpochServer(
        registry, parent_index=ParentIndex(store), cache_size=cache_size
    )
    pool = build_query_pool(root, spec, store=store)
    return store, root, spec, server, LabelIndex(store), pool


class TestServedAnswersNeverStale:
    @given(
        seed=st.integers(0, 10_000),
        steps=st.integers(1, 60),
        read_ratio=st.floats(0.1, 0.95),
        cache_size=st.sampled_from([1, 4, 64]),
        mix=mix_strategy,
    )
    @settings(**COMMON)
    def test_workload_oracle_zero_mismatches(
        self, seed, steps, read_ratio, cache_size, mix
    ):
        result = run_serving_workload(
            seed=seed,
            steps=steps,
            read_ratio=read_ratio,
            cache_size=cache_size,
            mix=mix,
            audit_every=7,
        )
        assert result.oracle_mismatches == 0, result.stale_reads

    @given(
        seed=st.integers(0, 10_000),
        updates=st.integers(0, 25),
        mix=mix_strategy,
    )
    @settings(**COMMON)
    def test_cached_equals_uncached_equals_frontier(
        self, seed, updates, mix
    ):
        store, root, spec, server, label_index, pool = build_serving_env(
            seed, 64
        )
        fresh = QueryEvaluator(server.registry)
        stream = UpdateStream(
            store, seed=seed + 1, mix=mix, protected=frozenset({root})
        )
        # Warm the cache, churn the base, then check every query three
        # ways: served (cache + kernel), fresh scan, and each select
        # path indexed against the reference.
        for text in pool:
            server.evaluate_oids(text)
        for _ in range(updates):
            stream.step()
        for text in pool:
            served = server.evaluate_oids(text)
            assert served == fresh.evaluate_oids(text), text
        for k in range(1, spec.depth + 1):
            path = PathExpression.parse(".".join(spec.labels[:k]))
            assert compile_expression(path).evaluate_many(
                store, [root], label_index=label_index
            ) == {root: reach(store, root, path)}


class TestFrontierEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 4),
        fanout=st.integers(1, 4),
        updates=st.integers(0, 15),
        indexed=st.booleans(),
    )
    @settings(**COMMON)
    def test_frontier_matches_classic_after_churn(
        self, seed, depth, fanout, updates, indexed
    ):
        spec = TreeSpec(depth=depth, fanout=fanout, seed=seed)
        store, root = layered_tree(spec)
        index = LabelIndex(store) if indexed else None
        stream = UpdateStream(
            store, seed=seed + 1, protected=frozenset({root})
        )
        for _ in range(updates):
            stream.step()
        expressions = [
            ".".join(spec.labels[:k]) for k in range(1, depth + 1)
        ] + ["*", "?", f"*.{spec.labels[-1]}"]
        for text in expressions:
            path = PathExpression.parse(text)
            assert compile_expression(path).evaluate_many(
                store, [root], label_index=index
            ) == {root: reach(store, root, path)}, text
