"""Property-based tests for the epoch-pinned MVCC serving tier (E20).

Two claims, for any seeded interleaving of reads and write batches:

1. *Epoch identity* — every answer the server hands out is
   byte-identical to what a serial oracle (fresh node-at-a-time
   evaluation) computed at the instant the answer's epoch was
   published.  Bounded-staleness reads may be stale, but they are
   stale *consistently*: the answer is some real past state, never a
   mixture of epochs.

2. *Lag bound* — the observed staleness of every answer respects the
   request's freshness policy (``fresh`` ⇒ lag 0, ``max_lag_epochs=k``
   ⇒ lag ≤ k), and the server's own audit trail records zero
   violations.  ``fresh`` answers additionally match the live store
   even while unpublished writes are in flight.

A materialized view lives in the same store, so its delegates leave
and re-enter under their old OIDs as updates move values across its
threshold -- the churn the epoch image must stay out of.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property.support import common_settings

from repro.query.evaluator import QueryEvaluator
from repro.views import ViewCatalog
from repro.workloads import TreeSpec, layered_tree
from repro.workloads.serving import build_query_pool
from repro.workloads.updates import UpdateMix, UpdateStream

COMMON = common_settings(15)

policy_strategy = st.sampled_from(["fresh", "any", 0, 1, 2, 3])

#: One interleaving step: a read (query index + policy) or a write
#: batch (number of updates).
step_strategy = st.one_of(
    st.tuples(
        st.just("read"), st.integers(0, 63), policy_strategy
    ),
    st.tuples(st.just("write"), st.integers(1, 6), st.none()),
)

mix_strategy = st.builds(
    UpdateMix,
    insert=st.floats(0.1, 3.0),
    delete=st.floats(0.1, 3.0),
    modify=st.floats(0.1, 3.0),
)


def build_mvcc_env(seed: int, retention: int, mix: UpdateMix | None = None):
    spec = TreeSpec(depth=3, fanout=3, seed=seed)
    store, root = layered_tree(spec)
    stream = UpdateStream(
        store,
        seed=seed + 1,
        mix=mix or UpdateMix(),
        protected=frozenset({root, "V"}),
        protected_prefixes=("V.",),
    )
    catalog = ViewCatalog(store)
    l1, l2, l3 = spec.labels
    catalog.define(
        f"define mview V as: SELECT {root}.{l1}.{l2} X WHERE X.{l3} > 50"
    )
    server = catalog.enable_async_serving(
        retention_capacity=retention, cache_size=64
    ).core
    pool = build_query_pool(root, spec, store=store) + [f"SELECT V.{l2} X"]
    oracle = QueryEvaluator(catalog.registry)
    return store, server, pool, oracle, stream


class TestEpochIdentity:
    @given(
        seed=st.integers(0, 10_000),
        retention=st.sampled_from([1, 2, 4]),
        steps=st.lists(step_strategy, min_size=1, max_size=40),
    )
    @settings(**COMMON)
    def test_every_answer_is_some_real_epoch(self, seed, retention, steps):
        store, server, pool, oracle, stream = build_mvcc_env(
            seed, retention
        )
        # Keep the store clean at read time: every write batch is
        # followed by an explicit publish, and the oracle's answers for
        # the whole pool are recorded at that seq.  Reads then cannot
        # mint epochs the recorder has not seen.
        oracle_by_seq: dict[int, dict[str, frozenset[str]]] = {}

        def record():
            entry = server.publish()
            if entry.seq not in oracle_by_seq:
                oracle_by_seq[entry.seq] = {
                    text: frozenset(oracle.evaluate_oids(text))
                    for text in pool
                }
            return entry.seq

        latest = record()
        for kind, a, b in steps:
            if kind == "write":
                with server.write_mutex:
                    stream.run(a)
                latest = record()
                continue
            text = pool[a % len(pool)]
            answer = server.read(text, b)
            if answer.source == "interpreted":
                # Scoped/view queries read the live store directly.
                assert set(answer.oids) == oracle.evaluate_oids(text)
                continue
            assert answer.seq in oracle_by_seq, (text, answer)
            assert frozenset(answer.oids) == oracle_by_seq[answer.seq][
                text
            ], (text, answer.seq, answer.source)
            assert answer.lag == latest - answer.seq
        report = server.freshness_report()
        assert report["violations"] == 0


class TestLagBound:
    @given(
        seed=st.integers(0, 10_000),
        retention=st.sampled_from([1, 2, 4]),
        mix=mix_strategy,
        steps=st.lists(step_strategy, min_size=1, max_size=40),
    )
    @settings(**COMMON)
    def test_lag_never_exceeds_policy(self, seed, retention, mix, steps):
        store, server, pool, oracle, stream = build_mvcc_env(
            seed, retention, mix
        )
        # Unlike the identity test, write batches here do NOT publish:
        # the server must mint epochs itself when a policy demands one,
        # and the dirty tail counts toward every retained epoch's lag.
        for kind, a, b in steps:
            if kind == "write":
                with server.write_mutex:
                    stream.run(a)
                continue
            text = pool[a % len(pool)]
            answer = server.read(text, b)
            if answer.allowed is not None:
                assert answer.lag <= answer.allowed, (text, b, answer)
            if b == "fresh" or b == 0:
                assert set(answer.oids) == oracle.evaluate_oids(text), (
                    text,
                    answer.source,
                )
        report = server.freshness_report()
        assert report["violations"] == 0
        assert report["reads"] == sum(
            1 for kind, _, _ in steps if kind == "read"
        )
