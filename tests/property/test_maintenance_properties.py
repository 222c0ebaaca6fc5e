"""Property-based tests: maintained views ≡ recomputed views.

The paper's correctness criterion (Section 4.3) checked under randomly
generated bases and update streams, for every maintainer:

* Algorithm 1 (simple views, trees), indexed and unindexed;
* the extended maintainer (wildcard/conjunctive views, trees);
* the DAG counting maintainer (simple views, layered DAGs).

Hypothesis drives the workload parameters and RNG seeds; the workload
generators themselves are deterministic functions of those.
"""

import random

from hypothesis import given, settings

from tests.property.support import common_settings
from hypothesis import strategies as st

from repro.gsdb import ObjectStore, ParentIndex
from repro.views import (
    DagCountingMaintainer,
    ExtendedViewMaintainer,
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    check_consistency,
    populate_view,
)
from repro.workloads import (
    UpdateMix,
    UpdateStream,
    layered_dag,
    random_labelled_tree,
)

COMMON = common_settings(25)


def build_tree(seed: int, nodes: int):
    store, root = random_labelled_tree(
        nodes=nodes,
        labels=("a", "b", "c"),
        value_range=(0, 100),
        atomic_fraction=0.5,
        seed=seed,
    )
    return store, root


SIMPLE_DEFS = (
    "define mview V as: SELECT root0.a X WHERE X.b > 50",
    "define mview V as: SELECT root0.a.b X WHERE X.c <= 30",
    "define mview V as: SELECT root0.b X",
    "define mview V as: SELECT root0.a X WHERE X.a = 77",
)

EXTENDED_DEFS = (
    "define mview V as: SELECT root0.* X WHERE X.b > 50",
    "define mview V as: SELECT root0.?.? X",
    "define mview V as: SELECT root0.a X WHERE X.b > 20 AND X.c < 80",
    "define mview V as: SELECT root0.a.* X WHERE X.*.b > 60",
)


class TestSimpleMaintenanceEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(10, 60),
        steps=st.integers(1, 25),
        def_index=st.integers(0, len(SIMPLE_DEFS) - 1),
        indexed=st.booleans(),
    )
    @settings(**COMMON)
    def test_view_equals_recompute_after_random_updates(
        self, seed, nodes, steps, def_index, indexed
    ):
        store, root = build_tree(seed, nodes)
        index = ParentIndex(store) if indexed else None
        view = MaterializedView(
            ViewDefinition.parse(SIMPLE_DEFS[def_index]), store
        )
        populate_view(view)
        store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
        stream = UpdateStream(
            store,
            seed=seed + 1,
            protected=frozenset({root}),
            protected_prefixes=("V",),
            labels_for_new=("a", "b", "c"),
        )
        stream.run(steps)
        report = check_consistency(view)
        assert report.ok, report.describe()


class TestExtendedMaintenanceEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(10, 50),
        steps=st.integers(1, 20),
        def_index=st.integers(0, len(EXTENDED_DEFS) - 1),
    )
    @settings(**COMMON)
    def test_view_equals_recompute_after_random_updates(
        self, seed, nodes, steps, def_index
    ):
        store, root = build_tree(seed, nodes)
        index = ParentIndex(store)
        view = MaterializedView(
            ViewDefinition.parse(EXTENDED_DEFS[def_index]), store
        )
        populate_view(view)
        store.subscribe(
            ExtendedViewMaintainer(view, parent_index=index).handle
        )
        stream = UpdateStream(
            store,
            seed=seed + 1,
            protected=frozenset({root}),
            protected_prefixes=("V",),
            labels_for_new=("a", "b", "c"),
        )
        stream.run(steps)
        report = check_consistency(view)
        assert report.ok, report.describe()


def _random_dag_updates(store, root, seed, steps):
    """Random DAG-preserving updates: edges only between adjacent
    layers (never creating cycles), plus value modifies."""
    rng = random.Random(seed)
    by_layer: dict[int, list[str]] = {}
    for oid in store.oids():
        if oid == root or oid.startswith("V"):
            continue
        level = int(oid[1]) if oid.startswith("d") else None
        if level is not None:
            by_layer.setdefault(level, []).append(oid)
    levels = sorted(by_layer)
    applied = 0
    for _ in range(steps * 4):
        if applied >= steps:
            break
        kind = rng.choice(("insert", "delete", "modify"))
        if kind == "modify":
            atoms = [
                oid
                for oid in by_layer.get(levels[-1], [])
                if store.get(oid).is_atomic
            ]
            if not atoms:
                continue
            store.modify_value(rng.choice(atoms), rng.randint(0, 100))
            applied += 1
        elif kind == "insert":
            upper = rng.choice(levels[:-1]) if len(levels) > 1 else None
            if upper is None:
                continue
            parent = rng.choice(by_layer[upper])
            child = rng.choice(by_layer[upper + 1])
            if child not in store.get(parent).children():
                store.insert_edge(parent, child)
                applied += 1
        else:
            candidates = [
                (p, c)
                for p in by_layer.get(rng.choice(levels), [])
                if store.get(p).is_set
                for c in store.get(p).sorted_children()
            ]
            if not candidates:
                continue
            parent, child = rng.choice(candidates)
            store.delete_edge(parent, child)
            applied += 1
    return applied


class TestDagMaintenanceEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(2, 5),
        steps=st.integers(1, 15),
        with_condition=st.booleans(),
    )
    @settings(**COMMON)
    def test_counts_track_recompute(self, seed, width, steps, with_condition):
        store, root = layered_dag(
            depth=3, width=width, edges_per_node=2, seed=seed
        )
        index = ParentIndex(store)
        definition = (
            "define mview V as: SELECT dagroot.l1.l2 X WHERE X.l3 > 40"
            if with_condition
            else "define mview V as: SELECT dagroot.l1.l2 X"
        )
        view = MaterializedView(ViewDefinition.parse(definition), store)
        store.subscribe(DagCountingMaintainer(view, index).handle)
        _random_dag_updates(store, root, seed + 1, steps)
        report = check_consistency(view)
        assert report.ok, report.describe()

    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(2, 4),
        steps=st.integers(1, 12),
    )
    @settings(**COMMON)
    def test_repeated_labels_track_recompute(self, seed, width, steps):
        # Every level shares label 'n': an edge can factor into the
        # delta at several positions of sel_path = n.n.
        store, root = layered_dag(
            depth=3, width=width, edges_per_node=2, seed=seed,
            uniform_label="n",
        )
        index = ParentIndex(store)
        view = MaterializedView(
            ViewDefinition.parse(
                "define mview V as: SELECT dagroot.n.n X WHERE X.n > 40"
            ),
            store,
        )
        store.subscribe(DagCountingMaintainer(view, index).handle)
        _random_dag_updates(store, root, seed + 1, steps)
        report = check_consistency(view)
        assert report.ok, report.describe()


class TestInverseUpdatesRestoreView:
    @given(seed=st.integers(0, 5_000), steps=st.integers(1, 12))
    @settings(**COMMON)
    def test_undo_round_trip(self, seed, steps):
        store, root = build_tree(seed, 30)
        index = ParentIndex(store)
        view = MaterializedView(
            ViewDefinition.parse(SIMPLE_DEFS[0]), store
        )
        populate_view(view)
        store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
        members_before = view.members()
        stream = UpdateStream(
            store,
            seed=seed + 1,
            protected=frozenset({root}),
            protected_prefixes=("V",),
            labels_for_new=("a", "b", "c"),
            mix=UpdateMix(insert=1, delete=1, modify=2),
        )
        applied = stream.run(steps)
        for update in reversed(applied):
            store.apply(update.inverse())
        assert view.members() == members_before
        assert check_consistency(view).ok
