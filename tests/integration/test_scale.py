"""Moderate-scale soak test: thousands of objects, hundreds of updates.

Not a benchmark (benchmarks live in `benchmarks/`): this guards against
accidental quadratic blowups and asserts exact consistency at scale.
"""

import time

from repro.gsdb import ParentIndex
from repro.views import (
    ExtendedViewMaintainer,
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    check_consistency,
    populate_view,
)
from repro.workloads import (
    TreeSpec,
    UpdateStream,
    layered_tree,
    relations_db,
)


class TestScale:
    def test_large_relations_db_long_stream(self):
        store, root = relations_db(
            relations=3, tuples_per_relation=300, seed=101
        )
        assert len(store) > 3_500
        index = ParentIndex(store)
        view = MaterializedView(
            ViewDefinition.parse(
                "define mview BIG as: SELECT REL.r.tuple X WHERE X.age > 35"
            ),
            store,
        )
        populate_view(view)
        store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
        started = time.perf_counter()
        UpdateStream(
            store,
            seed=103,
            protected=frozenset({root}),
            protected_prefixes=("BIG",),
            labels_for_new=("age", "field0"),
        ).run(400)
        elapsed = time.perf_counter() - started
        assert check_consistency(view).ok
        # Generous bound: 400 updates over ~4k objects in seconds, not
        # minutes (each update is O(path), not O(db)).
        assert elapsed < 20, f"maintenance too slow: {elapsed:.1f}s"

    def test_wide_tree_wildcard_view(self):
        store, root = layered_tree(TreeSpec(depth=3, fanout=12, seed=107))
        assert len(store) > 1_800
        index = ParentIndex(store)
        view = MaterializedView(
            ViewDefinition.parse(
                f"define mview W as: SELECT {root}.* X WHERE X.l3 > 90"
            ),
            store,
        )
        populate_view(view)
        store.subscribe(
            ExtendedViewMaintainer(view, parent_index=index).handle
        )
        UpdateStream(
            store,
            seed=109,
            protected=frozenset({root}),
            protected_prefixes=("W",),
            labels_for_new=("l3",),
        ).run(150)
        assert check_consistency(view).ok
