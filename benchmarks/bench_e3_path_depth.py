"""E3 — the effect of path depth on maintenance cost (Section 4.4).

The paper: "incremental maintenance will probably be superior if the
selection and condition paths are relatively short ... If, on the other
hand, paths are long, then handling of an update could easily require
access to very large portions of the base databases."

We sweep the depth of a uniform layered tree while holding its total
size roughly constant, define the deepest simple view the tree
supports, and measure the per-update cost of incremental maintenance
(with the inverse index) and of recomputation.

Expected shape: incremental cost grows with depth, recomputation stays
roughly flat (it always visits the whole relevant region), so the
advantage factor shrinks as paths lengthen.
"""

import pytest

from _common import emit
from repro.gsdb import ParentIndex
from repro.instrumentation import Meter, ratio
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    populate_view,
    recompute_view,
)
from repro.workloads import TreeSpec, layered_tree

#: (depth, fanout) pairs with comparable object counts (~250-750).
SWEEP = ((2, 16), (3, 8), (4, 5), (6, 3), (8, 2))
UPDATES_PER_POINT = 8


def definition_for(root: str, depth: int) -> str:
    labels = [f"l{i + 1}" for i in range(depth)]
    half = max(1, depth // 2)
    sel = ".".join(labels[:half])
    cond = ".".join(labels[half:])
    if cond:
        return (
            f"define mview V as: SELECT {root}.{sel} X WHERE X.{cond} > 50"
        )
    return f"define mview V as: SELECT {root}.{sel} X"


def build(depth: int, fanout: int, *, maintained: bool):
    store, root = layered_tree(TreeSpec(depth=depth, fanout=fanout, seed=29))
    index = ParentIndex(store)
    view = MaterializedView(
        ViewDefinition.parse(definition_for(root, depth)), store
    )
    populate_view(view)
    if maintained:
        store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
    return store, root, view


def measure(depth: int, fanout: int, *, maintained: bool):
    store, root, view = build(depth, fanout, maintained=maintained)
    # Insert/remove a satisfying leaf under some deep parent each round.
    parent = root
    for _ in range(depth - 1):
        parent = min(
            child
            for child in store.get(parent).children()
            if store.get(child).is_set
        )
    accesses = 0.0
    for i in range(UPDATES_PER_POINT):
        leaf = f"bench_leaf_{i}"
        store.add_atomic(leaf, f"l{depth}", 75)
        with Meter(store.counters) as meter:
            store.insert_edge(parent, leaf)
            if not maintained:
                recompute_view(view)
        accesses += meter.delta.total_base_accesses()
    return accesses / UPDATES_PER_POINT


def run_experiment():
    rows = []
    for depth, fanout in SWEEP:
        store, _, _ = build(depth, fanout, maintained=False)
        incr = measure(depth, fanout, maintained=True)
        reco = measure(depth, fanout, maintained=False)
        rows.append(
            [
                depth,
                fanout,
                len(store),
                round(incr, 1),
                round(reco, 1),
                round(ratio(reco, incr), 1),
            ]
        )
    return rows


def test_e3_table():
    rows = run_experiment()
    emit(
        "E3: maintenance cost vs path depth (constant-ish base size)",
        ["depth", "fanout", "objects", "incr accesses",
         "recomp accesses", "advantage x"],
        rows,
        note="longer paths erode the incremental advantage "
        "(paper Section 4.4)",
        filename="e3_path_depth.txt",
    )
    shallow = rows[0]
    deep = rows[-1]
    assert deep[3] >= shallow[3], "incremental cost should grow with depth"


@pytest.mark.benchmark(group="e3")
@pytest.mark.parametrize("depth,fanout", [(2, 16), (6, 3)])
def test_e3_maintain_at_depth(benchmark, depth, fanout):
    store, root, view = build(depth, fanout, maintained=True)
    parent = root
    for _ in range(depth - 1):
        parent = min(
            child
            for child in store.get(parent).children()
            if store.get(child).is_set
        )
    store.add_atomic("bench_leaf", f"l{depth}", 75)

    def op():
        store.insert_edge(parent, "bench_leaf")
        store.delete_edge(parent, "bench_leaf")

    benchmark(op)
