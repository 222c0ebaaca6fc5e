"""E8 — the inverse (parent) index ablation (Section 4.4).

The paper: "if the base database has an 'inverse index' such that from
each node we can find out its parent, then evaluating ancestor(N, p) is
straightforward.  If there does not exist such an index, evaluating the
same function may require a traversal from ROOT to N."

We sweep the base size and measure the edge traversals (and time) of
the two central evaluation functions — ``path(ROOT, N)`` and
``ancestor(N, p)`` — with and without the index, then show the effect
on whole-update maintenance cost.

Expected shape: indexed cost is O(depth) and flat in base size;
unindexed cost grows with the number of objects.
"""

import pytest

from _common import emit
from repro.gsdb import ParentIndex
from repro.gsdb.traversal import ancestor_via_root, ancestor_by_path, path_between
from repro.instrumentation import Meter, ratio
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    populate_view,
)
from repro.workloads import TreeSpec, layered_tree

FANOUTS = (2, 4, 6, 8)
DEPTH = 4


def build(fanout: int):
    store, root = layered_tree(TreeSpec(depth=DEPTH, fanout=fanout, seed=43))
    # A deep leaf to query about: follow max children down.
    node = root
    for _ in range(DEPTH):
        node = max(store.get(node).children())
    return store, root, node


def run_function_experiment():
    rows = []
    path_labels = [f"l{i + 1}" for i in range(DEPTH)]
    for fanout in FANOUTS:
        store, root, leaf = build(fanout)
        index = ParentIndex(store)

        with Meter(store.counters) as with_index:
            assert path_between(store, root, leaf, parent_index=index)
            assert ancestor_by_path(store, leaf, path_labels[1:], index)
        with Meter(store.counters) as without_index:
            assert path_between(store, root, leaf)
            assert ancestor_via_root(store, root, leaf, path_labels[1:])

        indexed = with_index.delta.edge_traversals
        unindexed = without_index.delta.edge_traversals
        rows.append(
            [
                fanout,
                len(store),
                indexed,
                unindexed,
                round(ratio(unindexed, max(1, indexed)), 1),
            ]
        )
    return rows


def run_maintenance_experiment():
    rows = []
    for fanout in (3, 6):
        per_mode = []
        for indexed in (True, False):
            store, root, leaf = build(fanout)
            index = ParentIndex(store) if indexed else None
            definition = ViewDefinition.parse(
                f"define mview V as: SELECT {root}.l1.l2 X WHERE X.l3.l4 > 50"
            )
            view = MaterializedView(definition, store)
            populate_view(view)
            store.subscribe(
                SimpleViewMaintainer(view, parent_index=index).handle
            )
            parent = store.get(leaf) and leaf  # leaf is atomic; use its parent
            # Find the leaf's parent by searching downward once.
            chain_parent = root
            for _ in range(DEPTH - 1):
                chain_parent = max(store.get(chain_parent).children())
            with Meter(store.counters) as meter:
                store.modify_value(leaf, 75)
            per_mode.append(meter.delta.total_base_accesses())
        rows.append([fanout, per_mode[0], per_mode[1],
                     round(ratio(per_mode[1], max(1, per_mode[0])), 1)])
    return rows


def test_e8_function_table():
    rows = run_function_experiment()
    emit(
        "E8: path()/ancestor() edge traversals, with vs without the "
        "inverse index",
        ["fanout", "objects", "indexed traversals",
         "unindexed traversals", "penalty x"],
        rows,
        note="indexed cost is O(depth) and flat; unindexed cost grows "
        "with base size (paper Section 4.4)",
        filename="e8_index_functions.txt",
    )
    indexed = [row[2] for row in rows]
    unindexed = [row[3] for row in rows]
    assert max(indexed) == min(indexed), "indexed cost must be flat"
    # The DFS is deterministic (sorted child expansion), so we can
    # demand strict monotonic growth, not just last > first.
    assert all(
        a < b for a, b in zip(unindexed, unindexed[1:])
    ), f"unindexed cost must grow with base size: {unindexed}"


def test_e8_maintenance_table():
    rows = run_maintenance_experiment()
    emit(
        "E8b: whole-update maintenance cost (modify at depth 4)",
        ["fanout", "indexed accesses", "unindexed accesses", "penalty x"],
        rows,
        note="the index benefit carries through Algorithm 1 end to end",
        filename="e8_index_maintenance.txt",
    )
    for row in rows:
        assert row[2] >= row[1]
    # Unindexed whole-update cost must grow with fanout; a violation
    # means nondeterminism crept back into the downward traversals.
    unindexed = [row[2] for row in rows]
    assert all(
        a < b for a, b in zip(unindexed, unindexed[1:])
    ), f"unindexed maintenance cost must grow with fanout: {unindexed}"


@pytest.mark.benchmark(group="e8")
@pytest.mark.parametrize("indexed", [True, False])
def test_e8_ancestor_cost(benchmark, indexed):
    store, root, leaf = build(6)
    labels = [f"l{i + 1}" for i in range(DEPTH)][1:]
    if indexed:
        index = ParentIndex(store)
        benchmark(lambda: ancestor_by_path(store, leaf, labels, index))
    else:
        benchmark(lambda: ancestor_via_root(store, root, leaf, labels))
