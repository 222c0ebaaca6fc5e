"""E9 — the Section 6 relaxations: wildcard views and DAG bases.

The paper calls these out as the two non-trivial generalizations.  We
measure:

* the affected-region maintainer on wildcard views vs recomputation,
  sweeping base size (the region stays local, so incremental wins grow);
* the derivation-counting maintainer on layered DAGs vs recomputation,
  including the multi-derivation deletes that make DAGs hard.
"""

import pytest

from _common import emit
from repro.gsdb import ParentIndex
from repro.instrumentation import Meter, ratio
from repro.views import (
    DagCountingMaintainer,
    ExtendedViewMaintainer,
    MaterializedView,
    ViewDefinition,
    check_consistency,
    populate_view,
    recompute_view,
)
from repro.workloads import TreeSpec, layered_dag, layered_tree

WILDCARD_DEF = "define mview W as: SELECT {root}.* X WHERE X.l{d} > 50"


def build_wildcard(fanout: int, *, maintained: bool):
    depth = 3
    store, root = layered_tree(TreeSpec(depth=depth, fanout=fanout, seed=47))
    definition = ViewDefinition.parse(
        WILDCARD_DEF.format(root=root, d=depth)
    )
    view = MaterializedView(definition, store)
    populate_view(view)
    if maintained:
        index = ParentIndex(store)
        store.subscribe(
            ExtendedViewMaintainer(view, parent_index=index).handle
        )
    return store, root, view


def wildcard_rows():
    rows = []
    for fanout in (3, 5, 8):
        per_mode = []
        for maintained in (True, False):
            store, root, view = build_wildcard(fanout, maintained=maintained)
            # One leaf flip per round: local change, global recompute.
            leaf = max(
                oid for oid in store.oids()
                if store.get(oid).is_atomic
            )
            accesses = 0
            for value in (75, 25, 80):
                with Meter(store.counters) as meter:
                    store.modify_value(leaf, value)
                    if not maintained:
                        recompute_view(view)
                accesses += meter.delta.total_base_accesses()
            assert check_consistency(view).ok
            per_mode.append(accesses / 3)
        rows.append(
            [
                fanout,
                len(store),
                round(per_mode[0], 1),
                round(per_mode[1], 1),
                round(ratio(per_mode[1], max(1.0, per_mode[0])), 1),
            ]
        )
    return rows


def build_dag(width: int, *, maintained: bool):
    store, root = layered_dag(
        depth=3, width=width, edges_per_node=2, seed=53
    )
    definition = ViewDefinition.parse(
        f"define mview D as: SELECT {root}.l1.l2 X WHERE X.l3 > 40"
    )
    view = MaterializedView(definition, store)
    index = ParentIndex(store)
    if maintained:
        store.subscribe(DagCountingMaintainer(view, index).handle)
    else:
        populate_view(view)
    return store, root, view


def dag_rows():
    rows = []
    for width in (4, 8, 16):
        per_mode = []
        for maintained in (True, False):
            store, root, view = build_dag(width, maintained=maintained)
            # Exercise the DAG-specific hazard: remove one of several
            # derivations, then re-add it.
            parent = f"d1_0"
            child = sorted(store.get(parent).children())[0]
            accesses = 0
            for _ in range(2):
                with Meter(store.counters) as meter:
                    store.delete_edge(parent, child)
                    if not maintained:
                        recompute_view(view)
                    store.insert_edge(parent, child)
                    if not maintained:
                        recompute_view(view)
                accesses += meter.delta.total_base_accesses()
            assert check_consistency(view).ok, check_consistency(view).describe()
            per_mode.append(accesses / 4)
        rows.append(
            [
                width,
                len(store),
                round(per_mode[0], 1),
                round(per_mode[1], 1),
                round(ratio(per_mode[1], max(1.0, per_mode[0])), 1),
            ]
        )
    return rows


def test_e9_wildcard_table():
    rows = wildcard_rows()
    emit(
        "E9: wildcard-view maintenance (affected region) vs recompute",
        ["fanout", "objects", "incr accesses/update",
         "recomp accesses/update", "advantage x"],
        rows,
        note="SELECT root.* WHERE X.l3 > 50 under leaf modifies; the "
        "affected region is one root chain",
        filename="e9_wildcard.txt",
    )
    assert rows[-1][4] > rows[0][4] or rows[-1][4] > 3


def test_e9_dag_table():
    rows = dag_rows()
    emit(
        "E9b: DAG-base maintenance (derivation counting) vs recompute",
        ["layer width", "objects", "incr accesses/update",
         "recomp accesses/update", "advantage x"],
        rows,
        note="multi-parent deletes adjust counts instead of rescanning "
        "(paper Section 6, second relaxation)",
        filename="e9_dag.txt",
    )
    for row in rows:
        assert row[3] >= row[2], "counting must not exceed recompute"


@pytest.mark.benchmark(group="e9")
def test_e9_wildcard_modify(benchmark):
    store, root, view = build_wildcard(5, maintained=True)
    leaf = max(oid for oid in store.oids() if store.get(oid).is_atomic)

    def op():
        store.modify_value(leaf, 75)
        store.modify_value(leaf, 25)

    benchmark(op)


@pytest.mark.benchmark(group="e9")
def test_e9_dag_edge_flip(benchmark):
    store, root, view = build_dag(8, maintained=True)
    parent = "d1_0"
    child = sorted(store.get(parent).children())[0]

    def op():
        store.delete_edge(parent, child)
        store.insert_edge(parent, child)

    benchmark(op)
