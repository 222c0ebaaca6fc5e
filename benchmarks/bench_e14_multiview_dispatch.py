"""E14 — multi-view maintenance through the shared dispatcher.

The paper's warehouse scenario (Section 5) maintains *many* views over
one update stream, but Algorithm 1 as literally implemented makes every
maintainer an independent subscriber: each update costs every view a
``path(ROOT, N1)`` walk even when the update provably cannot touch it.
The :class:`~repro.views.dispatcher.MaintenanceDispatcher` attacks all
three redundancies at once — the root chain is computed once per update
and shared (PathContext), label/prefix screening drops incompatible
updates with zero base accesses, and batches are coalesced to their net
effect before dispatch.

Two sweeps:

* **view-count sweep** — 1..64 views with pairwise-disjoint select
  prefixes (``root.s<i>.item``) under an update stream that round-robins
  over all 64 branches.  Per-view subscribers pay O(total views) per
  update; the dispatcher pays O(affected views) — at most one view per
  update here — so its cost stays flat as views are added.
* **batch sweep** — a fixed 32-view catalog fed churny batches
  (insert-then-delete pairs, modify chains).  Coalescing cancels the
  churn before any maintainer runs.

Cost metric: ``object_reads + edge_traversals`` (the two counters that
model touching base data; ``index_probes`` are deliberately excluded,
matching E8's accounting).
"""

import pytest

from _common import emit
from repro.gsdb import ObjectStore, ParentIndex
from repro.instrumentation.counters import CostCounters
from repro.gsdb.updates import Delete, Insert, Modify
from repro.instrumentation import Meter
from repro.views import (
    MaintenanceDispatcher,
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    check_consistency,
    populate_view,
)

BRANCHES = 64
ITEMS = 8
UPDATES = 256
VIEW_COUNTS = (1, 2, 4, 8, 16, 32, 64)
MODES = ("per-view uncached", "per-view cached", "dispatcher")


def _value(branch: int, item: int) -> int:
    return (branch * 13 + item * 37) % 100


def build_store() -> ObjectStore:
    """root -> s0..s63 -> 8 items each -> one val atom per item."""
    store = ObjectStore()
    branches = []
    for b in range(BRANCHES):
        items = [
            (
                f"item{b}_{i}",
                "item",
                [(f"val{b}_{i}", "val", _value(b, i))],
            )
            for i in range(ITEMS)
        ]
        branches.append((f"s{b}", f"s{b}", items))
    store.add_tree(("root", "root", branches))
    return store


def build_views(store: ObjectStore, nviews: int, mode: str):
    """*nviews* disjoint-prefix views maintained per *mode*."""
    index = ParentIndex(store, chain_cache=(mode != "per-view uncached"))
    dispatcher = (
        MaintenanceDispatcher(store, parent_index=index, subscribe=True)
        if mode == "dispatcher"
        else None
    )
    views = []
    for v in range(nviews):
        definition = ViewDefinition.parse(
            f"define mview V{v} as: SELECT root.s{v}.item X WHERE X.val > 50"
        )
        view = MaterializedView(definition, store, ObjectStore())
        populate_view(view)
        maintainer = SimpleViewMaintainer(view, parent_index=index)
        if dispatcher is None:
            store.subscribe(maintainer.handle)
        else:
            dispatcher.register(maintainer)
        views.append(view)
    return views, dispatcher


def run_stream(store: ObjectStore) -> None:
    """Deterministic stream round-robining over every branch in groups
    of four updates: two modifies on the same val (the second lands on
    a warm chain cache), then item insert/delete churn (which clears
    it)."""
    for k in range(UPDATES):
        b = (k // 4) % BRANCHES
        i = (k // (4 * BRANCHES)) % ITEMS
        if k % 4 < 2:
            store.modify_value(f"val{b}_{i}", (k * 7) % 100)
        elif k % 4 == 2:
            store.add_set(f"extra{k}", "item")
            store.add_atomic(f"extraval{k}", "val", 75)
            store.insert_edge(f"extra{k}", f"extraval{k}")
            store.insert_edge(f"s{b}", f"extra{k}")
        else:
            store.delete_edge(f"s{b}", f"extra{k - 1}")


def run_mode(nviews: int, mode: str):
    store = build_store()
    views, _ = build_views(store, nviews, mode)
    with Meter(store.counters) as meter:
        run_stream(store)
    for view in views:
        report = check_consistency(view)
        assert report.ok, f"{mode}/{nviews}: {report.describe()}"
    delta = meter.delta
    return delta.object_reads + delta.edge_traversals, delta


def churn_batch(size: int) -> list:
    """*size* updates: half cancelling edge churn, half modify chains
    that fold (targets live on branches 0..7 only)."""
    updates = []
    k = 0
    while len(updates) + 4 <= size:
        b = k % 8
        i = (k // 8) % ITEMS  # distinct (b, i) for every chain built here
        updates.append(Insert(f"item{b}_{i}", f"churn{k}"))
        updates.append(Delete(f"item{b}_{i}", f"churn{k}"))
        old = _value(b, i)
        updates.append(Modify(f"val{b}_{i}", old, (old + 11) % 100))
        updates.append(Modify(f"val{b}_{i}", (old + 11) % 100, (old + 22) % 100))
        k += 1
    return updates


def run_batch_mode(size: int, batched: bool):
    store = build_store()
    views, dispatcher = build_views(store, 32, "dispatcher")
    for k in range(size):  # churn targets, created outside the meter
        store.add_atomic(f"churn{k}", "val", 5)
    updates = churn_batch(size)
    with Meter(store.counters) as meter:
        if batched:
            with dispatcher.batch():
                store.apply_all(updates)
        else:
            store.apply_all(updates)
    for view in views:
        report = check_consistency(view)
        assert report.ok, f"batch/{size}: {report.describe()}"
    delta = meter.delta
    return delta.object_reads + delta.edge_traversals, delta


def run_view_sweep():
    rows = []
    stats = {}
    for nviews in VIEW_COUNTS:
        accesses = {}
        for mode in MODES:
            accesses[mode], stats[(nviews, mode)] = run_mode(nviews, mode)
        rows.append(
            [
                nviews,
                accesses["per-view uncached"],
                accesses["per-view cached"],
                accesses["dispatcher"],
                round(
                    accesses["per-view uncached"]
                    / max(1, accesses["dispatcher"]),
                    1,
                ),
            ]
        )
    return rows, stats


def run_batch_sweep():
    rows = []
    total = CostCounters()
    for size in (16, 64, 128):
        streamed, streamed_delta = run_batch_mode(size, batched=False)
        batched, delta = run_batch_mode(size, batched=True)
        total.add(streamed_delta)
        total.add(delta)
        rows.append(
            [
                size,
                streamed,
                batched,
                delta.updates_coalesced,
                round(streamed / max(1, batched), 1),
            ]
        )
    return rows, total


def test_e14_view_sweep_table():
    rows, stats = run_view_sweep()
    total = CostCounters()
    for delta in stats.values():
        total.add(delta)
    emit(
        "E14a: maintaining 1..64 disjoint-prefix views over one "
        f"{UPDATES}-update stream (object reads + edge traversals)",
        ["views", "per-view uncached", "per-view cached", "dispatcher", "speedup"],
        rows,
        note="per-view subscribers re-derive path(ROOT, N1) for every "
        "view on every update, so their cost grows with the *total* "
        "view count; the dispatcher screens each update down to the "
        "one view whose prefix matches, so its cost tracks the "
        "*affected* count and stays flat",
        filename="e14_multiview_dispatch.txt",
        counters=total.as_dict(),
    )
    by_views = {row[0]: row for row in rows}
    # The tentpole claim: >= 5x fewer base accesses at 32 views.
    assert by_views[32][4] >= 5.0, by_views[32]
    # Dispatcher cost grows with affected views, not total views: from 8
    # to 64 views it grows by a small fraction of what per-view
    # subscribers sharing the chain memo grow by.  The bound is on the
    # increment, not the ratio: the fixed per-update chain cost is not
    # part of how the cost scales, and a cheaper chain only shrinks it.
    dispatcher_growth = by_views[64][3] - by_views[8][3]
    cached_growth = by_views[64][2] - by_views[8][2]
    assert dispatcher_growth <= 0.25 * cached_growth, (
        dispatcher_growth, cached_growth
    )
    # Per-view cost does grow with total views (sanity of the contrast).
    assert by_views[64][1] > 4 * by_views[8][1]
    # The machinery actually engaged: screening and the chain cache.
    delta = stats[(32, "dispatcher")]
    assert delta.updates_screened > 0
    assert delta.chain_cache_hits > 0


def test_e14_batch_sweep_table():
    rows, total = run_batch_sweep()
    emit(
        "E14b: churny batches against 32 dispatcher-maintained views — "
        "streaming dispatch vs coalesced batch dispatch",
        ["batch size", "streamed", "batched", "coalesced away", "reduction"],
        rows,
        note="every insert/delete pair cancels and every modify chain "
        "folds, so batch dispatch touches the base only for the "
        "screening labels of the surviving (folded) modifies",
        filename="e14b_batch_coalescing.txt",
        counters=total.as_dict(),
    )
    for row in rows:
        assert row[3] > 0  # coalescing engaged
        assert row[2] <= row[1]  # batching never costs more here


@pytest.mark.benchmark(group="e14")
@pytest.mark.parametrize("mode", MODES)
def test_e14_dispatch_stream(benchmark, mode):
    benchmark.pedantic(lambda: run_mode(32, mode), rounds=3, iterations=1)
