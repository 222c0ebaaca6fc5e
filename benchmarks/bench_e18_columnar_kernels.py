"""E18 — columnar epoch snapshots: kernel speedups and staleness guard.

Four claims, each its own table:

1. **Recompute speedup** — scope-free view recomputation through the
   bitset kernel versus the interpreted set-at-a-time evaluator on a
   66k-object layered tree: byte-equal member sets.
2. **Cold-miss serving speedup** — the same kernel behind the
   :class:`~repro.serving.server.QueryServer`'s cold misses.
3. **Delta-refresh scaling** — a fixed update delta costs the same
   number of snapshot row touches no matter how large the graph is
   (the refresh replays the delta, it does not rescan the base).
4. **Staleness guard** — interleaved updates and served reads audited
   against fresh interpreted evaluation: zero stale answers, with the
   snapshot delta-refreshing on every read.

Wall times move between machines; the deterministic columns (member
counts, extent hashes, row/access counters, mismatch counts) must
reproduce exactly — across runs *and* across ``PYTHONHASHSEED`` (the
CI kernels job diffs the extent hash between two hash seeds).

The wall-clock columns are written, never asserted: a speedup claim is
judged by ``bench/compare.py``, which carries a noise model.

``REPRO_E18_SCALE=ci`` shrinks the fixture for CI smoke runs; the
committed artifacts come from the full-scale run.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time

from _common import emit
from repro.gsdb.columnar import enable_columnar
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.gc import reachable_from
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.paths import PathExpression, compile_expression
from repro.paths.kernel import evaluate_on_snapshot, reachable_on_snapshot
from repro.query.evaluator import QueryEvaluator
from repro.serving import QueryServer
from repro.workloads.generators import TreeSpec, layered_tree

CI_MODE = os.environ.get("REPRO_E18_SCALE", "full") == "ci"

#: Full scale: depth 5, fanout 9 -> 66,430 objects (the >=50k floor).
SPEC = TreeSpec(depth=4, fanout=5, seed=11) if CI_MODE else TreeSpec(
    depth=5, fanout=9, seed=11
)
REPEATS = 2 if CI_MODE else 5
#: Delta sweep: same update count over growing graphs.  Every spec must
#: hold more than DELTA / rebuild_threshold rows or the refresh
#: legitimately escalates to a rebuild.
DELTA_SPECS = (
    (TreeSpec(depth=3, fanout=4, seed=11), TreeSpec(depth=3, fanout=6, seed=11),
     TreeSpec(depth=4, fanout=5, seed=11))
    if CI_MODE
    else (TreeSpec(depth=4, fanout=6, seed=11), TreeSpec(depth=4, fanout=9, seed=11),
          TreeSpec(depth=5, fanout=9, seed=11))
)
DELTA_PAIRS = 4 if CI_MODE else 32  # delete+insert pairs -> 2x updates

QUERIES = {
    "path": ".".join(SPEC.labels[:-1]),
    "deep": ".".join(SPEC.labels),
    "wild": "*",
}


def best_ms(action, repeats: int = REPEATS) -> float:
    """Best-of-N wall time: the standard microbenchmark statistic for
    millisecond-scale work (the minimum is the least noise-inflated
    observation; both paths get the identical treatment)."""
    times = []
    for _ in range(repeats):
        gc.collect()  # garbage from earlier suites must not bill this
        begin = time.perf_counter()
        action()
        times.append(time.perf_counter() - begin)
    return round(min(times) * 1000, 2)


def extent_sha(members) -> str:
    return hashlib.sha256(
        "\n".join(sorted(members)).encode()
    ).hexdigest()[:12]


def build_base():
    store, root = layered_tree(SPEC)
    return store, root


def test_e18_recompute_speedup():
    store, root = build_base()
    nfas = {
        key: compile_expression(PathExpression.parse(text))
        for key, text in QUERIES.items()
    }
    interpreted = {}
    interp_ms = {}
    interp_accesses = {}
    for key, nfa in nfas.items():
        before = store.counters.snapshot()
        interp_ms[key] = best_ms(
            lambda: interpreted.__setitem__(
                key, nfa.evaluate_frontier(store, root)
            )
        )
        interp_accesses[key] = (
            store.counters.delta_since(before).total_base_accesses()
            // REPEATS
        )
    manager = enable_columnar(store)
    view = manager.current()
    rows = []
    shas = {}
    speedups = {}
    for key, nfa in nfas.items():
        kernel_members = {}
        before = store.counters.snapshot()
        kernel_ms = best_ms(
            lambda: kernel_members.__setitem__(
                key, evaluate_on_snapshot(view, nfa, root)
            )
        )
        scanned = (
            store.counters.delta_since(before).snapshot_rows_scanned
            // REPEATS
        )
        assert kernel_members[key] == interpreted[key], key
        shas[key] = extent_sha(kernel_members[key])
        speedups[key] = round(interp_ms[key] / max(kernel_ms, 1e-9), 2)
        rows.append(
            [
                key,
                len(kernel_members[key]),
                interp_ms[key],
                kernel_ms,
                speedups[key],
                interp_accesses[key],
                scanned,
                shas[key],
            ]
        )
    emit(
        f"E18a: full recomputation over a {SPEC.depth}x{SPEC.fanout} "
        "layered tree — interpreted frontier vs columnar bitset kernel "
        "(best-of-N wall ms; identical member sets)",
        [
            "query",
            "members",
            "interp ms",
            "kernel ms",
            "speedup",
            "base accesses",
            "rows scanned",
            "extent sha",
        ],
        rows,
        note="the kernel trades charged base accesses for snapshot row "
        "scans (different currencies, reported side by side); member "
        "sets and extent hashes are byte-identical, and reproduce "
        "across PYTHONHASHSEED",
        filename="e18_kernel_speedup.txt",
        config={
            "depth": SPEC.depth,
            "fanout": SPEC.fanout,
            "seed": SPEC.seed,
            "objects": view.nrows,
            "repeats": REPEATS,
            "scale": "ci" if CI_MODE else "full",
            "extent_sha_path": shas["path"],
            "extent_sha_deep": shas["deep"],
            "extent_sha_wild": shas["wild"],
        },
    )
    if not CI_MODE:
        assert view.nrows >= 50_000, view.nrows


def serving_env(store, columnar: bool):
    registry = DatabaseRegistry(store)
    if columnar and getattr(store, "columnar", None) is None:
        enable_columnar(store)
    return registry


def test_e18_cold_miss_speedup():
    store, root = build_base()
    registry = DatabaseRegistry(store)
    parent_index = ParentIndex(store)
    label_index = LabelIndex(store)
    texts = {
        "path": f"SELECT {root}.{QUERIES['path']} X",
        "deep": f"SELECT {root}.{QUERIES['deep']} X",
    }

    def cold_miss(text: str) -> set[str]:
        # A fresh server per call: every evaluation is a cold miss.
        server = QueryServer(
            registry,
            parent_index=parent_index,
            label_index=label_index,
            cache_size=4,
        )
        return server.evaluate_oids(text)

    manager = enable_columnar(store)
    manager.disable()
    interp_ms = {}
    interp_answers = {}
    for key, text in texts.items():
        interp_ms[key] = best_ms(
            lambda: interp_answers.__setitem__(key, cold_miss(text))
        )
    manager.enable()
    manager.current()
    fallbacks_before = store.counters.kernel_fallbacks
    rows = []
    for key, text in texts.items():
        answers = {}
        kernel_ms = best_ms(
            lambda: answers.__setitem__(key, cold_miss(text))
        )
        assert answers[key] == interp_answers[key], key
        rows.append(
            [
                key,
                len(answers[key]),
                interp_ms[key],
                kernel_ms,
                round(interp_ms[key] / max(kernel_ms, 1e-9), 2),
                extent_sha(answers[key]),
            ]
        )
    assert store.counters.kernel_fallbacks == fallbacks_before
    emit(
        "E18b: cold-miss serving — QueryServer first-touch evaluation, "
        "interpreted vs columnar kernel (best-of-N wall ms)",
        ["query", "answer size", "interp ms", "kernel ms", "speedup",
         "extent sha"],
        rows,
        note="same answers from both paths; the kernel runs only when "
        "the snapshot is provably fresh (no kernel_fallbacks charged "
        "while the kernel served)",
        filename="e18_cold_miss.txt",
        config={
            "depth": SPEC.depth,
            "fanout": SPEC.fanout,
            "seed": SPEC.seed,
            "repeats": REPEATS,
            "scale": "ci" if CI_MODE else "full",
        },
    )


def churn(store, root: str, pairs: int) -> int:
    """Deterministic delete+insert churn; returns updates applied.

    Always cycles the same number of distinct parents (the smallest
    fanout in any sweep), so the per-parent first-touch patch
    materialization charge is identical across graph sizes and the
    rows-touched column isolates the delta itself.
    """
    top = sorted(store.peek(root).children())[:4]
    applied = 0
    for i in range(pairs):
        parent = top[i % len(top)]
        child = sorted(store.peek(parent).children())[0]
        store.delete_edge(parent, child)
        store.insert_edge(parent, child)
        applied += 2
    return applied


def test_e18_delta_refresh_scaling():
    rows = []
    scans = []
    for spec in DELTA_SPECS:
        store, root = layered_tree(spec)
        manager = enable_columnar(store)
        view = manager.current()
        nrows = view.nrows
        applied = churn(store, root, DELTA_PAIRS)
        before = store.counters.snapshot()
        begin = time.perf_counter()
        manager.current()
        refresh_ms = round((time.perf_counter() - begin) * 1000, 2)
        delta = store.counters.delta_since(before)
        assert delta.snapshot_refreshes == 1
        assert view.full_rebuilds == 1  # only the initial build
        scans.append(delta.snapshot_rows_scanned)
        rows.append(
            [
                f"{spec.depth}x{spec.fanout}",
                nrows,
                applied,
                delta.snapshot_rows_scanned,
                refresh_ms,
            ]
        )
    # The point of the table: refresh cost follows the delta, not the
    # graph — identical update streams touch identical row counts at
    # every size.
    assert len(set(scans)) == 1, scans
    emit(
        "E18c: delta refresh cost under a fixed update delta over "
        "growing graphs",
        ["graph", "objects", "updates applied", "rows touched",
         "refresh ms"],
        rows,
        note="rows touched is constant down the column: the refresh "
        "replays the update log tail, it never rescans the base "
        "(a delta above rebuild_threshold x rows would escalate to a "
        "rebuild instead)",
        filename="e18_delta_refresh.txt",
        config={
            "delta_pairs": DELTA_PAIRS,
            "seed": 11,
            "scale": "ci" if CI_MODE else "full",
            "specs": str([(s.depth, s.fanout) for s in DELTA_SPECS]),
        },
    )


def test_e18_staleness_guard():
    store, root = build_base()
    registry = DatabaseRegistry(store)
    manager = enable_columnar(store)
    manager.current()
    server = QueryServer(
        registry,
        parent_index=ParentIndex(store),
        label_index=LabelIndex(store),
        cache_size=8,
    )
    oracle = QueryEvaluator(registry)  # always interpreted, never cached
    text = f"SELECT {root}.{QUERIES['path']} X"
    steps = 16 if CI_MODE else 64
    top = sorted(store.peek(root).children())
    mismatches = 0
    served = 0
    removed: dict[str, str] = {}
    before = store.counters.snapshot()
    for i in range(steps):
        parent = top[(i // 2) % len(top)]
        if i % 2 == 0:
            child = sorted(store.peek(parent).children())[0]
            store.delete_edge(parent, child)
            removed[parent] = child
        else:
            store.insert_edge(parent, removed.pop(parent))
        if server.evaluate_oids(text) != oracle.evaluate_oids(text):
            mismatches += 1
        served += 1
    delta = store.counters.delta_since(before)
    assert mismatches == 0
    emit(
        "E18d: staleness guard — served answers vs fresh interpreted "
        "evaluation under interleaved structural updates",
        ["steps", "served reads", "stale answers", "snapshot refreshes",
         "kernel fallbacks"],
        [[steps, served, mismatches, delta.snapshot_refreshes,
          delta.kernel_fallbacks]],
        note="every update staled the snapshot and every read "
        "delta-refreshed it before answering: zero stale reads by "
        "construction, zero interpreted fallbacks needed",
        filename="e18_staleness.txt",
        config={
            "depth": SPEC.depth,
            "fanout": SPEC.fanout,
            "seed": SPEC.seed,
            "scale": "ci" if CI_MODE else "full",
        },
    )


def test_e18_gc_mark():
    store, root = build_base()
    interp_ms = best_ms(lambda: reachable_from(store, {root}))
    interpreted = reachable_from(store, {root})
    manager = enable_columnar(store)
    view = manager.current()
    kernel_holder = {}
    kernel_ms = best_ms(
        lambda: kernel_holder.__setitem__(
            "m", reachable_on_snapshot(view, {root})
        )
    )
    assert kernel_holder["m"] == interpreted
    emit(
        "E18e: GC mark — interpreted walk vs label-blind bitset sweep "
        "(best-of-N wall ms; identical marked sets)",
        ["objects", "marked", "interp ms", "kernel ms", "speedup"],
        [[view.nrows, len(interpreted), interp_ms, kernel_ms,
          round(interp_ms / max(kernel_ms, 1e-9), 2)]],
        note="the interpreted mark charges nothing (uncharged peeks), "
        "so the win here is wall clock only — the sweep rides the "
        "same combined-label CSR the wildcard kernel uses",
        filename="e18_gc_mark.txt",
        config={
            "depth": SPEC.depth,
            "fanout": SPEC.fanout,
            "seed": SPEC.seed,
            "repeats": REPEATS,
            "scale": "ci" if CI_MODE else "full",
        },
    )
