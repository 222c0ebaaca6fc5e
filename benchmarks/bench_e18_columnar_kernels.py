"""E18 — columnar epoch snapshots: a closed negative result.

The columnar snapshot once served four synchronous read paths
(recomputation, the live-store query server's cold misses, GC
marking, invalidation refinement).  Paired end-to-end runs of the
repository benchmark showed the write-side upkeep costing more than
the faster reads return (see EXPERIMENTS.md E18), so those paths were
deleted; the snapshot now lives only inside the catalog's one server,
the :class:`~repro.serving.mvcc.EpochServer`.  Three tables remain:

1. **Epoch-miss evaluation** — the bitset kernel on a frozen
   :class:`~repro.gsdb.columnar.EpochView` versus the interpreted
   set-at-a-time frontier on a 66k-object layered tree: byte-equal
   member sets, and what an epoch miss costs in each currency.
2. **Delta-refresh scaling** — a fixed update delta costs the same
   number of snapshot row touches no matter how large the graph is
   (the refresh replays the delta, it does not rescan the base).
3. **Fresh epoch reads** — interleaved writer batches and ``fresh``
   reads through an :class:`EpochServer`, audited against the
   interpreted evaluator: zero stale answers.

Wall times move between machines; the deterministic columns (member
counts, extent hashes, row/access counters, mismatch counts) must
reproduce exactly — across runs *and* across ``PYTHONHASHSEED`` (the
CI ``mvcc`` job diffs the extent hash between two hash seeds).

The wall-clock columns are written, never asserted: a speedup claim is
judged by ``bench/compare.py``, which carries a noise model.

Plain runs use a small tree (CI scale); the committed artifacts come
from the full-scale run under ``REPRO_BENCH_REGEN=1``.
"""

from __future__ import annotations

import gc
import hashlib
import time

from _common import REGEN, emit
from repro.gsdb.columnar import ColumnarSnapshot
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.updates import Delete, Insert
from repro.paths import PathExpression, compile_expression
from repro.paths.kernel import evaluate_many_on_snapshot
from repro.query.evaluator import QueryEvaluator
from repro.serving import EpochServer
from repro.workloads.generators import TreeSpec, layered_tree

CI_MODE = not REGEN

#: Full scale: depth 5, fanout 9 -> 66,430 objects (the >=50k floor).
SPEC = TreeSpec(depth=4, fanout=5, seed=11) if CI_MODE else TreeSpec(
    depth=5, fanout=9, seed=11
)
REPEATS = 2 if CI_MODE else 5
#: Delta sweep: same update count over growing graphs.  Every spec must
#: hold more than DELTA / REBUILD_THRESHOLD rows or the refresh
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
                key, nfa.evaluate_many(store, [root])[root]
            )
        )
        interp_accesses[key] = (
            store.counters.delta_since(before).total_base_accesses()
            // REPEATS
        )
    view = ColumnarSnapshot(store).freeze()
    rows = []
    shas = {}
    speedups = {}
    for key, nfa in nfas.items():
        kernel_members = {}
        before = store.counters.snapshot()
        kernel_ms = best_ms(
            lambda: kernel_members.__setitem__(
                key, evaluate_many_on_snapshot(view, nfa, [root])[root]
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
        f"E18a: epoch-miss evaluation over a {SPEC.depth}x{SPEC.fanout} "
        "layered tree — kernel on a frozen EpochView vs the interpreted "
        "frontier (best-of-N wall ms; identical member sets)",
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
        "across PYTHONHASHSEED.  Isolated: the snapshot build and the "
        "refreshes that keep it current are not in these walls",
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
        snapshot = ColumnarSnapshot(store)
        snapshot.refresh()
        nrows = snapshot.nrows
        applied = churn(store, root, DELTA_PAIRS)
        before = store.counters.snapshot()
        begin = time.perf_counter()
        snapshot.refresh()
        refresh_ms = round((time.perf_counter() - begin) * 1000, 2)
        delta = store.counters.delta_since(before)
        assert delta.snapshot_refreshes == 1
        assert snapshot.full_rebuilds == 1  # only the initial build
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
        "(a delta above REBUILD_THRESHOLD x rows would escalate to a "
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
    server = EpochServer(
        registry, parent_index=ParentIndex(store), cache_size=8
    )
    oracle = QueryEvaluator(registry)  # the live store, never cached
    text = f"SELECT {root}.{QUERIES['path']} X"
    steps = 16 if CI_MODE else 64
    top = sorted(store.peek(root).children())
    mismatches = 0
    removed: dict[str, str] = {}
    server.read(text, "fresh")
    writer_before = store.counters.snapshot()
    reader_before = server.read_counters.snapshot()
    sources: dict[str, int] = {}
    for i in range(steps):
        parent = top[(i // 2) % len(top)]
        if i % 2 == 0:
            child = sorted(store.peek(parent).children())[0]
            server.apply_batch([Delete(parent, child)])
            removed[parent] = child
        else:
            server.apply_batch([Insert(parent, removed.pop(parent))])
        answer = server.read(text, "fresh")
        sources[answer.source] = sources.get(answer.source, 0) + 1
        if set(answer.oids) != oracle.evaluate_oids(text):
            mismatches += 1
    writer = store.counters.delta_since(writer_before)
    reader = server.read_counters.delta_since(reader_before)
    assert mismatches == 0
    assert server.violations == 0
    emit(
        "E18d: fresh epoch reads — EpochServer answers vs the "
        "interpreted evaluator under interleaved writer batches",
        ["steps", "fresh reads", "stale answers", "kernel evaluations",
         "carry hits", "epochs published", "snapshot refreshes"],
        [[steps, sum(sources.values()), mismatches,
          sources.get("kernel", 0), sources.get("carry", 0),
          reader.epochs_published, writer.snapshot_refreshes]],
        note="every batch publishes a new epoch (one refresh on the "
        "write path); every fresh read after it is served from that "
        "epoch or from the precisely invalidated carry cache: zero "
        "stale answers",
        filename="e18_staleness.txt",
        config={
            "depth": SPEC.depth,
            "fanout": SPEC.fanout,
            "seed": SPEC.seed,
            "scale": "ci" if CI_MODE else "full",
        },
    )
