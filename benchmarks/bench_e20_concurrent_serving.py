"""E20 — epoch-pinned MVCC serving under open-loop concurrent traffic.

Driven from one thread at ``fresh``, an
:class:`~repro.serving.mvcc.EpochServer` serves one request at a time,
and a write burst stalls every reader queued behind it.  Through its
asyncio front door (:class:`~repro.serving.mvcc.AsyncEpochServer`) any
number of readers evaluate on pinned frozen epochs while the single
writer applies and publishes batches.  Both replay the *same*
deterministic Poisson/Zipf schedule (:func:`~repro.workloads.traffic.
poisson_schedule`) with the same pre-recorded write bursts, so offered
load is identical and only the serving discipline differs.

Four measurements:

1. *Headline comparison* at an offered rate far past the baseline's
   saturation point: achieved throughput, exact-nearest-rank latency
   tails (open-loop — queueing delay counts), freshness violations.
   Asserted: zero violations anywhere and equal read/update counts.
   The throughput ratio and the tails are written, never asserted —
   wall-clock claims are judged by ``bench/compare.py``, which
   carries a noise model.

2. *Saturation sweep*: achieved throughput and p95 as the offered rate
   climbs.  The baseline plateaus at its service rate and its tail
   explodes (every arrival behind a write burst queues); the MVCC tier
   tracks the offered rate.

3. *Staleness audit* for the headline MVCC run: the lag histogram of
   every served answer and the answer-source mix (carry hit /
   epoch-partition hit / kernel evaluation).  Bounded-staleness reads
   are the point of the tier — the histogram shows how much staleness
   the policy mix actually bought, and the audit proves no answer
   exceeded its request's bound.

4. *Writer isolation*: store-charged cost counters for the full
   concurrent run vs the identical schedule with every read removed.
   Reader work (kernel sweeps on frozen views, cache bookkeeping,
   pins) is charged to the server's private ``read_counters``, so the
   writer's charged maintenance cost must be byte-identical with and
   without 99% read traffic in flight — asserted exactly, not within
   noise.

Plain runs use a small tree and schedule (CI scale); the committed
artifacts come from the full-scale run under ``REPRO_BENCH_REGEN=1``.
"""

import time

from _common import REGEN, emit
from repro.serving import AsyncEpochServer, EpochServer
from repro.serving.traffic import (
    record_write_batches,
    run_concurrent,
    run_sequential,
)
from repro.workloads import TreeSpec
from repro.workloads.traffic import (
    TrafficSpec,
    build_traffic_env,
    poisson_schedule,
)

SEED = 7
CI_MODE = not REGEN

#: Tree shape: deep/fanned enough that a kernel evaluation is real
#: work (~thousands of objects) and a write burst invalidates real
#: cache state.
TREE = (
    TreeSpec(depth=4, fanout=3, seed=SEED + 17)
    if CI_MODE
    else TreeSpec(depth=6, fanout=4, seed=SEED + 17)
)
REQUESTS = 400 if CI_MODE else 4000
#: Offered rate for the headline comparison — far past the sequential
#: tier's measured saturation (~1000/s on this tree).
HEADLINE_RATE = 800 if CI_MODE else 6000
#: Offered-rate sweep for the saturation curve.
RATE_SWEEP = (400, 800) if CI_MODE else (1000, 2000, 4000, 6000)
READ_RATIO = 0.99
WRITE_BATCH = 10
#: Bounded-staleness-heavy policy mix: the regime the tier is built
#: for.  No ``fresh`` reads — strict freshness is measured by its own
#: tests; here every read may be served wait-free from a retained
#: epoch.
POLICIES = (("8", 0.25), ("16", 0.25), ("any", 0.5))
RETENTION = 20
CACHE_SIZE = 128

#: Store-charged counters compared between the full run and the
#: reads-stripped run.  The first three are what the write path moves
#: (identical updates ⇒ identical charges); the last three are reader
#: currency — frozen-view row scans and cache traffic land in the
#: server's private ``read_counters``, so the store's ledger must show
#: zero for them even with thousands of reads in flight.
WRITER_COUNTERS = (
    "object_reads",
    "object_writes",
    "edge_traversals",
    "snapshot_rows_scanned",
    "query_cache_hits",
    "query_cache_misses",
)


def fresh_env():
    return build_traffic_env(seed=SEED, tree=TREE)


def build_schedule(rate: int):
    spec = TrafficSpec(
        seed=SEED,
        requests=REQUESTS,
        rate=rate,
        read_ratio=READ_RATIO,
        write_batch=WRITE_BATCH,
        policies=POLICIES,
    )
    env = fresh_env()
    events = poisson_schedule(spec, env.pool)
    # Record write bursts against a pristine replica: workload
    # *generation* (candidate scans) stays out of both tiers' walls.
    batches = record_write_batches(fresh_env(), events, seed=SEED + 1)
    return events, batches


def run_baseline(events, batches):
    env = fresh_env()
    server = EpochServer(
        env.registry,
        parent_index=env.parent_index,
        retention_capacity=RETENTION,
        cache_size=CACHE_SIZE,
    )
    for text in env.pool:  # warm the cache: steady-state, not cold-start
        server.read(text, "fresh")
    return run_sequential(server, env, events, batches=list(batches))


def run_mvcc(events, batches):
    env = fresh_env()
    core = EpochServer(
        env.registry,
        parent_index=env.parent_index,
        retention_capacity=RETENTION,
        cache_size=CACHE_SIZE,
    )
    server = AsyncEpochServer(core)
    for text in env.pool:
        core.read(text, "any")  # warm: publish epoch 0, fill the carry
    before = core.store.counters.snapshot()
    report = run_concurrent(server, env, events, batches=list(batches))
    delta = core.store.counters.delta_since(before)
    return report, core, delta


def _ms(seconds: float) -> float:
    return round(seconds * 1000, 2)


def _row(report, summary):
    return [
        report.label,
        f"{report.offered_rate:.0f}",
        f"{report.throughput:.0f}",
        _ms(summary["p50"]),
        _ms(summary["p95"]),
        _ms(summary["p99"]),
        report.violations,
    ]


def test_e20_headline_and_saturation():
    sweep_rows = []
    headline = {}
    for rate in RATE_SWEEP:
        events, batches = build_schedule(rate)
        base = run_baseline(events, batches)
        mvcc, core, writer_delta = run_mvcc(events, batches)
        for report in (base, mvcc):
            sweep_rows.append(_row(report, report.read_summary()))
        if rate == HEADLINE_RATE:
            headline = {
                "base": base,
                "mvcc": mvcc,
                "core": core,
                "writer_delta": writer_delta,
            }
    assert headline, "HEADLINE_RATE must appear in RATE_SWEEP"
    base, mvcc = headline["base"], headline["mvcc"]
    base_summary, mvcc_summary = base.read_summary(), mvcc.read_summary()
    ratio = mvcc.throughput / base.throughput

    emit(
        "E20a: saturation sweep — achieved throughput vs offered rate",
        ["tier", "offered/s", "achieved/s", "p50 ms", "p95 ms", "p99 ms", "viol"],
        sweep_rows,
        note=(
            "Open-loop latency: measured from the scheduled arrival, so "
            "queueing delay counts.  The sequential tier plateaus at its "
            "service rate; the MVCC tier tracks the offered rate."
        ),
        filename="e20a_saturation.txt",
        config={
            "tree": str(TREE),
            "requests": REQUESTS,
            "read_ratio": READ_RATIO,
            "write_batch": WRITE_BATCH,
            "policies": str(POLICIES),
            "retention": RETENTION,
            "cache_size": CACHE_SIZE,
            "seed": SEED,
            "scale": "ci" if CI_MODE else "full",
        },
    )

    emit(
        "E20b: headline — concurrent MVCC vs sequential serving "
        f"at {HEADLINE_RATE}/s offered",
        ["tier", "achieved/s", "×baseline", "p50 ms", "p95 ms", "p99 ms", "viol"],
        [
            [
                base.label,
                f"{base.throughput:.0f}",
                "1.00",
                _ms(base_summary["p50"]),
                _ms(base_summary["p95"]),
                _ms(base_summary["p99"]),
                base.violations,
            ],
            [
                mvcc.label,
                f"{mvcc.throughput:.0f}",
                f"{ratio:.2f}",
                _ms(mvcc_summary["p50"]),
                _ms(mvcc_summary["p95"]),
                _ms(mvcc_summary["p99"]),
                mvcc.violations,
            ],
        ],
        note=(
            "Identical schedule, identical recorded write bursts; only "
            "the serving architecture differs."
        ),
        filename="e20b_headline.txt",
        config={"headline_rate": HEADLINE_RATE, "seed": SEED},
        counters=headline["core"].read_counters.as_dict(),
    )

    emit(
        "E20c: staleness audit — headline MVCC run",
        ["metric", "value"],
        [
            ["lag histogram", str(dict(sorted(mvcc.lag_histogram.items())))],
            ["answer sources", str(dict(sorted(mvcc.sources.items())))],
            ["reads", mvcc.reads],
            ["writes", mvcc.writes],
            ["updates applied", mvcc.updates_applied],
            ["violations", mvcc.violations],
        ],
        note=(
            "Every served answer's epoch lag vs the lag its request "
            "allowed; a single violation anywhere fails the run."
        ),
        filename="e20c_staleness.txt",
        config={"policies": str(POLICIES), "retention": RETENTION},
    )

    # Freshness audit holds at every scale.
    assert base.violations == 0
    assert mvcc.violations == 0
    assert mvcc.reads == base.reads
    assert mvcc.updates_applied == base.updates_applied


def test_e20_writer_isolation():
    events, batches = build_schedule(HEADLINE_RATE)
    _, full_core, full_delta = run_mvcc(events, batches)
    # The zero rows below only mean something if the readers really
    # did that work — privately.
    assert full_core.read_counters.snapshot_rows_scanned > 0
    assert full_core.read_counters.query_cache_hits > 0
    writes_only = [event for event in events if event.kind == "write"]
    start = time.perf_counter()
    _, _, quiet_delta = run_mvcc(writes_only, batches)
    quiet_wall = time.perf_counter() - start

    rows = []
    mismatched = []
    for name in WRITER_COUNTERS:
        full_value = getattr(full_delta, name)
        quiet_value = getattr(quiet_delta, name)
        rows.append([name, full_value, quiet_value])
        if full_value != quiet_value:
            mismatched.append(name)
    emit(
        "E20d: writer isolation — store-charged cost, with vs without "
        "readers",
        ["counter", "with 99% reads", "writes only"],
        rows,
        note=(
            "Reader work is charged to the server's private "
            "read_counters; the writer's store-charged cost is "
            "byte-identical whether or not thousands of reads are in "
            "flight."
        ),
        filename="e20d_writer_isolation.txt",
        config={
            "headline_rate": HEADLINE_RATE,
            "writes_only_wall_s": round(quiet_wall, 3),
            "scale": "ci" if CI_MODE else "full",
        },
    )
    assert not mismatched, mismatched
