"""Open-loop drivers for the serving tiers (experiment E20).

:func:`run_concurrent` replays a :func:`~repro.workloads.traffic.
poisson_schedule` against an :class:`~repro.serving.mvcc.
AsyncEpochServer`: every arrival becomes an asyncio task at its
scheduled instant, so any number of reads are in flight while write
events apply update bursts and publish new epochs.  :func:`run_sequential`
replays the *same* schedule against an :class:`~repro.serving.mvcc.
EpochServer` driven from one thread, one request at a time, every read
at ``fresh`` — the baseline whose saturation the concurrent front door
is measured against.

Both report latency from the **scheduled arrival** (open-loop: queueing
delay counts), exact-nearest-rank tail percentiles via
:mod:`repro.instrumentation.stats`, achieved throughput over the actual
wall clock, and a freshness audit: every served answer's epoch lag is
recorded against the lag its request allowed, so a single violated
policy anywhere in a run is visible (and E20 asserts there are none).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.instrumentation.stats import latency_summary
from repro.serving.mvcc import AsyncEpochServer, EpochServer, FreshnessPolicy
from repro.workloads.traffic import TrafficEnv, TrafficEvent
from repro.workloads.updates import UpdateMix, UpdateStream


@dataclass
class TrafficReport:
    """Outcome of one open-loop replay."""

    label: str
    offered_rate: float
    reads: int = 0
    writes: int = 0
    updates_applied: int = 0
    wall_seconds: float = 0.0
    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    lag_histogram: dict[int, int] = field(default_factory=dict)
    sources: dict[str, int] = field(default_factory=dict)
    violations: int = 0

    def _observe(self, lag: int, allowed: int | None, source: str) -> None:
        self.lag_histogram[lag] = self.lag_histogram.get(lag, 0) + 1
        self.sources[source] = self.sources.get(source, 0) + 1
        if allowed is not None and lag > allowed:
            self.violations += 1

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    @property
    def throughput(self) -> float:
        """Achieved requests/second over the actual wall clock.  Equal
        to the offered rate while the server keeps up; below it once
        the server saturates and the run stretches past the horizon."""
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0

    def read_summary(self) -> dict[str, float]:
        return latency_summary(self.read_latencies)

    def describe(self) -> dict:
        out = {
            "label": self.label,
            "offered_rate": self.offered_rate,
            "reads": self.reads,
            "writes": self.writes,
            "updates_applied": self.updates_applied,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "violations": self.violations,
            "lag_histogram": dict(sorted(self.lag_histogram.items())),
            "sources": dict(sorted(self.sources.items())),
        }
        if self.read_latencies:
            out["read_latency"] = self.read_summary()
        if self.write_latencies:
            out["write_latency"] = latency_summary(self.write_latencies)
        return out


def _traffic_stream(
    store, env: TrafficEnv, seed: int, mix: UpdateMix | None
) -> UpdateStream:
    protected = {env.root} | env.registry.grouping_oids()
    return UpdateStream(
        store,
        seed=seed,
        mix=mix if mix is not None else UpdateMix(),
        protected=frozenset(protected),
        protected_prefixes=("ANS",),
    )


class RecordedBurst(NamedTuple):
    """One pre-generated write burst: the fresh atomic objects the
    stream minted (``(oid, label, value)``) plus the update sequence."""

    creations: list[tuple[str, str, object]]
    updates: list


def record_write_batches(
    env: TrafficEnv,
    events: list[TrafficEvent],
    *,
    seed: int = 1,
    mix: UpdateMix | None = None,
) -> list[RecordedBurst]:
    """Pre-generate the write bursts for *events* against *env*.

    :class:`UpdateStream` picks each update by scanning the live store
    for candidates — workload *generation* cost that would otherwise
    sit inside the measured serve loop and dilute both tiers' wall
    clocks equally.  Recording the bursts ahead of time against a
    pristine replica environment (same tree seed ⇒ same store) leaves
    only *application* cost in the run.  The recorded updates replay
    validly because the replica and the measured store start identical
    and see the identical update sequence.  Fresh atomics the stream
    mints (an insert's new child) are store side effects outside the
    update algebra, so each burst records them alongside its updates.
    """
    stream = _traffic_stream(env.store, env, seed, mix)
    bursts: list[RecordedBurst] = []
    for event in events:
        if event.kind != "write":
            continue
        known = set(env.store.oids())
        updates = list(stream.run(event.batch))
        creations = []
        for update in updates:
            child = getattr(update, "child", None)
            if child is not None and child not in known:
                obj = env.store.peek(child)
                if obj is not None and obj.is_atomic:
                    creations.append((child, obj.label, obj.value))
                known.add(child)
        bursts.append(RecordedBurst(creations, updates))
    return bursts


def make_writer(
    core: EpochServer,
    env: TrafficEnv,
    *,
    seed: int = 1,
    mix: UpdateMix | None = None,
    batches: list[RecordedBurst] | None = None,
):
    """A write-burst closure for the MVCC tier: apply a batch of valid
    random updates under the core's write mutex, then publish the new
    epoch.  Returns the number of updates applied.

    With *batches* (from :func:`record_write_batches`), bursts replay
    pre-generated updates in order instead of generating on the fly.
    """
    if batches is not None:
        queue = iter(batches)

        def replay(batch: int) -> int:
            # Pop AND apply under the write mutex: concurrent write
            # tasks may race, and recorded bursts only replay validly
            # in recording order.
            with core.write_mutex:
                burst = next(queue)
                for oid, label, value in burst.creations:
                    core.store.add_atomic(oid, label, value)
                core.apply_batch(burst.updates)  # applies + publishes
            return len(burst.updates)

        return replay
    stream = _traffic_stream(env.store, env, seed, mix)

    def write(batch: int) -> int:
        with core.write_mutex:
            applied = len(stream.run(batch))
            core.publish()
        return applied

    return write


async def _replay_async(
    server: AsyncEpochServer,
    events: list[TrafficEvent],
    writer,
    report: TrafficReport,
) -> None:
    loop = asyncio.get_running_loop()
    start = loop.time()
    tasks: list[asyncio.Task] = []

    async def do_read(event: TrafficEvent, scheduled: float) -> None:
        answer = await server.read(event.query, event.policy)
        latency = loop.time() - scheduled
        # Task callbacks resume on the event loop thread, so plain
        # mutation of the report is race-free.
        report.reads += 1
        report.read_latencies.append(latency)
        allowed = FreshnessPolicy.parse(event.policy).max_lag_epochs
        report._observe(answer.lag, allowed, answer.source)

    async def do_write(event: TrafficEvent, scheduled: float) -> None:
        applied = await asyncio.to_thread(writer, event.batch)
        report.writes += 1
        report.updates_applied += applied
        report.write_latencies.append(loop.time() - scheduled)

    for event in events:
        scheduled = start + event.at
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if event.kind == "read":
            tasks.append(asyncio.create_task(do_read(event, scheduled)))
        else:
            tasks.append(asyncio.create_task(do_write(event, scheduled)))
    if tasks:
        await asyncio.gather(*tasks)
    report.wall_seconds = loop.time() - start


def run_concurrent(
    server: AsyncEpochServer,
    env: TrafficEnv,
    events: list[TrafficEvent],
    *,
    seed: int = 1,
    mix: UpdateMix | None = None,
    batches: list[RecordedBurst] | None = None,
    label: str = "mvcc",
) -> TrafficReport:
    """Replay *events* open-loop against the concurrent MVCC tier."""
    rate = len(events) / events[-1].at if events else 0.0
    report = TrafficReport(label=label, offered_rate=rate)
    writer = make_writer(server.core, env, seed=seed, mix=mix, batches=batches)
    asyncio.run(_replay_async(server, events, writer, report))
    return report


def run_sequential(
    server: EpochServer,
    env: TrafficEnv,
    events: list[TrafficEvent],
    *,
    seed: int = 1,
    mix: UpdateMix | None = None,
    batches: list[RecordedBurst] | None = None,
    label: str = "baseline",
) -> TrafficReport:
    """Replay *events* against *server* from one thread, every read at
    ``fresh`` whatever policy the schedule drew.

    One request at a time: an arrival that lands while an earlier
    request is still being served queues, and its latency (measured
    from the scheduled arrival) absorbs the wait — exactly how a
    saturated single-threaded front door behaves.  Writes go through
    the same writer as :func:`run_concurrent`; a fresh read may never
    trail the store, so the lag histogram is all zeros.
    """
    rate = len(events) / events[-1].at if events else 0.0
    report = TrafficReport(label=label, offered_rate=rate)
    writer = make_writer(server, env, seed=seed, mix=mix, batches=batches)
    start = time.perf_counter()
    for event in events:
        scheduled = start + event.at
        now = time.perf_counter()
        if now < scheduled:
            time.sleep(scheduled - now)
        if event.kind == "read":
            answer = server.read(event.query, FreshnessPolicy.FRESH)
            report.reads += 1
            report.read_latencies.append(time.perf_counter() - scheduled)
            report._observe(answer.lag, 0, answer.source)
        else:
            report.updates_applied += writer(event.batch)
            report.writes += 1
            report.write_latencies.append(time.perf_counter() - scheduled)
    report.wall_seconds = time.perf_counter() - start
    return report


__all__ = [
    "RecordedBurst",
    "TrafficReport",
    "make_writer",
    "record_write_batches",
    "run_concurrent",
    "run_sequential",
]
