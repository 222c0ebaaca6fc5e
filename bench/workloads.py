"""The four workloads: what each generates, sets up, measures and checks.

Every workload runs fixed work sized by ``--seconds`` (op counts are
``seconds`` times the nominal rates below, measured on the reference
host), so the same seed and seconds always give the same inputs, the
same final state and the same charged counts.  A closed-loop metric is
the median over the run's eight windows.

Why these four (see README.md for the long form):

``maint-stream``  the paper's per-update Algorithm 1 cost; dispatcher
                  screening and view maintenance do nearly all the work.
``maint-batch``   the same layer used through ``apply_batch``:
                  coalescing, replay screening, batched deletes.
``serve-mixed``   reads beside writes through the MVCC serving tier,
                  working set four times the cache, open loop then
                  closed loop.
``cold-read``     no serving tier and no repeated query: parser,
                  evaluator and automaton do the work; a cache or epoch
                  optimisation must not move it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

import gen
import sut
from stats import percentile, sha256_lines
from spans import Tracer

now = time.perf_counter

WINDOWS = 8
#: Set-ups per run; ``setup_s`` is their median.  The benchmark contract
#: asks for several per run: set-up time is judged across PRs like any
#: other metric, and a run has only this one sample of it otherwise.
SETUPS = 3

# Nominal rates on the reference host; op counts are these times --seconds.
STREAM_UPDATES_PER_S = 9500
BATCH_UPDATES_PER_S = 5000
BATCH_SIZE = 64
COLD_READS_PER_S = 1500
READS_PER_UPDATE = 10
READS_PER_RECOMPUTE = 50
STREAM_UPDATES_PER_RECOMPUTE = 400
BATCHES_PER_RECOMPUTE = 4
#: Open-loop phases: offered rate -> requests per second of --seconds, so
#: the phases last about 0.38, 0.19 and 0.125 of the run; the closed-loop
#: phase takes the remaining 0.3 at ~900 requests per second.
SERVE_PHASES = ((250, 95), (500, 95), (1000, 125))
SERVE_CAPACITY_PER_S = 280
SERVE_WRITE_SHARE = 0.05
SERVE_BURST = 16
SERVE_POLICIES = ("fresh", 2, "any")
SERVE_POLICY_WEIGHTS = (0.2, 0.5, 0.3)
SERVE_WARM = 128
SERVE_VERIFY_SAMPLE = 64
READ_P95_LIMIT_S = 0.100
DRAIN_LIMIT_S = 1.0
SMOKE_SHARE = 1 / 20
SMOKE_ITEMS = 4

NAMES = ("maint-stream", "maint-batch", "serve-mixed", "cold-read")


@dataclass
class Recorder:
    """Counts operations attempted and failed, keeping a few messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    #: Layer metrics whose probe could not run (its symbol is gone), with
    #: the reason; not failures.
    unavailable: dict[str, str] = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(message)

    def check(self, passed: bool, message: str) -> None:
        if passed:
            self.ok()
        else:
            self.fail(message)


@dataclass
class Inputs:
    """What a workload hands the library, plus what must come back."""

    base: tuple
    views: list
    ops: dict  # workload-specific generated inputs
    expected_extents: dict[str, list[str]]
    sha: str
    counts: dict[str, int]


def _scaled(per_second: float, seconds: float, smoke: bool, multiple: int = 1) -> int:
    count = per_second * seconds * (SMOKE_SHARE if smoke else 1.0)
    return max(multiple, int(count) // multiple * multiple)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _latency_windows(latencies: list[list[float]]) -> dict[str, float]:
    return {
        "p50": statistics.median([percentile(w, 50) for w in latencies]),
        "p95": statistics.median([percentile(w, 95) for w in latencies]),
        "p99": statistics.median([percentile(w, 99) for w in latencies]),
    }


# -- generation ---------------------------------------------------------------


def generate(name: str, seed: int, seconds: float, smoke: bool) -> Inputs:
    g = gen.Generator(seed, SMOKE_ITEMS if smoke else 32)
    base, views = g.base_spec(), g.views()
    if name == "maint-stream":
        count = _scaled(STREAM_UPDATES_PER_S, seconds, smoke, WINDOWS)
        ops = {"updates": g.stream(count)}
        lines = map(repr, ops["updates"])
        counts = {"updates": count}
    elif name == "maint-batch":
        batches = _scaled(BATCH_UPDATES_PER_S / BATCH_SIZE, seconds, smoke, WINDOWS)
        ops = {"batches": [g.batch(BATCH_SIZE) for _ in range(batches)]}
        lines = map(repr, ops["batches"])
        counts = {"batches": batches, "updates": batches * BATCH_SIZE}
    elif name == "cold-read":
        ops, counts = _cold_read_ops(g, seconds, smoke)
        lines = (repr(op[:2]) for op in ops["events"])
    elif name == "serve-mixed":
        ops, counts = _serve_ops(g, seconds, smoke)
        lines = map(repr, (ops["pool_texts"], ops["phases"], ops["capacity"], ops["bursts"]))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Inputs(base, views, ops, g.expected_extents(), sha256_lines(lines), counts)


def _cold_read_ops(g: gen.Generator, seconds: float, smoke: bool):
    """Reads over the 4,096-query pool, one streamed update per 10 reads,
    one recompute per 50; each read carries the answer the census expects
    at that point of the sequence.

    Reads come in blocks of 64 that take each of the pool's 64 slots
    once, in a seeded order and for a seeded category: every query is
    equally likely, yet every block -- and so every window, whatever the
    seed -- holds the same mix of cheap and expensive shapes (one
    whole-base ``?`` query costs as much as sixty constant paths)."""
    slots = gen.CATEGORIES
    reads = _scaled(COLD_READS_PER_S, seconds, smoke, WINDOWS * slots)
    pool = g.cold_pool()
    rng = g.rng_for("cold")
    order = list(range(slots))
    events = []
    for index in range(reads):
        if index % slots == 0:
            rng.shuffle(order)
        spec = pool[slots * rng.randrange(gen.CATEGORIES) + order[index % slots]]
        events.append(("read", spec.text, g.answer(spec)))
        if index % READS_PER_UPDATE == READS_PER_UPDATE - 1:
            events.append(("update", g.stream(1)[0], None))
        if index % READS_PER_RECOMPUTE == READS_PER_RECOMPUTE - 1:
            events.append(("recompute", None, None))
    counts = {
        "reads": reads,
        "updates": reads // READS_PER_UPDATE,
        "recomputes": reads // READS_PER_RECOMPUTE,
    }
    return {"events": events}, counts


def _serve_ops(g: gen.Generator, seconds: float, smoke: bool):
    pool = g.serve_pool()
    rng = g.rng_for("traffic")
    popularity = gen.ZipfPicker(len(pool), 1.1, rng)
    bursts: list[list[tuple]] = []
    block = round(1 / SERVE_WRITE_SHARE)

    def events(times: list[float]) -> list[tuple]:
        # Exactly one request of every 20 is a write burst, at a seeded
        # place in its block: the write load does not vary with the seed.
        out = []
        for start in range(0, len(times), block):
            write_at = rng.randrange(block)
            for offset, at in enumerate(times[start:start + block]):
                if offset == write_at:
                    bursts.append(g.stream(SERVE_BURST))
                    out.append(("write", at, len(bursts) - 1))
                else:
                    policy = rng.choices(SERVE_POLICIES, SERVE_POLICY_WEIGHTS)[0]
                    out.append(("read", at, popularity.pick(), policy))
        return out

    phases = [
        (rate, events(gen.poisson_times(
            rng, rate, _scaled(per_second, seconds, smoke, block))))
        for rate, per_second in SERVE_PHASES
    ]
    capacity = events([0.0] * _scaled(SERVE_CAPACITY_PER_S, seconds, smoke, block))
    ops = {
        "pool_texts": [spec.text for spec in pool],
        "phases": phases,
        "capacity": capacity,
        "bursts": bursts,
        # The census is now at the final state: what every pool query
        # must answer once all bursts are applied.
        "final_answers": [g.answer(spec) for spec in pool],
    }
    counts = {
        "requests": sum(len(phase) for _, phase in phases) + len(capacity),
        "bursts": len(bursts),
        "updates": len(bursts) * SERVE_BURST,
    }
    return ops, counts


# -- set-up -------------------------------------------------------------------


def build(name: str, inputs: Inputs) -> sut.System:
    """Everything between process start and the measured phase that is
    the library's work: base, 64 views, and for ``serve-mixed`` the
    serving tier with its first 128 pool queries warmed."""
    system = sut.System(inputs.base, inputs.views, label_index=(name == "cold-read"))
    if name == "serve-mixed":
        system.enable_serving(inputs.ops["pool_texts"][:SERVE_WARM])
    return system


# -- measured phases ----------------------------------------------------------


class _Recomputes:
    """Recomputes one view after another, round robin.  A maintained view
    needs no repair, so every call must return (0, 0): the recompute
    oracle sampled while the workload runs, and its cost."""

    def __init__(self, system, tracer, rec) -> None:
        self.system, self.tracer, self.rec = system, tracer, rec
        self.seconds: list[float] = []
        self._turn = 0

    def one(self) -> None:
        names = self.system.view_names
        name = names[self._turn % len(names)]
        self._turn += 1
        t0 = now()
        repaired = self.system.recompute(name)
        t1 = now()
        self.seconds.append(t1 - t0)
        self.rec.check(repaired == (0, 0), f"recompute({name}) repaired {repaired}")
        if self.tracer is not None:
            self.tracer.add("op.recompute", t0, t1)

    def every_view(self) -> None:
        for _ in self.system.view_names:
            self.one()


def _measure_writes(system, ops, call, per_call, every, spans, tracer, rec, layers, recomputes):
    """Closed loop, one thread: *ops* are (subtrees, payload) pairs, each
    applied by ``call(payload)`` after creating its fresh subtrees inside
    the timed operation; one view is recomputed after every *every* calls."""
    per_window = len(ops) // WINDOWS
    create = system.create
    rates, charged, latencies, stamps = [], [], [], []
    counters_before = system.counters()
    gc.collect()
    for window in range(WINDOWS):
        chunk = ops[window * per_window:(window + 1) * per_window]
        marks = []
        before = system.charged()
        began = now()
        try:
            for start in range(0, len(chunk), every):
                for subtrees, payload in chunk[start:start + every]:
                    t0 = now()
                    for subtree in subtrees:
                        create(subtree)
                    t1 = now()
                    applied = call(payload)
                    marks.append((t0, t1, now()))
                    if applied != per_call:
                        rec.fail(f"applied {applied} of {per_call} updates")
                recomputes.one()
        except Exception as exc:  # the workload is built so that none fails
            rec.fail(f"write failed: {exc!r}", (len(chunk) - len(marks)) * per_call)
        wall = now() - began
        done = len(marks) * per_call
        rec.ok(done)
        rates.append(done / wall)
        charged.append((system.charged() - before) / max(1, done))
        latencies.append([t2 - t0 for t0, _, t2 in marks])
        stamps.extend(marks)
    lat = _latency_windows(latencies)
    metrics = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": _ms(lat["p50"]),
        "op_p95_ms": _ms(lat["p95"]),
        "charged_accesses_per_op": statistics.median(charged),
    }
    if tracer is not None:
        for request, (t0, t1, t2) in enumerate(stamps):
            tracer.add_op(spans, t0, t1, t2, request)
        layers["bench.op_p99_ms"] = _ms(lat["p99"])
        _write_counter_layers(
            layers, system.counters_since(counters_before), len(stamps) * per_call)
    return metrics


def _measure_stream(system, inputs, tracer, rec, layers, recomputes):
    ops = [(subtrees, updates[0]) for subtrees, updates in
           (sut.compile_batch([update]) for update in inputs.ops["updates"])]
    metrics = _measure_writes(
        system, ops, system.apply, 1, STREAM_UPDATES_PER_RECOMPUTE,
        ("op.update", "update.create", "update.apply"), tracer, rec, layers, recomputes)
    if tracer is not None:
        mean_apply = sum(tracer.durations("op.update")) / len(ops)
        _stream_probes(inputs, tracer, rec, layers, mean_apply)
    return metrics, {}


def _measure_batch(system, inputs, tracer, rec, layers, recomputes):
    ops = [sut.compile_batch(batch) for batch in inputs.ops["batches"]]
    metrics = _measure_writes(
        system, ops, system.apply_batch, BATCH_SIZE, BATCHES_PER_RECOMPUTE,
        ("op.batch", "batch.create", "batch.apply"), tracer, rec, layers, recomputes)
    if tracer is not None:
        layers["views.batch_us_per_update"] = (
            sum(tracer.durations("batch.apply")) / (len(ops) * BATCH_SIZE) * 1e6)
        _batch_probes(inputs, tracer, rec, layers)
    return metrics, {}


def _write_counter_layers(layers: dict, delta: dict, updates: int) -> None:
    hits, misses = delta.get("chain_cache_hits", 0), delta.get("chain_cache_misses", 0)
    layers["views.dispatcher.screened_per_update"] = delta.get("updates_screened", 0) / updates
    layers["views.dispatcher.chain_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["views.dispatcher.coalesced_share"] = delta.get("updates_coalesced", 0) / updates
    layers["views.maintenance.delegates_per_update"] = sum(
        delta.get(key, 0)
        for key in ("delegates_inserted", "delegates_deleted", "delegates_refreshed")
    ) / updates


def _stream_probes(inputs, tracer, rec, layers, mean_apply_s):
    """Replay the same inputs on a bare store, then on store + parent
    index: what is left of the per-update time is view maintenance."""
    updates = inputs.ops["updates"]

    def bare():
        with tracer.span("probe.store"):
            store_s = sut.probe_bare_store(inputs.base, updates, parent_index=False)
        with tracer.span("probe.indexes"):
            index_s = sut.probe_bare_store(inputs.base, updates, parent_index=True)
        store_us = store_s / len(updates) * 1e6
        index_us = max(0.0, index_s / len(updates) * 1e6 - store_us)
        return {
            "gsdb.store.apply_us": store_us,
            "gsdb.indexes.maintain_us": index_us,
            "views.maintain_us_per_update": mean_apply_s * 1e6 - store_us - index_us,
        }

    _probe(rec, layers, bare, (
        "gsdb.store.apply_us", "gsdb.indexes.maintain_us", "views.maintain_us_per_update"))


def _probe(rec: Recorder, layers: dict, fn, names: tuple[str, ...]) -> None:
    """Run a layer probe; if its layer is gone, report its metrics as
    None with the reason instead of failing the run."""
    try:
        layers.update(fn())
    except (ImportError, AttributeError) as exc:
        for name in names:
            layers[name] = None
            rec.unavailable[name] = f"probe unavailable: {exc!r}"


def _batch_probes(inputs, tracer, rec, layers):
    raw = inputs.ops["batches"]

    def coalesce():
        with tracer.span("probe.coalesce"):
            seconds = sut.probe_coalesce(raw)
        return {"views.dispatcher.coalesce_us_per_update":
                seconds / (len(raw) * BATCH_SIZE) * 1e6}

    def kernel():
        # The kernel path is several times slower than the default one,
        # so the probe replays only the first window's batches.
        head = raw[:max(1, len(raw) // WINDOWS)]
        with tracer.span("probe.batch_kernel"):
            seconds, fallbacks = sut.probe_batch_kernel(inputs.base, inputs.views, head)
        return {
            "views.batch_kernel.us_per_update": seconds / (len(head) * BATCH_SIZE) * 1e6,
            "views.batch_kernel.fallback_share": fallbacks / len(head),
        }

    _probe(rec, layers, coalesce, ("views.dispatcher.coalesce_us_per_update",))
    _probe(rec, layers, kernel, (
        "views.batch_kernel.us_per_update", "views.batch_kernel.fallback_share"))


def _measure_cold(system, inputs, tracer, rec, layers, recomputes):
    events = [
        (kind, sut.compile_update(payload) if kind == "update" else payload, expected)
        for kind, payload, expected in inputs.ops["events"]
    ]
    # A window is a fixed number of reads plus the updates and
    # recomputes that follow them.
    reads_per_window = inputs.counts["reads"] // WINDOWS
    windows, seen = [[]], 0
    for event in events:
        if event[0] == "read":
            if seen == reads_per_window:
                windows.append([])
                seen = 0
            seen += 1
        windows[-1].append(event)
    query, apply, create, parse = system.query, system.apply, system.create, sut.parse
    rates, charged, read_lat, write_s = [], [], [], []
    answers: list[frozenset] = []
    spans = []
    accesses_before = system.counters()
    gc.collect()
    for chunk in windows:
        reads = []
        before = system.charged()
        began = now()
        for kind, payload, expected in chunk:
            try:
                if kind == "read":
                    t0 = now()
                    if tracer is not None:
                        payload = parse(payload)
                    t1 = now()
                    answer = query(payload)
                    t2 = now()
                    reads.append(t2 - t0)
                    answers.append(frozenset(answer))
                    rec.check(answer == expected, f"wrong answer to {payload}")
                elif kind == "update":
                    update, subtree = payload
                    t0 = now()
                    if subtree is not None:
                        create(subtree)
                    t1 = now()
                    apply(update)
                    t2 = now()
                    write_s.append(t2 - t0)
                    rec.ok()
                else:
                    recomputes.one()
                    continue
            except Exception as exc:
                rec.fail(f"{kind} failed: {exc!r}")
                continue
            if tracer is not None:
                spans.append((kind, t0, t1, t2))
        wall = now() - began
        rates.append(len(reads) / wall)
        charged.append((system.charged() - before) / max(1, len(reads)))
        read_lat.append(reads)
    lat = _latency_windows(read_lat)
    metrics = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": _ms(lat["p50"]),
        "op_p95_ms": _ms(lat["p95"]),
        "charged_accesses_per_op": statistics.median(charged),
    }
    info = {"answers_sha": sha256_lines(",".join(sorted(a)) for a in answers)}
    if tracer is not None:
        names = {
            "read": ("op.read", "read.parse", "read.eval"),
            "update": ("op.update", "update.create", "update.apply"),
        }
        for request, (kind, t0, t1, t2) in enumerate(spans):
            tracer.add_op(names[kind], t0, t1, t2, request)
        reads = inputs.counts["reads"]
        delta = system.counters_since(accesses_before)
        layers["bench.op_p99_ms"] = _ms(lat["p99"])
        layers["bench.write_p50_ms"] = _ms(percentile(write_s, 50))
        layers["query.parser.us_per_query"] = sum(tracer.durations("read.parse")) / reads * 1e6
        layers["query.evaluator.us_per_query"] = sum(tracer.durations("read.eval")) / reads * 1e6
        layers["paths.automaton.accesses_per_read"] = sum(
            delta.get(key, 0) for key in ("object_reads", "edge_traversals", "index_probes")
        ) / reads
    return metrics, info


class _Serving:
    """Drives the MVCC serving tier from one asyncio loop: cache hits are
    answered inline, misses and writes run on worker threads."""

    def __init__(self, system, inputs, tracer, rec) -> None:
        self.system = system
        self.tracer = tracer
        self.rec = rec
        self.texts = inputs.ops["pool_texts"]
        self.bursts = [sut.compile_batch(burst) for burst in inputs.ops["bursts"]]
        # Worker threads may start in any order, so a write takes the
        # *next* burst from this queue only once it holds the write
        # mutex: bursts are applied in the order they were generated, and
        # a modify can never overtake the insert that created its object.
        self.queue: deque = deque()

    async def read(self, request, due, event, sink) -> None:
        text = self.texts[event[2]]
        try:
            t0 = now()
            query = sut.parse(text) if self.tracer is not None else text
            t1 = now()
            answer = await self.system.server.read(query, event[3])
            t2 = now()
        except Exception as exc:
            self.rec.fail(f"read failed: {exc!r}")
            return
        sink.append((request, due, t0, t1, t2, answer.source))
        self.rec.check(
            answer.allowed is None or answer.lag <= answer.allowed,
            f"stale answer: lag {answer.lag} > allowed {answer.allowed}")

    def _write_blocking(self) -> tuple:
        t_a = now()
        with self.system.core.write_mutex:
            t_b = now()
            request, due, burst = self.queue.popleft()
            subtrees, updates = self.bursts[burst]
            for subtree in subtrees:
                self.system.create(subtree)
            t_c = now()
            self.system.serve_write(updates)
            t_d = now()
        return (request, due, t_a, t_b, t_c, t_d)

    async def write(self, request, due, event, sink) -> None:
        self.queue.append((request, due, event[2]))
        try:
            sink.append(await asyncio.to_thread(self._write_blocking))
            self.rec.ok()
        except Exception as exc:
            self.rec.fail(f"write failed: {exc!r}")

    def _start(self, request, due, event, reads, writes):
        handler, sink = (self.read, reads) if event[0] == "read" else (self.write, writes)
        return handler(request, due, event, sink)

    async def open_loop(self, events) -> dict:
        """Dispatch each event at its scheduled instant whether or not
        earlier ones have finished; latency counts from that instant."""
        reads, writes, late, tasks = [], [], [], []
        start = now() + 0.02
        due = start
        for request, event in enumerate(events):
            due = start + event[1]
            delay = due - now()
            await asyncio.sleep(delay if delay > 0 else 0)
            late.append(now() - due)
            tasks.append(asyncio.create_task(self._start(request, due, event, reads, writes)))
        backlog = sum(1 for task in tasks if not task.done())
        await asyncio.gather(*tasks)
        return {"reads": reads, "writes": writes, "late": late,
                "backlog_end": backlog, "drain_s": now() - due}

    async def closed_loop(self, events, clients: int) -> dict:
        """*clients* callers, each sending its next request when the
        previous one completes."""
        reads, writes = [], []
        feed = iter(enumerate(events))

        async def client():
            for request, event in feed:
                await self._start(request, now(), event, reads, writes)

        began = now()
        await asyncio.gather(*(client() for _ in range(clients)))
        return {"reads": reads, "writes": writes, "wall": now() - began}

    def verify(self, indices) -> None:
        """A ``fresh`` read must equal evaluation on the live base."""
        for index in indices:
            text = self.texts[index]
            served = set(self.system.core.read(text, "fresh").oids)
            self.rec.check(served == self.system.query(text), f"fresh read differs: {text}")


def _measure_serve(system, inputs, tracer, rec, layers, recomputes):
    serving = _Serving(system, inputs, tracer, rec)
    phases = inputs.ops["phases"]
    capacity = inputs.ops["capacity"]
    sample = range(0, len(serving.texts), max(1, len(serving.texts) // SERVE_VERIFY_SAMPLE))
    clients = os.cpu_count() or 1
    before = {"stats": system.core.stats(), "report": system.core.freshness_report(),
              "rows": system.kernel_rows_scanned()}
    charged = 0

    async def phase(key, run_phase):
        # Only the phase itself is charged and counted: the checks after
        # it (fresh reads against live evaluation, every view against
        # its recomputation) are the oracle's work, not the workload's.
        nonlocal charged
        failed_before, charged_before = rec.failed, system.charged()
        result = await run_phase
        charged += system.charged() - charged_before
        result["failed"] = rec.failed - failed_before
        serving.verify(sample)
        recomputes.every_view()
        return key, result

    async def run():
        done = [await phase(rate, serving.open_loop(events)) for rate, events in phases]
        done.append(await phase("capacity", serving.closed_loop(capacity, clients)))
        return dict(done)

    gc.collect()
    results = asyncio.run(run())
    # Final state against the model: every pool query, read fresh.
    for text, expected in zip(serving.texts, inputs.ops["final_answers"]):
        served = system.core.read(text, "fresh").oids
        rec.check(served == expected, f"final answer differs from the model: {text}")

    per_rate = {}
    for rate, _ in phases:
        result = results[rate]
        read_s = [t2 - due for _, due, _, _, t2, _ in result["reads"]]
        write_s = [t_d - due for _, due, _, _, _, t_d in result["writes"]]
        per_rate[rate] = {
            "read_p50": percentile(read_s, 50), "read_p95": percentile(read_s, 95),
            "read_p99": percentile(read_s, 99),
            "write_p50": percentile(write_s, 50), "write_p95": percentile(write_s, 95),
            "late_p95": percentile(result["late"], 95),
            "backlog_end": result["backlog_end"], "drain_s": result["drain_s"],
        }
    sustained = [
        rate for rate, row in per_rate.items()
        if row["read_p95"] <= READ_P95_LIMIT_S and row["drain_s"] <= DRAIN_LIMIT_S
        and results[rate]["failed"] == 0
    ]
    # The closed-loop phase is one window: cut into eight, its p95 had
    # too few reads per window and spread more, not less.
    closed = results["capacity"]
    closed_read_s = [t2 - due for _, due, _, _, t2, _ in closed["reads"]]
    metrics = {
        "ops_per_s": len(capacity) / closed["wall"],
        "op_p50_ms": _ms(per_rate[phases[0][0]]["read_p50"]),
        "op_p95_ms": _ms(percentile(closed_read_s, 95)),
        "charged_accesses_per_op": charged / inputs.counts["requests"],
    }
    info = {"sustained_rate_per_s": max(sustained, default=0), "per_rate": per_rate}
    if tracer is not None:
        _serve_layers(system, inputs, tracer, rec, layers, results, per_rate, before, info)
    return metrics, info


def _serve_layers(system, inputs, tracer, rec, layers, results, per_rate, before, info):
    offset = 0
    for key, result in results.items():
        for request, due, t0, t1, t2, source in result["reads"]:
            parent = tracer.add("op.read", due, t2, -1, offset + request, str(key))
            tracer.add("read.parse", t0, t1, parent, offset + request)
            tracer.add("read.serve", t1, t2, parent, offset + request, source)
        for request, due, t_a, t_b, t_c, t_d in result["writes"]:
            parent = tracer.add("op.write", due, t_d, -1, offset + request, str(key))
            tracer.add("write.wait_mutex", t_a, t_b, parent, offset + request)
            tracer.add("write.create", t_b, t_c, parent, offset + request)
            tracer.add("write.apply_publish", t_c, t_d, parent, offset + request)
        offset += len(result["reads"]) + len(result["writes"])
    # Where the time goes is read off the closed-loop phase: it has the
    # most requests and no queue whose length depends on earlier stalls.
    closed = results["capacity"]
    serve: dict[str, list[float]] = {
        source: [] for source in ("carry", "epoch-cache", "kernel", "interpreted")}
    for _, _, _, t1, t2, source in closed["reads"]:
        serve[source].append(t2 - t1)
    reads = len(closed["reads"])
    hits = serve["carry"] + serve["epoch-cache"]
    layers["serving.cache.hit_share"] = len(hits) / reads
    layers["serving.cache.carry_share"] = len(serve["carry"]) / reads
    layers["serving.cache.epoch_share"] = len(serve["epoch-cache"]) / reads
    layers["serving.cache.hit_p50_ms"] = _ms(percentile(hits, 50)) if hits else 0.0
    layers["paths.kernel.share"] = len(serve["kernel"]) / reads
    layers["paths.kernel.eval_p50_ms"] = _ms(percentile(serve["kernel"], 50)) if serve["kernel"] else 0.0
    layers["paths.kernel.eval_p95_ms"] = _ms(percentile(serve["kernel"], 95)) if serve["kernel"] else 0.0
    layers["serving.mvcc.interpreted_share"] = len(serve["interpreted"]) / reads
    layers["query.parser.us_per_query"] = (
        sum(t1 - t0 for _, _, t0, t1, _, _ in closed["reads"]) / reads * 1e6)
    layers["serving.mvcc.mutex_wait_p95_ms"] = _ms(percentile(
        [t_b - t_a for _, _, t_a, t_b, _, _ in closed["writes"]], 95))
    layers["serving.mvcc.apply_publish_p50_ms"] = _ms(percentile(
        [t_d - t_c for _, _, _, _, t_c, t_d in closed["writes"]], 50))
    # Counters cover the whole measured run, checks between phases included.
    stats, report, rows = system.core.stats(), system.core.freshness_report(), system.kernel_rows_scanned()
    moved = {key: stats[key] - before["stats"][key] for key in stats}
    answers = report["reads"] - before["report"]["reads"]
    kernel_answers = (report["sources"].get("kernel", 0)
                      - before["report"]["sources"].get("kernel", 0))
    lags = {lag: count - before["report"]["lag_histogram"].get(lag, 0)
            for lag, count in report["lag_histogram"].items()}
    layers["serving.invalidation.evictions_per_update"] = (
        moved["invalidations"] / inputs.counts["updates"])
    layers["serving.mvcc.lag_mean_epochs"] = (
        sum(lag * count for lag, count in lags.items()) / max(1, answers))
    layers["serving.mvcc.violations"] = report["violations"] - before["report"]["violations"]
    layers["serving.mvcc.pins_per_read"] = moved["pins"] / max(1, answers)
    layers["serving.mvcc.epochs_published"] = moved["published"]
    layers["serving.mvcc.epochs_reclaimed"] = moved["reclaimed"]
    layers["gsdb.columnar.rows_scanned_per_kernel_read"] = (
        (rows - before["rows"]) / max(1, kernel_answers))
    for rate, row in per_rate.items():
        layers[f"bench.driver.late_p95_ms.r{rate}"] = _ms(row["late_p95"])
        layers[f"bench.driver.backlog_end.r{rate}"] = row["backlog_end"]
        layers[f"bench.driver.drain_s.r{rate}"] = row["drain_s"]
        layers[f"bench.read_p95_ms.r{rate}"] = _ms(row["read_p95"])
    first = next(iter(per_rate.values()))
    layers["bench.op_p99_ms"] = _ms(first["read_p99"])
    layers["bench.write_p50_ms"] = _ms(first["write_p50"])
    layers["bench.write_p95_ms"] = _ms(first["write_p95"])
    layers["bench.sustained_rate_per_s"] = info["sustained_rate_per_s"]

    def columnar():
        bursts = inputs.ops["bursts"]
        with tracer.span("probe.columnar"):
            build_s, refresh_s = sut.probe_columnar(inputs.base, bursts)
        return {
            "gsdb.columnar.build_ms": _ms(build_s),
            "gsdb.columnar.refresh_us_per_update":
                refresh_s / max(1, len(bursts) * SERVE_BURST) * 1e6,
        }

    _probe(rec, layers, columnar, (
        "gsdb.columnar.build_ms", "gsdb.columnar.refresh_us_per_update"))


# -- closing audit --------------------------------------------------------------


def audit(system, inputs, tracer, rec, layers) -> str:
    """The final state against the library's own consistency check and
    against the generator's model; returns the extents' hash."""
    t0 = now()
    broken = system.inconsistent_views()
    t1 = now()
    rec.check(not broken, f"check_all: inconsistent views {broken[:5]}")
    extents = system.extents()
    wrong = [name for name, members in extents.items()
             if members != inputs.expected_extents[name]]
    rec.check(not wrong, f"extents differ from the model: {wrong[:5]}")
    if tracer is not None:
        tracer.add("check", t0, t1)
        layers["views.consistency.check_ms"] = _ms(t1 - t0)
    return sut.extent_sha(extents)


# -- one run ------------------------------------------------------------------

MEASURE = {
    "maint-stream": _measure_stream,
    "maint-batch": _measure_batch,
    "serve-mixed": _measure_serve,
    "cold-read": _measure_cold,
}


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Generate, set up, measure and check one workload in this process."""
    tracer = Tracer() if traced else None
    rec = Recorder()
    layers: dict = {}
    t0 = now()
    inputs = generate(name, seed, seconds, smoke)
    gen_s = now() - t0
    if tracer is not None:
        tracer.add("wl.gen", t0, t0 + gen_s)

    setups, system = [], None
    for _ in range(1 if smoke else SETUPS):
        system = None  # drop the previous set-up before timing the next
        gc.collect()
        t0 = now()
        system = build(name, inputs)
        setups.append(now() - t0)
        if tracer is not None:
            tracer.add("wl.setup", t0, t0 + setups[-1])

    recomputes = _Recomputes(system, tracer, rec)
    metrics, info = MEASURE[name](system, inputs, tracer, rec, layers, recomputes)
    extent_sha = audit(system, inputs, tracer, rec, layers)
    metrics["recompute_p50_ms"] = _ms(percentile(recomputes.seconds, 50))
    metrics["setup_s"] = statistics.median(setups)
    if tracer is not None:
        layers["bench.gen_s"] = gen_s
        layers["views.recompute.ms_per_view"] = _ms(
            sum(recomputes.seconds) / len(recomputes.seconds))
        maintain_us = layers.get("views.maintain_us_per_update")
        if maintain_us:
            layers["views.incr_vs_recompute_x"] = (
                layers["views.recompute.ms_per_view"] * 1e3 / maintain_us)
    info.update(inputs_sha=inputs.sha, extent_sha=extent_sha, counts=inputs.counts)
    return {
        "end_to_end": metrics,
        "layers": layers,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.messages,
        "unavailable": rec.unavailable,
        "info": info,
        "tracer": tracer,
    }
