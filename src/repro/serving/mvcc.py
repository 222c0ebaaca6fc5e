"""MVCC-by-epoch serving: pinned frozen snapshots, bounded staleness.

The catalog's one read-path server, and the one owner of a columnar
snapshot (:class:`~repro.gsdb.columnar.ColumnarSnapshot`, built per
server): the write path *publishes* each quiesced state as an
immutable :class:`~repro.gsdb.columnar.EpochView` into a
:class:`~repro.gsdb.columnar.SnapshotRetention` ring, and readers pin a
retained epoch, evaluate on it with the bitset kernel
(:func:`~repro.paths.kernel.evaluate_many_on_snapshot`, WHERE
conditions included via the imaged value column), and unpin — never reading the
live store, never blocking maintenance, never blocked by it.

Freshness is an explicit per-request policy (:class:`FreshnessPolicy`):

``fresh`` (``max_lag_epochs=0``)
    The answer must reflect every applied update.  Served from the
    carry cache when possible; otherwise the read forces a publication
    (briefly serializing with writers — strict freshness is the one
    policy that cannot be wait-free) and evaluates on the new epoch.
``max_lag_epochs=k``
    The answer may trail the newest published state by at most *k*
    publications; an unpublished store tail counts as one more epoch
    of lag.  Served wait-free from any allowed retained epoch.
``any`` (``max_lag_epochs=None``)
    Any retained epoch will do.

Two cache layers keep invalidation precise (DESIGN.md S10):

* The **carry cache** mirrors the *live* store: the
  :class:`~repro.serving.invalidation.Invalidator` screens every
  applied update synchronously and evicts exactly the affected
  entries, so a carry hit is always lag 0.
* Each published epoch owns an immutable **partition**, seeded at
  publication from the carry cache's survivors (valid for the new
  epoch because the carry mirrors the store the instant it is frozen)
  and extended by readers that evaluate on that epoch.  Entries of a
  frozen epoch can never go stale *for that epoch*, so stale-but-
  allowed epochs keep serving from cache while the carry partition
  absorbs all invalidation traffic.

Reader work — kernel sweeps on frozen views, cache bookkeeping, ring
pins — is charged to the server's own ``read_counters``, keeping the
writer's charged maintenance cost byte-comparable with and without
readers (the E20 isolation claim).

Concurrency model (stdlib only, GIL-aware): frozen views are immutable,
so epoch reads take no lock at all during evaluation; one small
``_cache_lock`` guards cache/audit bookkeeping for microseconds per
request; a reentrant ``write_mutex`` serializes writers, forced
publications, and interpreted fallbacks (scoped queries must read the
live store).  A synchronous caller drives the core directly;
:class:`AsyncEpochServer` lifts it into asyncio via
``asyncio.to_thread`` so many in-flight requests overlap with the
(single) writer.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

from repro.errors import QueryEvaluationError
from repro.gsdb.columnar import (
    ColumnarSnapshot,
    PublishedEpoch,
    SnapshotRetention,
)
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.updates import Update
from repro.instrumentation.counters import CostCounters
from repro.paths.automaton import compile_expression
from repro.paths.kernel import evaluate_many_on_snapshot
from repro.query.ast import Query
from repro.query.conditions import filter_candidates
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.serving.cache import QueryCache, cache_key
from repro.serving.invalidation import Invalidator, build_screen


@dataclass(frozen=True)
class FreshnessPolicy:
    """How stale an answer a request will accept.

    ``max_lag_epochs`` counts *published* epochs: 0 demands the exact
    current state, ``k`` allows serving from an epoch at most ``k``
    publications behind the store (an unpublished store tail counts as
    one), and None accepts any retained epoch.
    """

    max_lag_epochs: int | None = 0

    #: Singletons, assigned after the class body.
    FRESH: ClassVar["FreshnessPolicy"]
    ANY: ClassVar["FreshnessPolicy"]

    @classmethod
    def bounded(cls, k: int) -> "FreshnessPolicy":
        """Serve at most *k* published epochs behind the store."""
        if k < 0:
            raise ValueError("max_lag_epochs must be non-negative")
        return cls(max_lag_epochs=k)

    @classmethod
    def parse(cls, spec: "FreshnessPolicy | str | int") -> "FreshnessPolicy":
        """``"fresh"`` / ``"any"`` / an integer lag bound / a policy."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, bool):
            raise ValueError(f"not a freshness policy: {spec!r}")
        if isinstance(spec, int):
            return cls.bounded(spec)
        if isinstance(spec, str):
            text = spec.strip().lower()
            if text == "fresh":
                return cls.FRESH
            if text == "any":
                return cls.ANY
            if text.isdigit():
                return cls.bounded(int(text))
        raise ValueError(f"not a freshness policy: {spec!r}")

    def admits(self, lag: int) -> bool:
        return self.max_lag_epochs is None or lag <= self.max_lag_epochs

    def __str__(self) -> str:
        if self.max_lag_epochs is None:
            return "any"
        if self.max_lag_epochs == 0:
            return "fresh"
        return f"max_lag_epochs={self.max_lag_epochs}"


FreshnessPolicy.FRESH = FreshnessPolicy(0)
FreshnessPolicy.ANY = FreshnessPolicy(None)


@dataclass(frozen=True)
class EpochAnswer:
    """One served answer plus its freshness provenance.

    ``seq`` is the publication number the answer reflects (-1 when the
    answer came straight off the live store); ``lag`` is how many
    published epochs behind the store that state was *at selection
    time*; ``source`` says who produced the bytes (``carry`` /
    ``epoch-cache`` / ``kernel`` / ``interpreted``).
    """

    oids: frozenset[str]
    seq: int
    lag: int
    allowed: int | None
    source: str

    @property
    def cached(self) -> bool:
        return self.source in ("carry", "epoch-cache")


class EpochServer:
    """The synchronous MVCC core (one instance per registry/store).

    Thread-safe by construction: see the module docstring's
    concurrency model.  :class:`AsyncEpochServer` wraps it for asyncio;
    single-threaded callers (tests, benchmarks, the CLI) can drive it
    directly.

    ``apply_fn`` and ``query_fn`` let an owner route writer batches and
    interpreted reads through its own write and read paths: the view
    catalog passes its ``apply_batch`` (views maintained before an
    epoch publishes) and its ``query_oids`` (virtual views refreshed,
    the label index probed).  Without them the server applies to and
    evaluates on its store directly.
    """

    def __init__(
        self,
        registry: DatabaseRegistry,
        *,
        retention_capacity: int = 4,
        cache_size: int = 128,
        parent_index=None,
        cacheable: Callable[[Query], bool] | None = None,
        apply_fn: Callable[[Sequence[Update]], int] | None = None,
        query_fn: Callable[[Query], set[str]] | None = None,
    ) -> None:
        self.registry = registry
        self.store = registry.store
        #: Reader-side currency: kernel sweeps on frozen views, cache
        #: and ring bookkeeping.  Kept apart from the store's counters
        #: so writer maintenance cost is comparable with readers on/off.
        self.read_counters = CostCounters()
        # The server's own columnar image of the store's base, refreshed
        # and frozen on the write path only (by the ring's publish).
        self.retention = SnapshotRetention(
            ColumnarSnapshot(
                self.store,
                is_view_object=getattr(parent_index, "is_view_object", None),
            ),
            capacity=retention_capacity,
            counters=self.read_counters,
        )
        self.cache_size = cache_size
        self._cacheable = cacheable
        self._apply_fn = apply_fn
        self._evaluator = QueryEvaluator(registry)
        self._query_fn = query_fn or self._evaluator.evaluate_oids
        self.carry = QueryCache(cache_size, counters=self.read_counters)
        self.invalidator = Invalidator(
            self.store, self.carry, parent_index=parent_index
        )
        self.carry.on_evict = self.invalidator.forget
        self.store.subscribe(self._on_update)
        #: Serializes writers, forced publications, and interpreted
        #: fallbacks.  Reentrant: catalog wiring publishes from inside
        #: an already-locked apply.
        self.write_mutex = threading.RLock()
        self._cache_lock = threading.Lock()
        # -- freshness audit (every answer is recorded) -------------------
        self.reads = 0
        self.violations = 0
        self.lag_histogram: dict[int, int] = {}
        self.source_counts: dict[str, int] = {}

    # -- write path ---------------------------------------------------------

    def _on_update(self, update: Update) -> None:
        # Store listener: precise carry eviction, serialized with
        # reader cache traffic so the carry never serves a stale entry.
        # Screening exists only to keep the reader-serving carry
        # precise — its cost scales with cache occupancy, not with the
        # update — so its store/index probes are re-charged to the
        # private reader ledger, and its chain walks never fill the
        # parent index's memo, keeping the writer's store-charged cost
        # byte-identical with and without read traffic (E20d).
        # Safe: callers hold write_mutex, and readers never touch the
        # store's counters (frozen views charge read_counters).
        with self._cache_lock:
            saved = self.store.counters
            self.store.counters = self.read_counters
            try:
                self.invalidator.on_update(update)
            finally:
                self.store.counters = saved

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """Apply a writer batch (maintaining views when wired through a
        catalog) and publish the resulting state as a new epoch."""
        updates = list(updates)
        with self.write_mutex:
            if self._apply_fn is not None:
                applied = self._apply_fn(updates)
            else:
                applied = self.store.apply_all(updates)
            self.publish()
            return applied

    def publish(self) -> PublishedEpoch:
        """Publish the store's current state (writer-side; callers hold
        ``write_mutex`` or are otherwise serialized with writers).

        A genuinely new epoch gets its cache partition seeded from the
        carry cache: the carry mirrors the live store at every instant
        (per-update precise invalidation), and the live store *is* the
        new epoch the moment it freezes, so every surviving carry entry
        is a valid answer at this epoch — forever, since the epoch is
        immutable.
        """
        previous = self.retention.latest()
        entry = self.retention.publish()
        if previous is None or entry.seq != previous.seq:
            with self._cache_lock:
                partition = QueryCache(
                    self.cache_size, counters=self.read_counters
                )
                partition._entries.update(self.carry._entries)
                entry.cache = partition
        return entry

    def checkpoint(self) -> PublishedEpoch:
        """Thread-safe :meth:`publish` for out-of-band callers."""
        with self.write_mutex:
            return self.publish()

    # -- read path ----------------------------------------------------------

    def evaluate_oids(self, query: Query | str) -> set[str]:
        """The answer's OID set under the ``fresh`` policy."""
        return set(self.read(query, FreshnessPolicy.FRESH).oids)

    def read(
        self,
        query: Query | str,
        policy: FreshnessPolicy | str | int = FreshnessPolicy.FRESH,
    ) -> EpochAnswer:
        """Serve *query* no staler than *policy* allows."""
        if isinstance(query, str):
            query = parse_query(query)
        policy = FreshnessPolicy.parse(policy)
        answer = self.try_read_cached(query, policy)
        if answer is not None:
            return answer
        return self._read_miss(query, policy)

    def try_read_cached(
        self,
        query: Query | str,
        policy: FreshnessPolicy | str | int = FreshnessPolicy.FRESH,
    ) -> EpochAnswer | None:
        """The wait-free half of :meth:`read`: serve from the carry
        cache or an admissible epoch partition, or return ``None``.

        Never evaluates, pins, publishes, or takes ``write_mutex`` —
        only the short ``_cache_lock`` critical sections — so an event
        loop may call it inline and dispatch to a worker thread only on
        a miss.  A ``None`` is charged nothing; the eventual
        :meth:`_read_miss` charges the one miss.
        """
        if isinstance(query, str):
            query = parse_query(query)
        policy = FreshnessPolicy.parse(policy)
        allowed = policy.max_lag_epochs
        if (
            query.within is not None
            or query.ans_int is not None
            or (self._cacheable is not None and not self._cacheable(query))
        ):
            return None  # scoped/view-dependent: live store only
        entry_oid = self._evaluator._resolve_entry(query.entry)
        key = cache_key(query, entry_oid)
        # 1. The carry cache mirrors the live store: a hit is lag 0
        #    under every policy.  The hit also *re-validates* the
        #    answer into the newest epoch partition: a carry entry is,
        #    by construction, valid at the last published epoch AND
        #    unaffected by every update since (invalidation only ever
        #    removes entries), so promoting it is sound even while a
        #    write batch is mid-apply.  Without promotion, an answer
        #    that stays continuously valid would still age out of
        #    bounded-staleness windows — each partition only remembers
        #    what was evaluated or carried *during its own epoch*.
        with self._cache_lock:
            answer = self._probe(self.carry, key)
            if answer is not None:
                # Read under the lock: a publish after it may follow an
                # update that invalidates this answer.
                latest = self.retention.latest()
                seq = -1 if latest is None else latest.seq
                if latest is not None and not latest.reclaimed:
                    if latest.cache is None:
                        latest.cache = QueryCache(
                            self.cache_size, counters=self.read_counters
                        )
                    latest.cache.store(key, answer)
        if answer is not None:
            return self._serve(answer, seq, 0, allowed, "carry")
        # 2. Stale-but-allowed epoch partitions, newest first.
        hit: tuple[frozenset[str], int, int] | None = None
        with self._cache_lock:
            for entry, lag in self._candidates(allowed):
                if entry.cache is None:
                    continue
                answer = self._probe(entry.cache, key)
                if answer is not None:
                    hit = (answer, entry.seq, lag)
                    break
        if hit is not None:
            answer, seq, lag = hit
            return self._serve(answer, seq, lag, allowed, "epoch-cache")
        return None

    def _read_miss(
        self, query: Query, policy: FreshnessPolicy
    ) -> EpochAnswer:
        """The blocking half of :meth:`read` (cache probes missed)."""
        allowed = policy.max_lag_epochs
        if (
            query.within is not None
            or query.ans_int is not None
            or (self._cacheable is not None and not self._cacheable(query))
        ):
            # Scoped or view-dependent: epoch images cannot answer it
            # (a ScopedStore must stay in the loop; view delegates
            # change outside the update stream).  Read the live store,
            # serialized with writers — exact current state, lag 0.
            with self.write_mutex:
                oids = frozenset(self._query_fn(query))
                seq = self._latest_seq()
            return self._serve(oids, seq, 0, allowed, "interpreted")
        entry_oid = self._evaluator._resolve_entry(query.entry)
        key = cache_key(query, entry_oid)
        # 3. Miss: pin the newest allowed epoch (publishing one when
        #    nothing retained satisfies the policy) and evaluate on its
        #    frozen view with the bitset kernel.
        target, lag = self._pin_target(self._candidates(allowed))
        try:
            oids = frozenset(
                self._evaluate_on_epoch(target.view, query, entry_oid)
            )
        finally:
            self.retention.unpin(target)
        with self._cache_lock:
            if target.cache is None:
                target.cache = QueryCache(
                    self.cache_size, counters=self.read_counters
                )
            target.cache.store(key, oids)
            latest = self.retention.latest()
            if (
                latest is not None
                and latest.seq == target.seq
                and not self.retention.store_dirty()
            ):
                # The evaluated epoch still mirrors the live store, so
                # the answer may enter the carry cache (and from there
                # seed future partitions), precisely invalidated from
                # here on.  A store that moved mid-evaluation skips
                # this — the epoch partition alone remembers the
                # answer, at its own epoch.
                self.carry.store(key, oids)
                self.invalidator.register(build_screen(key, self.registry))
        return self._serve(oids, target.seq, lag, allowed, "kernel")

    # -- read-path helpers --------------------------------------------------

    def _latest_seq(self) -> int:
        latest = self.retention.latest()
        return -1 if latest is None else latest.seq

    def _probe(self, cache: QueryCache, key) -> frozenset[str] | None:
        """Uncharged cache probe: one read may consult several
        partitions, but hit/miss is charged once per request
        (:meth:`_serve`), not once per partition."""
        answer = cache._entries.get(key)
        if answer is not None:
            cache._entries.move_to_end(key)
        return answer

    def _candidates(
        self, allowed: int | None
    ) -> list[tuple[PublishedEpoch, int]]:
        """Retained epochs admissible under *allowed*, newest first."""
        entries = self.retention.entries()
        if not entries:
            return []
        newest = entries[-1].seq
        extra = 1 if self.retention.store_dirty() else 0
        out: list[tuple[PublishedEpoch, int]] = []
        for entry in reversed(entries):
            lag = (newest - entry.seq) + extra
            if allowed is None or lag <= allowed:
                out.append((entry, lag))
        return out

    def _pin_target(self, candidates) -> tuple[PublishedEpoch, int]:
        """Pin the newest admissible epoch, minting one if needed.

        A candidate can be reclaimed between listing and pinning
        (capacity churn); publication always yields a pinnable latest,
        so the retry loop terminates.
        """
        for attempt in range(8):
            if candidates:
                target, lag = candidates[0]
            else:
                with self.write_mutex:
                    target = self.publish()
                lag = 0
            if self.retention.pin(target):
                return target, lag
            candidates = []  # republish and retry
        raise QueryEvaluationError(
            "could not pin a retained epoch (retention churn)"
        )  # pragma: no cover - requires pathological concurrent reclaim

    def _serve(
        self,
        oids: frozenset[str],
        seq: int,
        lag: int,
        allowed: int | None,
        source: str,
    ) -> EpochAnswer:
        with self._cache_lock:
            self.reads += 1
            self.lag_histogram[lag] = self.lag_histogram.get(lag, 0) + 1
            self.source_counts[source] = self.source_counts.get(source, 0) + 1
            if allowed is not None and lag > allowed:
                self.violations += 1  # pragma: no cover - by construction
            if source in ("carry", "epoch-cache"):
                self.read_counters.query_cache_hits += 1
            else:
                self.read_counters.query_cache_misses += 1
        return EpochAnswer(oids, seq, lag, allowed, source)

    # -- epoch-pinned evaluation -------------------------------------------

    def _evaluate_on_epoch(self, view, query: Query, entry_oid: str) -> set[str]:
        nfa = compile_expression(query.select_path)
        candidates = evaluate_many_on_snapshot(view, nfa, [entry_oid])[
            entry_oid
        ]
        if query.condition is not None:
            candidates = filter_candidates(
                candidates, query.condition, *_epoch_readers(view)
            )
        return candidates

    # -- introspection ------------------------------------------------------

    def hit_rate(self) -> float:
        counters = self.read_counters
        total = counters.query_cache_hits + counters.query_cache_misses
        return counters.query_cache_hits / total if total else 0.0

    def freshness_report(self) -> dict:
        """Audit summary: every served answer's lag, by the numbers."""
        with self._cache_lock:
            return {
                "reads": self.reads,
                "violations": self.violations,
                "lag_histogram": dict(sorted(self.lag_histogram.items())),
                "sources": dict(sorted(self.source_counts.items())),
            }

    def stats(self) -> dict[str, int]:
        counters = self.read_counters
        return {
            "hits": counters.query_cache_hits,
            "misses": counters.query_cache_misses,
            "pins": counters.snapshot_pins,
            "published": counters.epochs_published,
            "reclaimed": counters.epochs_reclaimed,
            "invalidations": counters.query_cache_invalidations,
            "carry_entries": len(self.carry),
            "retained": len(self.retention.entries()),
        }


def _epoch_readers(view):
    """:func:`~repro.query.conditions.filter_candidates`' sweep and
    value reader over a frozen view: one bitset-kernel sweep per WHERE
    leaf, values from the imaged value column."""

    def members(starts, path):
        return evaluate_many_on_snapshot(view, compile_expression(path), starts)

    def value(oid):
        row = view.row(oid)
        return None if row is None else view.atomic_value(row)

    return members, value


class AsyncEpochServer:
    """The asyncio front door over an :class:`EpochServer`.

    A read first tries the core's wait-free cache probe inline on the
    event loop (:meth:`EpochServer.try_read_cached` — microseconds, no
    evaluation, no ``write_mutex``); only misses dispatch to worker
    threads (``asyncio.to_thread``) where they evaluate on pinned
    immutable epoch views.  Any number of reads may be in flight while
    the single writer applies and publishes batches; the core's
    ``write_mutex`` is the only writer-side serialization.  All methods
    are safe to call concurrently from one event loop.
    """

    def __init__(self, core: EpochServer) -> None:
        self.core = core

    async def read(
        self,
        query: Query | str,
        policy: FreshnessPolicy | str | int = FreshnessPolicy.FRESH,
    ) -> EpochAnswer:
        if isinstance(query, str):
            query = parse_query(query)
        policy = FreshnessPolicy.parse(policy)
        answer = self.core.try_read_cached(query, policy)
        if answer is not None:
            return answer
        return await asyncio.to_thread(self.core._read_miss, query, policy)

    async def apply_batch(self, updates: Iterable[Update]) -> int:
        return await asyncio.to_thread(self.core.apply_batch, list(updates))

    async def publish(self) -> PublishedEpoch:
        return await asyncio.to_thread(self.core.checkpoint)

    # Synchronous pass-throughs (cheap introspection, no store reads).

    def freshness_report(self) -> dict:
        return self.core.freshness_report()

    def stats(self) -> dict[str, int]:
        return self.core.stats()

    def hit_rate(self) -> float:
        return self.core.hit_rate()


__all__ = [
    "AsyncEpochServer",
    "EpochAnswer",
    "EpochServer",
    "FreshnessPolicy",
]
