"""Mixed read/update workloads for the serving layer (experiment E16).

Drives an :class:`~repro.serving.mvcc.EpochServer` at the ``fresh``
policy with an interleaved stream of reads (drawn from a deterministic
query pool over a layered tree) and valid random updates
(:class:`~repro.workloads.updates.UpdateStream`), auditing served
answers against fresh uncached evaluation with the byte-equality
oracle (:func:`repro.chaos.oracle.audit_serving`) along the way.  Shared by
benchmark E16, the ``bench-serve`` shell command, and the CI smoke job.

Hit/miss/invalidation statistics are accumulated per workload step so
oracle audits (which read through the same cache) do not distort them.
Each statistic sums both ledgers: the store's counters (the writer's)
and the server's private ``read_counters`` (cache and kernel work).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chaos.oracle import audit_serving
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.serving.mvcc import EpochServer
from repro.workloads.generators import TreeSpec, layered_tree
from repro.workloads.updates import UpdateMix, UpdateStream


def build_query_pool(
    root: str,
    spec: TreeSpec,
    *,
    conditions: bool = True,
    store=None,
) -> list[str]:
    """A deterministic pool of queries over a layered tree.

    One unconditioned prefix query per depth from the root, plus
    (optionally) threshold conditions over the remaining suffix path.
    With *store*, subtree-entry queries (entered at each of the root's
    children) join the pool — those exercise the invalidator's
    reachability screen, since updates in one subtree must not evict
    another subtree's answers.
    """
    pool: list[str] = []
    for k in range(1, spec.depth + 1):
        path = ".".join(spec.labels[:k])
        pool.append(f"SELECT {root}.{path} X")
    if store is not None and spec.depth >= 2:
        deep = ".".join(spec.labels[1:])
        for entry in sorted(store.get(root).children()):
            pool.append(f"SELECT {entry}.{deep} X")
            if conditions and spec.depth >= 3:
                head = spec.labels[1]
                rest = ".".join(spec.labels[2:])
                pool.append(
                    f"SELECT {entry}.{head} X WHERE X.{rest} > 50"
                )
    if conditions:
        for k in range(1, spec.depth):
            path = ".".join(spec.labels[:k])
            rest = ".".join(spec.labels[k:])
            for threshold in (25, 50, 75):
                pool.append(
                    f"SELECT {root}.{path} X WHERE X.{rest} > {threshold}"
                )
    return pool


@dataclass
class ServingRunResult:
    """Outcome of one mixed read/update serving run."""

    steps: int
    reads: int
    updates: int
    read_hits: int
    read_misses: int
    evictions: int
    invalidations: int
    oracle_checks: int
    oracle_mismatches: int
    stale_reads: list[str] = field(default_factory=list)
    per_update_invalidations: list[int] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    @property
    def mean_invalidations_per_update(self) -> float:
        if not self.per_update_invalidations:
            return 0.0
        return sum(self.per_update_invalidations) / len(
            self.per_update_invalidations
        )


def run_serving_workload(
    *,
    seed: int = 0,
    steps: int = 400,
    read_ratio: float = 0.9,
    cache_size: int = 64,
    spec: TreeSpec | None = None,
    audit_every: int = 50,
    mix: UpdateMix | None = None,
    skew: float = 0.0,
    server: EpochServer | None = None,
    pool: list[str] | None = None,
) -> ServingRunResult:
    """Run an interleaved read/update stream against an epoch server.

    With the default arguments the base is a fresh layered tree and the
    server is built over it (with a parent index); pass *server* and
    *pool* to reuse an environment.  ``audit_every`` > 0 re-audits the
    whole pool every that many steps (and once at the end) — a sound
    invalidator yields zero mismatches.  ``skew`` > 0 draws reads with
    Zipf-like popularity (query *i* weighted ``(i+1)**-skew``) instead
    of uniformly — the usual shape of read-heavy serving traffic.
    """
    protected: set[str] = set()
    if server is None:
        spec = spec if spec is not None else TreeSpec(depth=4, seed=seed + 17)
        store, root = layered_tree(spec)
        server = EpochServer(
            DatabaseRegistry(store),
            parent_index=ParentIndex(store),
            cache_size=cache_size,
        )
        protected.add(root)
        if pool is None:
            pool = build_query_pool(root, spec, store=store)
    elif pool is None:
        raise ValueError("a reused server needs an explicit query pool")
    ledgers = (server.store.counters, server.read_counters)

    def counted(name: str) -> int:
        return sum(getattr(ledger, name) for ledger in ledgers)

    protected |= server.registry.grouping_oids()
    stream = UpdateStream(
        server.store,
        seed=seed + 1,
        mix=mix if mix is not None else UpdateMix(),
        protected=frozenset(protected),
        protected_prefixes=("ANS",),
    )
    rng = random.Random(seed)
    weights = [(i + 1) ** -skew for i in range(len(pool))]
    result = ServingRunResult(
        steps=0,
        reads=0,
        updates=0,
        read_hits=0,
        read_misses=0,
        evictions=0,
        invalidations=0,
        oracle_checks=0,
        oracle_mismatches=0,
    )

    def audit() -> None:
        for verdict in audit_serving(server, pool):
            result.oracle_checks += 1
            if not verdict.consistent:
                result.oracle_mismatches += 1
                result.stale_reads.append(verdict.describe())

    for step in range(steps):
        result.steps += 1
        if rng.random() < read_ratio:
            hits_before = counted("query_cache_hits")
            misses_before = counted("query_cache_misses")
            evictions_before = counted("query_cache_evictions")
            server.read(rng.choices(pool, weights=weights)[0], "fresh")
            result.reads += 1
            result.read_hits += counted("query_cache_hits") - hits_before
            result.read_misses += counted("query_cache_misses") - misses_before
            result.evictions += (
                counted("query_cache_evictions") - evictions_before
            )
        else:
            invalidations_before = counted("query_cache_invalidations")
            evictions_before = counted("query_cache_evictions")
            if stream.step() is not None:
                result.updates += 1
                fired = (
                    counted("query_cache_invalidations")
                    - invalidations_before
                )
                result.invalidations += fired
                result.per_update_invalidations.append(fired)
                result.evictions += (
                    counted("query_cache_evictions") - evictions_before
                )
        if audit_every and (step + 1) % audit_every == 0:
            audit()
    audit()
    return result
