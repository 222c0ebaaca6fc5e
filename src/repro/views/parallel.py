"""Parallel multi-view maintenance over a sharded store.

:class:`ParallelDispatcher` splits :class:`~repro.views.dispatcher.
MaintenanceDispatcher`'s per-batch work into the phase that dominates
it — *screening*, each update's probe of the dispatcher's definition
index with the relevance walks up the tree it triggers — and the
*apply* phase that mutates view extents.  The
screening phase fans out to a thread pool, one task per shard of the
underlying :class:`~repro.gsdb.sharding.ShardedStore`; the apply phase
stays serial and runs in the batch's original intake order.

Why this split preserves the single-threaded semantics exactly:

1. **Screening is read-only over a frozen state.**  Dispatch happens
   only after the whole batch is applied to the base (the superclass's
   ``batch()``/``handle_batch`` contract), so every worker reads the
   same final state and no worker writes to the store, the indexes, or
   the views.  Workers touch shared structures exclusively through
   uncharged reads (``peek``, raw parent-map lookups) and charge their
   work to *private* per-shard counters, so there are no data races and
   no racy ``+=`` on shared counters.

2. **The unit of parallelism is the shard, not the thread.**  Each
   update is screened by the task for the shard that *owns* it (the
   edge's parent shard; the modified object's shard — the same routing
   :meth:`~repro.gsdb.sharding.ShardedStore.owner` uses to apply it).
   A task processes its updates in intake order with its own private
   path memo.  Thread count only changes how tasks interleave on the
   pool, never what any task computes — so verdicts, memo contents,
   and per-shard counter deltas are identical with 1 or 8 workers.

3. **The merge is deterministic.**  After the pool joins, per-shard
   results merge in ascending shard order: counter deltas add into
   each shard's own counters, and the workers' path memos graft into
   one shared :class:`~repro.views.dispatcher.PathContext` (memo
   entries computed by different shards for the same key are equal —
   they describe the same final state — so merge order cannot change a
   value).  The apply phase then replays the batch in global intake
   order, consulting the precomputed verdicts, which is observably the
   same schedule the serial dispatcher runs — hence identical view
   extents and identical update-log order (the determinism test of
   ``tests/views/test_parallel.py``).

Because screening charges land on the counters of the shard that owns
each update, experiment E17 can report the *critical path* of a batch
— ``max`` over shards of the per-shard cost — which is the wall-clock
model of a real deployment with one maintenance worker per shard (the
thread pool here buys no CPU parallelism under the GIL; the logical
cost model is the honest metric, as everywhere in this repo).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.errors import UnknownObjectError
from repro.gsdb.sharding import ShardedParentIndex, ShardedStore
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Update
from repro.instrumentation.counters import CostCounters
from repro.views.dispatcher import (
    MaintenanceDispatcher,
    PathContext,
    _DefinitionIndex,
    _Registration,
)


class _ShardReadView:
    """Store facade for one screening task: real data, private charges.

    Reads go through the sharded store's uncharged ``peek`` so
    concurrent tasks never touch shared counters; the charges the real
    store would have made land on this task's private counters instead.
    """

    __slots__ = ("_store", "counters", "peek")

    def __init__(self, store, counters: CostCounters) -> None:
        self._store = store
        self.counters = counters
        self.peek = store.peek

    def get_optional(self, oid: str):
        self.counters.object_reads += 1
        return self._store.peek(oid)

    def get(self, oid: str):
        self.counters.object_reads += 1
        obj = self._store.peek(oid)
        if obj is None:
            raise UnknownObjectError(oid)
        return obj


class _ShardIndexView:
    """Parent-index facade for one screening task.

    Mirrors the lookup surface screening reaches (``parent`` /
    ``parents`` / ``memoized_path`` / ``memoized_chain`` /
    ``chain_to_top``) over *uncharged* reads of the real index's maps,
    charging the walk to the task's private counters with the same
    pattern as :meth:`~repro.gsdb.indexes.ParentIndex._upward_chain`
    (one read + probe per node, one traversal per hop, a private chain
    memo with suffix caching).  The real index's memo is neither read
    nor written — it stays race-free and is warmed later by the merge.
    """

    __slots__ = ("_index", "_store", "counters", "_chain_cache")

    def __init__(self, index, store, counters: CostCounters) -> None:
        self._index = index
        self._store = store
        self.counters = counters
        self._chain_cache: dict[
            str, tuple[tuple[tuple[str, str], ...], bool]
        ] = {}

    def _parents_uncharged(self, oid: str) -> set[str]:
        index = self._index
        if isinstance(index, ShardedParentIndex):
            return index._raw_parents(oid, charged=False)
        return {
            p
            for p in index._parents.get(oid, ())
            if not index._is_ignored(p)
        }

    def parents(self, oid: str) -> set[str]:
        self.counters.index_probes += 1
        return self._parents_uncharged(oid)

    def parent(self, oid: str) -> str | None:
        self.counters.index_probes += 1
        parents = self._parents_uncharged(oid)
        if not parents:
            return None
        if len(parents) > 1:
            raise ValueError(
                f"object {oid!r} has {len(parents)} parents; "
                "base is not a tree"
            )
        return next(iter(parents))

    def _upward_chain(
        self, oid: str
    ) -> tuple[tuple[tuple[str, str], ...], bool]:
        counters = self.counters
        cached = self._chain_cache.get(oid)
        if cached is not None:
            counters.index_probes += 1
            counters.chain_cache_hits += 1
            return cached
        counters.chain_cache_misses += 1
        entries: list[tuple[str, str]] = []
        stopped_at_multi = False
        current = oid
        while True:
            obj = self._store.peek(current)
            if obj is None:
                break
            counters.object_reads += 1
            entries.append((current, obj.label))
            counters.index_probes += 1
            parents = self._parents_uncharged(current)
            if not parents:
                break
            if len(parents) > 1:
                stopped_at_multi = True
                break
            counters.edge_traversals += 1
            current = next(iter(parents))
        result = (tuple(entries), stopped_at_multi)
        self._chain_cache[oid] = result
        for i in range(1, len(entries)):
            self._chain_cache.setdefault(
                entries[i][0], (result[0][i:], stopped_at_multi)
            )
        return result

    def _scan_chain(
        self, ancestor: str, descendant: str
    ) -> tuple[tuple[tuple[str, str], ...], int] | None:
        chain, stopped_at_multi = self._upward_chain(descendant)
        if not chain or chain[0][0] != descendant:
            return None
        for i, (oid, _label) in enumerate(chain):
            if oid == ancestor:
                return chain, i
        if stopped_at_multi:
            top = chain[-1][0]
            raise ValueError(
                f"object {top!r} has multiple parents; base is not a tree"
            )
        return None

    def memoized_path(
        self, ancestor: str, descendant: str
    ) -> list[str] | None:
        located = self._scan_chain(ancestor, descendant)
        if located is None:
            return None
        chain, i = located
        labels = [label for (_oid, label) in chain[:i]]
        labels.reverse()
        return labels

    def memoized_chain(
        self, ancestor: str, descendant: str
    ) -> list[str] | None:
        located = self._scan_chain(ancestor, descendant)
        if located is None:
            return None
        chain, i = located
        oids = [entry_oid for (entry_oid, _lab) in chain[: i + 1]]
        oids.reverse()
        return oids

    def chain_to_top(self, oid: str) -> tuple[tuple[str, ...], bool]:
        chain, stopped_at_multi = self._upward_chain(oid)
        return (
            tuple(entry_oid for entry_oid, _label in chain),
            stopped_at_multi,
        )


class _ShardScreenTask:
    """One shard's screening work: matches + memos + private charges."""

    __slots__ = ("items", "index", "ctx", "counters", "matched")

    def __init__(
        self,
        store,
        parent_index,
        items: list[tuple[int, Update]],
        index: _DefinitionIndex,
        *,
        batched: bool,
    ) -> None:
        self.items = items
        self.index = index
        self.counters = CostCounters()
        read_view = _ShardReadView(store, self.counters)
        index_view = (
            _ShardIndexView(parent_index, store, self.counters)
            if parent_index is not None
            else None
        )
        self.ctx = PathContext(read_view, index_view, batched=batched)
        #: update position -> matching registrations, registration order.
        self.matched: dict[int, list[_Registration]] = {}

    def run(self) -> None:
        for i, update in self.items:
            self.matched[i] = list(self.index.matching(update, self.ctx))


class ParallelDispatcher(MaintenanceDispatcher):
    """A maintenance dispatcher with per-shard parallel screening.

    Drop-in for :class:`~repro.views.dispatcher.MaintenanceDispatcher`
    (same registration, batching, and subscription surface).  Over a
    plain :class:`~repro.gsdb.store.ObjectStore` — or with a single
    shard, a single worker, or a single-update batch — it degrades to
    the serial dispatcher.

    Attributes:
        workers: thread-pool width; tasks (one per non-empty shard) are
            independent, so this bounds concurrency without affecting
            any result (the determinism contract above).
        parallel_batches: batches that took the fan-out path.
    """

    def __init__(
        self,
        store: ObjectStore | ShardedStore,
        *,
        parent_index=None,
        subscribe: bool = False,
        workers: int = 4,
    ) -> None:
        super().__init__(
            store, parent_index=parent_index, subscribe=subscribe
        )
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.parallel_batches = 0

    # -- routing -------------------------------------------------------------

    def _shard_count(self) -> int:
        return getattr(self.store, "shard_count", 1)

    def _owner(self, update: Update) -> int:
        owner = getattr(self.store, "owner", None)
        return owner(update) if owner is not None else 0

    # -- dispatch ------------------------------------------------------------

    def _dispatch(
        self, updates: Sequence[Update], *, batched: bool = False
    ) -> None:
        shards = self._shard_count()
        index = self._definition_index()
        if shards <= 1 or len(updates) <= 1 or not index.screened:
            super()._dispatch(updates, batched=batched)
            return
        # Phase 1: group by owning shard (intake order kept per shard)
        # and screen every update against the definition index on the
        # pool.
        by_shard: list[list[tuple[int, Update]]] = [[] for _ in range(shards)]
        for i, update in enumerate(updates):
            by_shard[self._owner(update)].append((i, update))
        tasks = [
            _ShardScreenTask(
                self.store,
                self.parent_index,
                items,
                index,
                batched=batched,
            )
            for items in by_shard
        ]
        live = [task for task in tasks if task.items]
        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(live))
        ) as pool:
            for future in [pool.submit(task.run) for task in live]:
                future.result()  # propagate screening errors
        # Phase 2: deterministic merge, ascending shard order.  Charges
        # go to the owning shard's counters (the critical-path model);
        # memos graft into the shared apply context (equal keys hold
        # equal values — all describe the same final state).
        context = PathContext(
            self.store, self.parent_index, batched=batched
        )
        matched: dict[int, list[_Registration]] = {}
        for shard, task in enumerate(tasks):
            if not task.items:
                continue
            self._shard_sink(shard).add(task.counters)
            context._labels.update(task.ctx._labels)
            context._paths.update(task.ctx._paths)
            context._chains.update(task.ctx._chains)
            context._chain_sets.update(task.ctx._chain_sets)
            matched.update(task.matched)
        # Phase 3: serial apply in global intake order — observably the
        # serial dispatcher's schedule with screening answers prepaid.
        counters = self.store.counters
        for i, update in enumerate(updates):
            self.updates_dispatched += 1
            counters.updates_screened += index.registered - len(matched[i])
            for entry in matched[i]:
                entry.deliver(update, context)
        self.parallel_batches += 1

    def _shard_sink(self, shard: int) -> CostCounters:
        """Where shard *shard*'s screening charges accumulate."""
        shard_counters = getattr(self.store, "shard_counters", None)
        if shard_counters is not None:
            return shard_counters(shard)
        return self.store.counters


def critical_path_cost(store: ShardedStore) -> int:
    """The batch-cost model of one maintenance worker per shard: the
    busiest shard's base accesses (reads + scans + traversals).

    With per-shard charging (the sharded store's reads and the
    dispatcher's screening both land on the owning shard), total work
    is conserved across shard counts while the max shrinks — the E17
    scaling curve.
    """
    return max(
        shard.counters.total_base_accesses()
        for shard in store.shard_stores()
    )


__all__ = ["ParallelDispatcher", "critical_path_cost"]
