"""Sharded object stores: OID-hash partitioning with a border index.

The paper's warehouse (Section 5) assumes one source feeding one store.
Serving heavy multi-view traffic demands partitioning the GSDB so
maintenance can proceed shard-by-shard (MV4PG shows materialized graph
views pay off exactly when maintenance parallelizes over partitions;
Szárnyas demonstrates incremental property-graph maintenance decomposes
over edge-partitioned workloads).  This module supplies the storage
half of that story; :mod:`repro.views.parallel` supplies the dispatch
half.

:class:`ShardedStore`
    N independent :class:`~repro.gsdb.store.ObjectStore` shards behind
    the exact read/write surface of a single store.  Objects are placed
    by a *deterministic* OID hash (CRC-32, never Python's seeded
    ``hash``), so placement — and every benchmark count derived from it
    — is identical across processes and ``PYTHONHASHSEED`` values.
    Edge updates are applied at the shard owning the **parent** (the
    edge lives in the parent's value), so each shard's update log is
    exactly the sub-stream a per-shard maintenance worker consumes;
    per-shard sequence numbers stamp that sub-stream.  Each shard
    charges its own :class:`~repro.instrumentation.counters.
    CostCounters`, which is what lets experiment E17 report the
    *critical path* (the busiest shard) rather than just total work.

:class:`BorderIndex`
    The cross-shard edge catalogue: every edge whose parent and child
    hash to different shards, in both directions.  Upward resolution
    (``path(ROOT, N)``, the hot evaluation function of Algorithm 1)
    cannot stay inside one shard when a chain crosses a border — the
    child's shard has no record of the edge — so border lookups are the
    routing step between per-shard parent indexes.  Lookups charge the
    dedicated ``border_probes`` counter.

:class:`ShardedParentIndex`
    The inverse index of Section 4.4, decomposed: one
    :class:`~repro.gsdb.indexes.ParentIndex` per shard (each sees only
    its own shard's edges) stitched together through the border index,
    plus a memoized stitched chain cache mirroring the single-store
    index's.  Duck-types everything maintainers and the serving
    invalidator use (``parent`` / ``parents`` / ``memoized_path`` /
    ``memoized_chain`` / ``chain_to_top`` / ``ignore_*``).

Semantics are bit-for-bit those of the single store: the same updates
are legal, the same update log order is produced, and
``oids()``/``scan()`` iterate in the same global sorted order.  The
stateful oracle suite (``tests/property/test_sharded_model.py``) pins
``ShardedStore(n) ≡ ObjectStore`` byte-equality for every operation
interleaving it can generate.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Iterator

from repro.errors import (
    DuplicateObjectError,
    InvalidUpdateError,
    UnknownObjectError,
)
from repro.gsdb.indexes import ParentIndex, has_dotted_prefix_in
from repro.gsdb.object import AtomicValue, Object
from repro.gsdb.store import ObjectStore, TreeSpec
from repro.gsdb.updates import (
    Delete,
    Insert,
    Modify,
    Update,
    UpdateListener,
    UpdateLog,
)


def shard_of(oid: str, shards: int) -> int:
    """The home shard of *oid*: CRC-32 of the OID, mod *shards*.

    Deliberately not Python's ``hash`` — that is salted per process
    (``PYTHONHASHSEED``), and shard placement must be stable so logs,
    benchmarks, and replicas agree on ownership.
    """
    return zlib.crc32(oid.encode("utf-8")) % shards


class BorderIndex:
    """Cross-shard parent/child edges, indexed in both directions.

    Maintained by :class:`ShardedStore` as edges are applied (and as
    pre-built set objects are registered), never consulted for
    same-shard edges.  ``parents_across``/``children_across`` charge
    ``border_probes`` on the sharded store's global counters — they are
    the metered routing hops of cross-shard path evaluation.
    """

    def __init__(self, counters) -> None:
        self._counters = counters
        #: child OID -> parents living on a *different* shard.
        self._parents: dict[str, set[str]] = {}
        #: parent OID -> children living on a *different* shard.
        self._children: dict[str, set[str]] = {}
        self._edges = 0

    # -- maintenance (driven by ShardedStore) -------------------------------

    def add_edge(self, parent: str, child: str) -> None:
        self._parents.setdefault(child, set()).add(parent)
        self._children.setdefault(parent, set()).add(child)
        self._edges += 1

    def remove_edge(self, parent: str, child: str) -> None:
        parents = self._parents.get(child)
        if parents is not None and parent in parents:
            parents.discard(parent)
            if not parents:
                del self._parents[child]
            self._edges -= 1
        children = self._children.get(parent)
        if children is not None:
            children.discard(child)
            if not children:
                del self._children[parent]

    def forget(self, oid: str) -> None:
        """Drop every border edge adjacent to a removed object."""
        for child in sorted(self._children.pop(oid, ())):
            parents = self._parents.get(child)
            if parents is not None and oid in parents:
                parents.discard(oid)
                if not parents:
                    del self._parents[child]
                self._edges -= 1
        for parent in sorted(self._parents.pop(oid, ())):
            children = self._children.get(parent)
            if children is not None:
                children.discard(oid)
                if not children:
                    del self._children[parent]
            self._edges -= 1

    # -- lookup --------------------------------------------------------------

    def parents_across(self, oid: str) -> set[str]:
        """Parents of *oid* that live on another shard (one probe)."""
        self._counters.border_probes += 1
        return set(self._parents.get(oid, ()))

    def children_across(self, oid: str) -> set[str]:
        """Children of *oid* that live on another shard (one probe)."""
        self._counters.border_probes += 1
        return set(self._children.get(oid, ()))

    def has_cross_parents(self, oid: str) -> bool:
        """Uncharged membership test (internal screening/bookkeeping)."""
        return bool(self._parents.get(oid))

    def is_border(self, parent: str, child: str) -> bool:
        """Uncharged: is ``parent -> child`` a recorded border edge?"""
        return child in self._children.get(parent, ())

    def peek_parents(self, oid: str) -> set[str]:
        """Uncharged ``parents_across`` for metadata maintenance."""
        return set(self._parents.get(oid, ()))

    def __len__(self) -> int:
        return self._edges

    def edges(self) -> list[tuple[str, str]]:
        """All border edges, sorted (introspection for tests/benches)."""
        return sorted(
            (parent, child)
            for parent, children in self._children.items()
            for child in children
        )


class ShardedStore:
    """N :class:`ObjectStore` shards behind one store-shaped surface.

    Args:
        shards: partition count (>= 1).
        counters: optional shared *global* counters for store-level
            work (border probes, index charges by global subscribers);
            per-shard base accesses are charged to each shard's own
            counters — see :meth:`shard_counters` /
            :meth:`combined_counters`.
        check_references: as for :class:`ObjectStore`; the check runs
            globally here (a child may live on any shard), and the
            shards themselves run unchecked.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        counters: "CostCounters | None" = None,
        check_references: bool = True,
    ) -> None:
        from repro.instrumentation.counters import CostCounters

        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.counters = counters if counters is not None else CostCounters()
        self.check_references = check_references
        self._shards = [
            ObjectStore(check_references=False) for _ in range(shards)
        ]
        self.border = BorderIndex(self.counters)
        self.log = UpdateLog()
        self._shard_seq = [0] * shards
        self._listeners: list[UpdateListener] = []
        self._creation_listeners: list[Callable[[Object], None]] = []
        self._removal_listeners: list[Callable[[Object], None]] = []
        self._sorted_oids: list[str] | None = None

    # -- partitioning ---------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_of(self, oid: str) -> int:
        """The shard that owns *oid* (pure function of the OID)."""
        return shard_of(oid, len(self._shards))

    def shard_stores(self) -> list[ObjectStore]:
        """The per-shard stores, in shard order (do not mutate directly
        — all writes must go through the sharded surface so the border
        index and the global log stay consistent)."""
        return list(self._shards)

    def shard_counters(self, shard: int) -> "CostCounters":
        """Shard *shard*'s private cost counters."""
        return self._shards[shard].counters

    def shard_sequences(self) -> tuple[int, ...]:
        """Per-shard update sequence numbers (count of updates applied
        at each shard; an update's home shard is its anchor's shard)."""
        return tuple(self._shard_seq)

    def owner(self, update: Update) -> int:
        """The shard an update is applied at: the edge's parent shard
        for insert/delete (the edge lives in the parent's value), the
        object's shard for modify."""
        if isinstance(update, Modify):
            return self.shard_of(update.oid)
        return self.shard_of(update.parent)

    def combined_counters(self) -> "CostCounters":
        """Global counters plus every shard's, as one snapshot."""
        total = self.counters.snapshot()
        for shard in self._shards:
            total.add(shard.counters)
        return total

    # -- population -----------------------------------------------------------

    def add_object(self, obj: Object) -> Object:
        """Register a new object at its home shard.

        Mirrors :meth:`ObjectStore.add_object` exactly — including the
        absence of reference checking (creation is not a basic update;
        only :meth:`add_set` validates children).
        """
        home = self._shards[self.shard_of(obj.oid)]
        if obj.oid in home:
            raise DuplicateObjectError(obj.oid)
        home.add_object(obj)
        self._sorted_oids = None
        if obj.is_set:
            self._register_border_edges(obj)
        for listener in self._creation_listeners:
            listener(obj)
        return obj

    def _register_border_edges(self, obj: Object) -> None:
        home = self.shard_of(obj.oid)
        for child in obj.children():
            if self.shard_of(child) != home:
                self.border.add_edge(obj.oid, child)

    def add_atomic(
        self, oid: str, label: str, value: AtomicValue, type: str | None = None
    ) -> Object:
        return self.add_object(Object.atomic(oid, label, value, type))

    def add_set(
        self, oid: str, label: str, children: Iterable[str] = ()
    ) -> Object:
        children = list(children)
        if self.check_references:
            for child in children:
                if child not in self:
                    raise UnknownObjectError(child)
        return self.add_object(Object.set_object(oid, label, children))

    def remove_object(self, oid: str) -> Object:
        obj = self._shards[self.shard_of(oid)].remove_object(oid)
        self._sorted_oids = None
        self.border.forget(oid)
        for listener in self._removal_listeners:
            listener(obj)
        return obj

    # -- lookup ---------------------------------------------------------------

    def get(self, oid: str) -> Object:
        return self._shards[self.shard_of(oid)].get(oid)

    def get_optional(self, oid: str) -> Object | None:
        return self._shards[self.shard_of(oid)].get_optional(oid)

    def peek(self, oid: str) -> Object | None:
        return self._shards[self.shard_of(oid)].peek(oid)

    def __contains__(self, oid: str) -> bool:
        return oid in self._shards[self.shard_of(oid)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def _sorted_order(self) -> list[str]:
        if self._sorted_oids is None:
            merged: list[str] = []
            for shard in self._shards:
                merged.extend(shard._sorted_order())
            merged.sort()
            self._sorted_oids = merged
        return self._sorted_oids

    def oids(self) -> Iterator[str]:
        """All OIDs in global sorted order (same order as one store)."""
        return iter(self._sorted_order())

    def scan(self) -> Iterator[Object]:
        """Full scan in global sorted order; each object charges one
        ``object_scans`` on its *owning shard*."""
        for oid in self._sorted_order():
            shard = self._shards[self.shard_of(oid)]
            shard.counters.object_scans += 1
            obj = shard.peek(oid)
            if obj is not None:
                yield obj

    def label(self, oid: str) -> str:
        return self.get(oid).label

    def value(self, oid: str):
        obj = self.get(oid)
        return set(obj.value) if obj.is_set else obj.value

    # -- listeners ------------------------------------------------------------

    def subscribe(self, listener: UpdateListener) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: UpdateListener) -> None:
        self._listeners.remove(listener)

    def subscribe_creations(self, listener: Callable[[Object], None]) -> None:
        self._creation_listeners.append(listener)

    def subscribe_removals(self, listener: Callable[[Object], None]) -> None:
        self._removal_listeners.append(listener)

    # -- basic updates --------------------------------------------------------

    def apply(self, update: Update) -> None:
        """Validate, route to the owning shard, log, and notify.

        The global reference check runs here (the child of an insert
        may live on any shard); everything else is delegated to the
        owning shard's ordinary ``apply``, so per-shard logs, listener
        streams, and write charges are exactly those of a single store
        restricted to its partition.  Cross-shard edges additionally
        register in the border index *before* global listeners run, so
        subscribed indexes observe a consistent border.
        """
        if isinstance(update, Insert):
            home = self.shard_of(update.parent)
            # Pre-validate in ObjectStore's order (parent exists, parent
            # is a set, child exists) so error behavior is byte-equal to
            # the unsharded store; the owning shard re-validates edges.
            parent = self._shards[home].peek(update.parent)
            if parent is None:
                raise InvalidUpdateError(
                    f"unknown object: {update.parent!r}"
                )
            if not parent.is_set:
                raise InvalidUpdateError(
                    f"insert parent {update.parent!r} is not a set object"
                )
            if self.check_references and update.child not in self:
                raise InvalidUpdateError(
                    f"insert child {update.child!r} does not exist"
                )
            self._shards[home].apply(update)
            if self.shard_of(update.child) != home:
                self.border.add_edge(update.parent, update.child)
        elif isinstance(update, Delete):
            home = self.shard_of(update.parent)
            self._shards[home].apply(update)
            if self.shard_of(update.child) != home:
                self.border.remove_edge(update.parent, update.child)
        elif isinstance(update, Modify):
            home = self.shard_of(update.oid)
            self._shards[home].apply(update)
        else:  # pragma: no cover - defensive
            raise InvalidUpdateError(f"unknown update type: {update!r}")
        self._shard_seq[home] += 1
        self.log.append(update)
        for listener in self._listeners:
            listener(update)

    def apply_all(self, updates: Iterable[Update]) -> int:
        count = 0
        for update in updates:
            self.apply(update)
            count += 1
        return count

    def insert_edge(self, parent: str, child: str) -> Insert:
        update = Insert(parent, child)
        self.apply(update)
        return update

    def delete_edge(self, parent: str, child: str) -> Delete:
        update = Delete(parent, child)
        self.apply(update)
        return update

    def modify_value(self, oid: str, new_value: AtomicValue) -> Modify:
        obj = self.get(oid)
        if obj.is_set:
            raise InvalidUpdateError(
                f"modify target {oid!r} is a set object"
            )
        update = Modify(oid, obj.atomic_value(), new_value)
        self.apply(update)
        return update

    # -- bulk helpers ---------------------------------------------------------

    def add_tree(self, spec: TreeSpec, *, parent: str | None = None) -> str:
        oid, label, value = spec
        if isinstance(value, list):
            child_oids = [self.add_tree(child) for child in value]
            self.add_set(oid, label, child_oids)
        else:
            self.add_atomic(oid, label, value)
        if parent is not None:
            self.insert_edge(parent, oid)
        return oid

    def copy_into(self, other, oids: Iterable[str]) -> None:
        for oid in oids:
            other.add_object(self.get(oid).copy())

    # -- introspection --------------------------------------------------------

    def shard_sizes(self) -> tuple[int, ...]:
        """Object count per shard (placement balance check)."""
        return tuple(len(shard) for shard in self._shards)

    def describe(self) -> str:
        """One-line shard summary for the CLI's ``shards`` command."""
        sizes = ", ".join(
            f"shard{i}={n}" for i, n in enumerate(self.shard_sizes())
        )
        return (
            f"{len(self._shards)} shards: {sizes}; "
            f"{len(self.border)} border edges; "
            f"sequences={list(self._shard_seq)}"
        )


class ShardedParentIndex:
    """Per-shard inverse indexes stitched through the border index.

    Each shard gets its own :class:`~repro.gsdb.indexes.ParentIndex`
    subscribed to that shard's update/creation stream — the index a
    per-shard maintenance worker would own on its own machine.  An edge
    is recorded where it is applied (the parent's shard), so a child
    whose parent lives on another shard finds no intra-shard parent;
    the walk then *routes through the border index* and continues on
    the parent's shard.  This is how ``path(ROOT, N)``/``chain(ROOT,
    N)`` — Algorithm 1's hot evaluation functions, and the serving
    invalidator's ancestry screen — stay exact across shard borders.

    Chain memoization mirrors the single-store
    :class:`~repro.gsdb.indexes.ParentIndex`: stitched chains (and all
    their suffixes) are cached and invalidated on any structural
    change, charging ``chain_cache_hits``/``chain_cache_misses`` on the
    sharded store's global counters.  Per-node reads on a cold walk are
    charged to each node's *owning shard*, so the critical-path
    accounting of E17 sees upward resolution where it really happens.

    Args:
        store: the :class:`ShardedStore` to index.
        chain_cache: memoize stitched chains (on by default); the
            per-shard indexes never cache (stitching happens here).
        stitch_borders: when False, walks *stop* at shard borders
            instead of routing through the border index — the degraded
            deployment the serving invalidator's
            ``failopen_cross_shard`` counter (E17) measures.
    """

    DEFAULT_IGNORED_LABELS = ParentIndex.DEFAULT_IGNORED_LABELS

    def __init__(
        self,
        store: ShardedStore,
        *,
        chain_cache: bool = True,
        stitch_borders: bool = True,
    ) -> None:
        self._store = store
        self._border = store.border
        self.stitch_borders = stitch_borders
        self._indexes = [
            ParentIndex(shard, chain_cache=False)
            for shard in store.shard_stores()
        ]
        self._ignored: set[str] = set()
        self._ignored_prefixes: set[str] = set()
        self._chain_caching = chain_cache
        self._chain_cache: dict[
            str, tuple[tuple[tuple[str, str], ...], bool]
        ] = {}
        store.subscribe(self._on_update)
        store.subscribe_creations(self._on_creation)

    # -- ignore plumbing (grouping edges are not structure) -------------------

    def _is_ignored(self, oid: str) -> bool:
        if oid in self._ignored or (
            self._ignored_prefixes
            and has_dotted_prefix_in(oid, self._ignored_prefixes)
        ):
            return True
        obj = self._store.peek(oid)
        return obj is not None and obj.label in self.DEFAULT_IGNORED_LABELS

    def ignore_parent(self, oid: str) -> None:
        if oid in self._ignored:
            return
        self._ignored.add(oid)
        self._chain_cache.clear()
        self._indexes[self._store.shard_of(oid)].ignore_parent(oid)

    def ignore_prefix(self, prefix: str) -> None:
        if prefix in self._ignored_prefixes:
            return
        for index in self._indexes:
            index.ignore_prefix(prefix)  # rejects an undotted prefix
        self._ignored_prefixes.add(prefix)
        self._chain_cache.clear()

    def ignore_view(self, view_oid: str) -> None:
        self.ignore_parent(view_oid)
        self.ignore_prefix(view_oid + ".")

    def unignore_view(self, view_oid: str) -> None:
        self._ignored.discard(view_oid)
        self._ignored_prefixes.discard(view_oid + ".")
        for index in self._indexes:
            index.unignore_view(view_oid)

    # -- cache invalidation ---------------------------------------------------

    def _on_update(self, update: Update) -> None:
        # The per-shard indexes have already seen this update via their
        # own shard subscription; only the stitched memo needs care.
        if isinstance(update, (Insert, Delete)) and not self._is_ignored(
            update.parent
        ):
            self._chain_cache.clear()

    def _on_creation(self, obj: Object) -> None:
        if obj.is_set and self._chain_cache:
            if obj.oid in self._chain_cache or (
                obj.children() and not self._is_ignored(obj.oid)
            ):
                self._chain_cache.clear()

    # -- lookup ---------------------------------------------------------------

    def _raw_parents(self, oid: str, *, charged: bool = True) -> set[str]:
        """Parents of *oid* across all shards, ignore-filtered.

        The intra-shard probe asks only *oid*'s own shard (an edge is
        recorded where its parent lives, and a same-shard edge's parent
        lives with the child); the cross-shard probe is one border
        lookup.  With ``stitch_borders`` off the border is not
        consulted — the caller sees the walk end at the border.
        """
        shard = self._store.shard_of(oid)
        if charged:
            intra = self._indexes[shard].parents(oid)
        else:
            intra = set(self._indexes[shard]._parents.get(oid, ()))
        if self.stitch_borders:
            cross = (
                self._border.parents_across(oid)
                if charged
                else self._border.peek_parents(oid)
            )
            intra |= cross
        return {p for p in intra if not self._is_ignored(p)}

    def parents(self, oid: str) -> set[str]:
        """All recorded parents of *oid* (border-stitched)."""
        return self._raw_parents(oid)

    def parent(self, oid: str) -> str | None:
        """The unique parent of *oid*; loud on non-tree structure."""
        parents = self._raw_parents(oid)
        if not parents:
            return None
        if len(parents) > 1:
            raise ValueError(
                f"object {oid!r} has {len(parents)} parents; "
                "base is not a tree"
            )
        return next(iter(parents))

    def has_parent(self, oid: str) -> bool:
        return bool(self._raw_parents(oid))

    # -- stitched chain memo --------------------------------------------------

    def _upward_chain(
        self, oid: str
    ) -> tuple[tuple[tuple[str, str], ...], bool]:
        counters = self._store.counters
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
            obj = self._store.get_optional(current)  # charges owner shard
            if obj is None:
                break
            entries.append((current, obj.label))
            parents = self._raw_parents(current)
            if not parents:
                break
            if len(parents) > 1:
                stopped_at_multi = True
                break
            counters.edge_traversals += 1
            current = next(iter(parents))
        result = (tuple(entries), stopped_at_multi)
        if self._chain_caching:
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

    def chain_top(self, oid: str) -> str | None:
        """The last OID on *oid*'s upward chain (fail-open forensics:
        the serving invalidator asks whether the walk died at a shard
        border)."""
        chain, _stopped = self._upward_chain(oid)
        return chain[-1][0] if chain else None

    def chain_cache_size(self) -> int:
        return len(self._chain_cache)

    def shard_indexes(self):
        """The per-shard parent indexes (introspection/workers)."""
        return list(self._indexes)
