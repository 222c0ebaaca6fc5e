"""Precise incremental invalidation of cached query answers.

One update must evict exactly the cache entries whose answer it could
have changed — not the whole cache.  The screens reuse the maintenance
dispatcher's machinery (:func:`~repro.views.dispatcher.
expression_labels` and the parent index's memoized chains), specialized to
*many queries per update*:

Label gate (``insert``/``delete``)
    An edge update can change ``entry.sel_path`` or a condition witness
    set only if the moved child's label can appear on an instance of
    the select expression or of some comparison path — every instance
    path through the edge carries the child's label at the edge's
    position.  Entries index into per-label buckets (wildcard-bearing
    expressions into an "any label" bucket).

Reachability screen
    The update's anchor (the edge's parent; the modified object) must
    lie in the entry point's subtree.  Each OID on the anchor's upward
    chain (:meth:`~repro.gsdb.indexes.ParentIndex.read_chain_to_top`,
    one per update, read from the parent index's memo without filling
    it, so the writer's lookups never hit a chain a reader walked)
    probes an index of
    entries by entry OID, and a probed entry the label gate admits is
    hit: per-update work scales with the chain, not with the candidate
    entries.  The anchor's own chain is unaffected by the update itself
    (an edge insert/delete changes the *child*'s ancestry, not the
    parent's), so the final-state chain is sound for both inserts and
    deletes.  The chain never reaches an entry whose out-edges the
    parent index does not record (database and view objects, ignored
    parents, OIDs absent when cached); such entries are marked
    *untracked* at :meth:`Invalidator.register`, and only they are
    tested by member set against the chain.  No index, a multi-parent
    stop, or an unresolvable label fails *open* (invalidate).

Witness gate (``modify``)
    A value change can only affect entries *with* a condition, and only
    when the modified atom's label can be the final label of some
    comparison path (answers are OID sets — structure and labels are
    untouched by ``modify``).

Scope watch
    Membership edges of a query's ``WITHIN``/``ANS INT`` databases (and
    of a database used as the entry point) change the answer without
    any path instance moving, so updates whose parent *is* one of those
    database objects invalidate before any label gate runs.

The oracle (:func:`repro.chaos.oracle.audit_serving`) cross-checks all
of this: served answers must stay byte-identical to fresh uncached
evaluation under interleaved update/query streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Modify, Update
from repro.paths.expression import LabelSegment, PathExpression
from repro.query.ast import condition_paths
from repro.serving.cache import CacheKey, QueryCache
from repro.views.dispatcher import expression_labels


def final_labels(expression: PathExpression) -> frozenset[str] | None:
    """Labels an instance of *expression* may end on; None means "any".

    An empty expression's witness is the candidate object itself, whose
    label is unconstrained here — also None.
    """
    if not expression.segments:
        return None
    last = expression.segments[-1]
    if isinstance(last, LabelSegment):
        return frozenset(last.labels)
    return None


@dataclass(frozen=True)
class QueryScreen:
    """Per-entry invalidation metadata, fixed at caching time.

    ``edge_labels``/``witness_labels`` of None mean "any label" (a
    wildcard somewhere in the governing expressions).
    ``scope_parents`` are the database-object OIDs whose membership
    edges the entry depends on.
    """

    key: CacheKey
    entry_oid: str
    edge_labels: frozenset[str] | None
    witness_labels: frozenset[str] | None
    has_condition: bool
    scope_parents: frozenset[str]


def build_screen(key: CacheKey, registry: DatabaseRegistry) -> QueryScreen:
    """Derive the invalidation screen for a canonical cache key."""
    cond_paths = (
        condition_paths(key.condition) if key.condition is not None else []
    )
    edge_labels: frozenset[str] | None
    labels = expression_labels(key.select_path)
    if labels is None:
        edge_labels = None
    else:
        edge_labels = frozenset(labels)
        for path in cond_paths:
            more = expression_labels(path)
            if more is None:
                edge_labels = None
                break
            edge_labels |= more
    witness_labels: frozenset[str] | None = frozenset()
    for path in cond_paths:
        finals = final_labels(path)
        if finals is None:
            witness_labels = None
            break
        witness_labels |= finals
    scope_parents = set()
    for name in (key.within, key.ans_int):
        if name is not None:
            scope_parents.add(registry.resolve(name).oid)
    if key.entry_oid in registry.grouping_oids():
        scope_parents.add(key.entry_oid)
    return QueryScreen(
        key=key,
        entry_oid=key.entry_oid,
        edge_labels=edge_labels,
        witness_labels=witness_labels,
        has_condition=key.condition is not None,
        scope_parents=frozenset(scope_parents),
    )


class Invalidator:
    """Maps each store update to the cache entries it may touch.

    The owner delivers updates to :meth:`on_update` (the epoch server
    does so from its own store listener, charging the screens to its
    reader ledger).  Entries are bucketed by the labels their screens
    admit and indexed by entry OID, so one update probes only the
    entries on its anchor's chain (plus the untracked ones) and keeps
    those its label admits.
    """

    def __init__(
        self,
        store: ObjectStore,
        cache: QueryCache,
        *,
        parent_index: ParentIndex | None = None,
    ) -> None:
        self._store = store
        self._cache = cache
        self._parent_index = parent_index
        self._screens: dict[CacheKey, QueryScreen] = {}
        self._edge: dict[str, set[CacheKey]] = {}
        self._edge_any: set[CacheKey] = set()
        self._witness: dict[str, set[CacheKey]] = {}
        self._witness_any: set[CacheKey] = set()
        self._scope: dict[str, set[CacheKey]] = {}
        self._by_entry: dict[str, set[CacheKey]] = {}
        #: Entries whose out-edges the parent index does not record.
        self._untracked: set[CacheKey] = set()

    # -- registration --------------------------------------------------------

    def register(self, screen: QueryScreen) -> None:
        """Track a freshly cached entry's screen."""
        key = screen.key
        self._screens[key] = screen
        if screen.edge_labels is None:
            self._edge_any.add(key)
        else:
            for label in screen.edge_labels:
                self._edge.setdefault(label, set()).add(key)
        if screen.has_condition:
            if screen.witness_labels is None:
                self._witness_any.add(key)
            else:
                for label in screen.witness_labels:
                    self._witness.setdefault(label, set()).add(key)
        for oid in screen.scope_parents:
            self._scope.setdefault(oid, set()).add(key)
        self._by_entry.setdefault(screen.entry_oid, set()).add(key)
        index = self._parent_index
        if index is not None and not index.records_children(screen.entry_oid):
            self._untracked.add(key)

    def forget(self, key: CacheKey) -> None:
        """Drop a departed entry's screen (cache eviction callback)."""
        screen = self._screens.pop(key, None)
        if screen is None:
            return
        self._edge_any.discard(key)
        self._witness_any.discard(key)
        self._untracked.discard(key)
        for buckets, oids in (
            (self._edge, screen.edge_labels or ()),
            (self._witness, screen.witness_labels or ()),
            (self._scope, screen.scope_parents),
            (self._by_entry, (screen.entry_oid,)),
        ):
            for oid in oids:
                bucket = buckets.get(oid)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del buckets[oid]

    def tracked(self) -> int:
        """Number of tracked screens (introspection; equals cache size)."""
        return len(self._screens)

    # -- the per-update screen ----------------------------------------------

    def on_update(self, update: Update) -> int:
        """Invalidate every entry *update* may affect; returns the count."""
        if not self._screens:
            return 0
        peek = getattr(self._store, "peek", self._store.get_optional)
        if isinstance(update, Modify):
            hit: set[CacheKey] = set()
            moved = peek(update.oid)
            gate_any, gates, anchor = self._witness_any, self._witness, update.oid
        else:
            hit = set(self._scope.get(update.parent, ()))
            moved = peek(update.child)
            gate_any, gates, anchor = self._edge_any, self._edge, update.parent
        label = None if moved is None else moved.label
        if label is None:  # unknown object: fail open over all labels
            gate_any = gate_any.union(*gates.values())
            gate: set[CacheKey] = set()
        else:
            gate = gates.get(label, set())
        # The chain is resolved exactly when some admitted entry is not
        # hit yet.
        if not (hit.issuperset(gate_any) and hit.issuperset(gate)):
            index = self._parent_index
            chain = None if index is None else index.read_chain_to_top(anchor)
            if chain is None or chain[1]:  # no index, or a multi-parent stop
                hit |= gate_any
                hit |= gate
            else:
                oids = frozenset(chain[0])
                for oid in oids:
                    for key in self._by_entry.get(oid, ()):
                        if key in gate_any or key in gate:
                            hit.add(key)
                for key in self._untracked:  # a member may be on the chain
                    if key not in hit and (key in gate_any or key in gate):
                        entry = peek(key.entry_oid)
                        if entry is not None and entry.is_set and not (
                            oids.isdisjoint(entry.children())
                        ):
                            hit.add(key)
        for key in sorted(hit, key=str):
            self._cache.invalidate(key)
        return len(hit)
