"""Precise incremental invalidation of cached query answers.

One update must evict exactly the cache entries whose answer it could
have changed — not the whole cache.  The screens reuse the maintenance
dispatcher's machinery (:func:`~repro.views.dispatcher.
expression_labels` and the per-update :class:`~repro.views.dispatcher.
PathContext` over the parent index's memoized chains), specialized to
*many queries per update*:

Label gate (``insert``/``delete``)
    An edge update can change ``entry.sel_path`` or a condition witness
    set only if the moved child's label can appear on an instance of
    the select expression or of some comparison path — every instance
    path through the edge carries the child's label at the edge's
    position.  Entries index into per-label buckets
    (wildcard-bearing expressions into an "any label" bucket), so the
    per-update work scales with the *candidate* entries, not the cache
    size.

Reachability screen
    The update's anchor (the edge's parent; the modified object) must
    lie in the entry point's subtree.  One upward chain per update
    (:meth:`~repro.views.dispatcher.PathContext.chain_set`, served from
    the parent index's memo) is tested against every candidate's entry
    OID.  The anchor's own chain is unaffected by the update itself
    (an edge insert/delete changes the *child*'s ancestry, not the
    parent's), so the final-state chain is sound for both inserts and
    deletes.  Database and view entry points are special: their
    grouping edges are excluded from the parent index, so the chain
    tops out at a member — the screen then tests the chain against the
    entry object's member set.  No index, a multi-parent stop, or an
    unresolvable label fails *open* (invalidate), never closed.

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
from repro.views.dispatcher import PathContext, expression_labels


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
    admit, so one update screens only its label's candidates plus the
    wildcard bucket.  Chains and labels are resolved through a fresh
    per-update :class:`~repro.views.dispatcher.PathContext` (its memos
    do not self-invalidate, so a context must never outlive its update).
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

    def forget(self, key: CacheKey) -> None:
        """Drop a departed entry's screen (cache eviction callback)."""
        screen = self._screens.pop(key, None)
        if screen is None:
            return
        self._edge_any.discard(key)
        if screen.edge_labels is not None:
            for label in screen.edge_labels:
                bucket = self._edge.get(label)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._edge[label]
        self._witness_any.discard(key)
        if screen.witness_labels is not None:
            for label in screen.witness_labels:
                bucket = self._witness.get(label)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._witness[label]
        for oid in screen.scope_parents:
            bucket = self._scope.get(oid)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._scope[oid]

    def tracked(self) -> int:
        """Number of tracked screens (introspection; equals cache size)."""
        return len(self._screens)

    # -- the per-update screen ----------------------------------------------

    def on_update(self, update: Update) -> int:
        """Invalidate every entry *update* may affect; returns the count."""
        if not self._screens:
            return 0
        ctx = PathContext(self._store, self._parent_index)
        hit: set[CacheKey] = set()
        if isinstance(update, Modify):
            label = ctx.label(update.oid)
            candidates = set(self._witness_any)
            if label is None:  # unknown atom: fail open over all witnesses
                for bucket in self._witness.values():
                    candidates |= bucket
            else:
                candidates |= self._witness.get(label, set())
            anchor = update.oid
        else:
            hit |= self._scope.get(update.parent, set())
            label = ctx.label(update.child)
            candidates = set(self._edge_any)
            if label is None:  # dangling child: fail open over all labels
                for bucket in self._edge.values():
                    candidates |= bucket
            else:
                candidates |= self._edge.get(label, set())
            anchor = update.parent
        candidates -= hit
        if candidates:
            chain = ctx.chain_set(anchor)
            for key in candidates:
                if self._reaches_entry(self._screens[key], chain):
                    hit.add(key)
        for key in sorted(hit, key=str):
            self._cache.invalidate(key)
        return len(hit)

    def _reaches_entry(
        self,
        screen: QueryScreen,
        chain: tuple[frozenset[str], bool] | None,
    ) -> bool:
        """Is the update's anchor inside the entry point's subtree?

        Fails open without an index or at a multi-parent stop: the
        upward chain cannot tell there, and an unneeded eviction is
        only a later miss.  A grouping entry (database or view object)
        never appears on a parent-index chain — the chain tops out at
        one of its members, so the member set is tested instead.
        """
        if chain is None:
            return True
        oids, stopped_at_multi = chain
        if stopped_at_multi or screen.entry_oid in oids:
            return True
        peek = getattr(self._store, "peek", self._store.get_optional)
        entry = peek(screen.entry_oid)
        return (
            entry is not None
            and entry.is_set
            and not oids.isdisjoint(entry.children())
        )
