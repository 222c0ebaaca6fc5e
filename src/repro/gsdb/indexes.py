"""Store indexes: the parent (inverse) index and the label index.

Section 4.4 of the paper observes that the cost of ``ancestor(N, p)``
hinges on whether the base database has an "inverse index" from each
node to its parent; without one, evaluation "may require a traversal
from ROOT to N".  :class:`ParentIndex` is that inverse index.
:class:`LabelIndex` additionally maps labels to OIDs, which sources use
to answer ``fetch``-style queries (Section 5.1) without scanning.

Indexes subscribe to a store's update and creation streams and stay
consistent automatically.  Lookups charge ``index_probes`` to the
store's counters so experiment E8 can compare indexed and unindexed
evaluation.

A view living in its base store keeps its own edges out of the parent
index (:meth:`ParentIndex.ignore_view`, on every ``define``).  All its
objects sit under the dotted namespace ``V.``, so the index records its
parents with a dotted OID apart, by first segment, and ignoring a
namespace visits only the parents recorded under it: a ``define`` costs
what the view already has in the store, not a pass over every edge of
the base.  The parent index also listens for removals; a removed object
takes its out-edges with it, as a fresh index over the store would.

:class:`ParentIndex` additionally memoizes *upward chains* — the
``[N, parent(N), ...]`` walk to the top of the tree, together with the
labels along it.  ``path(ROOT, N)`` and ``chain(ROOT, N)`` are the hot
evaluation functions of Algorithm 1 (every maintainer computes them for
every update), so once one maintainer has paid for the walk, every
other view maintained over the same store answers the same question
from the memo at zero base-access cost (experiment E14).  The memo
outlives structural updates: on a tree, changing the edge N1 -> N2
changes only the chains that pass through N2, so an edge update, an
object creation or a removal drops exactly the chains through the OID
it touches and keeps the rest.  A miss walks only up to the first
ancestor whose chain is memoized and splices that chain on.  Labels are
immutable, so ``modify`` never invalidates.
"""

from __future__ import annotations

from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Delete, Insert, Update

#: Shared empty adjacency returned for parents with no indexed edges.
_NO_CHILDREN: dict[str, set[str]] = {}


def _first_segment(oid: str) -> str:
    """``MV.`` for ``MV.P1.x``: a dotted OID's first namespace."""
    return oid[: oid.index(".") + 1]


def has_dotted_prefix_in(oid: str, prefixes: set[str]) -> bool:
    """True when one of *oid*'s own dotted prefixes (``MV.`` and
    ``MV.P1.`` for ``MV.P1.x``) is in *prefixes* — a set probe per dot
    in the OID, however many prefixes are registered."""
    end = oid.find(".")
    while end != -1:
        if oid[: end + 1] in prefixes:
            return True
        end = oid.find(".", end + 1)
    return False


class ParentIndex:
    """Maps each OID to the set of parents that point at it.

    In a tree every object has at most one parent (besides database or
    view objects, which are excluded via *ignore_parents*); in a DAG it
    may have several, which is exactly what the extended maintainer of
    :mod:`repro.views.dag` needs.

    Args:
        store: the store to index; the index registers itself.
        ignore_parents: OIDs (e.g. database objects, paper Section 2)
            whose outgoing edges are *not* parent-child edges and must
            not appear in the index.
        ignore_labels: labels marking grouping artifacts whose edges are
            membership, not structure.  Defaults to query ``answer``
            objects (Section 2) and virtual ``view`` objects (Section
            3.1), both of which hold member OIDs of objects that keep
            their real parents elsewhere.
        chain_cache: memoize upward chains (on by default).  Pass False
            to model the pre-memoization per-view subscription cost
            (the E14 baseline).
    """

    #: Labels of grouping artifacts ignored by default.
    DEFAULT_IGNORED_LABELS = frozenset({"answer", "view"})

    def __init__(
        self,
        store: ObjectStore,
        *,
        ignore_parents: set[str] | None = None,
        ignore_labels: frozenset[str] | None = None,
        chain_cache: bool = True,
    ) -> None:
        self._store = store
        self._ignored = set(ignore_parents or ())
        self._ignored_prefixes: set[str] = set()
        self._ignored_labels = (
            ignore_labels
            if ignore_labels is not None
            else self.DEFAULT_IGNORED_LABELS
        )
        self._parents: dict[str, set[str]] = {}
        #: first segment -> indexed parent with a dotted OID -> its
        #: indexed children: the only edges an ignored prefix can name.
        self._dotted: dict[str, dict[str, set[str]]] = {}
        self._chain_caching = chain_cache
        #: oid -> (((oid, label), ..., (top, label)), stopped_at_multi);
        #: truncated where an object is missing from the store, or where
        #: a node has several parents (stopped_at_multi records that).
        self._chain_cache: dict[
            str, tuple[tuple[tuple[str, str], ...], bool]
        ] = {}
        #: oid -> OIDs walked by a memoizing lookup whose chain steps to
        #: oid next (a truncated chain's last node sits under the missing
        #: OID).  Every memoized chain through X is reachable from X over
        #: these links, which is what dropping the chains through X walks.
        self._memo_below: dict[str, set[str]] = {}
        self._rebuild()
        store.subscribe(self._on_update)
        store.subscribe_creations(self._on_creation)
        store.subscribe_removals(self._on_removal)

    def _is_ignored(self, oid: str) -> bool:
        if oid in self._ignored or (
            self._ignored_prefixes
            and has_dotted_prefix_in(oid, self._ignored_prefixes)
        ):
            return True
        obj = self._store.peek(oid)
        return obj is not None and obj.label in self._ignored_labels

    # -- construction --------------------------------------------------------

    def _rebuild(self) -> None:
        self._parents.clear()
        self._dotted.clear()
        for oid in list(self._store.oids()):
            obj = self._store.get_optional(oid)
            if obj is not None and obj.is_set:
                self._index_object(obj)

    def _index_object(self, obj: Object) -> None:
        oid = obj.oid
        if self._is_ignored(oid):
            return
        cache, below = self._chain_cache, self._memo_below
        children = obj.children()
        for child in children:
            self._parents.setdefault(child, set()).add(oid)
            if child in cache or child in below:
                self._drop_chains_through(child)
        if children and "." in oid:
            self._dotted_children(oid).update(children)

    def _dotted_children(self, parent: str) -> set[str]:
        """The recorded children of dotted *parent*, made on demand."""
        recorded = self._dotted.setdefault(_first_segment(parent), {})
        return recorded.setdefault(parent, set())

    def ignore_parent(self, oid: str) -> None:
        """Exclude *oid*'s outgoing edges (e.g. a new database object)."""
        if oid in self._ignored:
            return
        self._ignored.add(oid)
        self._clear_chains()
        obj = self._store.peek(oid)
        if obj is not None and obj.is_set:
            for child in obj.children():
                self._drop_edge(oid, child)

    def ignore_prefix(self, prefix: str) -> None:
        """Exclude every OID under the dotted namespace *prefix* (which
        must end with ``"."``) as a parent.

        Materialized views living in the same store as their base use
        this: the view object and its delegates (``MVJ``, ``MVJ.P1``,
        ...) carry membership/copy edges, not base structure.

        Only a dotted OID can fall under such a prefix, and the index
        records its dotted parents by first segment, so this visits the
        indexed parents sharing the prefix's first segment (``MV.`` for
        ``MV.P1.``) and drops the edges of those under the prefix; it
        never scans the rest of the index.  Besides clearing the chain
        memo, ignoring a namespace nothing is indexed under (a view
        defined before its objects exist) costs one probe.
        """
        if not prefix.endswith("."):
            raise ValueError(
                f"ignored prefix {prefix!r} must end with '.'"
            )
        if prefix in self._ignored_prefixes:
            return
        self._ignored_prefixes.add(prefix)
        self._clear_chains()
        recorded = self._dotted.get(_first_segment(prefix), {})
        stale = [
            (parent, child)
            for parent, children in recorded.items()
            if parent.startswith(prefix)
            for child in children
        ]
        for parent, child in stale:
            self._drop_edge(parent, child)

    def ignore_view(self, view_oid: str) -> None:
        """Exclude a materialized view's object and all its delegates."""
        self.ignore_parent(view_oid)
        self.ignore_prefix(view_oid + ".")

    def unignore_view(self, view_oid: str) -> None:
        """Undo :meth:`ignore_view` for a view whose objects are already
        gone from the store (nothing of it is left to re-index)."""
        self._ignored.discard(view_oid)
        self._ignored_prefixes.discard(view_oid + ".")

    def records_children(self, oid: str) -> bool:
        """Are *oid*'s out-edges parent-child edges here?  False for an
        absent OID and for ignored (grouping) parents."""
        return self._store.peek(oid) is not None and not self._is_ignored(oid)

    def is_view_object(self, oid: str) -> bool:
        """Is *oid* a view registered by :meth:`ignore_view`, or under one?"""
        prefixes = self._ignored_prefixes
        return oid + "." in prefixes or has_dotted_prefix_in(oid, prefixes)

    def _drop_edge(self, parent: str, child: str) -> None:
        parents = self._parents.get(child)
        if parents is not None:
            parents.discard(parent)
            if not parents:
                del self._parents[child]
        if "." in parent:
            segment = _first_segment(parent)
            recorded = self._dotted.get(segment)
            children = recorded.get(parent) if recorded else None
            if children is not None:
                children.discard(child)
                if not children:
                    del recorded[parent]
                    if not recorded:
                        del self._dotted[segment]

    # -- maintenance ----------------------------------------------------------

    def _on_creation(self, obj: Object) -> None:
        # A creation fills in an OID a truncated chain may have stopped
        # at, and a set's children gain it as a parent.  Ignored
        # creations (delegates of centralized views) index no children.
        # Almost every new OID is in neither map: test before calling.
        if obj.oid in self._chain_cache or obj.oid in self._memo_below:
            self._drop_chains_through(obj.oid)
        if obj.is_set:
            self._index_object(obj)

    def _on_removal(self, obj: Object) -> None:
        # A removed parent's out-edges leave the index with it (a fresh
        # index over the store would not have them), and so do the
        # chains through its children, whose parent sets change.
        oid = obj.oid
        self._drop_chains_through(oid)
        if obj.is_set:
            for child in obj.children():
                if oid in self._parents.get(child, ()):
                    self._drop_chains_through(child)
                    self._drop_edge(oid, child)

    def _on_update(self, update: Update) -> None:
        if isinstance(update, Insert):
            if not self._is_ignored(update.parent):
                self._drop_chains_through(update.child)
                self._parents.setdefault(update.child, set()).add(
                    update.parent
                )
                if "." in update.parent:
                    self._dotted_children(update.parent).add(update.child)
        elif isinstance(update, Delete):
            if not self._is_ignored(update.parent):
                self._drop_chains_through(update.child)
                self._drop_edge(update.parent, update.child)
                below = self._memo_below.get(update.parent)
                if below is not None:
                    below.discard(update.child)
                    if not below:
                        del self._memo_below[update.parent]
        # Modify does not change edges (or labels), so chains survive.

    def _drop_chains_through(self, oid: str) -> None:
        """Forget every memoized chain that passes through *oid*.

        Two dict probes when nothing is memoized at or below *oid* —
        the common case for a freshly created object, which the
        creation hooks test inline.  Otherwise pops *oid*'s entry and,
        transitively, everything linked below it; each node's links are
        popped on its first visit, which is the visited mark that ends
        a cycle.
        """
        cache, below = self._chain_cache, self._memo_below
        if oid not in cache and oid not in below:
            return
        stack = [oid]
        while stack:
            node = stack.pop()
            cache.pop(node, None)
            stack.extend(below.pop(node, ()))

    def _clear_chains(self) -> None:
        self._chain_cache.clear()
        self._memo_below.clear()

    # -- lookup -----------------------------------------------------------------

    def parents(self, oid: str) -> set[str]:
        """Return the parents of *oid* (empty set if none)."""
        self._store.counters.index_probes += 1
        return set(self._parents.get(oid, ()))

    def parent(self, oid: str) -> str | None:
        """Return the unique parent of *oid*, or None if it has none.

        Raises:
            ValueError: if *oid* has more than one parent (the base is
                not a tree); callers relying on tree structure should
                surface this loudly rather than pick arbitrarily.
        """
        self._store.counters.index_probes += 1
        parents = self._parents.get(oid)
        if not parents:
            return None
        if len(parents) > 1:
            raise ValueError(
                f"object {oid!r} has {len(parents)} parents; base is not a tree"
            )
        return next(iter(parents))

    def has_parent(self, oid: str) -> bool:
        self._store.counters.index_probes += 1
        return bool(self._parents.get(oid))

    # -- memoized upward chains (shared across view maintainers) --------------

    def _upward_chain(
        self, oid: str, memoize: bool = True
    ) -> tuple[tuple[tuple[str, str], ...], bool]:
        """The chain ``((oid, label), ..., (top, label))`` walking up,
        plus whether the walk stopped at a multi-parent node.

        A memo hit charges one ``index_probes`` (and a
        ``chain_cache_hits``).  A miss performs the ordinary upward walk
        — one ``object_reads`` + ``index_probes`` per node and one
        ``edge_traversals`` per hop, exactly what the unmemoized
        :func:`~repro.gsdb.traversal.path_between` charges — up to the
        first ancestor whose chain is memoized, whose chain it splices
        on for one more ``index_probes``.  The walk stops where an
        object is missing from the store (truncated chain), at a
        parentless node, at a node with several parents (the
        flag, so callers can preserve :meth:`parent`'s loud non-tree
        failure mode), or at a node already walked (a detached cycle:
        the walked nodes are then every ancestor).  A cycle node's
        chain is its own rotation, so no suffix inside it is memoized,
        and a memoized chain that closes a cycle is never spliced (the
        walk's own nodes may sit on it).  With *memoize*, the chain and
        its suffixes are memoized; either way the result equals a fresh
        walk, and the memo outlives updates that do not touch it (see
        :meth:`_drop_chains_through`).
        """
        counters = self._store.counters
        cache = self._chain_cache
        cached = cache.get(oid)
        if cached is not None:
            counters.index_probes += 1
            counters.chain_cache_hits += 1
            return cached
        counters.chain_cache_misses += 1
        entries: list[tuple[str, str]] = []
        walked: dict[str, int] = {}
        stopped_at_multi = False
        suffix: tuple[tuple[str, str], ...] = ()
        # Ends as the OID the last walked node steps to (a missing
        # object, a revisited node or the splice point), or None at a
        # top or multi-parent stop.
        current: str | None = oid
        while current not in walked:
            obj = self._store.get_optional(current)
            if obj is None:
                break
            walked[current] = len(entries)
            entries.append((current, obj.label))
            counters.index_probes += 1
            parents = self._parents.get(current)
            if not parents or len(parents) > 1:
                stopped_at_multi = bool(parents)
                current = None
                break
            counters.edge_traversals += 1
            current = next(iter(parents))
            spliced = cache.get(current)
            if spliced is not None and not self._closes_cycle(spliced):
                counters.index_probes += 1
                suffix, stopped_at_multi = spliced
                break
        result = (tuple(entries) + suffix, stopped_at_multi)
        if memoize and self._chain_caching:
            chain = result[0]
            cache[oid] = result
            for i in range(1, walked.get(current, len(entries) - 1) + 1):
                cache.setdefault(entries[i][0], (chain[i:], stopped_at_multi))
            # Link each walked node under the OID it steps to, cycle
            # nodes included: they relay a drop to the cycle's entry.
            below = self._memo_below
            upper = current
            for lower, _label in reversed(entries):
                if upper is not None:
                    linked = below.get(upper)
                    if linked is None:
                        below[upper] = {lower}
                    else:
                        linked.add(lower)
                upper = lower
        return result

    def _closes_cycle(
        self, chain: tuple[tuple[tuple[str, str], ...], bool]
    ) -> bool:
        """Did the walk that memoized *chain* stop at a node it had
        already walked?  Its top then has one parent, and it exists."""
        entries, stopped_at_multi = chain
        if stopped_at_multi or not entries:
            return False
        parents = self._parents.get(entries[-1][0])
        return bool(parents) and (
            self._store.peek(next(iter(parents))) is not None
        )

    def _scan_chain(
        self, ancestor: str, descendant: str
    ) -> tuple[tuple[tuple[str, str], ...], int] | None:
        """Locate *ancestor* in *descendant*'s upward chain.

        Returns ``(chain, index_of_ancestor)``, or None when *ancestor*
        is not on the chain.  Raises ValueError when the walk hit a
        multi-parent node before finding *ancestor* — the same loud
        non-tree failure an unmemoized upward walk via :meth:`parent`
        produces.
        """
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
        """``path(ancestor, descendant)`` answered from the chain memo.

        Same contract as :func:`~repro.gsdb.traversal.path_between`
        with a parent index: the label path from *ancestor* down to
        *descendant*, or None when *ancestor* is not an ancestor.
        """
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
        """``[ancestor, ..., descendant]`` OID chain from the memo, or
        None when *ancestor* is not an ancestor of *descendant*."""
        located = self._scan_chain(ancestor, descendant)
        if located is None:
            return None
        chain, i = located
        oids = [entry_oid for (entry_oid, _lab) in chain[: i + 1]]
        oids.reverse()
        return oids

    def chain_to_top(self, oid: str) -> tuple[tuple[str, ...], bool]:
        """OIDs on the upward walk from *oid* to the top of its tree.

        Returns ``(oids, stopped_at_multi)``: the chain starting at
        *oid* (empty when *oid* is absent from the store) and whether
        the walk stopped at a multi-parent node before reaching a root
        — callers screening by ancestry must fail open in that case.
        Served from the memoized chain cache (one warm probe); the
        dispatcher's batched-delete screen is the main consumer.
        """
        chain, stopped_at_multi = self._upward_chain(oid)
        return tuple(entry_oid for entry_oid, _label in chain), stopped_at_multi

    def read_chain_to_top(self, oid: str) -> tuple[tuple[str, ...], bool]:
        """:meth:`chain_to_top`, charged the same, but leaving the memo
        as it found it.

        The read-path invalidator screens with this: a chain it walks
        must not become a memo hit the writer's next lookup would not
        otherwise have had, so the writer's charged cost stays the same
        with and without a warm query cache.
        """
        chain, stopped_at_multi = self._upward_chain(oid, memoize=False)
        return tuple(entry_oid for entry_oid, _label in chain), stopped_at_multi

    def roots(self) -> set[str]:
        """Return all set-object OIDs with no recorded parent.

        Database objects (ignored parents) are not counted as parents,
        so a database's members with no other parent show up as roots.
        """
        roots: set[str] = set()
        for oid in self._store.oids():
            if self._is_ignored(oid):
                continue
            if not self._parents.get(oid):
                roots.add(oid)
        return roots


class LabelIndex:
    """Maps each label to the set of OIDs carrying it.

    The paper's labels are non-unique (Section 2), so lookups return
    sets.  Used by source wrappers to answer ``fetch X where
    label(X) = l`` efficiently and by the warehouse screening step of
    Section 5.1 (scenario 2).

    The index also maintains a *children-by-label adjacency*: for each
    set object, its out-edges grouped by the child's label.  Path
    evaluation (:meth:`~repro.paths.automaton.PathNFA.evaluate_many`)
    probes it to touch only the out-edges whose
    label has an automaton transition, instead of scanning and
    discarding the rest.  The adjacency is maintained incrementally
    from the store's creation and update streams; labels are immutable,
    so ``modify`` never dirties it.  An edge inserted before its child
    object exists (``check_references`` off) is parked until the
    creation arrives and the label becomes known.
    """

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        self._by_label: dict[str, set[str]] = {}
        #: parent OID → {child label → child OIDs} (out-edge adjacency).
        self._children: dict[str, dict[str, set[str]]] = {}
        #: dangling child OID → parents awaiting its creation.
        self._pending: dict[str, set[str]] = {}
        for oid in list(store.oids()):
            obj = store.get_optional(oid)
            if obj is not None:
                self._by_label.setdefault(obj.label, set()).add(oid)
        # Second pass so every child's label is already indexed.
        for oid in list(store.oids()):
            obj = store.peek(oid)
            if obj is not None and obj.is_set:
                for child in obj.children():
                    self._link(oid, child)
        store.subscribe_creations(self._on_creation)
        store.subscribe(self._on_update)

    def _link(self, parent: str, child: str) -> None:
        child_obj = self._store.peek(child)
        if child_obj is None:
            self._pending.setdefault(child, set()).add(parent)
            return
        self._children.setdefault(parent, {}).setdefault(
            child_obj.label, set()
        ).add(child)

    def _unlink(self, parent: str, child: str) -> None:
        pending = self._pending.get(child)
        if pending is not None:
            pending.discard(parent)
            if not pending:
                del self._pending[child]
        child_obj = self._store.peek(child)
        if child_obj is None:
            return
        by_label = self._children.get(parent)
        if by_label is None:
            return
        children = by_label.get(child_obj.label)
        if children is not None:
            children.discard(child)
            if not children:
                del by_label[child_obj.label]
                if not by_label:
                    del self._children[parent]

    def _on_creation(self, obj: Object) -> None:
        self._by_label.setdefault(obj.label, set()).add(obj.oid)
        if obj.is_set:
            for child in obj.children():
                self._link(obj.oid, child)
        parents = self._pending.pop(obj.oid, None)
        if parents:
            for parent in parents:
                self._children.setdefault(parent, {}).setdefault(
                    obj.label, set()
                ).add(obj.oid)

    def _on_update(self, update: Update) -> None:
        if isinstance(update, Insert):
            self._link(update.parent, update.child)
        elif isinstance(update, Delete):
            self._unlink(update.parent, update.child)
        # Modify changes neither labels nor edges.

    def forget(self, oid: str, label: str) -> None:
        """Drop a removed object from the index (garbage collection).

        The adjacency drops *oid*'s out-edges; edges pointing *at* the
        removed object are left behind and screened out by readers (a
        missing object is invisible to traversal anyway).
        """
        oids = self._by_label.get(label)
        if oids is not None:
            oids.discard(oid)
            if not oids:
                del self._by_label[label]
        self._children.pop(oid, None)
        self._pending.pop(oid, None)

    def children_by_label(self, parent: str) -> dict[str, set[str]]:
        """Out-edges of *parent* grouped by child label (one probe).

        Returns the internal grouping — callers must not mutate it.
        Children whose object has since been removed may linger; readers
        must confirm existence (the uncharged ``peek``), mirroring how
        traversal treats dangling edges.
        """
        self._store.counters.index_probes += 1
        return self._children.get(parent, _NO_CHILDREN)

    def with_label(self, label: str) -> set[str]:
        """Return all OIDs whose label equals *label*."""
        self._store.counters.index_probes += 1
        return set(self._by_label.get(label, ()))

    def labels(self) -> set[str]:
        """Return every label present in the store."""
        return set(self._by_label)
