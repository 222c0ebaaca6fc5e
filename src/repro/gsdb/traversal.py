"""Graph navigation primitives: ``N.p``, ``path()``, ``ancestor()``, ``eval()``.

These are the functions the paper's Algorithm 1 (Section 4.3) is built
from.  The paper deliberately isolates them because they are the only
computations that touch base data; in a warehouse they become source
queries (Section 5.1).  Each function here exists in two flavours where
relevant:

* an *indexed* form using a :class:`~repro.gsdb.indexes.ParentIndex`
  (the paper's "inverse index"), walking upward in O(depth); and
* an *unindexed* form that searches downward from a root, modelling the
  expensive traversal the paper warns about (Section 4.4).

All traversal charges ``edge_traversals`` on the store's counters so
experiment E8 can quantify the difference.

Counter charging, per function
------------------------------
* :func:`follow_path` — one ``edge_traversals`` per out-edge examined;
  one ``object_reads`` per *admitted* child (the label test itself uses
  the uncharged :meth:`~repro.gsdb.store.ObjectStore.peek`, modelling a
  label check resolved on the already-fetched parent page) plus one
  ``object_reads`` per frontier set-object expanded.
* :func:`path_between` / :func:`chain_between` with a
  :class:`~repro.gsdb.indexes.ParentIndex` — delegated to the index's
  memoized chain cache when it has one: a warm chain costs a single
  ``index_probes`` (plus a ``chain_cache_hits`` note) and **zero** base
  accesses; a cold chain charges the classic upward walk (one
  ``object_reads`` + ``index_probes`` per node, one ``edge_traversals``
  per hop).  Without an index, a downward DFS charging one
  ``edge_traversals`` + ``object_reads`` per edge examined.  The
  downward searches expand children in ascending OID order (like
  :func:`all_paths_between`) so their access counts are deterministic
  across runs and hash seeds — they stop early on finding the target,
  and an unordered walk would turn every benchmark count into an
  iteration-order lottery.
* :func:`ancestor_by_path` / :func:`ancestors_by_path` — one
  ``object_reads`` per node visited, one ``edge_traversals`` per upward
  hop, ``index_probes`` inside the parent lookups.
* :func:`descendants` / :func:`is_reachable` / :func:`ancestor_via_root`
  — downward searches: one ``edge_traversals`` per edge, one
  ``object_reads`` per set object expanded.

Constant paths only live here; path *expressions* (wildcards) are
evaluated by :mod:`repro.paths.automaton`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.gsdb.indexes import ParentIndex
from repro.gsdb.object import AtomicValue
from repro.gsdb.store import ObjectStore

#: A condition over atomic values, e.g. ``lambda v: v <= 45``.
ValuePredicate = Callable[[AtomicValue], bool]


def children_of(store: ObjectStore, oid: str) -> set[str]:
    """Return the child OIDs of *oid* (empty for atomic objects)."""
    obj = store.get_optional(oid)
    if obj is None or not obj.is_set:
        return set()
    return set(obj.children())


def follow_path(
    store: ObjectStore, start: str, path: Sequence[str]
) -> set[str]:
    """Return ``start.path`` — all objects reached by the label sequence.

    Paper Section 2: ``N.p`` denotes the set of objects reachable from
    ``N`` following path ``p``.  An empty path yields ``{start}``.
    Labels are matched on the objects *reached*, i.e. an edge
    ``N1 -> N2`` matches label ``l`` when ``label(N2) == l``.
    """
    # Label screening via the uncharged peek (when the store has one):
    # only children that pass the label test are charged an object
    # read.  Remote store shims have no free peek — there a label check
    # genuinely costs a lookup, so fall back to the charged path.
    peek = getattr(store, "peek", None)
    frontier = {start}
    for label in path:
        next_frontier: set[str] = set()
        for oid in frontier:
            obj = store.get_optional(oid)
            if obj is None or not obj.is_set:
                continue
            for child_oid in obj.children():
                store.counters.edge_traversals += 1
                if peek is not None:
                    child = peek(child_oid)
                    if child is not None and child.label == label:
                        store.counters.object_reads += 1
                        next_frontier.add(child_oid)
                else:
                    child = store.get_optional(child_oid)
                    if child is not None and child.label == label:
                        next_frontier.add(child_oid)
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def eval_path_condition(
    store: ObjectStore,
    start: str,
    path: Sequence[str],
    cond: ValuePredicate,
) -> set[str]:
    """The paper's ``eval(N, p, cond)``.

    Returns the OIDs in ``start.path`` whose atomic value satisfies
    *cond*.  Set objects reached by the path never satisfy an atomic
    condition (``cond()`` "accepts a set of atomic objects", Section 2).
    With an empty path, the condition is tested on *start* itself.
    """
    atoms = atomic_values(store, follow_path(store, start, path))
    return {oid for oid, value in atoms.items() if cond(value)}


def atomic_values(
    store: ObjectStore, oids: Iterable[str]
) -> dict[str, AtomicValue]:
    """The atomic objects among *oids*, with their values — one charged
    read per OID.  :func:`eval_path_condition` is this over
    ``start.path`` filtered by ``cond``; maintainers sharing one
    ``start.path`` read it once and filter per view."""
    values: dict[str, AtomicValue] = {}
    for oid in oids:
        obj = store.get_optional(oid)
        if obj is not None and not obj.is_set:
            values[oid] = obj.atomic_value()
    return values


def descendants(store: ObjectStore, start: str) -> set[str]:
    """Return every object reachable from *start* (excluding it).

    Cycle-safe, so it is usable on general graphs, not just trees.
    """
    seen: set[str] = set()
    stack = [start]
    while stack:
        oid = stack.pop()
        obj = store.get_optional(oid)
        if obj is None or not obj.is_set:
            continue
        for child in obj.children():
            store.counters.edge_traversals += 1
            if child not in seen:
                seen.add(child)
                stack.append(child)
    seen.discard(start)
    return seen


def is_reachable(store: ObjectStore, start: str, target: str) -> bool:
    """True if *target* is *start* or a descendant of *start*."""
    if start == target:
        return True
    seen: set[str] = {start}
    stack = [start]
    while stack:
        oid = stack.pop()
        obj = store.get_optional(oid)
        if obj is None or not obj.is_set:
            continue
        # Sorted for deterministic counts under the early exit.
        for child in sorted(obj.children(), reverse=True):
            store.counters.edge_traversals += 1
            if child == target:
                return True
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


# ---------------------------------------------------------------------------
# path(N1, N2) — unique in a tree
# ---------------------------------------------------------------------------


def path_between(
    store: ObjectStore,
    ancestor: str,
    descendant: str,
    *,
    parent_index: ParentIndex | None = None,
) -> list[str] | None:
    """The paper's ``path(N1, N2)``: the label path from N1 down to N2.

    Returns the list of labels (starting with the label of one of N1's
    direct children, ending with N2's label; Section 4.3), ``[]`` when
    ``ancestor == descendant``, or ``None`` when N1 is not an ancestor
    of N2 (the paper's ``path(N1, N2) = ∅``).

    With a parent index the walk is upward from *descendant* and costs
    O(depth) — and when the index carries a memoized chain cache
    (:meth:`~repro.gsdb.indexes.ParentIndex.memoized_path`) a repeated
    lookup costs a single index probe with zero base accesses.  Without
    an index it is a depth-first search downward from *ancestor*.  The
    base must be a tree below *ancestor* for the path to be unique; on
    a DAG use :func:`all_paths_between`.
    """
    if ancestor == descendant:
        return []
    if parent_index is not None:
        memo = getattr(parent_index, "memoized_path", None)
        if memo is not None:
            return memo(ancestor, descendant)
        return _path_upward(store, ancestor, descendant, parent_index)
    return _path_downward(store, ancestor, descendant)


def _path_upward(
    store: ObjectStore,
    ancestor: str,
    descendant: str,
    parent_index: ParentIndex,
) -> list[str] | None:
    labels: list[str] = []
    walked: set[str] = set()
    current = descendant
    while current != ancestor:
        obj = store.get_optional(current)
        if obj is None or current in walked:  # absent, or a detached cycle
            return None
        walked.add(current)
        labels.append(obj.label)
        parent = parent_index.parent(current)
        if parent is None:
            return None
        store.counters.edge_traversals += 1
        current = parent
    labels.reverse()
    return labels


def _path_downward(
    store: ObjectStore, ancestor: str, descendant: str
) -> list[str] | None:
    # Iterative DFS carrying the label path; trees have a unique answer,
    # and we guard against cycles so misuse degrades gracefully.
    # Children are pushed in reverse-sorted order so the stack pops them
    # ascending — the early exit below would otherwise make the charged
    # edge_traversals depend on set iteration order (PYTHONHASHSEED).
    stack: list[tuple[str, list[str]]] = [(ancestor, [])]
    seen: set[str] = {ancestor}
    while stack:
        oid, labels = stack.pop()
        obj = store.get_optional(oid)
        if obj is None or not obj.is_set:
            continue
        for child in sorted(obj.children(), reverse=True):
            store.counters.edge_traversals += 1
            child_obj = store.get_optional(child)
            if child_obj is None:
                continue
            child_labels = labels + [child_obj.label]
            if child == descendant:
                return child_labels
            if child not in seen:
                seen.add(child)
                stack.append((child, child_labels))
    return None


def all_paths_between(
    store: ObjectStore, ancestor: str, descendant: str, *, max_paths: int = 10_000
) -> list[list[str]]:
    """All simple label paths from *ancestor* to *descendant* (DAG bases).

    Section 6 notes that on a DAG "there may be more than one path
    between two objects"; the DAG maintainer needs them all.  Paths are
    returned sorted for determinism.  *max_paths* bounds pathological
    graphs.
    """
    if ancestor == descendant:
        return [[]]
    results: list[list[str]] = []

    def _dfs(oid: str, labels: list[str], on_stack: set[str]) -> None:
        if len(results) >= max_paths:
            return
        obj = store.get_optional(oid)
        if obj is None or not obj.is_set:
            return
        for child in sorted(obj.children()):
            store.counters.edge_traversals += 1
            child_obj = store.get_optional(child)
            if child_obj is None:
                continue
            child_labels = labels + [child_obj.label]
            if child == descendant:
                results.append(child_labels)
            if child not in on_stack:
                on_stack.add(child)
                _dfs(child, child_labels, on_stack)
                on_stack.discard(child)

    _dfs(ancestor, [], {ancestor})
    return sorted(results)


# ---------------------------------------------------------------------------
# ancestor(N, p)
# ---------------------------------------------------------------------------


def ancestor_by_path(
    store: ObjectStore,
    oid: str,
    path: Sequence[str],
    parent_index: ParentIndex,
) -> str | None:
    """The paper's ``ancestor(N, p)``: the X with ``path(X, N) == p``.

    Walks upward one edge per path label (checking that the label of
    each visited node matches the corresponding path suffix), so it
    requires the inverse index.  Returns None (the paper's ∅) when no
    such ancestor exists.  In a tree the answer is unique.
    """
    current = oid
    for label in reversed(path):
        obj = store.get_optional(current)
        if obj is None or obj.label != label:
            return None
        parent = parent_index.parent(current)
        if parent is None:
            return None
        store.counters.edge_traversals += 1
        current = parent
    return current


def ancestors_by_path(
    store: ObjectStore,
    oid: str,
    path: Sequence[str],
    parent_index: ParentIndex,
) -> set[str]:
    """All X with a path instance ``path(X, N) == p`` — DAG variant.

    On a DAG a node can have several parents, so each upward step fans
    out.  Used by :mod:`repro.views.dag`.
    """
    frontier = {oid}
    for label in reversed(path):
        next_frontier: set[str] = set()
        for current in frontier:
            obj = store.get_optional(current)
            if obj is None or obj.label != label:
                continue
            for parent in parent_index.parents(current):
                store.counters.edge_traversals += 1
                next_frontier.add(parent)
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def ancestor_via_root(
    store: ObjectStore, root: str, oid: str, path: Sequence[str]
) -> str | None:
    """Unindexed ``ancestor(N, p)``: search downward from *root*.

    The paper: "If there does not exist such an index, evaluating the
    same function may require a traversal from ROOT to N."  We find the
    root-to-*oid* path, then cut it |p| steps before the end and verify
    the labels match.
    """
    full = _path_downward(store, root, oid)
    if full is None:
        if root == oid:
            full = []
        else:
            return None
    if len(path) > len(full):
        return None
    suffix = full[len(full) - len(path):]
    if list(suffix) != list(path):
        return None
    # Re-walk from root for len(full) - len(path) steps to find the node.
    steps = len(full) - len(path)
    return _node_at_depth(store, root, oid, steps)


def _node_at_depth(
    store: ObjectStore, root: str, descendant: str, depth: int
) -> str | None:
    """Return the node at *depth* steps from *root* on the path to
    *descendant* (tree bases)."""
    if depth == 0:
        return root
    # DFS remembering the OID chain; reverse-sorted push = ascending
    # exploration, keeping counts deterministic (see _path_downward).
    stack: list[tuple[str, list[str]]] = [(root, [root])]
    seen = {root}
    while stack:
        oid, chain = stack.pop()
        obj = store.get_optional(oid)
        if obj is None or not obj.is_set:
            continue
        for child in sorted(obj.children(), reverse=True):
            store.counters.edge_traversals += 1
            new_chain = chain + [child]
            if child == descendant:
                if depth < len(new_chain):
                    return new_chain[depth]
                return None
            if child not in seen:
                seen.add(child)
                stack.append((child, new_chain))
    return None


def chain_between(
    store: ObjectStore,
    ancestor: str,
    descendant: str,
    *,
    parent_index: ParentIndex | None = None,
) -> list[str] | None:
    """The OID chain ``[ancestor, ..., descendant]`` along the tree path.

    Returns None when *ancestor* is not an ancestor of *descendant*.
    Companion to :func:`path_between` when callers need the nodes, not
    the labels (e.g. warehouse monitors reporting the path to an updated
    object, Section 5.1 scenario 3).  Like :func:`path_between`, the
    answer comes from the parent index's memoized chain cache when one
    is available.
    """
    if ancestor == descendant:
        return [ancestor]
    if parent_index is not None:
        memo = getattr(parent_index, "memoized_chain", None)
        if memo is not None:
            return memo(ancestor, descendant)
        chain = [descendant]
        current = descendant
        while current != ancestor:
            parent = parent_index.parent(current)
            if parent is None or parent in chain:  # a detached cycle
                return None
            store.counters.edge_traversals += 1
            chain.append(parent)
            current = parent
        chain.reverse()
        return chain
    # Reverse-sorted push = ascending exploration, keeping counts
    # deterministic under the early exit (see _path_downward).
    stack: list[tuple[str, list[str]]] = [(ancestor, [ancestor])]
    seen = {ancestor}
    while stack:
        oid, chain = stack.pop()
        obj = store.get_optional(oid)
        if obj is None or not obj.is_set:
            continue
        for child in sorted(obj.children(), reverse=True):
            store.counters.edge_traversals += 1
            if child == descendant:
                return chain + [child]
            if child not in seen:
                seen.add(child)
                stack.append((child, chain + [child]))
    return None
