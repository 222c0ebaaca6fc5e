"""Algorithm 1: incremental maintenance of simple materialized views.

This is the paper's core contribution (Section 4.3).  Given a simple
view ``SELECT ROOT.sel_path X WHERE cond(X.cond_path)`` over a
tree-structured base, the maintainer reacts to each basic update:

``insert(N1, N2)``
    If ``sel_path.cond_path = path(ROOT,N1).label(N2).p`` for some path
    ``p``, let ``S = eval(N2, p, cond)``; for each witness ``X ∈ S``,
    ``V_insert(MV, MV.Y)`` where ``Y = ancestor(X, cond_path)``.

``delete(N1, N2)``
    Same decomposition; for each ``X ∈ S``: if ``p = p1.cond_path``
    (``Y`` lies inside the detached subtree) then ``V_delete``
    unconditionally, else re-evaluate ``eval(Y, cond_path, cond)`` on
    the post-update base and delete only when no other derivation
    remains (the paper's non-unique-label caveat).

``modify(N, oldv, newv)``
    If ``path(ROOT,N) = sel_path.cond_path``, let
    ``Y = ancestor(N, cond_path)``; insert when ``cond(newv)``, delete
    when ``cond(oldv)`` held and no witness remains.

Deviations/extensions, both documented in DESIGN.md:

* **Value refresh** — delegates copy values (Section 3.2), so whenever a
  directly affected object is itself a view member, its delegate's
  value is refreshed.  Algorithm 1 as printed tracks membership only.
* **Views without a WHERE clause** (e.g. ``define view PROF as: SELECT
  ROOT.*.professor``'s constant-path analogue): membership is pure
  reachability; the witness set is ``N2.p`` itself.

The evaluation functions ``path()``, ``ancestor()`` and ``eval()`` are
exactly the ones the paper isolates because they may touch base data;
with a parent index they run in O(path length), without one they fall
back to root-down traversal (Section 4.4's cost discussion, measured in
experiment E8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, TypeVar

from repro.errors import MaintenanceError
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.store import ObjectStore
from repro.gsdb.traversal import (
    ancestor_by_path,
    ancestor_via_root,
    atomic_values,
    chain_between,
    descendants,
    follow_path,
    path_between,
)
from repro.gsdb.updates import Delete, Insert, Modify, Update
from repro.paths.path import Path
from repro.views.materialized import MaterializedView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.views.dispatcher import PathContext

T = TypeVar("T")


def unshared(key: tuple, compute: Callable[[], T]) -> T:
    """A maintainer's ``_shared`` without a context: every call
    computes, and charges, afresh (see
    :meth:`~repro.views.dispatcher.PathContext.shared`)."""
    return compute()


def purge_stranded(maintainer, child_oid: str) -> None:
    """Batched delete: evict the members stranded at or below N2.

    Under batched dispatch the base is already at the *final* state,
    where later batch updates may have detached or moved parts of the
    subtree the delete cut off, so witness-driven discovery
    under-approximates the members to evict.  Complete discovery
    instead: inspect every object in N2's final-state subtree (walked
    once per context, whichever view asks first).  A member found there
    leaves the view unless the final state still derives it from the
    view's own root — possible only when that root lies inside the
    subtree (an inner-rooted view), and then decided by the
    maintainer's ``_derives``, the test recomputation applies to one
    object.  With the root outside, a stranded member is derivable
    only through an edge that re-attached the subtree later in the
    batch, and that edge's own insert, dispatched after this delete,
    re-decides it; members moved out of the subtree mid-batch are
    likewise re-decided by the updates that moved them.
    """
    subtree = maintainer._shared(
        ("subtree", child_oid),
        lambda: (child_oid, *sorted(descendants(maintainer.base, child_oid))),
    )
    view = maintainer.view
    inner = maintainer.root in subtree
    for oid in subtree:
        if view.contains(oid) and not (inner and maintainer._derives(oid)):
            view.v_delete(oid)


class SimpleViewMaintainer:
    """Incremental maintainer implementing the paper's Algorithm 1.

    Args:
        view: the materialized view to maintain.
        parent_index: the base store's inverse index; when None the
            maintainer uses root-down traversal for ``path()`` and
            ``ancestor()`` (the expensive case of Section 4.4).

    Updates reach :meth:`handle` through a
    :class:`~repro.views.dispatcher.MaintenanceDispatcher`, or straight
    from the base store when a standalone caller subscribes ``handle``.
    Stores notify listeners in subscription order, so build the parent
    index first.
    """

    def __init__(
        self,
        view: MaterializedView,
        *,
        parent_index: ParentIndex | None = None,
    ) -> None:
        view.definition.require_simple()
        self.view = view
        self.base: ObjectStore = view.base_store
        self.parent_index = parent_index
        if parent_index is not None and view.view_store is view.base_store:
            # Centralized case: the view object and its delegates live in
            # the base store; their edges are copies, not base structure.
            parent_index.ignore_view(view.oid)
        self.root = view.definition.entry
        self.sel_path: Path = view.definition.sel_path()
        self.cond_path: Path = view.definition.cond_path()
        self.full_path: Path = self.sel_path + self.cond_path
        self.has_condition = view.definition.has_condition
        self.cond = view.definition.predicate()
        self.updates_processed = 0
        self._context: "PathContext | None" = None
        self._shared = unshared

    # -- dispatch ---------------------------------------------------------

    def handle(
        self, update: Update, context: "PathContext | None" = None
    ) -> None:
        """Process one already-applied base update.

        *context* is an optional per-update
        :class:`~repro.views.dispatcher.PathContext` supplied by a
        dispatcher so the base reads of ``path()``, ``ancestor()`` and
        ``eval()`` made for one view are reused by every other view
        handling the same update; only the ``cond`` filter and the
        ``V_insert``/``V_delete``/refresh calls stay per view.
        """
        self.updates_processed += 1
        self._context = context
        self._shared = unshared if context is None else context.shared
        try:
            if isinstance(update, Insert):
                self._on_insert(update)
            elif isinstance(update, Delete):
                self._on_delete(update)
            elif isinstance(update, Modify):
                self._on_modify(update)
            else:  # pragma: no cover - defensive
                raise MaintenanceError(f"unknown update: {update!r}")
        finally:
            self._context = None
            self._shared = unshared

    def handle_all(self, updates) -> None:
        for update in updates:
            self.handle(update)

    # -- the paper's evaluation functions ------------------------------------

    def _path_from_root(self, oid: str) -> Path | None:
        """``path(ROOT, N)`` — None when N is not reachable from ROOT."""
        if self._context is not None:
            labels = self._context.path_between(self.root, oid)
        else:
            labels = path_between(
                self.base, self.root, oid, parent_index=self.parent_index
            )
        if labels is None:
            return None
        return Path(labels)

    def _ancestor(self, oid: str, path: Path, *, search_root: str) -> str | None:
        """``ancestor(N, p)``.

        With a parent index, walks upward; otherwise searches downward
        from *search_root* (ROOT in general, or the detached subtree's
        root for the delete case).
        """
        labels = path.labels

        def walk() -> str | None:
            if self.parent_index is not None:
                return ancestor_by_path(self.base, oid, labels, self.parent_index)
            return ancestor_via_root(self.base, search_root, oid, labels)

        return self._shared(("ancestor", search_root, oid, labels), walk)

    def _follow(self, oid: str, path: Path) -> set[str]:
        """``N.p`` — shared by every view asking for it (do not mutate)."""
        labels = path.labels
        return self._shared(
            ("follow", oid, labels),
            lambda: follow_path(self.base, oid, labels),
        )

    def _eval(self, oid: str, path: Path) -> set[str]:
        """``eval(N, p, cond)`` — witnesses of the condition under N.

        The objects of ``N.p`` and their values are read once per
        context; only the filter by this view's ``cond`` is per view.
        """
        atoms = self._shared(
            ("eval", oid, path.labels),
            lambda: atomic_values(self.base, self._follow(oid, path)),
        )
        return {witness for witness, value in atoms.items() if self.cond(value)}

    # -- insert -------------------------------------------------------------

    def _on_insert(self, update: Insert) -> None:
        try:
            self._membership_after_insert(update)
        finally:
            self._refresh_affected(update.parent)

    def _membership_after_insert(self, update: Insert) -> None:
        remainder = self._decompose(update.parent, update.child)
        if remainder is None:
            return
        child = update.child
        if not self.has_condition:
            for member in sorted(self._follow(child, remainder)):
                self.view.v_insert(member)
            return
        witnesses = self._eval(child, remainder)
        targets: set[str] = set()
        for witness in witnesses:
            ancestor = self._ancestor(
                witness, self.cond_path, search_root=self.root
            )
            if ancestor is not None:
                targets.add(ancestor)
        for target in sorted(targets):
            self.view.v_insert(target)

    # -- delete -------------------------------------------------------------

    def _on_delete(self, update: Delete) -> None:
        try:
            self._membership_after_delete(update)
        finally:
            self._refresh_affected(update.parent)

    def _membership_after_delete(self, update: Delete) -> None:
        # Batched deletes are history-dependent: see purge_stranded.
        batched = self._context is not None and self._context.batched
        if batched:
            purge_stranded(self, update.child)
        remainder = self._decompose(update.parent, update.child)
        if remainder is None:
            return
        child = update.child
        if not self.has_condition:
            if batched:
                return  # purge above is a superset of N2.p
            # Tree base: everything on N2.p lost its only derivation.
            for member in sorted(self._follow(child, remainder)):
                self.view.v_delete(member)
            return
        inside_subtree = remainder.endswith(self.cond_path)
        if inside_subtree:
            if batched:
                return  # Y is inside the subtree; the purge covered it
            # Paper: p = p1.cond_path — Y is in the detached subtree and
            # unconditionally leaves the view.
            witnesses = self._eval(child, remainder)
            targets: set[str] = set()
            for witness in witnesses:
                ancestor = self._ancestor(
                    witness, self.cond_path, search_root=child
                )
                if ancestor is not None:
                    targets.add(ancestor)
            for target in sorted(targets):
                self.view.v_delete(target)
            return
        # Y survives above the deleted edge; other descendants may still
        # witness the condition (non-unique labels), so re-evaluate.
        if not batched:
            # No witness was lost => Y unaffected.  Only sound when the
            # subtree still is as it was the moment the edge was cut.
            if not self._eval(child, remainder):
                return
        target = self._surviving_ancestor(update.parent)
        if target is None:
            return
        if not self._eval(target, self.cond_path):
            self.view.v_delete(target)

    def _derives(self, oid: str) -> bool:
        """Does the current base derive *oid* from ROOT — is
        ``path(ROOT, oid) = sel_path`` with ``cond`` witnessed below it?"""
        path = self._path_from_root(oid)
        if path is None or path != self.sel_path:
            return False
        return not self.has_condition or bool(self._eval(oid, self.cond_path))

    def _surviving_ancestor(self, parent_oid: str) -> str | None:
        """The Y above the deleted edge: the node at depth |sel_path| on
        the ROOT → N1 chain (N1 remains reachable after the delete)."""
        if self._context is not None:
            chain = self._context.chain_between(self.root, parent_oid)
        else:
            chain = chain_between(
                self.base, self.root, parent_oid, parent_index=self.parent_index
            )
        # chain = [ROOT, ..., N1] has depth(N1)+1 entries; Y sits at
        # index |sel_path|, which exists iff |sel_path| <= depth(N1).
        if chain is None or len(self.sel_path) >= len(chain):
            return None
        return chain[len(self.sel_path)]

    # -- modify -------------------------------------------------------------

    def _on_modify(self, update: Modify) -> None:
        try:
            self._membership_after_modify(update)
        finally:
            self._refresh_affected(update.oid)

    def _membership_after_modify(self, update: Modify) -> None:
        if not self.has_condition:
            return  # membership is pure reachability; values irrelevant
        full = self._path_from_root(update.oid)
        if full is None or full != self.full_path:
            return
        target = self._ancestor(
            update.oid, self.cond_path, search_root=self.root
        )
        if target is None:
            return
        if self.cond(update.new_value):
            self.view.v_insert(target)
        elif self.cond(update.old_value):
            if not self._eval(target, self.cond_path):
                self.view.v_delete(target)

    # -- shared helpers -------------------------------------------------------

    def _decompose(self, parent_oid: str, child_oid: str) -> Path | None:
        """Match ``sel_path.cond_path = path(ROOT,N1).label(N2).p``.

        Returns the remainder ``p``, or None when the update cannot
        affect membership (N1 unreachable, or labels do not line up).
        """
        prefix = self._path_from_root(parent_oid)
        if prefix is None:
            return None
        child = self._shared(
            ("read", child_oid),
            lambda: self.base.get_optional(child_oid),
        )
        if child is None:
            return None
        return self.full_path.strip_prefix(prefix + Path((child.label,)))

    def _refresh_affected(self, oid: str) -> None:
        """Value-refresh extension: keep member delegates true copies."""
        if self.view.contains(oid):
            self.view.refresh(oid)
