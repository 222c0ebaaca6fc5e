"""Partially materialized views — the paper's third open issue (§6).

"How does one define and maintain partially materialized views, for
example, views that materialize a few levels of objects and leave the
rest as pointers back to base data?  This type of views may be useful
for caching some but not all data of interest."

A :class:`PartialMaterializedView` copies, for every view member, a
*fragment*: the member and its descendants down to ``depth`` levels.
Inside a fragment, edges are swizzled to the copied objects; at the
fragment frontier, set values keep base OIDs — the "pointers back to
base data".  ``depth=1`` copies just the member objects (the paper's
ordinary materialized view with eager swizzling); larger depths cache
more context locally.

The class exposes the same mutation surface as
:class:`~repro.views.materialized.MaterializedView` (``v_insert`` /
``v_delete`` / ``refresh`` / ``contains`` / ...), so the ordinary
maintainers drive *membership* unchanged.  Fragment *contents* below
the member are outside what Algorithm 1 refreshes, so the maintenance
dispatcher also delivers each update to the view itself, after its
maintainer, and :meth:`PartialMaterializedView.handle` rebuilds any
fragment whose interior the update touches.  Fragments may overlap (a
member nested inside another member's fragment); copied objects are
reference counted.
"""

from __future__ import annotations

from typing import Iterable

from repro.gsdb.object import Object
from repro.gsdb.oid import delegate_oid
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Update
from repro.views.definition import ViewDefinition
from repro.views.materialized import VIEW_LABEL


class PartialMaterializedView:
    """Materialize ``depth`` levels per member; deeper data stays remote."""

    def __init__(
        self,
        definition: ViewDefinition,
        base_store: ObjectStore,
        view_store: ObjectStore | None = None,
        *,
        depth: int = 2,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.definition = definition
        self.base_store = base_store
        self.view_store = view_store if view_store is not None else base_store
        self.depth = depth
        self._members: set[str] = set()
        self._refcounts: dict[str, int] = {}
        self._fragments: dict[str, tuple[str, ...]] = {}  # member -> oids
        self.view_object = Object.set_object(definition.name, VIEW_LABEL)
        previous = self.view_store.check_references
        self.view_store.check_references = False
        try:
            self.view_store.add_object(self.view_object)
        finally:
            self.view_store.check_references = previous

    # -- identity / lookup -----------------------------------------------------

    @property
    def oid(self) -> str:
        return self.definition.name

    def delegate_oid(self, base_oid: str) -> str:
        return delegate_oid(self.oid, base_oid)

    def members(self) -> set[str]:
        return set(self._members)

    def contains(self, base_oid: str) -> bool:
        return base_oid in self._members

    def delegates(self) -> set[str]:
        return set(self.view_object.children())

    def copied_oids(self) -> set[str]:
        """Every base OID with a local copy (members + fragment interiors)."""
        return set(self._refcounts)

    def delegate(self, base_oid: str) -> Object | None:
        if base_oid not in self._refcounts:
            return None
        return self.view_store.get_optional(self.delegate_oid(base_oid))

    def __len__(self) -> int:
        return len(self._members)

    # -- fragment computation -----------------------------------------------------

    def _fragment_oids(self, member: str) -> list[str]:
        """Member + descendants within ``depth`` levels (BFS order)."""
        oids = [member]
        seen = {member}
        frontier = [member]
        for _ in range(self.depth - 1):
            next_frontier: list[str] = []
            for oid in frontier:
                obj = self.base_store.get_optional(oid)
                if obj is None or not obj.is_set:
                    continue
                for child in obj.sorted_children():
                    if child not in seen:
                        seen.add(child)
                        oids.append(child)
                        next_frontier.append(child)
            frontier = next_frontier
        return oids

    def _copy_one(self, base_oid: str, in_fragment: set[str]) -> None:
        base = self.base_store.get(base_oid)
        doid = self.delegate_oid(base_oid)
        if base.is_set:
            # Interior edges swizzle; frontier edges point back to base.
            value = {
                self.delegate_oid(c) if c in in_fragment else c
                for c in base.children()
            }
            copy = Object(doid, base.label, "set", value)
        else:
            copy = Object(doid, base.label, base.type, base.atomic_value())
        previous = self.view_store.check_references
        self.view_store.check_references = False
        try:
            if doid in self.view_store:
                self.view_store.remove_object(doid)
            self.view_store.add_object(copy)
        finally:
            self.view_store.check_references = previous

    def _build_fragment(self, member: str) -> None:
        oids = self._fragment_oids(member)
        in_fragment = set(oids)
        for base_oid in oids:
            self._copy_one(base_oid, in_fragment)
            self._refcounts[base_oid] = self._refcounts.get(base_oid, 0) + 1
        self._fragments[member] = tuple(oids)

    def _drop_fragment(self, member: str) -> None:
        for base_oid in self._fragments.pop(member, ()):
            count = self._refcounts.get(base_oid, 0) - 1
            if count <= 0:
                self._refcounts.pop(base_oid, None)
                doid = self.delegate_oid(base_oid)
                if doid in self.view_store:
                    self.view_store.remove_object(doid)
            else:
                self._refcounts[base_oid] = count

    # -- MaterializedView-compatible mutators ------------------------------------------

    def v_insert(self, member: str) -> bool:
        if member in self._members:
            self.refresh(member)
            return False
        self._members.add(member)
        self._build_fragment(member)
        self.view_object.children().add(self.delegate_oid(member))
        self.view_store.counters.delegates_inserted += 1
        return True

    def v_delete(self, member: str) -> bool:
        if member not in self._members:
            return False
        self._members.discard(member)
        self._drop_fragment(member)
        self.view_object.children().discard(self.delegate_oid(member))
        self.view_store.counters.delegates_deleted += 1
        return True

    def refresh(self, member: str) -> bool:
        """Rebuild the member's whole fragment from current base state."""
        if member not in self._members:
            return False
        self._drop_fragment(member)
        self._build_fragment(member)
        self.view_store.counters.delegates_refreshed += 1
        return True

    def clear(self) -> None:
        for member in sorted(self._members):
            self.v_delete(member)

    def load_members(self, members: Iterable[str]) -> None:
        for member in sorted(members):
            self.v_insert(member)

    # -- fragment-interior maintenance ----------------------------------------------------

    def handle(self, update: Update) -> None:
        """Rebuild fragments whose interior the update touched.

        Membership itself is the job of the attached maintainer (which
        runs first — it was registered first); this pass only keeps
        copied interiors fresh, the analogue of the delegate-refresh
        extension for multi-level copies.
        """
        affected = set(update.directly_affected)
        for member in sorted(self._members):
            fragment = set(self._fragments.get(member, ()))
            if fragment & affected:
                self.refresh(member)

    # -- consistency-checker hooks ------------------------------------------------------------

    def expected_delegate_value(self, base_oid: str) -> object:
        """What a member's delegate value should hold: interior children
        swizzled, frontier children as base OIDs."""
        base = self.base_store.get(base_oid)
        if not base.is_set:
            return base.atomic_value()
        copied = self.copied_oids()
        return {
            self.delegate_oid(c) if c in copied and self._interior(base_oid, c)
            else c
            for c in base.children()
        }

    def _interior(self, parent: str, child: str) -> bool:
        """Is the edge parent→child interior to some fragment?"""
        for member, fragment in self._fragments.items():
            oids = set(fragment)
            if parent in oids and child in oids:
                return True
        return False

    def annotation_oids(self) -> set[str]:
        return set()

    def check_fragments(self) -> list[str]:
        """Audit every copied object against the base; returns a list of
        OIDs whose copy is stale (empty = consistent)."""
        stale: list[str] = []
        for member in sorted(self._members):
            expected = self._fragment_oids(member)
            if tuple(expected) != self._fragments.get(member, ()):
                stale.append(member)
                continue
            in_fragment = set(expected)
            for base_oid in expected:
                base = self.base_store.get(base_oid)
                copy = self.delegate(base_oid)
                if copy is None or copy.label != base.label:
                    stale.append(base_oid)
                    continue
                if base.is_set:
                    want = {
                        self.delegate_oid(c) if c in in_fragment else c
                        for c in base.children()
                    }
                    if copy.children() != want:
                        stale.append(base_oid)
                elif copy.atomic_value() != base.atomic_value():
                    stale.append(base_oid)
        return stale

    def __repr__(self) -> str:
        return (
            f"PartialMaterializedView({self.oid!r}, depth={self.depth}, "
            f"members={len(self._members)}, copies={len(self._refcounts)})"
        )
