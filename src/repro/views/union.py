"""Union views (paper Section 6: "handling views with more than one
select path or more than one condition is straightforward").

A view is the union of its definition's branches: an object is a member
while any branch selects it.  A union of several branches is one
:class:`~repro.views.materialized.MaterializedView` plus a
:class:`UnionSupport` — the branches selecting each member, kept as a
Rete union node keeps them, so a member two branches select survives
the loss of one — and one maintainer per branch, each driving a
:class:`_BranchView`: ``V_insert``/``V_delete`` change the support and
reach the shared view only when a member's first branch arrives or its
last one leaves.
"""

from __future__ import annotations

from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex
from repro.views.definition import ViewDefinition
from repro.views.materialized import MaterializedView
from repro.views.recompute import compute_view_members


class UnionSupport:
    """The supporting branches of every member of a union *view*."""

    def __init__(self, view: MaterializedView) -> None:
        self.view = view
        #: Member -> indexes of the branches selecting it.
        self.support: dict[str, set[int]] = {}
        self.branches = [
            _BranchView(self, index, branch)
            for index, branch in enumerate(view.definition.branches)
        ]

    def rebuild(
        self,
        *,
        registry: DatabaseRegistry | None = None,
        label_index: LabelIndex | None = None,
    ) -> set[str]:
        """Set every member's support from each branch's truth; returns
        the union's members (the view itself is left as it is)."""
        self.support.clear()
        for branch in self.branches:
            for oid in compute_view_members(
                branch.definition,
                self.view.base_store,
                registry=registry,
                label_index=label_index,
            ):
                self.support.setdefault(oid, set()).add(branch.index)
        return set(self.support)


class _BranchView:
    """One branch of a union view, with the maintenance interface of a
    :class:`~repro.views.materialized.MaterializedView`: its members are
    the objects this branch supports."""

    def __init__(
        self, union: UnionSupport, index: int, definition: ViewDefinition
    ) -> None:
        self.view = union.view
        self.support = union.support
        self.index = index
        self.definition = definition
        self.oid = self.view.oid
        self.base_store = self.view.base_store
        self.view_store = self.view.view_store
        self.refresh = self.view.refresh

    def contains(self, base_oid: str) -> bool:
        return self.index in self.support.get(base_oid, ())

    def members(self) -> set[str]:
        return {oid for oid, by in self.support.items() if self.index in by}

    def v_insert(self, base_oid: str) -> None:
        self.support.setdefault(base_oid, set()).add(self.index)
        self.view.v_insert(base_oid)  # refreshes a member's delegate

    def v_delete(self, base_oid: str) -> None:
        branches = self.support.get(base_oid)
        if branches is None or self.index not in branches:
            return
        branches.discard(self.index)
        if not branches:
            del self.support[base_oid]
            self.view.v_delete(base_oid)
