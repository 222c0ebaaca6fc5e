"""Views with multiple select paths (paper Section 6).

"Relaxing some of the restrictions we imposed on the view definition in
Section 4 is easy.  For example, handling views with more than one
select path or more than one condition is straightforward."

A :class:`MultiPathView` is the union of several simple definitions
over the same base: an object is a member while *any* branch selects
it.  One shared :class:`~repro.views.materialized.MaterializedView`
holds the delegates; per-branch support sets play the role of
derivation counting (an object selected by two branches survives the
loss of one).  Each branch gets its own Algorithm 1 maintainer, driving
a thin adapter that translates branch-level ``V_insert``/``V_delete``
into support-set arithmetic.

(Conjunctive multi-*condition* views are already handled by
:class:`~repro.views.extended.ExtendedViewMaintainer`; this module
covers the select-path side of the paper's remark.)
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ViewDefinitionError
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.store import ObjectStore
from repro.views.definition import ViewDefinition
from repro.views.maintenance import SimpleViewMaintainer
from repro.views.materialized import MaterializedView
from repro.views.recompute import compute_view_members


class _Branch:
    """MaterializedView-compatible adapter for one select path."""

    def __init__(self, parent: "MultiPathView", index: int,
                 definition: ViewDefinition) -> None:
        self.parent = parent
        self.index = index
        self.definition = definition
        self.base_store = parent.base_store
        self.view_store = parent.view.view_store

    @property
    def oid(self) -> str:
        return self.parent.name

    def contains(self, base_oid: str) -> bool:
        return self.index in self.parent.support.get(base_oid, ())

    def v_insert(self, base_oid: str) -> bool:
        return self.parent._branch_insert(self.index, base_oid)

    def v_delete(self, base_oid: str) -> bool:
        return self.parent._branch_delete(self.index, base_oid)

    def refresh(self, base_oid: str) -> bool:
        return self.parent.view.refresh(base_oid)


class MultiPathView:
    """Union of simple views over one base, with shared delegates.

    The per-branch :attr:`maintainers` are not connected to the store:
    register each with a dispatcher, as
    :meth:`~repro.views.catalog.ViewCatalog.define_multipath` does, or
    subscribe its ``handle`` to the base store.
    """

    def __init__(
        self,
        name: str,
        definitions: Sequence[ViewDefinition | str],
        base_store: ObjectStore,
        view_store: ObjectStore | None = None,
        *,
        parent_index: ParentIndex | None = None,
    ) -> None:
        parsed = [
            ViewDefinition.parse(d) if isinstance(d, str) else d
            for d in definitions
        ]
        if not parsed:
            raise ViewDefinitionError("MultiPathView needs >= 1 definition")
        for definition in parsed:
            definition.require_simple()
        entries = {d.entry for d in parsed}
        if len(entries) > 1:
            raise ViewDefinitionError(
                f"branches must share one entry point, got {sorted(entries)}"
            )
        self.name = name
        self.base_store = base_store
        self.definitions = parsed
        self.support: dict[str, set[int]] = {}
        # The shared view carries a synthetic union definition for
        # identity/reporting; its own query is the first branch's.
        carrier = ViewDefinition(
            name=name, query=parsed[0].query, materialized=True
        )
        self.view = MaterializedView(carrier, base_store, view_store)
        if parent_index is not None and self.view.view_store is base_store:
            parent_index.ignore_view(name)
        self.branches = [
            _Branch(self, i, definition)
            for i, definition in enumerate(parsed)
        ]
        # Initial population, branch by branch.
        for branch in self.branches:
            for member in sorted(
                compute_view_members(branch.definition, base_store)
            ):
                branch.v_insert(member)
        self.maintainers = [
            SimpleViewMaintainer(
                branch,  # type: ignore[arg-type]
                parent_index=parent_index,
            )
            for branch in self.branches
        ]

    # -- membership -----------------------------------------------------------

    def members(self) -> set[str]:
        return self.view.members()

    def contains(self, base_oid: str) -> bool:
        return self.view.contains(base_oid)

    def delegate(self, base_oid: str):
        return self.view.delegate(base_oid)

    def __len__(self) -> int:
        return len(self.view)

    def supporting_branches(self, base_oid: str) -> set[int]:
        return set(self.support.get(base_oid, ()))

    # -- branch-level operations ---------------------------------------------------

    def _branch_insert(self, index: int, base_oid: str) -> bool:
        supporters = self.support.setdefault(base_oid, set())
        fresh_for_branch = index not in supporters
        supporters.add(index)
        if not self.view.contains(base_oid):
            return self.view.v_insert(base_oid)
        self.view.refresh(base_oid)
        return fresh_for_branch

    def _branch_delete(self, index: int, base_oid: str) -> bool:
        supporters = self.support.get(base_oid)
        if supporters is None or index not in supporters:
            return False
        supporters.discard(index)
        if not supporters:
            del self.support[base_oid]
            return self.view.v_delete(base_oid)
        return False

    # -- auditing ---------------------------------------------------------------------

    def check(self) -> bool:
        """Members must equal the union of branch truths, and support
        sets must match per-branch truths exactly."""
        union: set[str] = set()
        for i, definition in enumerate(self.definitions):
            truth = compute_view_members(definition, self.base_store)
            union |= truth
            recorded = {
                oid for oid, sup in self.support.items() if i in sup
            }
            if recorded != truth:
                return False
        return self.members() == union

    def __repr__(self) -> str:
        return (
            f"MultiPathView({self.name!r}, branches={len(self.branches)}, "
            f"members={len(self)})"
        )
