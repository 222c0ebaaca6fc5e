"""DAG-base maintenance by derivation counting.

The second Section 6 relaxation: "allow base databases to be directed
acyclic graphs (DAGs).  The maintenance algorithm will be similar to
Algorithm 1, except that now there may be more than one path between
two objects."  With multiple paths, deleting one derivation must not
remove a member that another derivation still supports — the classic
counting problem of relational view maintenance [GMS93], transplanted
to paths.

:class:`DagCountingMaintainer` maintains, for a *simple* view
``SELECT ROOT.sel_path X WHERE cond(X.cond_path)`` over a DAG:

* ``reach[Y]`` — the number of distinct ROOT→Y paths matching
  ``sel_path`` (> 0 ⇔ Y ∈ ROOT.sel_path);
* ``wit[Y]`` — for each Y with ``reach[Y] > 0``, the number of
  (path instance, atomic object) pairs witnessing the condition under
  Y (> 0 ⇔ ``cond(Y.cond_path)``).

``Y`` is a member iff ``reach[Y] > 0`` and (no condition or
``wit[Y] > 0``).

On ``insert(N1, N2)`` / ``delete(N1, N2)`` the count deltas factor
through the updated edge: for every position ``i`` of ``sel_path``
whose label equals ``label(N2)``,

    Δreach[Y] = (#ROOT→N1 paths matching sel_path[:i])
              × (#N2→Y paths matching sel_path[i+1:])

and analogously for ``wit`` over ``cond_path`` (upward counts locate
the affected ancestors Y, downward counts the witnesses below N2).
Because the base is acyclic, the edge N1→N2 can appear in a matching
path at most once and never lies on paths *to* N1 or *from* N2, so all
factor counts are valid both before and after the update.  ``modify``
adjusts ``wit`` of the ancestors reached upward along ``cond_path``.

Objects becoming reachable for the first time get their witness count
computed directly (they lie inside N2's subgraph, untouched by the
update), and the delegate-refresh extension keeps copied values true.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import MaintenanceError
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Delete, Insert, Modify, Update
from repro.views.materialized import MaterializedView


class DagCountingMaintainer:
    """Counting-based incremental maintainer for simple views on DAGs.

    Requires a :class:`ParentIndex` (upward counting needs it).
    """

    def __init__(
        self,
        view: MaterializedView,
        parent_index: ParentIndex,
    ) -> None:
        view.definition.require_simple()
        self.view = view
        self.base: ObjectStore = view.base_store
        self.parent_index = parent_index
        if view.view_store is view.base_store:
            parent_index.ignore_view(view.oid)
        self.root = view.definition.entry
        self.sel_path = tuple(view.definition.sel_path().labels)
        self.cond_path = tuple(view.definition.cond_path().labels)
        self.has_condition = view.definition.has_condition
        self.cond = view.definition.predicate()
        self.reach: dict[str, int] = {}
        self.wit: dict[str, int] = {}
        self.updates_processed = 0
        self._initialize()

    # -- initialization -----------------------------------------------------

    def _initialize(self) -> None:
        self.reach = self._count_down(self.root, self.sel_path)
        self.reach = {y: c for y, c in self.reach.items() if c > 0}
        for member in self.reach:
            self.wit[member] = self._count_witnesses(member)
        for member in sorted(self.reach):
            if self._is_member(member):
                self.view.v_insert(member)

    # -- counting primitives --------------------------------------------------

    def _count_down(
        self, start: str, labels: Sequence[str]
    ) -> dict[str, int]:
        """#paths from *start* to each node matching *labels* exactly."""
        frontier: dict[str, int] = {start: 1}
        for label in labels:
            next_frontier: dict[str, int] = {}
            for oid, count in frontier.items():
                obj = self.base.get_optional(oid)
                if obj is None or not obj.is_set:
                    continue
                for child in obj.children():
                    self.base.counters.edge_traversals += 1
                    child_obj = self.base.get_optional(child)
                    if child_obj is not None and child_obj.label == label:
                        next_frontier[child] = (
                            next_frontier.get(child, 0) + count
                        )
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    def _count_up(
        self, node: str, labels: Sequence[str]
    ) -> dict[str, int]:
        """#paths A→*node* matching *labels*, for every ancestor A.

        The last label of *labels* must be *node*'s own label (the path
        ends at *node*); walking proceeds upward through the parent
        index, fanning out over multiple parents.
        """
        frontier: dict[str, int] = {node: 1}
        for label in reversed(labels):
            next_frontier: dict[str, int] = {}
            for oid, count in frontier.items():
                obj = self.base.get_optional(oid)
                if obj is None or obj.label != label:
                    continue
                for parent in self.parent_index.parents(oid):
                    self.base.counters.edge_traversals += 1
                    next_frontier[parent] = (
                        next_frontier.get(parent, 0) + count
                    )
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    def _count_witnesses(self, member: str) -> int:
        """#(path, atomic object) pairs witnessing cond under *member*."""
        if not self.has_condition:
            return 1
        total = 0
        for oid, count in self._count_down(member, self.cond_path).items():
            obj = self.base.get_optional(oid)
            if obj is None or obj.is_set:
                continue
            if self.cond(obj.atomic_value()):
                total += count
        return total

    # -- membership -----------------------------------------------------------

    def _is_member(self, oid: str) -> bool:
        if self.reach.get(oid, 0) <= 0:
            return False
        if not self.has_condition:
            return True
        return self.wit.get(oid, 0) > 0

    def _sync_member(self, oid: str) -> None:
        if self._is_member(oid):
            self.view.v_insert(oid)
        else:
            self.view.v_delete(oid)

    # -- dispatch ----------------------------------------------------------------

    def handle(self, update: Update) -> None:
        self.updates_processed += 1
        if isinstance(update, Insert):
            self._on_edge(update.parent, update.child, sign=+1)
        elif isinstance(update, Delete):
            self._on_edge(update.parent, update.child, sign=-1)
        elif isinstance(update, Modify):
            self._on_modify(update)
        else:  # pragma: no cover - defensive
            raise MaintenanceError(f"unknown update: {update!r}")

    def handle_all(self, updates) -> None:
        for update in updates:
            self.handle(update)

    # -- edge updates ----------------------------------------------------------------

    def _on_edge(self, parent: str, child: str, *, sign: int) -> None:
        try:
            self._apply_reach_deltas(parent, child, sign)
            if self.has_condition:
                self._apply_wit_deltas(parent, child, sign)
        finally:
            if self.view.contains(parent):
                self.view.refresh(parent)

    def _edge_positions(self, labels: Sequence[str], child: str) -> list[int]:
        child_obj = self.base.get_optional(child)
        if child_obj is None:
            return []
        return [
            i for i, label in enumerate(labels) if label == child_obj.label
        ]

    def _apply_reach_deltas(self, parent: str, child: str, sign: int) -> None:
        deltas: dict[str, int] = {}
        for i in self._edge_positions(self.sel_path, child):
            upward = self._count_up(parent, self.sel_path[:i])
            through = upward.get(self.root, 0)
            if not through:
                continue
            downward = self._count_down(child, self.sel_path[i + 1:])
            for target, count in downward.items():
                deltas[target] = deltas.get(target, 0) + through * count
        for target in sorted(deltas):
            delta = sign * deltas[target]
            old = self.reach.get(target, 0)
            new = old + delta
            if new < 0:  # pragma: no cover - indicates a precondition breach
                raise MaintenanceError(
                    f"negative reach count for {target!r}; base not a DAG?"
                )
            if new == 0:
                self.reach.pop(target, None)
                self.wit.pop(target, None)
            else:
                self.reach[target] = new
                if old == 0:
                    # Newly reachable: its witness count was untracked;
                    # compute it fresh (its subgraph is unaffected by
                    # this edge — acyclicity).
                    self.wit[target] = self._count_witnesses(target)
            self._sync_member(target)

    def _apply_wit_deltas(self, parent: str, child: str, sign: int) -> None:
        deltas: dict[str, int] = {}
        for j in self._edge_positions(self.cond_path, child):
            upward = self._count_up(parent, self.cond_path[:j])
            if not upward:
                continue
            below = self._count_down(child, self.cond_path[j + 1:])
            witness_total = 0
            for oid, count in below.items():
                obj = self.base.get_optional(oid)
                if obj is None or obj.is_set:
                    continue
                if self.cond(obj.atomic_value()):
                    witness_total += count
            if not witness_total:
                continue
            for ancestor, count in upward.items():
                deltas[ancestor] = (
                    deltas.get(ancestor, 0) + count * witness_total
                )
        for ancestor in sorted(deltas):
            if ancestor not in self.reach:
                continue  # not on a sel path; irrelevant
            if sign > 0 and ancestor not in self.wit:
                # Tracked reach but witness count never initialized —
                # cannot happen (init covers all reachable), defensive.
                self.wit[ancestor] = self._count_witnesses(ancestor)
                self._sync_member(ancestor)
                continue
            new = self.wit.get(ancestor, 0) + sign * deltas[ancestor]
            if new < 0:  # pragma: no cover - precondition breach
                raise MaintenanceError(
                    f"negative witness count for {ancestor!r}"
                )
            self.wit[ancestor] = new
            self._sync_member(ancestor)

    # -- modify -----------------------------------------------------------------------

    def _on_modify(self, update: Modify) -> None:
        try:
            if not self.has_condition:
                return
            was = self.cond(update.old_value)
            now = self.cond(update.new_value)
            if was == now:
                return
            sign = 1 if now else -1
            upward = self._count_up(update.oid, self.cond_path)
            for ancestor in sorted(upward):
                if ancestor not in self.reach:
                    continue
                new = self.wit.get(ancestor, 0) + sign * upward[ancestor]
                if new < 0:  # pragma: no cover - precondition breach
                    raise MaintenanceError(
                        f"negative witness count for {ancestor!r}"
                    )
                self.wit[ancestor] = new
                self._sync_member(ancestor)
        finally:
            if self.view.contains(update.oid):
                self.view.refresh(update.oid)
