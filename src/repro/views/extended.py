"""Extended view maintenance: wildcard paths and compound conditions.

Section 6 of the paper singles out two relaxations of simple views that
are *not* straightforward: select/condition paths that are general path
expressions (requiring path-containment machinery), and non-tree bases.
This module handles the first over tree bases; :mod:`repro.views.dag`
handles the second.

The class of views accepted (``ViewDefinition.is_extended``):

* ``sel_path_exp`` may contain ``?``/``*`` wildcards and alternation;
* the WHERE clause may be a conjunction of comparisons, each with its
  own (possibly wildcard) condition path;
* no scope clauses.

Algorithm ("affected-region" maintenance).  In a tree, an update at
edge ``N1 → N2`` (or a modify at ``N``) can only change membership of:

* **down-candidates** — objects in N2's subtree lying on an instance of
  ``sel_path_exp`` that passes through the updated edge.  These are
  found by feeding the compiled NFA the consumed prefix
  ``path(ROOT,N1).label(N2)`` and continuing evaluation *inside the
  subtree only* (the residual-states trick).
* **up-candidates** — ancestors of ``N1`` (including ``N1``) that lie
  on an instance of ``sel_path_exp``: their condition witnesses live in
  their subtree, which just changed.  These are read off the
  ROOT→``N1`` chain by running the NFA along it.

Every candidate's membership is then re-decided exactly (reachability
is known by construction; conditions are re-evaluated on the current
base).  For tree bases this is exact, not just sound: an object that is
neither an ancestor of ``N1`` nor inside ``N2``'s subtree has an
unchanged subtree and unchanged root path.

Cost: proportional to the affected region (chain length + matching part
of the subtree), never the whole view — compare experiment E9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import MaintenanceError
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.store import ObjectStore
from repro.gsdb.traversal import chain_between
from repro.gsdb.updates import Delete, Insert, Modify, Update
from repro.paths.automaton import compile_expression
from repro.paths.expression import PathExpression
from repro.query.ast import And
from repro.query.conditions import atomic_values_on_path
from repro.views.maintenance import purge_stranded, unshared
from repro.views.materialized import MaterializedView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.views.dispatcher import PathContext


class ExtendedViewMaintainer:
    """Incremental maintainer for wildcard/conjunctive views on trees.

    Interface mirrors
    :class:`~repro.views.maintenance.SimpleViewMaintainer`.
    """

    def __init__(
        self,
        view: MaterializedView,
        *,
        parent_index: ParentIndex | None = None,
    ) -> None:
        if not view.definition.is_extended:
            raise MaintenanceError(
                f"view {view.definition.name!r} is outside the extended "
                f"maintainable class: {view.definition.query}"
            )
        self.view = view
        self.base: ObjectStore = view.base_store
        self.parent_index = parent_index
        if parent_index is not None and view.view_store is view.base_store:
            parent_index.ignore_view(view.oid)
        self.root = view.definition.entry
        self.sel_nfa = compile_expression(view.definition.select_expression)
        self.condition = condition = view.definition.condition
        # The WHERE clause's conjuncts: ``is_extended`` admits a
        # comparison or an ``And`` of comparisons.
        if condition is None:
            self.comparisons = ()
        elif isinstance(condition, And):
            self.comparisons = condition.operands
        else:
            self.comparisons = (condition,)
        self.updates_processed = 0
        self._context: "PathContext | None" = None
        self._shared = unshared

    # -- dispatch ------------------------------------------------------------

    def handle(
        self, update: Update, context: "PathContext | None" = None
    ) -> None:
        """Process one applied update, optionally with a shared
        per-update :class:`~repro.views.dispatcher.PathContext` so
        ROOT→N1 chains, candidate sets and condition witnesses are
        computed once across views sharing the definition part."""
        self.updates_processed += 1
        self._context = context
        self._shared = unshared if context is None else context.shared
        try:
            if isinstance(update, (Insert, Delete)):
                self._on_edge_change(update)
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

    # -- candidate discovery ------------------------------------------------------

    def _chain_to(self, oid: str) -> list[str] | None:
        if self._context is not None:
            return self._context.chain_between(self.root, oid)
        return chain_between(
            self.base, self.root, oid, parent_index=self.parent_index
        )

    def _up_candidates(self, chain: list[str]) -> set[str]:
        """Nodes on the ROOT→N1 chain lying on a sel-path instance
        (shared per root, select path and N1; do not mutate)."""
        nfa = self.sel_nfa

        def walk() -> set[str]:
            candidates: set[str] = set()
            states = nfa.initial()
            if nfa.is_accepting(states):
                candidates.add(chain[0])
            for node in chain[1:]:
                obj = self.base.get_optional(node)
                if obj is None:
                    break
                states = nfa.step(states, obj.label)
                if not states:
                    break
                if nfa.is_accepting(states):
                    candidates.add(node)
            return candidates

        return self._shared(("up", self.root, nfa, chain[-1]), walk)

    def _down_candidates(
        self, chain: list[str], child_oid: str
    ) -> set[str]:
        """Objects in *child_oid*'s subtree on a sel instance through the
        updated edge (shared per root, select path, N1 and N2)."""
        nfa = self.sel_nfa

        def walk() -> set[str]:
            states = nfa.initial()
            for node in chain[1:]:
                obj = self.base.get_optional(node)
                if obj is None:
                    return set()
                states = nfa.step(states, obj.label)
                if not states:
                    return set()
            child = self.base.get_optional(child_oid)
            if child is None:
                return set()
            states = nfa.step(states, child.label)
            if not states:
                return set()
            return nfa.evaluate_many(
                self.base, (child_oid,), from_states=states
            )[child_oid]

        return self._shared(
            ("down", self.root, nfa, chain[-1], child_oid), walk
        )

    # -- membership decision ----------------------------------------------------------

    def _witness_values(self, candidate: str, path: PathExpression) -> list:
        """Atomic values on ``candidate.path``, read once per context;
        each view tests them against its own constant."""
        return self._shared(
            ("witness", candidate, compile_expression(path)),
            lambda: atomic_values_on_path(self.base, candidate, path),
        )

    def _holds(self, candidate: str) -> bool:
        return all(
            any(
                comparison.test_value(value)
                for value in self._witness_values(candidate, comparison.path)
            )
            for comparison in self.comparisons
        )

    def _derives(self, oid: str) -> bool:
        """Does the current base derive *oid* from ROOT: a sel-path
        instance ends at it and the condition holds?"""
        chain = self._chain_to(oid)
        return (
            chain is not None
            and oid in self._up_candidates(chain)
            and self._holds(oid)
        )

    def _decide(self, candidate: str, *, reachable: bool) -> None:
        if reachable and self._holds(candidate):
            self.view.v_insert(candidate)
        else:
            self.view.v_delete(candidate)

    # -- handlers -----------------------------------------------------------------------

    def _on_edge_change(self, update: Insert | Delete) -> None:
        try:
            attached = isinstance(update, Insert)
            batched = self._context is not None and self._context.batched
            if batched and not attached:
                # Batched dispatch sees the *final* state, so the NFA
                # walk below would under-approximate: purge instead.
                purge_stranded(self, update.child)
            chain = self._chain_to(update.parent)
            if chain is None:
                return  # update in a detached region; no member involved
            if attached or not batched:
                for candidate in sorted(
                    self._down_candidates(chain, update.child)
                ):
                    self._decide(candidate, reachable=attached)
            for candidate in sorted(self._up_candidates(chain)):
                self._decide(candidate, reachable=True)
        finally:
            if self.view.contains(update.parent):
                self.view.refresh(update.parent)

    def _on_modify(self, update: Modify) -> None:
        try:
            if self.condition is None:
                return  # membership is pure reachability
            chain = self._chain_to(update.oid)
            if chain is None:
                return
            for candidate in sorted(self._up_candidates(chain)):
                self._decide(candidate, reachable=True)
        finally:
            if self.view.contains(update.oid):
                self.view.refresh(update.oid)
