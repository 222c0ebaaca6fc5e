"""The relational mirror: GSDB updates driving relational IVM.

:class:`RelationalMirror` is the full Section 4.4 baseline pipeline:

    GSDB store ──updates──▶ Flattener ──single-table deltas──▶ tables
                                        └──▶ CountingView(s)  (one IVM
                                             invocation per delta per view)

Subscribe it to an :class:`~repro.gsdb.store.ObjectStore` and register
compiled views; it keeps the tables and every view's counts in sync and
records the metrics experiment E4 reports: deltas produced, IVM
invocations, and the transient *inconsistency windows* — moments where
only part of a multi-delta GSDB update has been propagated (the paper:
"it would be incorrect to have a tuple (A,B) in the PARENT-CHILD table
without having both A and B in the OID-LABEL table").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Update
from repro.relational.counting import CountingView
from repro.relational.flatten import Flattener, TableDelta
from repro.relational.table import Database
from repro.relational.views import compile_simple_view
from repro.views.definition import ViewDefinition


@dataclass
class MirrorStats:
    """Cumulative accounting for experiment E4."""

    gsdb_updates: int = 0
    object_creations: int = 0
    table_deltas: int = 0
    ivm_invocations: int = 0
    view_tuple_changes: int = 0
    inconsistency_windows: int = 0
    extra: dict[str, int] = field(default_factory=dict)


class RelationalMirror:
    """Keeps a relational image + counting views in sync with a store."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.db = Database()
        self.flattener = Flattener(store, self.db)
        self.flattener.load()
        self.views: dict[str, CountingView] = {}
        self.definitions: dict[str, ViewDefinition] = {}
        self.stats = MirrorStats()
        store.subscribe(self.on_update)
        store.subscribe_creations(self.on_creation)

    # -- view registration ------------------------------------------------------

    def register_view(self, definition: ViewDefinition) -> CountingView:
        """Compile a simple view and materialize it over the tables."""
        query = compile_simple_view(definition)
        view = CountingView(definition.name, query, self.db)
        view.initialize()
        self.views[definition.name] = view
        self.definitions[definition.name] = definition
        return view

    def members(self, name: str) -> set[str]:
        """The view's member OIDs (support of the counted relation)."""
        return {head[0] for head in self.views[name].support()}

    # -- event handlers -------------------------------------------------------------

    def ignore_view(self, view_oid: str) -> None:
        """Exclude a co-located materialized view's internal objects."""
        self.flattener.ignore_view(view_oid)

    def on_creation(self, obj: Object) -> None:
        """A new object appeared in the store: 1-or-more table deltas."""
        if self.flattener.is_ignored(obj.oid):
            return
        self.stats.object_creations += 1
        deltas = list(self.flattener.creation_deltas(obj))
        self._apply_deltas(deltas)

    def on_update(self, update: Update) -> None:
        """A basic GSDB update: translate and propagate."""
        self.stats.gsdb_updates += 1
        deltas = self.flattener.deltas_for(update)
        self._apply_deltas(deltas)

    def _apply_deltas(self, deltas: list[TableDelta]) -> None:
        # Every delta after the first leaves the image momentarily
        # inconsistent with object-level semantics until the batch ends.
        if len(deltas) > 1:
            self.stats.inconsistency_windows += len(deltas) - 1
        for delta in deltas:
            self.flattener.apply_delta(delta)
            self.stats.table_deltas += 1
            for view in self.views.values():
                outcome = view.apply_delta(delta.table, delta.row, delta.count)
                self.stats.ivm_invocations += 1
                self.stats.view_tuple_changes += outcome.count_changes

    # -- verification ------------------------------------------------------------------

    def verify(self) -> bool:
        """Tables mirror the store and every view matches re-evaluation."""
        if not self.flattener.verify_against_store():
            return False
        return all(
            view.check_against_full_evaluation()
            for view in self.views.values()
        )
