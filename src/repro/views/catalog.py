"""The view catalog: the library's high-level façade.

A :class:`ViewCatalog` ties together a store, a database registry, a
parent index, a query evaluator, and any number of virtual and
materialized views with their maintainers.  It is the API the examples
use::

    catalog = ViewCatalog()
    ...populate catalog.store...
    catalog.create_database("PERSON", member_oids)
    catalog.define("define mview YP as: SELECT ROOT.professor X "
                   "WHERE X.age <= 45")
    catalog.store.insert_edge("P2", "A2")      # maintained automatically
    catalog.query("SELECT YP.?.name X")

A view is a union of conjunctive branches (its ``OR`` split into DNF
disjuncts; several select paths are spelled
``define(ViewDefinition.union(name, definitions))``), maintained by one
dispatcher registration per branch over a
:class:`~repro.views.union.UnionSupport`; a view of one branch is one
:class:`MaterializedView` and one maintainer.
``catalog.maintainers[name]`` is the tuple of a view's registrations.

Maintainer selection (``maintainer='auto'``), per branch: simple
definitions get Algorithm 1 (:class:`SimpleViewMaintainer`); extended
ones the affected-region maintainer; everything else (``NOT``,
``EXISTS``, scope clauses) falls back to recompute-on-update.  So an
``auto`` ``OR`` view of simple or conjunctive disjuncts carries the
tree-only precondition an ``AND`` view does.  Pass ``'dag'`` for DAG
bases (simple branches only) or ``'recompute'`` for one recompute-on-
update maintainer of the whole view.

A query over the base that a materialized view implies is answered
from that view's members (:meth:`ViewCatalog.query_oids`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Literal

from repro.errors import ViewDefinitionError, ViewError
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Update
from repro.paths.expression import PathExpression
from repro.query.answer import make_answer
from repro.query.ast import Query
from repro.query.evaluator import QueryEvaluator, index_applies, under_names
from repro.query.parser import parse_query
from repro.query.rewrite import answer_from_view, view_answers
from repro.views.aggregate import AggregateView
from repro.views.consistency import ConsistencyReport, check_consistency
from repro.views.dag import DagCountingMaintainer
from repro.views.definition import ViewDefinition
from repro.views.dispatcher import MaintenanceDispatcher, screen_replayed
from repro.views.extended import ExtendedViewMaintainer
from repro.views.maintenance import SimpleViewMaintainer
from repro.views.materialized import MaterializedView, SwizzleMode
from repro.views.recompute import populate_view, recompute_view
from repro.views.union import UnionSupport
from repro.views.virtual import VirtualView

if TYPE_CHECKING:
    from repro.serving.mvcc import (
        AsyncEpochServer,
        EpochAnswer,
        EpochServer,
        FreshnessPolicy,
    )

MaintainerKind = Literal["auto", "simple", "extended", "dag", "recompute"]


class _RecomputeMaintainer:
    """Fallback: recompute the whole view after every update."""

    def __init__(self, view: MaterializedView, registry: DatabaseRegistry) -> None:
        self.view = view
        self.registry = registry
        self.updates_processed = 0

    def handle(self, update: Update) -> None:
        self.updates_processed += 1
        recompute_view(self.view, registry=self.registry)

    def handle_all(self, updates) -> None:
        for update in updates:
            self.handle(update)


class ViewCatalog:
    """Store + registry + views + maintainers, wired together."""

    def __init__(
        self,
        store: ObjectStore | None = None,
        *,
        with_parent_index: bool = True,
        with_label_index: bool = False,
    ) -> None:
        """Args:
        store: an existing store to wrap; a fresh one is created when
            omitted.
        """
        self.store = store if store is not None else ObjectStore()
        self.registry = DatabaseRegistry(self.store)
        self.parent_index = ParentIndex(self.store) if with_parent_index else None
        self.label_index = LabelIndex(self.store) if with_label_index else None
        # The single store subscriber fanning updates to all view
        # maintainers (screened, with a shared per-update PathContext).
        # Subscribed after the indexes so they are fresh when
        # maintenance runs.
        self.dispatcher = MaintenanceDispatcher(
            self.store, parent_index=self.parent_index, subscribe=True
        )
        self.evaluator = QueryEvaluator(
            self.registry, label_index=self.label_index
        )
        #: The read-path server, once :meth:`enable_serving` built it.
        self.server = None
        self.virtual_views: dict[str, VirtualView] = {}
        self.materialized_views: dict[str, MaterializedView] = {}
        #: View name -> its maintainer registrations, one per branch.
        self.maintainers: dict[str, tuple] = {}
        #: Union view name -> the supporting branches of its members.
        self._unions: dict[str, UnionSupport] = {}
        #: View name -> what the dispatcher delivers to after that
        #: view's maintainer(s): its aggregates, and a partial view's
        #: fragment refresh (the view itself).
        self._dependents: dict[str, list] = {}
        self._definition_order: list[str] = []
        #: Every view name: virtual, materialized (unions included) and
        #: partial.
        self._view_names: set[str] = set()
        # The views that may answer a query, by (entry, select path):
        # the materialized views :meth:`define` builds that have one
        # select query.
        self._answering: dict[
            tuple[str, PathExpression], list[MaterializedView]
        ] = {}

    # -- databases ----------------------------------------------------------

    def create_database(self, name: str, members: Iterable[str] = ()) -> Object:
        """Create a database object; its grouping edges are excluded from
        the parent index automatically."""
        obj = self.registry.create_database(name, members)
        if self.parent_index is not None:
            self.parent_index.ignore_parent(name)
        return obj

    # -- view definition ------------------------------------------------------

    def define(
        self,
        definition: ViewDefinition | str,
        *,
        maintainer: MaintainerKind = "auto",
        swizzle: SwizzleMode = SwizzleMode.NONE,
        annotate_timestamps: bool = False,
        view_store: ObjectStore | None = None,
    ) -> VirtualView | MaterializedView:
        """Define a view from a ``define [m]view ...`` statement or a
        :class:`ViewDefinition` (a :meth:`ViewDefinition.union` too).

        Virtual views are registered and evaluated immediately.
        Materialized views are populated, registered, and hooked to a
        maintainer per branch registered with the dispatcher.
        """
        if isinstance(definition, str):
            definition = ViewDefinition.parse(definition)
        name = definition.name
        if name in self.virtual_views or name in self.materialized_views:
            raise ViewError(f"view {name!r} already defined")
        if not definition.materialized:
            view = VirtualView(definition, self.registry, auto_refresh=False)
            self.virtual_views[name] = view
            self._view_names.add(name)
            try:
                view.refresh()
            except Exception:
                # A corrected definition must be able to reuse the name.
                self.drop_view(name)
                raise
            if self.parent_index is not None:
                self.parent_index.ignore_parent(name)
            self._definition_order.append(name)
            return view
        with self._view_oids(name, view_store):
            mview = MaterializedView(
                definition,
                self.store,
                view_store,
                registry=self.registry if view_store is None else None,
                swizzle=swizzle,
                annotate_timestamps=annotate_timestamps,
            )
        self.materialized_views[name] = mview
        self._view_names.add(name)
        try:
            views: list = [mview]
            if maintainer != "recompute" and len(definition.branches) > 1:
                union = self._unions[name] = UnionSupport(mview)
                mview.load_members(union.rebuild(registry=self.registry))
                views = union.branches
            else:
                populate_view(mview, registry=self.registry)
            made = [self._make_maintainer(view, maintainer) for view in views]
            self.maintainers[name] = tuple(map(self.dispatcher.register, made))
        except Exception:
            # A corrected definition must be able to reuse the name.
            self.drop_view(name)
            raise
        self._definition_order.append(name)
        query = definition.query
        if query is not None:
            self._answering.setdefault(
                (query.entry, query.select_path), []
            ).append(mview)
        return mview

    @contextmanager
    def _view_oids(self, name: str, view_store: ObjectStore | None):
        """Register a same-store view's OIDs with the parent index before
        its view object is created (the epoch image decides then)."""
        ignored = (
            self.parent_index is not None
            and (view_store is None or view_store is self.store)
            and name not in self.store  # else creating the view fails
        )
        if ignored:
            self.parent_index.ignore_view(name)
        try:
            yield
        except Exception:
            if ignored:
                self.parent_index.unignore_view(name)
            raise

    def _make_maintainer(self, view, kind: MaintainerKind):
        """The (unregistered) maintainer of *kind* for *view*: a
        materialized view, or one branch of a union."""
        definition = view.definition
        if kind == "auto":
            if definition.is_simple:
                kind = "simple"
            elif definition.is_extended:
                kind = "extended"
            else:
                kind = "recompute"
        if kind == "simple":
            return SimpleViewMaintainer(view, parent_index=self.parent_index)
        if kind == "extended":
            return ExtendedViewMaintainer(view, parent_index=self.parent_index)
        if kind == "dag":
            if self.parent_index is None:
                raise ViewDefinitionError(
                    "DAG maintenance requires a parent index"
                )
            return DagCountingMaintainer(view, self.parent_index)
        if kind == "recompute":
            return _RecomputeMaintainer(view, self.registry)
        raise ViewDefinitionError(f"unknown maintainer kind {kind!r}")

    def define_partial(
        self,
        definition: ViewDefinition | str,
        *,
        depth: int = 2,
        view_store: ObjectStore | None = None,
    ):
        """Define a partially materialized view (§6 open issue 3).

        The view's membership is maintained by Algorithm 1; the
        dispatcher then hands each update to the view itself, which
        rebuilds the fragments whose interior it touched.
        """
        from repro.views.partial import PartialMaterializedView

        if isinstance(definition, str):
            definition = ViewDefinition.parse(definition)
        name = definition.name
        if name in self.virtual_views or name in self.materialized_views:
            raise ViewError(f"view {name!r} already defined")
        with self._view_oids(name, view_store):
            view = PartialMaterializedView(
                definition, self.store, view_store, depth=depth
            )
        maintainer = self.dispatcher.register(
            SimpleViewMaintainer(
                view,  # type: ignore[arg-type]
                parent_index=self.parent_index,
            )
        )
        from repro.views.recompute import compute_view_members

        view.load_members(
            compute_view_members(definition, self.store, registry=self.registry)
        )
        self._dependents[name] = [self.dispatcher.register(view)]
        self.materialized_views[name] = view  # type: ignore[assignment]
        self._view_names.add(name)
        self.maintainers[name] = (maintainer,)
        self._definition_order.append(name)
        if view.view_store is self.store:
            self.registry.register(name, name)
        return view

    def define_aggregate(
        self,
        name: str,
        over: str,
        kind,
        *,
        value_path: tuple[str, ...] | None = None,
    ):
        """Define an incrementally maintained aggregate (§6 open issue 2)
        over an existing materialized view named *over*.

        The dispatcher delivers each update (each coalesced batch) to
        the aggregate after *over*'s maintainer(s), so it always reads
        maintained membership."""
        view = self.materialized_views.get(over)
        if view is None:
            raise ViewError(f"no materialized view named {over!r}")
        aggregate = AggregateView(name, view, kind, value_path=value_path)
        self._dependents.setdefault(over, []).append(
            self.dispatcher.register(aggregate)
        )
        return aggregate

    def drop_view(self, name: str) -> None:
        """Remove a view, its maintainer(s) and dependents from the
        dispatcher, its objects and its aggregates' objects, and its
        parent-index ignore entries."""
        for maintainer in self.maintainers.pop(name, ()):
            self.dispatcher.unregister(maintainer)
        self._unions.pop(name, None)
        for dependent in self._dependents.pop(name, ()):
            self.dispatcher.unregister(dependent)
            if isinstance(dependent, AggregateView):
                dependent.view.view_store.remove_object(dependent.name)
        mview = self.materialized_views.pop(name, None)
        if mview is not None:
            query = mview.definition.query  # None for a union: no key
            key = query and (query.entry, query.select_path)
            kept = [v for v in self._answering.get(key, ()) if v is not mview]
            if kept:
                self._answering[key] = kept
            else:
                self._answering.pop(key, None)
            mview.clear()
            if mview.oid in mview.view_store:
                mview.view_store.remove_object(mview.oid)
        vview = self.virtual_views.pop(name, None)
        if vview is not None and vview.oid in self.store:
            self.store.remove_object(vview.oid)
        self.registry.unregister(name)
        self._view_names.discard(name)
        if self.parent_index is not None:
            self.parent_index.unignore_view(name)
        if name in self._definition_order:
            self._definition_order.remove(name)

    # -- querying ----------------------------------------------------------------

    def query(self, text: str | Query) -> Object:
        """Evaluate a query, refreshing any virtual views it references.

        Virtual views are refreshed in definition order so views defined
        over other views (paper expression 3.4) observe fresh values.
        """
        return make_answer(sorted(self.query_oids(text)), store=self.store)

    def _fresh_query(self, text: str | Query) -> Query:
        """Parse *text* and refresh the virtual views it references, in
        definition order."""
        query = parse_query(text) if isinstance(text, str) else text
        referenced = {query.entry, query.within, query.ans_int}
        if referenced & set(self.virtual_views):
            for name in self._definition_order:
                if name in self.virtual_views:
                    self.virtual_views[name].refresh()
        return query

    def query_oids(self, text: str | Query) -> set[str]:
        """Like :meth:`query` but returns the raw OID set (and registers
        no answer object in the store).

        A query that a materialized view implies is answered from the
        smallest such view's members
        (:func:`~repro.query.rewrite.view_answers`): its own condition
        evaluated on them alone, exactly its answer over the base.  A
        query no view can answer pays one dict lookup for finding out.
        """
        query = self._fresh_query(text)
        views = self._answering.get((query.entry, query.select_path))
        if views is not None:
            answer = self._answer_from_view(query, views)
            if answer is not None:
                return answer
        return self.evaluator.evaluate_oids(query)

    def _answer_from_view(
        self, query: Query, views: list[MaterializedView]
    ) -> set[str] | None:
        """*query*'s answer from the smallest of *views* that implies it,
        or None when none may answer.

        A view answers only while its members agree with the store: no
        batch open, no dispatch running, and not left behind by a
        dispatch that raised (until :meth:`recompute`).  The entry must
        not be a registered database or view name, nor dotted below
        one.  Only membership is read, so value-level edits of the view
        (swizzling, hidden edges) do not disqualify it.
        """
        dispatcher = self.dispatcher
        if not dispatcher.settled or not index_applies(
            query, self.registry.names()
        ):
            return None
        behind = dispatcher.behind
        usable = [
            view
            for view in views
            if view_answers(query, view.definition.query)
            and not (
                behind and not behind.isdisjoint(self.maintainers[view.oid])
            )
        ]
        if not usable:
            return None
        return answer_from_view(
            self.store,
            query,
            min(usable, key=len).members(),
            label_index=self.label_index,
        )

    # -- read-path serving (experiments E16 and E20) -------------------------

    def enable_serving(
        self, *, retention_capacity: int = 4, cache_size: int = 128
    ) -> EpochServer:
        """Build the catalog's one :class:`~repro.serving.mvcc.EpochServer`
        and return it.  Idempotent.

        The server images the catalog's base (views stay out of the
        epoch image) and keeps a precisely invalidated answer cache.
        Writer batches routed through it run this catalog's
        :meth:`apply_batch`, so views are maintained before the new
        epoch publishes; conversely, every direct :meth:`apply_batch`
        call also publishes.  Queries resolving through a virtual or
        materialized view are never cached and never read from an
        epoch: view maintenance rewires delegates without emitting
        store updates, so neither the invalidator nor the image sees
        those changes.  They take the catalog's own :meth:`query_oids`
        path (virtual views refreshed, the label index probed), as do
        ``WITHIN``/``ANS INT`` queries.
        """
        if self.server is None:
            from repro.serving.mvcc import EpochServer

            self.server = EpochServer(
                self.registry,
                parent_index=self.parent_index,
                retention_capacity=retention_capacity,
                cache_size=cache_size,
                cacheable=self._cacheable_query,
                apply_fn=self.apply_batch,
                query_fn=self.query_oids,
            )
        return self.server

    def enable_async_serving(
        self,
        *,
        retention_capacity: int = 4,
        cache_size: int = 128,
    ) -> AsyncEpochServer:
        """The asyncio front door (experiment E20): a thin
        :class:`~repro.serving.mvcc.AsyncEpochServer` over the one
        server :meth:`enable_serving` builds."""
        from repro.serving.mvcc import AsyncEpochServer

        return AsyncEpochServer(
            self.enable_serving(
                retention_capacity=retention_capacity, cache_size=cache_size
            )
        )

    def _cacheable_query(self, query: Query) -> bool:
        """False when the query's answer depends on view delegates:
        it names a view, enters under one, or enters a database that
        groups one."""
        names = self._view_names
        if not names:
            return True
        if (
            query.within in names
            or query.ans_int in names
            or under_names(query.entry, names)
        ):
            return False
        if query.entry in self.registry.names():
            grouped = self.registry.resolve(query.entry).children()
            return names.isdisjoint(grouped)
        return True

    def serve(
        self,
        text: str | Query,
        policy: FreshnessPolicy | str | int = "fresh",
    ) -> EpochAnswer:
        """Serve a query through the catalog's one server, no staler
        than *policy* (``"fresh"``, ``"any"`` or a lag bound) allows.

        Returns the :class:`~repro.serving.mvcc.EpochAnswer`: the OID
        set plus the epoch, lag and source that produced it.  No answer
        object is written into the store.
        """
        return self.enable_serving().read(text, policy)

    # -- maintenance helpers ---------------------------------------------------------

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """Apply a batch of updates, maintaining views once at the end.

        Updates are applied to the store immediately (indexes stay
        fresh) while maintainer dispatch is deferred; on return the
        batch has been coalesced — net-zero edge flips cancelled,
        modify chains folded — and dispatched against the final state.
        Returns the number of updates applied.

        Re-delivering an already-applied batch (or a prefix of one) is
        a no-op: updates whose effect the store already reflects are
        screened out by
        :func:`~repro.views.dispatcher.screen_replayed` before
        application, so at-least-once delivery upstream cannot trigger
        ``InvalidUpdateError`` double-apply failures.
        """
        fresh = screen_replayed(
            self.store, updates, counters=self.store.counters
        )
        with self.dispatcher.batch():
            applied = self.store.apply_all(fresh)
        if self.server is not None:
            # Maintained state becomes the next served epoch (E20);
            # checkpoint() re-enters the write mutex when this batch
            # was routed through the server itself.
            self.server.checkpoint()
        return applied

    def check(self, name: str) -> ConsistencyReport:
        """Audit a materialized view against recomputation."""
        view = self.materialized_views.get(name)
        if view is None:
            raise ViewError(f"no materialized view named {name!r}")
        return check_consistency(
            view, registry=self.registry, label_index=self.label_index
        )

    def check_all(self) -> dict[str, ConsistencyReport]:
        return {name: self.check(name) for name in self.materialized_views}

    def recompute(self, name: str) -> tuple[int, int]:
        """Force full recomputation of a materialized view (and of a
        union's support sets), then of its aggregates."""
        view = self.materialized_views.get(name)
        if view is None:
            raise ViewError(f"no materialized view named {name!r}")
        recomputed = recompute_view(
            view, registry=self.registry, label_index=self.label_index
        )
        union = self._unions.get(name)
        if union is not None:
            union.rebuild(registry=self.registry, label_index=self.label_index)
        behind = self.dispatcher.behind
        behind.difference_update(self.maintainers.get(name, ()))
        for dependent in self._dependents.get(name, ()):
            if isinstance(dependent, AggregateView):
                dependent.refresh_all()
            behind.discard(dependent)
        return recomputed
