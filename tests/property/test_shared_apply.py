"""Property suite: shared apply ≡ unshared apply.

The dispatcher's :class:`~repro.views.dispatcher.PathContext` evaluates
each definition part — candidate sets, ``N.p`` and its values,
``ancestor()``, condition witnesses, a batched delete's subtree — once
per update (once per batch) and hands the answer to every view sharing
it; only ``cond()`` and ``V_insert``/``V_delete``/refresh stay per view.
Three copies of one random catalog (constant-varied duplicates
included, several roots) take the same update stream:

* *shared* — the dispatcher as shipped;
* *unshared* — the same dispatcher with a context that shares nothing;
* *context-free* — every maintainer subscribed to the store itself,
  handling each update without a context (Algorithm 1 as printed).

After every step (one update streamed, or one batch) the extents of all
three equal recomputation and each other, and the base accesses the
shared copy charged never exceed the unshared one's — nor, streamed,
the context-free one's.  One case keeps the delegates in the base store
(as :class:`~repro.views.ViewCatalog` does); one stacks a recomputed
view over a materialized one (tests/integration/test_views_on_views.py).
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.views.dispatcher as dispatcher_module
from repro.gsdb import ParentIndex
from repro.views import MaintenanceDispatcher, PathContext, ViewCatalog
from repro.views.recompute import compute_view_members
from repro.workloads import (
    UpdateStream,
    person_db,
    random_labelled_tree,
    register_person_database,
)
from tests.property.support import (
    EXTENDED_TEMPLATES,
    SIMPLE_TEMPLATES,
    common_settings,
    register_catalog,
)

COMMON = common_settings(60)

COPIES = ("shared", "unshared", "context-free")


def _draw_triples(rng, roots: list[str], count: int) -> list[tuple[str, str]]:
    """Like :func:`~tests.property.support.draw_catalog`, but every
    drawn template is defined three times: twice over one root, which
    share everything their paths reach, and once over another, which
    must share nothing with them.  Only kinds with a view are drawn —
    the view-less ones read nothing to share."""
    specs = []
    for _ in range(count):
        kind = rng.choice(("simple", "extended", "unscreened", "partial"))
        templates = EXTENDED_TEMPLATES if kind == "extended" else SIMPLE_TEMPLATES
        template = rng.choice(templates)
        here, there = rng.sample(roots, 2)
        specs += [(kind, template.format(e=e)) for e in (here, here, there)]
    return specs


class _UnsharedContext(PathContext):
    """Shares nothing: every definition part is computed — and charged —
    by each view that asks."""

    def shared(self, key, compute):
        return compute()


@contextmanager
def _dispatching(copy: str):
    """While active, *copy*'s dispatcher builds its kind of context."""
    if copy == "unshared":
        with mock.patch.object(dispatcher_module, "PathContext", _UnsharedContext):
            yield
    else:
        yield


class _SelfSubscribing:
    """Stands in for the dispatcher: each registered maintainer
    subscribes to the store and sees every update without a context."""

    def __init__(self, store) -> None:
        self.store = store

    def register(self, maintainer, *, screen: bool = True):
        self.store.subscribe(maintainer.handle)
        return maintainer


class _Copy:
    """One copy of the world: its store, views, dispatcher (None when
    context-free) and update stream."""

    def __init__(self, copy, store, views, dispatcher, stream) -> None:
        self.copy = copy
        self.store = store
        self.views = views
        self.dispatcher = dispatcher
        self.stream = stream
        self.charged = store.counters.total_base_accesses()

    def step(self, updates: int, batched: bool) -> None:
        block = (
            self.dispatcher.batch()
            if batched and self.dispatcher is not None
            else nullcontext()
        )
        with _dispatching(self.copy), block:
            self.stream.run(updates)

    def spent(self) -> int:
        """Base accesses charged by maintenance since construction."""
        return self.store.counters.total_base_accesses() - self.charged

    def extents(self) -> list:
        return [None if v is None else v.members() for v in self.views]

    def assert_recomputation_agrees(self) -> None:
        before = self.store.counters.total_base_accesses()
        for view in self.views:
            if view is not None:
                assert view.members() == compute_view_members(
                    view.definition, self.store
                ), view.definition.query
        # The oracle's reads are not maintenance.
        self.charged += self.store.counters.total_base_accesses() - before


def _size(store, oid: str) -> int:
    """Objects in *oid*'s subtree (uncharged)."""
    obj = store.peek(oid)
    return 1 + (sum(_size(store, c) for c in obj.children()) if obj.is_set else 0)


def _random_copy(copy, seed, nodes, drawn, central):
    store, root = random_labelled_tree(
        nodes=nodes,
        labels=("a", "b", "c"),
        value_range=(0, 100),
        atomic_fraction=0.5,
        seed=seed,
    )
    index = ParentIndex(store)
    dispatcher = (
        None
        if copy == "context-free"
        else MaintenanceDispatcher(store, parent_index=index, subscribe=True)
    )
    rng = random.Random(seed)
    inner = sorted(
        oid for oid in store.oids() if oid != root and store.peek(oid).is_set
    )
    atoms = sorted(oid for oid in store.oids() if not store.peek(oid).is_set)
    # The tree root, the inner set with the largest subtree (most
    # updates land below both), a random inner set and an atom.
    roots = [root, *atoms[:1]]
    if inner:
        roots += [max(inner, key=lambda oid: _size(store, oid)), rng.choice(inner)]
    views = register_catalog(
        dispatcher or _SelfSubscribing(store),
        store,
        index,
        _draw_triples(rng, roots, drawn),
        central=central,
    )
    names = [view.oid for view in views if view is not None]
    stream = UpdateStream(
        store,
        seed=seed + 1,
        protected=frozenset({root, *names}),
        protected_prefixes=tuple(f"{name}." for name in names),
        labels_for_new=("a", "b", "c"),
    )
    return _Copy(copy, store, views, dispatcher, stream)


def _check(copies, batched) -> None:
    shared, unshared, free = copies
    shared.assert_recomputation_agrees()
    assert shared.extents() == unshared.extents() == free.extents()
    assert shared.spent() <= unshared.spent()
    if not batched:
        assert shared.spent() <= free.spent()


def _drive(copies, steps, batched) -> None:
    """Each entry of *steps* is one batch of that many updates, or that
    many updates streamed; the copies are compared after every batch,
    or after every streamed update."""
    for updates in steps:
        for _ in range(1 if batched else updates):
            for copy in copies:
                copy.step(updates if batched else 1, batched)
            _check(copies, batched)


class TestSharedApply:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(10, 40),
        drawn=st.integers(1, 4),
        steps=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        batched=st.booleans(),
        central=st.booleans(),
    )
    @settings(**COMMON)
    def test_shared_equals_unshared_and_recompute(
        self, seed, nodes, drawn, steps, batched, central
    ):
        copies = [
            _random_copy(copy, seed, nodes, drawn, central) for copy in COPIES
        ]
        _drive(copies, steps, batched)


def _person_copy(copy: str, seed: int) -> _Copy:
    """The person database with two materialized views differing only in
    a constant, a wildcard view, and a recomputed view over the first."""
    catalog = ViewCatalog()
    person_db(catalog.store, tree=True)
    register_person_database(catalog)
    views = [
        catalog.define(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        ),
        catalog.define(
            "define mview OP as: SELECT ROOT.professor X WHERE X.age > 30"
        ),
        catalog.define("define mview AG as: SELECT ROOT.? X WHERE X.age > 30"),
        catalog.define(
            "define mview OUTER as: SELECT YP.? X", maintainer="recompute"
        ),
    ]
    dispatcher = catalog.dispatcher
    if copy == "context-free":
        for (maintainer,) in catalog.maintainers.values():
            dispatcher.unregister(maintainer)
            catalog.store.subscribe(maintainer.handle)
        dispatcher = None
    names = [view.oid for view in views]
    stream = UpdateStream(
        catalog.store,
        seed=seed,
        protected=frozenset({"ROOT", "PERSON", *names}),
        protected_prefixes=tuple(f"{name}." for name in names),
        labels_for_new=("age", "name", "professor"),
        value_range=(10, 70),
    )
    return _Copy(copy, catalog.store, views, dispatcher, stream)


class TestViewOverView:
    @given(
        seed=st.integers(0, 10_000),
        steps=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        batched=st.booleans(),
    )
    @settings(**common_settings(10))
    def test_stacked_views_share_and_stay_exact(self, seed, steps, batched):
        copies = [_person_copy(copy, seed) for copy in COPIES]
        _drive(copies, steps, batched)
