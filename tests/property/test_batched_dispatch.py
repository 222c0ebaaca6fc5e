"""Property suite: batched dispatch ≡ recompute.

Every batch goes through ``dispatcher.batch()`` — applied in full,
coalesced, then dispatched against the final state — and must leave
every view extent equal to recomputation.  Random tree bases, random
batched update streams (attach / detach / move / modify, random batch
sizes — the only property generator driving *move* mutations through a
batch), with simple, condition-free, and extended (wildcard) views
together in one catalog.  Hypothesis draws seeds; every generator is a
deterministic function of them, so failures replay.

A second property draws the *catalog* too (shared prefixes, several
roots, empty select paths, partial, extended, unscreened and
context-free maintainers interleaved) and holds the dispatcher's
definition index to the per-view screens: same matches per update,
same charges.  A third holds the screens to exactness: a twin
catalog registered unscreened, fed the same batches, ends every batch
with the same extents and delegates.

The mutations are biased towards the case that makes a batched
delete's final path lie: an ancestor of a view member's parent moves
under a parent of another label, then the member is cut loose in the
same batch.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb import ObjectStore, ParentIndex
from repro.gsdb.traversal import descendants
from repro.views import (
    ExtendedViewMaintainer,
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    check_consistency,
    populate_view,
)
from repro.views.dispatcher import MaintenanceDispatcher
from tests.property.support import (
    check_matching_against_screens,
    common_settings,
    draw_catalog,
    register_catalog,
    use_per_view_screens,
)

COMMON = common_settings(10)

LABELS = ("a", "b", "c")

#: One catalog, three screen shapes: a prefix view with a condition, a
#: condition-free prefix view, and a wildcard (extended) view.
VIEW_DEFS = (
    ("simple", "define mview SV as: SELECT root0.a.b X WHERE X.c > 50"),
    ("simple", "define mview NV as: SELECT root0.a X"),
    ("extended", "define mview EV as: SELECT root0.* X WHERE X.c > 50"),
)


def build_tree(store, seed: int, nodes: int) -> None:
    """A deterministic random tree under root0."""
    rng = random.Random(seed)
    store.add_set("root0", "root")
    sets = ["root0"]
    for i in range(nodes):
        oid = f"n{i}"
        label = rng.choice(LABELS)
        if rng.random() < 0.4:
            store.add_atomic(oid, label, rng.randint(0, 100))
        else:
            store.add_set(oid, label)
            sets.append(oid)
        store.insert_edge(rng.choice(sets[:-1] or ["root0"]), oid)


def _sets(store) -> list[str]:
    return sorted(
        oid
        for oid in store.oids()
        if not oid.startswith(("SV", "NV", "EV")) and store.peek(oid).is_set
    )


def _parent(store, oid: str) -> str | None:
    for parent in _sets(store):
        if oid in store.peek(parent).children():
            return parent
    return None


def _strand(store, rng: random.Random, members) -> None:
    """Move an ancestor of a member's parent (the parent itself, or
    above it, below ``root0``) under a parent labelled unlike its old
    one, then cut the member from its parent: the cut's final path is
    not the path it had when the edge went."""
    cuts = [
        (parent, member)
        for member in sorted(members)
        if (parent := _parent(store, member)) not in (None, "root0")
    ]
    if not cuts:
        return
    parent, member = rng.choice(cuts)
    ancestors = []
    node = parent
    while node is not None and node != "root0":
        ancestors.append(node)
        node = _parent(store, node)
    ancestor = rng.choice(ancestors)
    old = _parent(store, ancestor)
    below = descendants(store, ancestor) | {ancestor}
    targets = [
        s
        for s in _sets(store)
        if s not in below
        and (old is None or store.peek(s).label != store.peek(old).label)
    ]
    if not targets:
        return
    if old is not None:
        store.delete_edge(old, ancestor)
    store.insert_edge(rng.choice(targets), ancestor)
    store.delete_edge(parent, member)


def mutate(store, rng: random.Random, tag: int, members=()) -> None:
    """One tree-preserving mutation (the base stays a forest); given the
    views' *members*, sometimes one that strands a member (see
    :func:`_strand`)."""
    op = rng.randrange(6 if members else 4)
    sets = _sets(store)
    if op == 0:  # attach a fresh node
        oid = f"fresh{tag}"
        label = rng.choice(LABELS)
        if rng.random() < 0.5:
            store.add_atomic(oid, label, rng.randint(0, 100))
        else:
            store.add_set(oid, label)
        store.insert_edge(rng.choice(sets), oid)
    elif op == 1:  # detach a subtree
        parents = [s for s in sets if store.peek(s).children()]
        if not parents:
            return
        parent = rng.choice(parents)
        child = rng.choice(sorted(store.peek(parent).children()))
        store.delete_edge(parent, child)
    elif op == 2:  # move a subtree (cycle-guarded)
        movable = [
            oid
            for oid in sorted(store.oids())
            if oid != "root0" and not oid.startswith(("SV", "NV", "EV"))
        ]
        victim = rng.choice(movable)
        below = descendants(store, victim) | {victim}
        targets = [s for s in sets if s not in below]
        if not targets:
            return
        for parent in sets:
            if victim in store.peek(parent).children():
                store.delete_edge(parent, victim)
                break
        store.insert_edge(rng.choice(targets), victim)
    elif op >= 4:
        _strand(store, rng, members)
    else:  # modify an atom
        atoms = sorted(
            oid
            for oid in store.oids()
            if not oid.startswith(("SV", "NV", "EV"))
            and not store.peek(oid).is_set
        )
        if atoms:
            store.modify_value(rng.choice(atoms), rng.randint(0, 100))


def run_stream(
    seed: int,
    nodes: int,
    steps: int,
    *,
    drawn: int = 0,
    screens: str = "index",
):
    """One batched stream.  ``drawn`` > 0 replaces
    ``VIEW_DEFS`` by that many views drawn from the seed; ``screens``
    is ``"index"`` (the dispatcher as shipped), ``"per-view"`` (the
    reference loop over every screen) or ``"checked"`` (the index, each
    answer asserted against the screens)."""
    store = ObjectStore()
    build_tree(store, seed, nodes)
    parent_index = ParentIndex(store)
    dispatcher = MaintenanceDispatcher(
        store, parent_index=parent_index, subscribe=True
    )
    if drawn:
        pick = random.Random(seed ^ 0xCA7A)
        inner = [oid for oid in _sets(store) if oid != "root0"]
        roots = ["root0"] + pick.sample(inner, min(2, len(inner)))
        log: list = []
        views = register_catalog(
            dispatcher,
            store,
            parent_index,
            draw_catalog(pick, roots, drawn),
            log,
        )
    else:
        views = []
        for kind, text in VIEW_DEFS:
            view = MaterializedView(
                ViewDefinition.parse(text), store, ObjectStore()
            )
            populate_view(view)
            maintainer_cls = (
                SimpleViewMaintainer
                if kind == "simple"
                else ExtendedViewMaintainer
            )
            dispatcher.register(
                maintainer_cls(view, parent_index=parent_index)
            )
            views.append(view)
    if screens == "per-view":
        use_per_view_screens(dispatcher)
    elif screens == "checked":
        check_matching_against_screens(dispatcher)
    for _ in _batches(store, seed, steps, views, dispatcher.batch):
        pass
    extents = {
        view.definition.name: frozenset(view.members())
        for view in views
        if view is not None
    }
    return extents, views, dispatcher


def _batches(store, seed: int, steps: int, views, batch):
    """Apply *steps* mutations in random-sized batches, each inside
    ``batch()``; yields after every batch."""
    rng = random.Random(seed ^ 0x5EED)
    tag = 0
    remaining = steps
    while remaining > 0:
        chunk = min(remaining, rng.randint(1, 8))
        members = set().union(*(v.members() for v in views if v is not None))
        with batch():
            for _ in range(chunk):
                mutate(store, rng, tag, members)
                tag += 1
        remaining -= chunk
        yield


def _state(views) -> list:
    """Each view's members with their delegates' labels and values."""
    return [
        None
        if view is None
        else {
            oid: (view.delegate(oid).label, view.delegate(oid).value)
            for oid in view.members()
        }
        for view in views
    ]


#: Every depth-2 object under ``root0`` is a member of one of these, so
#: :func:`_strand` finds members whose parent it can move.
TWIN_DEFS = tuple(
    ("simple", f"SELECT root0.{first}.{second} X")
    for first in LABELS
    for second in LABELS
)


def run_twins(seed: int, nodes: int, steps: int, drawn: int) -> None:
    """``VIEW_DEFS``, ``TWIN_DEFS`` and *drawn* views, registered twice:
    screened, and unscreened on a second dispatcher over the same base.
    After every batch both catalogs must hold the same extents and
    delegates."""
    store = ObjectStore()
    build_tree(store, seed, nodes)
    parent_index = ParentIndex(store)
    pick = random.Random(seed ^ 0xCA7A)
    inner = [oid for oid in _sets(store) if oid != "root0"]
    roots = ["root0"] + pick.sample(inner, min(2, len(inner)))
    specs = [
        (kind, text.split(" as: ", 1)[1]) for kind, text in VIEW_DEFS
    ] + list(TWIN_DEFS) + draw_catalog(pick, roots, drawn)
    catalogs = []
    for screen in (True, False):
        dispatcher = MaintenanceDispatcher(
            store, parent_index=parent_index, subscribe=True
        )
        views = register_catalog(
            dispatcher, store, parent_index, specs, screen=screen
        )
        catalogs.append((dispatcher, views))
    (screened, views), (unscreened, twins) = catalogs

    @contextmanager
    def both():
        with screened.batch(), unscreened.batch():
            yield

    for _ in _batches(store, seed, steps, views, both):
        assert _state(views) == _state(twins)


def _charges(dispatcher):
    """Every counter (``updates_screened``, every base-access field,
    chain-memo hits/misses) plus the dispatch count."""
    return dispatcher.store.counters.as_dict(), dispatcher.updates_dispatched


class TestBatchedDispatch:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(8, 40),
        steps=st.integers(1, 24),
    )
    @settings(**COMMON)
    def test_batched_extents_equal_recompute(self, seed, nodes, steps):
        _, views, _ = run_stream(seed, nodes, steps)
        for view in views:
            report = check_consistency(view)
            assert report.ok, report.describe()

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(8, 40),
        steps=st.integers(1, 24),
        drawn=st.integers(1, 8),
    )
    @settings(**COMMON)
    def test_index_equals_per_view_screens_at_every_update(
        self, seed, nodes, steps, drawn
    ):
        extents, _, indexed = run_stream(seed, nodes, steps, drawn=drawn)
        reference_extents, _, per_view = run_stream(
            seed, nodes, steps, drawn=drawn, screens="per-view"
        )
        assert extents == reference_extents
        assert _charges(indexed) == _charges(per_view)
        # ... and update by update, the matched registrations are
        # exactly those whose own screen says yes.
        checked_extents, _, _ = run_stream(
            seed, nodes, steps, drawn=drawn, screens="checked"
        )
        assert checked_extents == extents

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(8, 40),
        steps=st.integers(1, 24),
        drawn=st.integers(0, 6),
    )
    @settings(**common_settings(20))
    def test_screens_are_exact_against_an_unscreened_twin(
        self, seed, nodes, steps, drawn
    ):
        run_twins(seed, nodes, steps, drawn)
