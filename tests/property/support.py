"""Shared hypothesis settings for the property suites.

``REPRO_PROPERTY_EXAMPLES`` scales the per-test example budget, e.g.::

    REPRO_PROPERTY_EXAMPLES=200 pytest tests/property/

for a deep soak run (the default keeps the suite fast).
"""

from __future__ import annotations

import os
import random

from hypothesis import HealthCheck

from repro.gsdb import ObjectStore
from repro.paths import PathExpression
from repro.paths.expression import AnyPathSegment
from repro.query.ast import And, Comparison, Exists, Not, Or, Query
from repro.views import (
    ExtendedViewMaintainer,
    MaterializedView,
    PathContext,
    SimpleViewMaintainer,
    ViewDefinition,
    populate_view,
)
from repro.views.partial import PartialMaterializedView
from repro.views.recompute import compute_view_members

_SCALE = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "0"))


def common_settings(default_examples: int) -> dict:
    """Per-test settings dict honouring the env override."""
    return dict(
        deadline=None,
        max_examples=_SCALE or default_examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


# ---------------------------------------------------------------------------
# random view catalogs, and the per-view reference the dispatcher's
# definition index must equal
# ---------------------------------------------------------------------------

#: Definition templates over an entry ``{e}``: shared prefixes, a
#: repeated label, condition-less views, conditions on the member
#: itself, the empty select path (the view of ROOT itself), and
#: constant-varied duplicates — same paths, another literal — whose
#: path work the dispatcher's context shares.
SIMPLE_TEMPLATES = (
    "SELECT {e}.a X",
    "SELECT {e}.a.b X",
    "SELECT {e}.a.b.c X",
    "SELECT {e}.a.a X",
    "SELECT {e}.b X WHERE X > 30",
    "SELECT {e}.b X WHERE X > 70",
    "SELECT {e}.a X WHERE X.b > 40",
    "SELECT {e}.a X WHERE X.b <= 60",
    "SELECT {e}.a X WHERE X.a > 40",
    "SELECT {e}.a X WHERE X.b.c <= 60",
    "SELECT {e}.a X WHERE X.b.c > 20",
    "SELECT {e}.a.b X WHERE X.c > 50",
    "SELECT {e}.a.b X WHERE X.c < 35",
    "SELECT {e}.c X WHERE X.a = 77",
    "SELECT {e} X",
    "SELECT {e} X WHERE X.a > 40",
    "SELECT {e} X WHERE X.a < 60",
    "SELECT {e} X WHERE X > 30",
)

EXTENDED_TEMPLATES = (
    "SELECT {e}.* X WHERE X.c > 50",
    "SELECT {e}.* X WHERE X.c <= 25",
    "SELECT {e}.?.b X",
    "SELECT {e}.?.b X WHERE X > 45",
    "SELECT {e}.a X WHERE X.b > 20 AND X.c < 80",
    "SELECT {e}.a X WHERE X.b > 60 AND X.c < 40",
)

#: How a drawn view is maintained: ``simple`` and ``extended`` get their
#: screen, ``unscreened`` is a simple maintainer registered with
#: ``screen=False``, ``partial`` a partially materialized view;
#: ``recorder`` and ``prober`` are context-free maintainers without a
#: view (see :class:`Recorder`, :class:`ChainProber`).
VIEW_KINDS = ("simple", "simple", "simple", "extended", "unscreened",
              "partial", "recorder", "prober")


class Recorder:
    """An unscreened, context-free maintainer: remembers what it saw."""

    def __init__(self, log: list, name: str) -> None:
        self.log = log
        self.name = name

    def handle(self, update) -> None:
        self.log.append((self.name, update))


class ChainProber:
    """A context-free maintainer that resolves the updated child's
    upward chain itself (what the serving invalidator does per update).

    It warms the parent index's chain memo from *below* N1, so whether
    ``path(ROOT, N1)`` was asked before or after its turn shows in the
    chain-memo hits, misses and reads: an index that resolved paths
    ahead of the registrations' turns would not charge what the
    per-view loop charged.
    """

    def __init__(self, parent_index) -> None:
        self.parent_index = parent_index

    def handle(self, update) -> None:
        self.parent_index.chain_to_top(getattr(update, "child", None) or update.oid)


def draw_catalog(rng, roots: list[str], count: int) -> list[tuple[str, str]]:
    """*count* ``(kind, query text)`` pairs over entries from *roots*."""
    specs = []
    for _ in range(count):
        kind = rng.choice(VIEW_KINDS)
        templates = EXTENDED_TEMPLATES if kind == "extended" else SIMPLE_TEMPLATES
        specs.append((kind, rng.choice(templates).format(e=rng.choice(roots))))
    return specs


def register_catalog(
    dispatcher, store, parent_index, specs, log=None, *, central=False,
    screen=True,
):
    """Build every drawn view and register its maintainer in spec
    order.  Delegates live in a private view store, so maintenance
    never perturbs the base — or, with *central*, in the base store
    itself, as :class:`~repro.views.ViewCatalog` keeps them.  Without
    *screen*, every maintainer is registered unscreened.  Returns the
    views; a view-less kind contributes None."""
    log = [] if log is None else log
    views = []
    for ordinal, (kind, query) in enumerate(specs):
        if kind in ("recorder", "prober"):
            dispatcher.register(
                Recorder(log, f"R{ordinal}")
                if kind == "recorder"
                else ChainProber(parent_index)
            )
            views.append(None)
            continue
        definition = ViewDefinition.parse(f"define mview V{ordinal} as: {query}")
        view_store = None if central else ObjectStore()
        if kind == "partial":
            view = PartialMaterializedView(definition, store, view_store, depth=2)
            view.load_members(compute_view_members(definition, store))
        else:
            view = MaterializedView(definition, store, view_store)
            populate_view(view)
        maintainer_cls = (
            ExtendedViewMaintainer if kind == "extended" else SimpleViewMaintainer
        )
        dispatcher.register(
            maintainer_cls(view, parent_index=parent_index),
            screen=screen and kind != "unscreened",
        )
        views.append(view)
    return views


class PerViewIndex:
    """The reference the definition index must equal: ask every
    registration's own screen, in registration order, each at its turn
    (what the dispatchers did before the index existed)."""

    def __init__(self, entries) -> None:
        self.entries = list(entries)
        self.registered = len(self.entries)
        self.screened = sum(1 for e in self.entries if e.screen is not None)

    def matching(self, update, ctx):
        for entry in self.entries:
            if entry.screen is None or entry.screen.relevant(update, ctx):
                yield entry


def use_per_view_screens(dispatcher) -> None:
    """Make *dispatcher* screen through :class:`PerViewIndex`."""
    dispatcher._definition_index = lambda: PerViewIndex(dispatcher._entries)


class _CheckedIndex:
    """The real index, with every answer compared to the screens."""

    def __init__(self, index, entries, checked: list) -> None:
        self.index = index
        self.reference = PerViewIndex(entries)
        self.registered = index.registered
        self.screened = index.screened
        self.checked = checked

    def matching(self, update, ctx):
        # A private context: the reference's lookups must not warm the
        # memo the index is about to use.
        private = PathContext(ctx.store, ctx.parent_index, moved=ctx.moved)
        expected = list(self.reference.matching(update, private))
        got = list(self.index.matching(update, ctx))
        assert got == expected, (update, got, expected)
        self.checked.append(update)
        return iter(got)


def check_matching_against_screens(dispatcher) -> list:
    """Assert, for every update *dispatcher* screens from now on, that
    the index yields exactly ``[j : screen_j.relevant(update, ctx)]`` in
    registration order.  Returns the list the checked updates land in."""
    checked: list = []
    build = dispatcher._definition_index

    def checked_index():
        return _CheckedIndex(build(), dispatcher._entries, checked)

    dispatcher._definition_index = checked_index
    return checked


# ---------------------------------------------------------------------------
# random graph stores with cycles, and churn over them
# ---------------------------------------------------------------------------


def build_store(seed: int, nodes: int) -> tuple[ObjectStore, str]:
    """A random tree over labels a/b/c plus extra edges between set
    objects (so cycles occur); returns ``(store, "root0")``."""
    from repro.workloads.generators import random_labelled_tree

    store, root = random_labelled_tree(
        nodes=nodes,
        labels=("a", "b", "c"),
        atomic_fraction=0.4,
        seed=seed,
    )
    # Densify into a DAG with possible cycles: extra edges between
    # existing set objects (check_references holds — both ends exist).
    rng = random.Random(seed * 31 + 7)
    sets = sorted(o for o in store.oids() if store.peek(o).is_set)
    for _ in range(nodes // 4):
        parent, child = rng.choice(sets), rng.choice(sorted(store.oids()))
        if child not in store.peek(parent).children():
            store.insert_edge(parent, child)
    return store, root


def mutate(
    store: ObjectStore,
    rng: random.Random,
    tag: int,
    *,
    protected: frozenset[str] = frozenset({"root0"}),
) -> None:
    """One random basic update or (logged-bypassing) create/remove;
    *protected* objects are never removed."""
    sets = sorted(o for o in store.oids() if store.peek(o).is_set)
    op = rng.randrange(5)
    if op == 0:
        parent = rng.choice(sets)
        child = rng.choice(sorted(store.oids()))
        if child not in store.peek(parent).children():
            store.insert_edge(parent, child)
    elif op == 1:
        parent = rng.choice(sets)
        children = sorted(store.peek(parent).children())
        if children:
            store.delete_edge(parent, rng.choice(children))
    elif op == 2:
        atoms = sorted(
            o for o in store.oids() if not store.peek(o).is_set
        )
        if atoms:
            store.modify_value(rng.choice(atoms), rng.randint(0, 100))
    elif op == 3:
        oid = f"new{tag}"
        label = rng.choice(("a", "b", "c"))
        if rng.random() < 0.5:
            store.add_atomic(oid, label, rng.randint(0, 100))
        else:
            store.add_set(oid, label, [])
        store.insert_edge(rng.choice(sets), oid)
    else:
        orphan_ok = [o for o in sorted(store.oids()) if o not in protected]
        if not orphan_ok:
            return
        victim = rng.choice(orphan_ok)
        for parent in sets:
            if parent in store and victim in store.peek(parent).children():
                store.delete_edge(parent, victim)
        if victim in store:
            store.remove_object(victim)


def drive(catalog, seed, rounds, size, batched, check, *, nodes=25):
    """Hand *rounds* x *size* random updates to *catalog*, one at a time
    or each round as one ``apply_batch``, calling *check* after each.

    The catalog's base must be ``random_labelled_tree`` at *seed* with
    *nodes* nodes over labels a/b/c.  :class:`UpdateStream` applies what
    it draws, so it draws on a twin of that base; each object it creates
    there is copied over, as created, before the updates that link it
    arrive.  The base stays a tree.
    """
    from repro.workloads import UpdateStream, random_labelled_tree

    labels = ("a", "b", "c")
    twin, _ = random_labelled_tree(nodes=nodes, labels=labels, seed=seed)
    created = []
    twin.subscribe_creations(lambda obj: created.append(obj.copy()))
    stream = UpdateStream(twin, seed=seed + 1, labels_for_new=labels)
    for _ in range(rounds):
        updates = stream.run(size)
        for obj in created:
            catalog.store.add_object(obj)
        created.clear()
        if batched:
            catalog.apply_batch(updates)
            check()
            continue
        for update in updates:
            catalog.store.apply(update)
            check()


# ---------------------------------------------------------------------------
# the brute-force read-path reference (paper Section 2, uncharged)
# ---------------------------------------------------------------------------


def reach(
    store: ObjectStore,
    start: str,
    path: PathExpression,
    exists=None,
    *,
    positions=(0,),
) -> set[str]:
    """``start.path`` from the definitions alone: a search over (object,
    segment position) pairs, reading the store uncharged.  *exists*
    narrows which objects are visible (default: those in *store*); the
    start is a member when the path accepts the empty word, present or
    not.  *positions* are the segment positions the search starts at
    (a residual start: the NFA states after a consumed prefix)."""
    if exists is None:
        exists = store.__contains__
    segments = path.segments
    todo = [(start, position) for position in positions]
    seen = set(todo)
    found = set()
    while todo:
        oid, position = todo.pop()
        if position == len(segments):
            found.add(oid)
            continue
        segment = segments[position]
        star = isinstance(segment, AnyPathSegment)
        moves = [(oid, position + 1)] if star else []
        obj = store.peek(oid) if exists(oid) else None
        if obj is not None and obj.is_set:
            for child in obj.children():
                if not exists(child):
                    continue
                if star:
                    moves.append((child, position))
                elif segment.matches(store.peek(child).label):
                    moves.append((child, position + 1))
        for move in moves:
            if move not in seen:
                seen.add(move)
                todo.append(move)
    return found


def reference_holds(store: ObjectStore, condition, oid: str, exists=None):
    """``cond()`` for candidate *oid* from the definitions alone:
    existential comparisons over :func:`reach`, and the connectives
    read as booleans.  *exists* is as for :func:`reach`."""
    if exists is None:
        exists = store.__contains__
    if isinstance(condition, Comparison):
        return any(
            condition.test_value(store.peek(hit).atomic_value())
            for hit in reach(store, oid, condition.path, exists)
            if exists(hit) and store.peek(hit).is_atomic
        )
    if isinstance(condition, Exists):
        return bool(reach(store, oid, condition.path, exists))
    if isinstance(condition, Not):
        return not reference_holds(store, condition.operand, oid, exists)
    parts = (
        reference_holds(store, part, oid, exists)
        for part in condition.operands
    )
    if isinstance(condition, And):
        return all(parts)
    assert isinstance(condition, Or)
    return any(parts)


def reference_answer(store: ObjectStore, registry, query: Query) -> set[str]:
    """``entry.sel_path_exp`` filtered by ``cond``, scoped by ``WITHIN``
    and ``ANS INT``, from the definitions alone (see :func:`reach`)."""
    entry = query.entry
    if entry in registry.names():
        entry = registry.resolve(entry).oid
    visible = None
    if query.within is not None:
        visible = registry.members(query.within) | {
            entry,
            registry.resolve(query.within).oid,
        }

    def exists(oid: str) -> bool:
        return oid in store and (visible is None or oid in visible)

    answer = {
        oid
        for oid in reach(store, entry, query.select_path, exists)
        if query.condition is None
        or reference_holds(store, query.condition, oid, exists)
    }
    if query.ans_int is not None:
        answer &= registry.members(query.ans_int)
    return answer


# ---------------------------------------------------------------------------
# what one evaluation touched
# ---------------------------------------------------------------------------


class TouchRecorder:
    """A store proxy remembering every OID looked up, charged or not."""

    def __init__(self, store) -> None:
        self._store = store
        self.counters = store.counters
        self.touched: set[str] = set()

    def peek(self, oid: str):
        self.touched.add(oid)
        return self._store.peek(oid)

    def get_optional(self, oid: str):
        self.touched.add(oid)
        return self._store.get_optional(oid)

    def __contains__(self, oid: str) -> bool:
        return oid in self._store
