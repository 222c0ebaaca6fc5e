"""Property suite: the parent index's chain memo never goes stale.

``ParentIndex`` memoizes upward chains and keeps them across structural
updates, dropping only the chains through the OID an update, creation
or removal touches; a miss splices onto its first memoized ancestor.
After every update, every memo entry must equal an unmemoized walk —
here the same walk on a twin index with the memo off, fed the same
store, so both see the same parent sets.

Streams come in three shapes: *tree* (moves keep every object to one
parent), *DAG* (extra edges that close no cycle) and *cyclic*
(:func:`tests.property.support.build_store` with arbitrary edges and
removals).  Each runs streamed and through ``dispatcher.batch()``, with
garbage collection in between, while context-free maintainers and
random lookups — missing OIDs and read-only lookups included — fill the
memo the way view maintenance and the serving tier do.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb import ParentIndex
from repro.gsdb.gc import collect_garbage
from repro.views.dispatcher import MaintenanceDispatcher
from repro.workloads.generators import random_labelled_tree
from tests.property.support import (
    ChainProber,
    build_store,
    common_settings,
    mutate,
)

COMMON = common_settings(25)

ROOT = "root0"
LABELS = ("a", "b", "c")
SHAPES = ("tree", "dag", "cyclic")


class PathProber:
    """Asks ``path(ROOT, N1)`` and ``chain(ROOT, N1)`` per update, as a
    simple view's maintainer does."""

    def __init__(self, parent_index) -> None:
        self.parent_index = parent_index

    def handle(self, update) -> None:
        anchor = getattr(update, "parent", None) or update.oid
        try:
            self.parent_index.memoized_path(ROOT, anchor)
            self.parent_index.memoized_chain(ROOT, anchor)
        except ValueError:  # a multi-parent stop: the loud non-tree case
            pass


def _base(shape: str, seed: int):
    if shape == "cyclic":
        store, _ = build_store(seed, 30)
    else:
        store, _ = random_labelled_tree(
            nodes=30, labels=LABELS, atomic_fraction=0.4, seed=seed
        )
    return store


def _ancestors_or_self(store, oid: str) -> set[str]:
    """Brute force over the store's set objects (uncharged peeks)."""
    parents: dict[str, set[str]] = {}
    for candidate in store.oids():
        obj = store.peek(candidate)
        if obj.is_set:
            for child in obj.children():
                parents.setdefault(child, set()).add(candidate)
    seen, stack = {oid}, [oid]
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def _wrap(store, rng: random.Random, tag: int, shape: str) -> None:
    """A new set created over an existing object, which gains its
    parent at the creation, not by an edge update; then attached."""
    sets = sorted(o for o in store.oids() if store.peek(o).is_set)
    others = sorted(o for o in store.oids() if o != ROOT)
    if not others:  # removals took everything but the root
        return
    child = rng.choice(others)
    if shape == "tree":
        for old in sets:
            if child in store.peek(old).children():
                store.delete_edge(old, child)
    oid = f"new{tag}"
    store.add_set(oid, rng.choice(LABELS), [child])
    parent = rng.choice(sets)
    if shape == "cyclic" or child not in _ancestors_or_self(store, parent):
        store.insert_edge(parent, oid)


def _step(store, rng: random.Random, tag: int, shape: str) -> None:
    """One update, creation or removal that keeps *shape*."""
    if rng.random() < 0.15:
        _wrap(store, rng, tag, shape)
        return
    if shape == "cyclic":
        mutate(store, rng, tag)
        return
    sets = sorted(o for o in store.oids() if store.peek(o).is_set)
    op = rng.randrange(5)
    if op <= 1:  # attach, move, or (DAG) share a child
        parent = rng.choice(sets)
        child = rng.choice(sorted(store.oids()))
        if child == ROOT or child in store.peek(parent).children():
            return
        if child in _ancestors_or_self(store, parent):
            return
        if shape == "tree":
            for old in sets:
                if child in store.peek(old).children():
                    store.delete_edge(old, child)
        store.insert_edge(parent, child)
    elif op == 2:
        parent = rng.choice(sets)
        children = sorted(store.peek(parent).children())
        if children:
            store.delete_edge(parent, rng.choice(children))
    elif op == 3:
        atoms = sorted(o for o in store.oids() if not store.peek(o).is_set)
        if atoms:
            store.modify_value(rng.choice(atoms), rng.randint(0, 100))
    else:
        oid = f"new{tag}"
        if rng.random() < 0.5:
            store.add_atomic(oid, rng.choice(LABELS), 1)
        else:
            store.add_set(oid, rng.choice(LABELS), [])
        store.insert_edge(rng.choice(sets), oid)


def _look_up(index, store, rng: random.Random, tag: int) -> None:
    """Random lookups, a just-removed or never-created OID among them."""
    oids = sorted(store.oids())
    for oid in rng.sample(oids, min(3, len(oids))) + [f"new{tag + 1}"]:
        index.chain_to_top(oid)
    index.read_chain_to_top(rng.choice(oids))


def _assert_fresh(index, fresh) -> None:
    for oid, memoized in list(index._chain_cache.items()):
        assert memoized == fresh._upward_chain(oid), oid


def _system(shape: str, seed: int):
    store = _base(shape, seed)
    index = ParentIndex(store)
    fresh = ParentIndex(store, chain_cache=False)
    dispatcher = MaintenanceDispatcher(store)
    dispatcher.register(ChainProber(index))
    dispatcher.register(PathProber(index))
    return store, index, fresh, dispatcher


def _run(shape: str, seed: int, batched: bool, steps: int = 60) -> int:
    store, index, fresh, dispatcher = _system(shape, seed)
    rng = random.Random(seed)
    checked = 0
    tag = 0
    while tag < steps:
        size = rng.randint(1, 6) if batched else 1
        if batched:
            with dispatcher.batch():
                for _ in range(size):
                    tag += 1
                    _step(store, rng, tag, shape)
                    _assert_fresh(index, fresh)
        else:
            tag += 1
            _step(store, rng, tag, shape)
        _assert_fresh(index, fresh)
        _look_up(index, store, rng, tag)
        for oid in sorted(store.oids()):
            assert index.read_chain_to_top(oid) == fresh.chain_to_top(oid)
        _assert_fresh(index, fresh)
        checked += len(index._chain_cache)
        if rng.random() < 0.15:
            collect_garbage(store, [ROOT])
            _assert_fresh(index, fresh)
    return checked


class TestChainMemoProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000), shape=st.sampled_from(SHAPES))
    def test_streamed_memo_equals_a_fresh_walk(self, seed, shape):
        assert _run(shape, seed, batched=False) > 0

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000), shape=st.sampled_from(SHAPES))
    def test_batched_memo_equals_a_fresh_walk(self, seed, shape):
        assert _run(shape, seed, batched=True) > 0
