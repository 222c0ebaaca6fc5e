"""Property suite: the parent index equals one built fresh.

``ParentIndex`` is maintained incrementally — by object creation, edge
inserts and deletes, removals — and view namespaces are taken out of it
by ``ignore_view`` / ``ignore_prefix``, which drop the edges already
indexed under them, and put back by ``unignore_view`` once the view's
objects are gone.  After every step, every OID's ``parents()`` (and the
record of dotted parents ``ignore_prefix`` reads) must equal those of a
``ParentIndex`` built fresh over a copy of the same store with the same
ignores.  The fresh index takes its ignores while its store is still
empty and is then filled object by object, so it never drops an edge
and cannot share a fault in the drop.

OIDs come from the base tree, from nested view namespaces (``MV.``,
``MV.P1.``) and from a look-alike (``MVJ.`` beside ``MV.``); namespace
objects are created and wired into the base before their prefix is
ignored as well as after, which is the case where the drop matters.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb import ObjectStore, ParentIndex
from repro.gsdb.gc import collect_garbage
from repro.workloads.generators import random_labelled_tree
from tests.property.support import common_settings

COMMON = common_settings(25)

ROOT = "root0"
LABELS = ("a", "b", "c")
#: View names; ``ignore_view(name)`` ignores ``name`` and ``name + "."``.
VIEWS = ("MV", "MV.P1", "MVJ")
#: Namespaces new objects are created under ("" is the base).
NAMESPACES = ("", "MV.", "MV.P1.", "MVJ.")
PREFIXES = ("MV.", "MV.P1.", "MVJ.")


class System:
    def __init__(self, seed: int) -> None:
        self.store, _ = random_labelled_tree(
            nodes=25, labels=LABELS, atomic_fraction=0.4, seed=seed
        )
        self.store.check_references = False
        self.rng = random.Random(seed)
        self.ignored: set[str] = set()
        self.prefixes: set[str] = set()
        # Namespace objects exist and are indexed before any ignore.
        for tag, namespace in enumerate(NAMESPACES[1:]):
            self.create(namespace, tag, fewest=1)
        self.index = ParentIndex(self.store)

    # -- steps -----------------------------------------------------------------

    def sets(self) -> list[str]:
        return sorted(o for o in self.store.oids() if self.store.peek(o).is_set)

    def create(self, namespace: str, tag: int, fewest: int = 0) -> None:
        oids = sorted(self.store.oids())
        children = self.rng.sample(oids, self.rng.randint(fewest, 3))
        oid = f"{namespace}n{tag}"
        self.store.add_set(oid, self.rng.choice(LABELS), children)
        if self.rng.random() < 0.7:
            self.store.insert_edge(self.rng.choice(self.sets()), oid)

    def step(self, tag: int) -> str:
        rng, store = self.rng, self.store
        op = rng.randrange(9)
        if op <= 1:
            self.create(rng.choice(NAMESPACES), tag)
            return "create"
        if op == 2:
            if rng.random() < 0.5:
                store.add_atomic(f"leaf{tag}", rng.choice(LABELS), tag)
                return "create"
            parent = rng.choice(self.sets())
            child = rng.choice(sorted(store.oids()))
            if child not in store.peek(parent).children():
                store.insert_edge(parent, child)
            return "insert"
        if op == 3:
            parent = rng.choice(self.sets())
            children = sorted(store.peek(parent).children())
            if children:
                store.delete_edge(parent, rng.choice(children))
            return "delete"
        if op == 4:
            # Keep the root and, usually, some namespace tops alive.
            roots = [ROOT] + [o for o in self.sets() if rng.random() < 0.3]
            collect_garbage(store, roots)
            return "gc"
        if op == 5:
            view = rng.choice(VIEWS)
            self.ignored.add(view)
            self.prefixes.add(view + ".")
            self.index.ignore_view(view)
            return "ignore_view"
        if op == 6:
            prefix = rng.choice(PREFIXES)
            self.prefixes.add(prefix)
            self.index.ignore_prefix(prefix)
            return "ignore_prefix"
        if op == 7:
            # As a dropped view: its objects leave the store, then the
            # name is unignored.
            view = rng.choice(VIEWS)
            for oid in sorted(store.oids()):
                if oid == view or oid.startswith(view + "."):
                    store.remove_object(oid)
            self.ignored.discard(view)
            self.prefixes.discard(view + ".")
            self.index.unignore_view(view)
            return "unignore_view"
        atoms = sorted(o for o in store.oids() if not store.peek(o).is_set)
        if atoms:
            store.modify_value(rng.choice(atoms), rng.randint(0, 100))
        return "modify"

    # -- the check ---------------------------------------------------------------

    def fresh(self) -> ParentIndex:
        twin = ObjectStore()
        twin.check_references = False
        fresh = ParentIndex(twin)
        for oid in sorted(self.ignored):
            fresh.ignore_parent(oid)
        for prefix in sorted(self.prefixes):
            fresh.ignore_prefix(prefix)
        for oid in sorted(self.store.oids()):
            twin.add_object(self.store.peek(oid).copy())
        return fresh

    def check(self) -> None:
        fresh = self.fresh()
        oids = set(self.store.oids()) | set(self.index._parents) | set(fresh._parents)
        for oid in sorted(oids):
            assert self.index.parents(oid) == fresh.parents(oid), oid
        assert self.index._dotted == fresh._dotted


def _run(seed: int, steps: int = 60) -> dict[str, int]:
    system = System(seed)
    system.check()
    seen: dict[str, int] = {}
    for tag in range(100, 100 + steps):
        op = system.step(tag)
        seen[op] = seen.get(op, 0) + 1
        system.check()
    return seen


class TestParentIndexEqualsAFreshBuild:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_after_every_step(self, seed):
        assert _run(seed)

    def test_the_steps_cover_every_kind(self):
        seen: dict[str, int] = {}
        for seed in range(4):
            for op, count in _run(seed).items():
                seen[op] = seen.get(op, 0) + count
        assert set(seen) == {
            "create", "insert", "delete", "gc", "ignore_view",
            "ignore_prefix", "unignore_view", "modify",
        }
