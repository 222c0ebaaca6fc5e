"""The system under test: every call the benchmark makes into the library.

No other file of the benchmark imports ``repro``.  The end-to-end paths
go through :class:`System` only; the layer probes of the traced run use
the ``probe_*`` functions at the bottom, each of which imports what it
needs when called, so a probe whose symbol a later change removes
reports ``None`` with a reason and costs nothing else.
"""

from __future__ import annotations

import time

from repro import Delete, Insert, Modify, ViewCatalog
from repro.query import parse_query

from stats import sha256_lines


def compile_update(update: tuple):
    """A generated update tuple as the library's update object, plus the
    subtree an insert must create first (or None)."""
    kind = update[0]
    if kind == "modify":
        return Modify(update[1], update[2], update[3]), None
    if kind == "insert":
        return Insert(update[1], update[2]), update[3]
    return Delete(update[1], update[2]), None


def compile_batch(updates: list[tuple]) -> tuple[list, list]:
    """(subtrees to create first, update objects) of a generated batch."""
    compiled = [compile_update(update) for update in updates]
    return ([subtree for _, subtree in compiled if subtree is not None],
            [update for update, _ in compiled])


class System:
    """One catalog over the generated base, with the 64 views defined."""

    def __init__(self, base_spec: tuple, views, *, label_index: bool = False) -> None:
        self.catalog = ViewCatalog(with_label_index=label_index)
        self.store = self.catalog.store
        self.store.add_tree(base_spec)
        for name, spec in views:
            self.catalog.define(f"define mview {name} as: {spec.text}")
        self.view_names = [name for name, _ in views]
        self.server = None
        self.core = None

    # -- write path -------------------------------------------------------

    def create(self, subtree: tuple) -> None:
        """Create an insert's fresh subtree (objects only, no edge yet)."""
        self.store.add_tree(subtree)

    def apply(self, update) -> int:
        """One streamed update; every view is maintained on return."""
        self.store.apply(update)
        return 1

    def apply_batch(self, updates: list) -> int:
        return self.catalog.apply_batch(updates)

    # -- read path --------------------------------------------------------

    def query(self, query) -> set[str]:
        """Evaluate a query string (or a parsed query) on the live base."""
        return self.catalog.query_oids(query)

    def recompute(self, name: str) -> tuple[int, int]:
        return self.catalog.recompute(name)

    # -- serving tier -----------------------------------------------------

    def enable_serving(self, warm: list[str]) -> None:
        self.server = self.catalog.enable_async_serving(
            retention_capacity=8, cache_size=128
        )
        self.core = self.server.core
        for text in warm:
            self.core.read(text, "fresh")

    def serve_write(self, updates: list) -> int:
        """Apply a burst and publish it (caller holds ``write_mutex``)."""
        return self.core.apply_batch(updates)

    def kernel_rows_scanned(self) -> int:
        """Columnar rows the serving tier's readers have swept."""
        return self.core.read_counters.snapshot_rows_scanned

    # -- oracles and counters ---------------------------------------------

    def inconsistent_views(self) -> list[str]:
        """Views that differ from their recomputation."""
        return [
            name for name, report in self.catalog.check_all().items() if not report.ok
        ]

    def extents(self) -> dict[str, list[str]]:
        views = self.catalog.materialized_views
        return {name: sorted(views[name].members()) for name in self.view_names}

    def charged(self) -> int:
        """The paper's cost currency: base accesses charged so far."""
        return self.store.counters.total_base_accesses()

    def counters(self):
        return self.store.counters.snapshot()

    def counters_since(self, earlier) -> dict[str, int]:
        return self.store.counters.delta_since(earlier).as_dict()


def parse(text: str):
    return parse_query(text)


def extent_sha(extents: dict[str, list[str]]) -> str:
    return sha256_lines(
        f"{name}:{','.join(members)}" for name, members in sorted(extents.items())
    )


# -- layer probes (traced run only) -----------------------------------------
#
# Each returns plain numbers measured around one layer in isolation, or
# raises ImportError/AttributeError when the layer is gone; the caller
# turns that into ``None`` with a reason.


def probe_bare_store(base_spec: tuple, updates: list[tuple], *, parent_index: bool):
    """Seconds to replay *updates* on a store with no views at all."""
    from repro import ObjectStore, ParentIndex

    store = ObjectStore()
    store.add_tree(base_spec)
    if parent_index:
        ParentIndex(store)
    compiled = [compile_update(update) for update in updates]
    began = time.perf_counter()
    for update, subtree in compiled:
        if subtree is not None:
            store.add_tree(subtree)
        store.apply(update)
    return time.perf_counter() - began


def probe_coalesce(batches: list[list[tuple]]) -> float:
    """Seconds ``coalesce_updates`` alone spends on every batch."""
    from repro.views.dispatcher import coalesce_updates

    compiled = [compile_batch(batch)[1] for batch in batches]
    began = time.perf_counter()
    for updates in compiled:
        coalesce_updates(updates)
    return time.perf_counter() - began


def probe_batch_kernel(base_spec: tuple, views, batches: list[list[tuple]]):
    """(seconds, fallbacks) for *batches* on a catalog with the batch
    kernel switched on."""
    system = System(base_spec, views)
    system.catalog.enable_batch_kernel()
    compiled = [compile_batch(batch) for batch in batches]
    before = system.counters()
    began = time.perf_counter()
    for subtrees, updates in compiled:
        for subtree in subtrees:
            system.create(subtree)
        system.apply_batch(updates)
    seconds = time.perf_counter() - began
    fallbacks = system.counters_since(before).get("batch_kernel_fallbacks", 0)
    return seconds, fallbacks


def probe_columnar(base_spec: tuple, bursts: list[list[tuple]]):
    """(build seconds, refresh seconds) of the columnar snapshot: first
    build on the base, then one ``refresh()`` after each burst."""
    from repro import ObjectStore
    from repro.gsdb.columnar import enable_columnar

    store = ObjectStore()
    store.add_tree(base_spec)
    began = time.perf_counter()
    manager = enable_columnar(store)
    manager.refresh()
    build = time.perf_counter() - began
    refresh = 0.0
    for burst in bursts:
        subtrees, updates = compile_batch(burst)
        for subtree in subtrees:
            store.add_tree(subtree)
        store.apply_all(updates)
        began = time.perf_counter()
        manager.refresh()
        refresh += time.perf_counter() - began
    return build, refresh
