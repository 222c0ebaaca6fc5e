"""Garbage collection of unreferenced objects.

Paper Section 4.1, on ``delete(N1, N2)``: "(If no objects point to N2
any more, N2 may be garbage collected.  However, we do not discuss
garbage collection here.)"  This module supplies the missing piece: a
mark-and-sweep over a store, rooted at the objects the caller declares
reachable-by-definition — query entry points, database objects (whose
membership edges keep their members alive), and view objects (whose
delegates they keep alive).

Collection never runs implicitly; deletes leave detached subtrees in
place (Algorithm 1's delete case *reads* the detached subtree), and the
application sweeps when it chooses to.
"""

from __future__ import annotations

from typing import Iterable

from repro.gsdb.store import ObjectStore


def reachable_from(store: ObjectStore, roots: Iterable[str]) -> set[str]:
    """Every OID reachable from *roots* (inclusive) via set values.

    The walk uses uncharged peeks, so marking charges nothing.
    """
    seen: set[str] = set()
    stack = [oid for oid in roots if oid in store]
    seen.update(stack)
    while stack:
        oid = stack.pop()
        obj = store.peek(oid)
        if obj is None or not obj.is_set:
            continue
        for child in obj.children():
            if child not in seen and child in store:
                seen.add(child)
                stack.append(child)
    return seen


def collect_garbage(
    store: ObjectStore,
    roots: Iterable[str],
    *,
    dry_run: bool = False,
) -> set[str]:
    """Remove (or, with *dry_run*, just report) unreachable objects.

    Args:
        store: the store to sweep.
        roots: OIDs alive by definition.  Callers must include every
            grouping object — databases, views, clusters — since their
            membership edges are reachability too.
        dry_run: report the garbage set without removing anything.

    Returns:
        The set of collected (or collectable) OIDs.
    """
    alive = reachable_from(store, roots)
    garbage = {oid for oid in store.oids() if oid not in alive}
    if not dry_run:
        for oid in sorted(garbage):
            store.remove_object(oid)
    return garbage


def catalog_roots(catalog) -> set[str]:
    """The live-by-definition roots of a :class:`ViewCatalog`:
    registered databases (and views registered as databases) plus every
    materialized-view object in the catalog's store."""
    roots: set[str] = set()
    for name in catalog.registry.names():
        roots.add(catalog.registry.resolve(name).oid)
    for name, view in catalog.materialized_views.items():
        if view.view_store is catalog.store:
            roots.add(view.oid)
    for name in catalog.virtual_views:
        roots.add(name)
    return roots
