"""The canned profiling workload behind ``repro profile``.

One deterministic end-to-end round over a layered tree — build, view
definition, update churn with live maintenance, full recomputation,
cached serving, and a GC mark — timed phase by phase with the cost
counters each phase charged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.gsdb.gc import catalog_roots, collect_garbage
from repro.views import ViewCatalog
from repro.workloads.generators import TreeSpec, layered_tree


@dataclass
class PhaseProfile:
    """One timed phase: wall seconds + the counter deltas it charged."""

    name: str
    seconds: float
    counters: dict[str, int] = field(default_factory=dict)


@dataclass
class ProfileReport:
    """The full profile: ordered phases and their total."""

    phases: list[PhaseProfile]
    total_seconds: float

    def phase(self, name: str) -> PhaseProfile:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(name)

    def describe_lines(self, *, counters_per_phase: int = 4) -> list[str]:
        """Human-readable breakdown for the CLI."""
        lines = [f"total {self.total_seconds * 1000:.1f} ms"]
        for phase in self.phases:
            lines.append(
                f"  {phase.name:<12} {phase.seconds * 1000:8.1f} ms"
            )
            top = sorted(
                phase.counters.items(), key=lambda kv: -kv[1]
            )[:counters_per_phase]
            for key, value in top:
                lines.append(f"    {key}: {value:,}")
        return lines


def run_profile(
    *,
    depth: int = 4,
    fanout: int = 5,
    updates: int = 40,
    queries: int = 24,
    seed: int = 7,
) -> ProfileReport:
    """Run the canned workload; all phases are seed-deterministic.

    Phase counters are deltas (``counters.delta_since``), so every
    charge lands in the phase that incurred it.
    """
    catalog = ViewCatalog(with_label_index=True)
    store = catalog.store
    phases: list[PhaseProfile] = []
    started = time.perf_counter()

    def timed(name: str, action) -> None:
        before = store.counters.snapshot()
        begin = time.perf_counter()
        action()
        seconds = time.perf_counter() - begin
        phases.append(
            PhaseProfile(
                name,
                seconds,
                store.counters.delta_since(before).as_dict(),
            )
        )

    spec = TreeSpec(depth=depth, fanout=fanout, seed=seed)
    root_holder: list[str] = []
    timed(
        "build",
        lambda: root_holder.extend(
            [layered_tree(spec, store)[1]]
        ),
    )
    root = root_holder[0]

    path = ".".join(spec.labels[:-1])
    deep = ".".join(spec.labels)

    def define_views() -> None:
        catalog.define(f"define mview PV as: SELECT {root}.{path} X")
        catalog.define(
            f"define mview WV as: SELECT {root}.* X "
            f"WHERE X.{spec.labels[-1]} >= 50"
        )

    timed("define", define_views)

    def churn() -> None:
        # Deterministic churn: walk the penultimate level, detach and
        # re-attach each node's first leaf, and modify another leaf.
        view = catalog.materialized_views["PV"]
        members = sorted(view.members())
        for i in range(updates):
            parent = members[i % len(members)]
            child = sorted(store.peek(parent).children())[0]
            store.delete_edge(parent, child)
            store.insert_edge(parent, child)
            leaf = sorted(store.peek(parent).children())[-1]
            if not store.peek(leaf).is_set:
                store.modify_value(leaf, (i * 13) % 100)

    timed("updates", churn)

    def recompute_all() -> None:
        for name in sorted(catalog.materialized_views):
            catalog.recompute(name)

    timed("recompute", recompute_all)

    def serve_round() -> None:
        catalog.enable_serving(cache_size=64)
        texts = [
            f"SELECT {root}.{path} X",
            f"SELECT {root}.{deep} X",
            f"SELECT {root}.* X WHERE X.{spec.labels[-1]} < 50",
        ]
        for i in range(queries):
            catalog.serve(texts[i % len(texts)])

    timed("serve", serve_round)

    timed(
        "gc-mark",
        lambda: collect_garbage(
            store, catalog_roots(catalog) | {root}, dry_run=True
        ),
    )

    return ProfileReport(
        phases=phases, total_seconds=time.perf_counter() - started
    )
