"""Open-loop traffic schedules for the serving tiers (experiment E20).

Closed-loop drivers (issue the next request when the previous answer
returns) hide saturation: a slow server simply gets asked less often.
The E20 harness is *open-loop*: arrivals are scheduled ahead of time
from a Poisson process at a fixed offered rate, and a request's latency
is measured from its **scheduled arrival** to its completion — queueing
delay counts, so a server that falls behind shows it in the tail
percentiles instead of quietly shedding load.

The schedule is deterministic in the seed: a list of
:class:`TrafficEvent` with exponential inter-arrival gaps, Zipf-skewed
query popularity (query *i* weighted ``(i+1)**-skew``, the usual
hot-key shape of read traffic), a Bernoulli read/write split, and
per-read freshness policies drawn from an explicit distribution.  The
same schedule can then drive an :class:`~repro.serving.mvcc.EpochServer`
from one thread at ``fresh`` (the sequential baseline) and through its
concurrent :class:`~repro.serving.mvcc.AsyncEpochServer` front door —
identical offered load, comparable tails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.workloads.generators import TreeSpec, layered_tree
from repro.workloads.serving import build_query_pool


@dataclass(frozen=True)
class TrafficEvent:
    """One scheduled arrival.

    ``at`` is the arrival offset in seconds from the start of the run;
    ``kind`` is ``"read"`` or ``"write"``; reads carry a query string
    and a freshness-policy spec (``"fresh"`` / ``"any"`` / a lag bound
    as text), writes carry the update-batch size.
    """

    at: float
    kind: str
    query: str | None = None
    policy: str = "fresh"
    batch: int = 0


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of an open-loop run (all randomness hangs off ``seed``).

    ``rate`` is the offered arrival rate in requests/second; the run
    schedules exactly ``requests`` arrivals, so the nominal horizon is
    ``requests / rate`` seconds.  ``policies`` weights the per-read
    freshness mix — the default sends most reads with a small staleness
    budget, the bounded-staleness regime the MVCC tier is built for.
    """

    seed: int = 0
    requests: int = 2000
    rate: float = 400.0
    read_ratio: float = 0.9
    skew: float = 1.1
    write_batch: int = 8
    policies: tuple[tuple[str, float], ...] = (
        ("fresh", 0.2),
        ("2", 0.6),
        ("any", 0.2),
    )

    @property
    def horizon(self) -> float:
        """Nominal schedule length in seconds."""
        return self.requests / self.rate


def poisson_schedule(
    spec: TrafficSpec, pool: list[str]
) -> list[TrafficEvent]:
    """The deterministic open-loop schedule for *spec* over *pool*."""
    if not pool:
        raise ValueError("traffic needs a non-empty query pool")
    rng = random.Random(spec.seed)
    weights = [(i + 1) ** -spec.skew for i in range(len(pool))]
    policy_specs = [name for name, _ in spec.policies]
    policy_weights = [weight for _, weight in spec.policies]
    events: list[TrafficEvent] = []
    at = 0.0
    for _ in range(spec.requests):
        at += rng.expovariate(spec.rate)
        if rng.random() < spec.read_ratio:
            events.append(
                TrafficEvent(
                    at=at,
                    kind="read",
                    query=rng.choices(pool, weights=weights)[0],
                    policy=rng.choices(
                        policy_specs, weights=policy_weights
                    )[0],
                )
            )
        else:
            events.append(
                TrafficEvent(at=at, kind="write", batch=spec.write_batch)
            )
    return events


@dataclass
class TrafficEnv:
    """A serving environment the schedules run against: a layered tree,
    its registry and parent index, and the deterministic query pool."""

    store: object
    root: str
    registry: DatabaseRegistry
    parent_index: ParentIndex
    pool: list[str] = field(default_factory=list)


def build_traffic_env(
    *, seed: int = 0, tree: TreeSpec | None = None
) -> TrafficEnv:
    """Build the shared E20 environment (same shape as E16's)."""
    tree = tree if tree is not None else TreeSpec(depth=4, seed=seed + 17)
    store, root = layered_tree(tree)
    registry = DatabaseRegistry(store)
    return TrafficEnv(
        store=store,
        root=root,
        registry=registry,
        parent_index=ParentIndex(store),
        pool=build_query_pool(root, tree, store=store),
    )


__all__ = [
    "TrafficEnv",
    "TrafficEvent",
    "TrafficSpec",
    "build_traffic_env",
    "poisson_schedule",
]
