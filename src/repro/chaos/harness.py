"""The end-to-end chaos harness (experiment E15).

One :class:`ChaosHarness` is one fully seeded run: a random labelled
tree at a source, a warehouse view over it (optionally cached), a
:class:`~repro.chaos.channel.FaultyChannel` between them, and a random
update workload.  Setup happens with the channel disarmed (so chaos
starts from a consistent steady state); the run then drives updates
through the faulty channel — per-update (:meth:`ChaosHarness.run`) or
through the coalescing batch path (:meth:`ChaosHarness.run_batches`) —
after which :meth:`ChaosHarness.settle` drains the channel and calls
:meth:`~repro.warehouse.warehouse.Warehouse.heal` to a fixed point, and
the quiescence oracle audits every view against source truth.

Everything — tree, workload, and fault schedule — derives from one
seed, so a failing run replays exactly and hypothesis can shrink over
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chaos.channel import ChannelStats, FaultyChannel
from repro.chaos.faults import FaultRates, FaultSchedule
from repro.chaos.oracle import ViewAudit, check_quiescence
from repro.gsdb.updates import Delete, Insert, Modify, Update
from repro.instrumentation.counters import CostCounters
from repro.warehouse.caching import CachePolicy
from repro.warehouse.protocol import ReportingLevel
from repro.warehouse.source import Source
from repro.warehouse.warehouse import IngressStats, Warehouse
from repro.warehouse.wrapper import RetryPolicy
from repro.workloads.generators import random_labelled_tree
from repro.workloads.updates import UpdateStream

#: The property-suite view: same shape as the warehouse equivalence
#: tests, so chaos failures compare directly against fault-free runs.
DEFAULT_DEFINITION = "define mview V as: SELECT root0.a X WHERE X.b > 50"

#: Bail out of the heal loop after this many rounds — with injected
#: query timeouts a resync can fail repeatedly; the report then shows
#: ``settled=False`` instead of looping forever.
MAX_HEAL_ROUNDS = 10


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    seed: int
    steps: int
    level: int
    applied: int  # workload updates that reached the source store
    channel: ChannelStats
    ingress: IngressStats
    recovery: CostCounters  # counter delta across workload + settle
    released: int  # held messages flushed by drain
    heal_rounds: int
    view_resyncs: int
    settled: bool
    audits: dict[str, ViewAudit] = field(default_factory=dict)

    @property
    def quiescent(self) -> bool:
        """Did every view pass the byte-equality oracle?"""
        return self.settled and all(
            audit.consistent for audit in self.audits.values()
        )

    def recovery_actions(self) -> int:
        """Total recovery events: retries + dedups + replays + resyncs."""
        r = self.recovery
        return (
            r.query_retries
            + r.notifications_deduped
            + r.notifications_replayed
            + r.view_resyncs
        )

    def describe(self) -> str:
        verdict = "QUIESCENT" if self.quiescent else "DIVERGED"
        return (
            f"seed={self.seed} steps={self.steps} level={self.level}: "
            f"{verdict} — sent={self.channel.sent} "
            f"dropped={self.channel.dropped} "
            f"duplicated={self.channel.duplicated} "
            f"delayed={self.channel.delayed} "
            f"crashes={self.channel.crashes} "
            f"timeouts={self.channel.query_timeouts} | "
            f"retries={self.recovery.query_retries} "
            f"deduped={self.recovery.notifications_deduped} "
            f"replayed={self.recovery.notifications_replayed} "
            f"resyncs={self.recovery.view_resyncs} "
            f"staleness={self.ingress.max_lag}"
        )


class ChaosHarness:
    """One seeded source + warehouse + faulty channel + workload."""

    def __init__(
        self,
        *,
        seed: int = 0,
        nodes: int = 30,
        labels: tuple[str, ...] = ("a", "b", "c"),
        level: int | ReportingLevel = ReportingLevel.WITH_CONTENTS,
        rates: FaultRates | None = None,
        definition: str = DEFAULT_DEFINITION,
        cache_policy: CachePolicy = CachePolicy.NONE,
        retry: RetryPolicy | None = None,
        history_limit: int = 256,
        max_hold: int = 4,
        downtime: float = 2.0,
    ) -> None:
        self.seed = seed
        self.labels = labels
        self.level = ReportingLevel(level)
        self.rates = rates if rates is not None else FaultRates(
            drop=0.1, duplicate=0.1, reorder=0.1
        )
        self.store, self.root = random_labelled_tree(
            nodes=nodes, labels=labels, seed=seed
        )
        self.source = Source("S1", self.store, self.root)
        self.schedule = FaultSchedule(
            self.rates, seed=seed, max_hold=max_hold, downtime=downtime
        )
        self.channel = FaultyChannel(self.schedule)
        self.channel.armed = False  # setup runs fault-free
        self.warehouse = Warehouse()
        self.warehouse.connect(
            self.source,
            level=self.level,
            channel=self.channel,
            retry=retry if retry is not None else RetryPolicy(),
        )
        self.warehouse.monitors["S1"].history_limit = history_limit
        self.view = self.warehouse.define_view(
            definition, "S1", cache_policy=cache_policy
        )
        self.channel.armed = True
        self._fresh = 0
        self._batch_rng = random.Random(seed + 7)

    # -- workloads --------------------------------------------------------------

    def run(self, steps: int) -> ChaosReport:
        """Per-update workload: every source update ships one
        notification through the faulty channel; then settle + audit."""
        before = self.warehouse.counters.snapshot()
        stream = UpdateStream(
            self.store,
            seed=self.seed + 1,
            protected=frozenset({self.root}),
            labels_for_new=self.labels,
        )
        applied = stream.run(steps)
        return self._finish(steps, len(applied), before)

    def run_batches(self, batches: int, batch_size: int) -> ChaosReport:
        """Batch workload: updates flow through
        :meth:`~repro.warehouse.warehouse.Warehouse.process_batch`
        (screen → apply → coalesce → ship through the channel)."""
        before = self.warehouse.counters.snapshot()
        applied = 0
        for _ in range(batches):
            batch = self._generate_batch(batch_size)
            if not batch:
                break
            applied += len(
                self.warehouse.process_batch("S1", batch)
            )
        return self._finish(batches * batch_size, applied, before)

    def _generate_batch(self, size: int) -> list[Update]:
        """A valid not-yet-applied update batch against the current
        source state (with an overlay so intra-batch ops compose)."""
        store = self.store
        rng = self._batch_rng
        children_of: dict[str, set[str]] = {}

        def kids(oid: str) -> set[str]:
            if oid not in children_of:
                obj = store.peek(oid)
                children_of[oid] = (
                    set(obj.children())
                    if obj is not None and obj.is_set
                    else set()
                )
            return children_of[oid]

        values: dict[str, object] = {}

        def value_of(oid: str) -> object:
            if oid not in values:
                values[oid] = store.peek(oid).atomic_value()
            return values[oid]

        set_oids = [
            oid
            for oid in store.oids()
            if (obj := store.peek(oid)) is not None and obj.is_set
        ]
        atom_oids = [
            oid
            for oid in store.oids()
            if (obj := store.peek(oid)) is not None
            and obj.is_atomic
            and isinstance(obj.atomic_value(), int)
        ]
        updates: list[Update] = []
        for _ in range(size):
            kind = rng.choice(("insert", "delete", "modify"))
            if kind == "insert" and set_oids:
                parent = rng.choice(set_oids)
                self._fresh += 1
                child = f"chaos{self._fresh}"
                store.add_atomic(
                    child, rng.choice(self.labels), rng.randint(0, 100)
                )
                atom_oids.append(child)
                updates.append(Insert(parent, child))
                kids(parent).add(child)
            elif kind == "delete":
                edges = [
                    (parent, child)
                    for parent in set_oids
                    if parent != self.root
                    for child in sorted(kids(parent))
                ]
                if not edges:
                    continue
                parent, child = rng.choice(edges)
                updates.append(Delete(parent, child))
                kids(parent).discard(child)
            elif atom_oids:
                oid = rng.choice(atom_oids)
                new_value = rng.randint(0, 100)
                updates.append(Modify(oid, value_of(oid), new_value))
                values[oid] = new_value
        return updates

    # -- settling ---------------------------------------------------------------

    def settle(self) -> tuple[int, int, int, bool]:
        """Drain the channel, then heal to a fixed point.

        Returns ``(released, heal_rounds, view_resyncs, settled)``.
        """
        released = self.channel.drain()
        rounds = 0
        resyncs = 0
        settled = False
        while rounds < MAX_HEAL_ROUNDS:
            rounds += 1
            resyncs += self.warehouse.heal()
            if self._settled():
                settled = True
                break
        return released, rounds, resyncs, settled

    def _settled(self) -> bool:
        if not self.channel.idle:
            return False
        for source_id, ingress in self.warehouse.ingress.items():
            monitor = self.warehouse.monitors[source_id]
            if ingress.pending:
                return False
            if ingress.next_expected <= monitor.last_sequence:
                return False
        return not any(
            wview.needs_resync for wview in self.warehouse.views.values()
        )

    def _finish(
        self, steps: int, applied: int, before: CostCounters
    ) -> ChaosReport:
        released, rounds, resyncs, settled = self.settle()
        recovery = self.warehouse.counters.delta_since(before)
        report = ChaosReport(
            seed=self.seed,
            steps=steps,
            level=int(self.level),
            applied=applied,
            channel=self.channel.stats,
            ingress=self.warehouse.ingress["S1"].stats,
            recovery=recovery,
            released=released,
            heal_rounds=rounds,
            view_resyncs=resyncs,
            settled=settled,
        )
        report.audits = check_quiescence(self.warehouse)
        return report
