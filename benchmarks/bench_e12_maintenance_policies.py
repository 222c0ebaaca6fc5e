"""E12 — maintenance-policy ablation (the paper's §4.4 nuance).

"The cost of each approach actually depends on the specifics of each
scenario, such as the size of the databases, the type of view, the cost
of query processing and the index structure of base databases."

E2 showed incremental winning per-update.  This ablation maps where the
*deferred* alternative — let updates accumulate and recompute once per
read — overtakes eager strategies, sweeping the updates-per-read ratio:

* **incremental** — Algorithm 1 on every update (view always fresh);
* **eager recompute** — full recomputation on every update;
* **deferred recompute** — nothing per update, one recomputation per
  read.

Expected shape: incremental wins whenever reads are at least as common
as updates; deferred recompute catches up as updates-per-read grows
(its cost is one recompute amortized over the batch), with the
crossover scaling with view size.
"""

import pytest

from _common import emit
from repro.gsdb import ParentIndex
from repro.instrumentation import Meter
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    populate_view,
    recompute_view,
)
from repro.workloads import UpdateMix, UpdateStream, relations_db

SEL_DEF = "define mview SEL as: SELECT REL.r.tuple X WHERE X.age > 30"
READS = 5  # reads per measured episode


def build(tuples: int, *, maintained: bool):
    store, root = relations_db(
        relations=1, tuples_per_relation=tuples, seed=79
    )
    index = ParentIndex(store)
    view = MaterializedView(ViewDefinition.parse(SEL_DEF), store)
    populate_view(view)
    if maintained:
        store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
    return store, root, view


def episode_cost(tuples: int, updates_per_read: int, policy: str) -> float:
    """Total base accesses for READS reads with a batch of updates
    before each, divided by the number of updates."""
    maintained = policy == "incremental"
    store, root, view = build(tuples, maintained=maintained)
    stream = UpdateStream(
        store,
        seed=83,
        protected=frozenset({root, "REL"}),
        protected_prefixes=("SEL",),
        labels_for_new=("age", "field0"),
        mix=UpdateMix(insert=1, delete=0.5, modify=3),
    )
    total_updates = 0
    with Meter(store.counters) as meter:
        for _ in range(READS):
            for _ in range(updates_per_read):
                if stream.step() is not None:
                    total_updates += 1
                if policy == "eager-recompute":
                    recompute_view(view)
            if policy == "deferred-recompute":
                recompute_view(view)  # freshen at read time
            len(view.members())  # the read itself
    return meter.delta.total_base_accesses() / max(1, total_updates)


def run_experiment():
    rows = []
    for tuples in (30, 120):
        for updates_per_read in (1, 10, 50):
            incr = episode_cost(tuples, updates_per_read, "incremental")
            eager = episode_cost(tuples, updates_per_read, "eager-recompute")
            deferred = episode_cost(
                tuples, updates_per_read, "deferred-recompute"
            )
            best = min(
                ("incremental", incr),
                ("eager-recompute", eager),
                ("deferred-recompute", deferred),
                key=lambda pair: pair[1],
            )[0]
            rows.append(
                [
                    tuples,
                    updates_per_read,
                    round(incr, 1),
                    round(eager, 1),
                    round(deferred, 1),
                    best,
                ]
            )
    return rows


def test_e12_table():
    rows = run_experiment()
    emit(
        "E12: amortized base accesses per update, by maintenance policy",
        ["tuples", "updates/read", "incremental", "eager recompute",
         "deferred recompute", "winner"],
        rows,
        note="incremental dominates read-heavy regimes; deferred "
        "recomputation amortizes toward the incremental cost as batches "
        "grow, closest on the small base with the longest batches "
        "— the scenario-dependence the paper flags in Section 4.4",
        filename="e12_policies.txt",
    )
    # Eager recompute must never win, and incremental must win the
    # read-heavy corner.
    for row in rows:
        assert row[5] != "eager-recompute"
    assert rows[0][5] == "incremental"


@pytest.mark.benchmark(group="e12")
@pytest.mark.parametrize("policy", ["incremental", "deferred-recompute"])
def test_e12_policy_episode(benchmark, policy):
    benchmark.pedantic(
        lambda: episode_cost(60, 10, policy), rounds=3, iterations=1
    )
