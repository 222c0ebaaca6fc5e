"""A live payroll dashboard: the Section 6 extensions working together.

A company GSDB holds departments → employees → name/salary fields.  We
build:

* a **partially materialized view** (depth 2) of the engineers — their
  salary values are cached locally, not just pointers (§6 open issue 3);
* **aggregate views** over it — headcount and salary statistics,
  maintained incrementally (§6 open issue 2);
* and we apply an **intensional bulk update** ("raise every senior by
  10%") whose descriptor lets unrelated views skip the whole batch
  (§6 open issue 4 — the paper's Marks-vs-Johns example, scaled up).

Run:  python examples/payroll_dashboard.py
"""

import random

from repro.gsdb import ObjectStore
from repro.instrumentation import Meter, print_table
from repro.paths import PathExpression
from repro.query.ast import Comparison
from repro.views import AggregateKind, ViewCatalog, ViewDefinition
from repro.warehouse import BulkUpdate, bulk_is_relevant, execute_bulk


def build_company(engineers: int = 40, managers: int = 10) -> ObjectStore:
    rng = random.Random(11)
    s = ObjectStore()
    people = []
    for i in range(engineers + managers):
        role = "engineer" if i < engineers else "manager"
        s.add_atomic(f"n{i}", "name", f"emp{i}")
        s.add_atomic(f"s{i}", "salary", rng.randint(80, 160) * 1000)
        s.add_atomic(f"lv{i}", "level", rng.choice(["junior", "senior"]))
        s.add_set(f"p{i}", role, [f"n{i}", f"s{i}", f"lv{i}"])
        people.append(f"p{i}")
    s.add_set("ROOT", "company", people)
    return s


def main() -> None:
    store = build_company()
    catalog = ViewCatalog(store)

    # -- depth-2 partial view: engineers with their field values local --
    view = catalog.define_partial(
        "define mview ENG as: SELECT ROOT.engineer X WHERE X.salary > 0",
        depth=2,
    )

    # -- incremental aggregates over the view ---------------------------
    aggregates = {
        kind: catalog.define_aggregate(
            f"ENG_{kind.value}", "ENG", kind, value_path=("salary",)
        )
        for kind in (
            AggregateKind.COUNT, AggregateKind.AVG,
            AggregateKind.MIN, AggregateKind.MAX,
        )
    }

    def dashboard(title):
        print_table(
            title,
            ["metric", "value"],
            [[kind.value, agg.current_value()]
             for kind, agg in aggregates.items()],
        )

    dashboard("payroll dashboard — initial")

    # -- ordinary updates flow through automatically --------------------
    store.add_atomic("n_new", "name", "grace")
    store.add_atomic("s_new", "salary", 200_000)
    store.add_set("p_new", "engineer", ["n_new", "s_new"])
    store.insert_edge("ROOT", "p_new")
    store.delete_edge("ROOT", "p0")
    dashboard("after hiring grace (200k) and losing p0")

    # -- an intensional bulk update --------------------------------------
    raise_seniors = BulkUpdate(
        owner_path=PathExpression.parse("engineer|manager"),
        guard=Comparison(PathExpression.parse("level"), "=", "senior"),
        target_label="salary",
        transform=lambda v: int(v * 1.10),
        description="raise every senior by 10%",
    )
    # A managers-only view could skip this batch? No — the guard
    # (level=senior) isn't disjoint from a role-based condition, but a
    # junior-focused view is provably unaffected:
    juniors = ViewDefinition.parse(
        "define mview JR as: SELECT ROOT.engineer X "
        "WHERE X.level = 'junior'"
    )
    print(
        "bulk relevant to a juniors view (depth-2)? "
        f"{bulk_is_relevant(juniors, raise_seniors, fragment_depth=2)}"
    )
    with Meter(store.counters) as meter:
        applied = execute_bulk(store, "ROOT", raise_seniors)
    print(f"bulk raised {len(applied)} seniors "
          f"({meter.delta.object_writes} writes at the source)")
    dashboard("after the 10% senior raise")

    # The dashboard is verifiably exact.
    for kind, agg in aggregates.items():
        assert agg.check(), f"{kind} aggregate diverged!"
    assert view.check_fragments() == []
    print("all aggregates and fragments verified against base state")


if __name__ == "__main__":
    main()
