"""E1 — the paper's worked maintenance examples (Examples 5-6, Figure 4).

Reproduces the exact view transitions of Figure 4 on the PERSON
database and reports the logical cost (base accesses) of each paper
update under Algorithm 1, against the cost of recomputing the view.
"""

import pytest

from _common import emit
from repro.gsdb import ParentIndex
from repro.instrumentation import Meter
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    check_consistency,
    populate_view,
    recompute_view,
)
from repro.workloads import person_db

YP_DEF = "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"


def build():
    store = person_db(tree=True)
    index = ParentIndex(store)
    view = MaterializedView(ViewDefinition.parse(YP_DEF), store)
    populate_view(view)
    maintainer = SimpleViewMaintainer(view, parent_index=index)
    store.subscribe(maintainer.handle)
    return store, view, maintainer


def run_experiment():
    rows = []

    # Example 5: insert(P2, A2).
    store, view, _ = build()
    store.add_atomic("A2", "age", 40)
    with Meter(store.counters) as meter:
        store.insert_edge("P2", "A2")
    assert view.members() == {"P1", "P2"}, "Figure 4 transition failed"
    rows.append(
        ["insert(P2, A2)", "{P1} -> {P1,P2}",
         meter.delta.total_base_accesses(), _recompute_cost(YP_DEF)]
    )

    # Example 6: delete(ROOT, P1).
    store, view, _ = build()
    with Meter(store.counters) as meter:
        store.delete_edge("ROOT", "P1")
    assert view.members() == set()
    rows.append(
        ["delete(ROOT, P1)", "{P1} -> {}",
         meter.delta.total_base_accesses(), _recompute_cost(YP_DEF)]
    )

    # A modify closing the loop (Section 4.1's third update kind).
    store, view, _ = build()
    with Meter(store.counters) as meter:
        store.modify_value("A1", 50)
    assert view.members() == set()
    rows.append(
        ["modify(A1, 45, 50)", "{P1} -> {}",
         meter.delta.total_base_accesses(), _recompute_cost(YP_DEF)]
    )
    assert check_consistency(view).ok
    return rows


def _recompute_cost(definition):
    store = person_db(tree=True)
    view = MaterializedView(ViewDefinition.parse(definition), store)
    populate_view(view)
    with Meter(store.counters) as meter:
        recompute_view(view)
    return meter.delta.total_base_accesses()


def test_e1_table():
    rows = run_experiment()
    emit(
        "E1: Algorithm 1 on the paper's own updates (PERSON database)",
        ["update", "view transition", "incr. base accesses",
         "recompute accesses"],
        rows,
        note="transitions match paper Figure 4; costs are logical "
        "base-object touches",
        filename="e1_paper_examples.txt",
    )


@pytest.mark.benchmark(group="e1")
def test_e1_maintain_insert(benchmark):
    store, view, maintainer = build()
    store.add_atomic("A2", "age", 40)
    update = None

    def op():
        store.insert_edge("P2", "A2")
        store.delete_edge("P2", "A2")  # restore state for the next round

    benchmark(op)


@pytest.mark.benchmark(group="e1")
def test_e1_maintain_modify(benchmark):
    store, view, maintainer = build()

    def op():
        store.modify_value("A1", 50)
        store.modify_value("A1", 45)

    benchmark(op)


@pytest.mark.benchmark(group="e1")
def test_e1_recompute_baseline(benchmark):
    store = person_db(tree=True)
    view = MaterializedView(ViewDefinition.parse(YP_DEF), store)
    populate_view(view)
    benchmark(lambda: recompute_view(view))
