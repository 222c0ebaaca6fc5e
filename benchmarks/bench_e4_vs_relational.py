"""E4 — native GSDB maintenance vs relational flattening (Section 4.4,
Example 8).

The paper's argument against "represent[ing] the graph data as
relations ... and then simply us[ing] existing relational maintenance
algorithms":

1. one object-level update explodes into several single-table deltas,
   each separately invoking the relational IVM algorithm — with
   transient inconsistency windows in between;
2. path views compile to long self-join chains whose evaluation hides
   the path semantics.

We run Example 7's tuple-insert workload through both engines and
report invocations, logical work, and wall time per GSDB update, plus
the compiled join count per path length.
"""

import time

import pytest

from _common import emit
from repro.gsdb import ParentIndex
from repro.instrumentation import Meter, ratio
from repro.relational import RelationalMirror, join_count
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    populate_view,
)
from repro.workloads import insert_tuple, relations_db

SEL_DEF = "define mview SEL as: SELECT REL.r.tuple X WHERE X.age > 30"
UPDATES = 20


def build_native(tuples=100):
    store, _ = relations_db(relations=2, tuples_per_relation=tuples, seed=23)
    index = ParentIndex(store)
    view = MaterializedView(ViewDefinition.parse(SEL_DEF), store)
    populate_view(view)
    store.subscribe(SimpleViewMaintainer(view, parent_index=index).handle)
    return store, view


def build_relational(tuples=100):
    store, _ = relations_db(relations=2, tuples_per_relation=tuples, seed=23)
    mirror = RelationalMirror(store)
    mirror.register_view(ViewDefinition.parse(SEL_DEF))
    return store, mirror


def run_experiment():
    # Native engine.
    store_n, view = build_native()
    t0 = time.perf_counter()
    with Meter(store_n.counters) as native_meter:
        for i in range(UPDATES):
            insert_tuple(store_n, "R0", f"t_bench{i}", age=25 + i)
    native_time = time.perf_counter() - t0

    # Relational engine.
    store_r, mirror = build_relational()
    before = mirror.stats
    base_inv = before.ivm_invocations
    base_deltas = before.table_deltas
    base_windows = before.inconsistency_windows
    t0 = time.perf_counter()
    with Meter(store_r.counters, mirror.db.counters) as rel_meter:
        for i in range(UPDATES):
            insert_tuple(store_r, "R0", f"t_bench{i}", age=25 + i)
    rel_time = time.perf_counter() - t0

    assert view.members() == mirror.members("SEL"), "engines disagree!"

    invocations = mirror.stats.ivm_invocations - base_inv
    deltas = mirror.stats.table_deltas - base_deltas
    windows = mirror.stats.inconsistency_windows - base_windows

    rows = [
        [
            "native (Algorithm 1)",
            1.0,  # one maintenance invocation per GSDB update
            round(native_meter.delta.total_base_accesses() / UPDATES, 1),
            0,
            f"{native_time / UPDATES * 1e6:.0f}",
        ],
        [
            "relational (counting IVM)",
            round(invocations / UPDATES, 1),
            round(
                (rel_meter.delta.object_scans
                 + rel_meter.delta.index_probes) / UPDATES, 1,
            ),
            round(windows / UPDATES, 1),
            f"{rel_time / UPDATES * 1e6:.0f}",
        ],
    ]
    extras = {
        "deltas_per_update": deltas / UPDATES,
        "speed_ratio": ratio(rel_time, native_time),
    }
    return rows, extras


def join_count_rows():
    rows = []
    for sel_len, cond_len in ((1, 1), (2, 1), (3, 2), (4, 3)):
        sel = ".".join(f"s{i}" for i in range(sel_len))
        cond = ".".join(f"c{i}" for i in range(cond_len))
        definition = ViewDefinition.parse(
            f"define mview V as: SELECT R.{sel} X WHERE X.{cond} > 0"
        )
        rows.append([sel_len, cond_len, join_count(definition)])
    return rows


def test_e4_table():
    rows, extras = run_experiment()
    emit(
        "E4: one GSDB update through both engines (Example 7 inserts)",
        ["engine", "IVM invocations/update", "probes+scans/update",
         "inconsistency windows/update", "us/update"],
        rows,
        note=f"relational needs {extras['deltas_per_update']:.1f} table "
        f"deltas per logical update and ran "
        f"{extras['speed_ratio']:.1f}x slower here",
        filename="e4_vs_relational.txt",
    )
    assert rows[1][1] > rows[0][1], "relational should need more invocations"

    emit(
        "E4b: self-join chain length of compiled path views (Example 8)",
        ["sel path length", "cond path length", "joins in SPJ"],
        join_count_rows(),
        note="2(k+m) joins for a k-step select / m-step condition path",
        filename="e4b_join_counts.txt",
    )


@pytest.mark.benchmark(group="e4")
def test_e4_native_update(benchmark):
    store, _ = build_native()
    counter = [0]

    def op():
        counter[0] += 1
        insert_tuple(store, "R0", f"b{counter[0]}", age=40)

    benchmark(op)


@pytest.mark.benchmark(group="e4")
def test_e4_relational_update(benchmark):
    store, _ = build_relational()
    counter = [0]

    def op():
        counter[0] += 1
        insert_tuple(store, "R0", f"b{counter[0]}", age=40)

    benchmark(op)
