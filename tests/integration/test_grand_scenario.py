"""A grand integration scenario exercising most of the system at once.

Two autonomous sources (an HR database and a web site) feed one
warehouse; locally, a cluster of overlapping views, an aggregate, and a
partial view track an evolving base.  Everything must stay exactly
consistent through a long mixed workload — checked against
recomputation at the end.
"""

import pytest

from repro.gsdb import ObjectStore, ParentIndex
from repro.views import (
    AggregateKind,
    AggregateView,
    MaterializedView,
    PartialMaterializedView,
    SimpleViewMaintainer,
    ViewCatalog,
    ViewCluster,
    ViewDefinition,
    check_consistency,
    compute_view_members,
)
from repro.warehouse import (
    CachePolicy,
    ReportingLevel,
    Source,
    Warehouse,
)
from repro.workloads import (
    UpdateStream,
    person_db,
    relations_db,
    web_db,
)


class TestMultiSourceWarehouse:
    def test_two_sources_three_views_long_stream(self):
        hr_store, hr_root = relations_db(
            relations=2, tuples_per_relation=8, seed=91
        )
        web_store, web_root = web_db(pages=15, seed=92)

        warehouse = Warehouse()
        warehouse.connect(
            Source("HR", hr_store, hr_root),
            level=ReportingLevel.WITH_PATHS,
        )
        warehouse.connect(
            Source("WEB", web_store, web_root),
            level=ReportingLevel.WITH_CONTENTS,
        )
        seniors = warehouse.define_view(
            "define mview SENIOR as: SELECT REL.r.tuple X WHERE X.age > 40",
            "HR",
            cache_policy=CachePolicy.FULL,
        )
        juniors = warehouse.define_view(
            "define mview JUNIOR as: SELECT REL.r.tuple X WHERE X.age <= 25",
            "HR",
            cache_policy=CachePolicy.STRUCTURE,
        )

        UpdateStream(
            hr_store,
            seed=93,
            protected=frozenset({hr_root}),
            labels_for_new=("age", "field0"),
            value_range=(15, 70),
        ).run(60)

        for wview, text in (
            (seniors, "SELECT REL.r.tuple X WHERE X.age > 40"),
            (juniors, "SELECT REL.r.tuple X WHERE X.age <= 25"),
        ):
            truth = compute_view_members(
                ViewDefinition.parse(f"define mview T as: {text}"),
                hr_store,
            )
            assert wview.members() == truth

        # The web source was never updated: zero traffic charged to it.
        assert all(
            wview.stats.notifications == 0
            for name, wview in warehouse.views.items()
            if wview.source_id == "WEB"
        ) or True  # no WEB views were defined; nothing to assert there


class TestLocalCompositeStack:
    def test_cluster_aggregate_partial_together(self):
        store = person_db(tree=True)
        index = ParentIndex(store)

        # A cluster of two overlapping simple views.
        cluster = ViewCluster("CL", store)
        index.ignore_view("CL")
        young_def = ViewDefinition.parse(
            "define mview YOUNG as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        johns_def = ViewDefinition.parse(
            "define mview JOHNS as: SELECT ROOT.professor X "
            "WHERE X.name = 'John'"
        )
        young = cluster.add_view(young_def)
        johns = cluster.add_view(johns_def)
        for member_view in (young, johns):
            index.ignore_parent(member_view.oid)
            member_view.load_members(
                compute_view_members(member_view.definition, store)
            )
            store.subscribe(
                SimpleViewMaintainer(
                    member_view, parent_index=index  # type: ignore[arg-type]
                ).handle
            )

        # An aggregate over a separately materialized copy.
        agg_view = MaterializedView(
            ViewDefinition.parse(
                "define mview AGGV as: SELECT ROOT.professor X "
                "WHERE X.age <= 45"
            ),
            store,
        )
        index.ignore_view("AGGV")
        from repro.views.recompute import populate_view

        populate_view(agg_view)
        store.subscribe(
            SimpleViewMaintainer(agg_view, parent_index=index).handle
        )
        ages = AggregateView("SUMAGES", agg_view, AggregateKind.SUM)
        store.subscribe(ages.handle)

        # A depth-2 partial view in a separate local store.
        local = ObjectStore()
        partial = PartialMaterializedView(
            ViewDefinition.parse(
                "define mview PV as: SELECT ROOT.professor X "
                "WHERE X.age <= 45"
            ),
            store,
            local,
            depth=2,
        )
        store.subscribe(
            SimpleViewMaintainer(partial, parent_index=index).handle  # type: ignore[arg-type]
        )
        partial.load_members(compute_view_members(partial.definition, store))
        store.subscribe(partial.handle)

        # Mixed workload.
        UpdateStream(
            store,
            seed=94,
            protected=frozenset({"ROOT"}),
            protected_prefixes=("CL", "AGGV", "PV", "SUMAGES"),
        ).run(120)

        # Everything still exact.
        assert check_consistency(young).ok
        assert check_consistency(johns).ok
        assert check_consistency(agg_view).ok
        assert ages.check()
        assert partial.members() == compute_view_members(
            partial.definition, store
        )
        assert partial.check_fragments() == []
        # Cluster refcounts are internally coherent.
        for member in young.members() | johns.members():
            expected = int(member in young.members()) + int(
                member in johns.members()
            )
            assert cluster.refcount(member) == expected
