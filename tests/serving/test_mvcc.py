"""Tests for the epoch-pinned MVCC serving tier (experiment E20)."""

import asyncio

import pytest

from repro.gsdb import ObjectStore
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.updates import Delete, Insert, Modify
from repro.instrumentation import Meter
from repro.query.evaluator import QueryEvaluator
from repro.serving import AsyncEpochServer, EpochServer, FreshnessPolicy
from repro.views import ViewCatalog
from repro.workloads import person_db, register_person_database


def build_env(**kwargs):
    store = ObjectStore()
    store.add_atomic("A1", "name", "ann")
    store.add_atomic("A2", "age", 30)
    store.add_set("A", "emp", ["A1", "A2"])
    store.add_atomic("B1", "name", "bob")
    store.add_set("B", "emp", ["B1"])
    store.add_set("R", "root", ["A", "B"])
    registry = DatabaseRegistry(store)
    server = EpochServer(
        registry, parent_index=ParentIndex(store), **kwargs
    )
    return store, registry, server


class TestFreshnessPolicy:
    def test_parse_forms(self):
        assert FreshnessPolicy.parse("fresh") is FreshnessPolicy.FRESH
        assert FreshnessPolicy.parse("any") is FreshnessPolicy.ANY
        assert FreshnessPolicy.parse(3).max_lag_epochs == 3
        assert FreshnessPolicy.parse("3").max_lag_epochs == 3
        policy = FreshnessPolicy.bounded(2)
        assert FreshnessPolicy.parse(policy) is policy

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            FreshnessPolicy.parse("soon")
        with pytest.raises(ValueError):
            FreshnessPolicy.parse(-1)
        with pytest.raises(ValueError):
            FreshnessPolicy.parse(True)

    def test_admits(self):
        assert FreshnessPolicy.FRESH.admits(0)
        assert not FreshnessPolicy.FRESH.admits(1)
        assert FreshnessPolicy.ANY.admits(10**6)
        assert FreshnessPolicy.bounded(2).admits(2)
        assert not FreshnessPolicy.bounded(2).admits(3)

    def test_str_round_trips(self):
        assert str(FreshnessPolicy.FRESH) == "fresh"
        assert str(FreshnessPolicy.ANY) == "any"
        assert str(FreshnessPolicy.bounded(4)) == "max_lag_epochs=4"


class TestEpochServerReads:
    def test_answers_match_oracle_for_every_source(self):
        store, registry, server = build_env()
        oracle = QueryEvaluator(registry)
        text = "SELECT R.emp.name X"
        first = server.read(text)  # kernel evaluation
        second = server.read(text)  # carry hit
        assert first.source == "kernel"
        assert second.source == "carry"
        assert set(first.oids) == set(second.oids)
        assert set(first.oids) == oracle.evaluate_oids(text)

    def test_condition_on_epoch_matches_interpreted(self):
        store, registry, server = build_env()
        oracle = QueryEvaluator(registry)
        for text in (
            "SELECT R.* X WHERE X.age > 20",
            "SELECT R.* X WHERE X.age > 50",
            "SELECT R.emp X WHERE X.name = 'ann'",
        ):
            answer = server.read(text, "any")
            assert set(answer.oids) == oracle.evaluate_oids(text), text

    def test_fresh_read_sees_applied_batch(self):
        store, registry, server = build_env()
        oracle = QueryEvaluator(registry)
        text = "SELECT R.emp.name X"
        server.read(text)
        store.add_atomic("C1", "name", "carol")
        server.apply_batch([Insert("B", "C1")])
        answer = server.read(text, "fresh")
        assert answer.lag == 0
        assert set(answer.oids) == oracle.evaluate_oids(text)
        assert "C1" in answer.oids

    def test_bounded_staleness_serves_older_epoch_from_cache(self):
        store, registry, server = build_env(retention_capacity=4)
        text = "SELECT R.emp.name X"
        stale_answer = set(server.read(text).oids)
        store.add_atomic("C1", "name", "carol")
        server.apply_batch([Insert("B", "C1")])
        answer = server.read(text, 1)
        assert answer.source == "epoch-cache"
        assert answer.lag == 1
        assert set(answer.oids) == stale_answer  # pre-batch answer
        assert server.violations == 0

    def test_modify_is_visible_on_the_next_epoch(self):
        store, registry, server = build_env()
        oracle = QueryEvaluator(registry)
        text = "SELECT R.* X WHERE X.age > 20"
        assert set(server.read(text).oids) == {"A"}
        server.apply_batch([Modify("A2", 30, 10)])
        fresh = server.read(text, "fresh")
        assert set(fresh.oids) == oracle.evaluate_oids(text) == set()

    def test_carry_is_invalidated_precisely(self):
        store, registry, server = build_env()
        touched = "SELECT R.emp.name X"
        untouched = "SELECT R.emp X"
        server.read(touched)
        server.read(untouched)
        assert len(server.carry) == 2
        store.add_atomic("C1", "name", "carol")
        server.apply_batch([Insert("B", "C1")])
        # Both answers change (C1 is an emp child with a name), but a
        # disjoint-subtree update would leave them alone; here we just
        # require the carry to have dropped the affected entries.
        assert server.read(touched, "fresh").source != "carry"

    def test_scoped_query_uses_interpreted_fallback(self):
        store, registry, server = build_env()
        registry.create_database("D1", ["A"])
        oracle = QueryEvaluator(registry)
        text = "SELECT R.emp.name X WITHIN D1"
        answer = server.read(text, "any")
        assert answer.source == "interpreted"
        assert answer.lag == 0
        assert set(answer.oids) == oracle.evaluate_oids(text)

    def test_evaluate_oids_compat(self):
        store, registry, server = build_env()
        oracle = QueryEvaluator(registry)
        assert server.evaluate_oids("SELECT R.emp X") == oracle.evaluate_oids(
            "SELECT R.emp X"
        )

    def test_audit_trail_accumulates(self):
        store, registry, server = build_env()
        server.read("SELECT R.emp X", "fresh")
        server.read("SELECT R.emp X", "any")
        report = server.freshness_report()
        assert report["reads"] == 2
        assert report["violations"] == 0
        assert sum(report["lag_histogram"].values()) == 2
        stats = server.stats()
        assert stats["published"] >= 1
        assert stats["hits"] + stats["misses"] == 2

    def test_reader_costs_do_not_touch_store_counters(self):
        store, registry, server = build_env()
        before = store.counters.snapshot()
        server.read("SELECT R.emp.name X", "any")
        server.read("SELECT R.emp.name X", "any")
        delta = store.counters.delta_since(before)
        # The first publish builds the columnar snapshot (write-path
        # work, charged to the store); read accounting stays private.
        assert delta.query_cache_hits == 0
        assert delta.query_cache_misses == 0
        assert server.read_counters.query_cache_misses == 1
        assert server.read_counters.query_cache_hits == 1


def fail_open_env(kind: str):
    """R -> A, B, D; ``S`` is shared by A and B (a DAG).  ``dag``: a
    parent index whose chains stop at S; ``no-index``: no parent index
    at all.  Either way the invalidator cannot resolve an update under
    S and must fail open."""
    store = ObjectStore()
    store.add_atomic("S1", "name", "sam")
    store.add_set("S", "team", ["S1"])
    store.add_set("A", "emp", ["S"])
    store.add_set("B", "emp", ["S"])
    store.add_atomic("D1", "name", "dee")
    store.add_set("D", "emp", ["D1"])
    store.add_set("R", "root", ["A", "B", "D"])
    registry = DatabaseRegistry(store)
    parent_index = ParentIndex(store) if kind == "dag" else None
    server = EpochServer(registry, parent_index=parent_index)
    return store, registry, server


def grow_team(store, server):
    store.add_atomic("S2", "name", "sue")
    server.apply_batch([Insert("S", "S2")])  # anchor S: two parents


FAIL_OPEN_QUERIES = {
    "a-team": "SELECT A.team.name X",
    "b-team": "SELECT B.team.name X",
    "root-path": "SELECT R.emp.team.name X",
    "root-where": "SELECT R.* X WHERE X.name = 'sue'",
}


class TestFailOpenUnderEpochServer:
    """The server's snapshot is private, so the invalidator's fail-open
    branches run here as on any store: an update below the stop evicts
    the dependent carry entry, and the next fresh read re-evaluates on
    a new epoch and equals the interpreted evaluator."""

    @pytest.mark.parametrize("kind", ("dag", "no-index"))
    @pytest.mark.parametrize(
        "text", FAIL_OPEN_QUERIES.values(), ids=FAIL_OPEN_QUERIES.keys()
    )
    def test_update_below_stop_evicts_and_fresh_read_matches(
        self, kind, text
    ):
        store, registry, server = fail_open_env(kind)
        server.read(text)
        assert server.read(text).source == "carry"
        grow_team(store, server)
        answer = server.read(text, "fresh")
        assert answer.source == "kernel"
        assert answer.lag == 0
        assert set(answer.oids) == QueryEvaluator(registry).evaluate_oids(text)

    @pytest.mark.parametrize("kind", ("dag", "no-index"))
    def test_fail_open_also_evicts_unrelated_entries(self, kind):
        store, registry, server = fail_open_env(kind)
        text = "SELECT D.name X"
        server.read(text)
        assert len(server.carry) == 1
        grow_team(store, server)
        # Sound but imprecise: D's entry shares the label and goes too.
        assert len(server.carry) == 0
        answer = server.read(text, "fresh")
        assert answer.source == "kernel"
        assert set(answer.oids) == {"D1"}

    @pytest.mark.parametrize("kind", ("dag", "no-index"))
    def test_older_epoch_keeps_its_answer(self, kind):
        store, _, server = fail_open_env(kind)
        text = "SELECT A.team.name X"
        assert set(server.read(text).oids) == {"S1"}
        grow_team(store, server)
        stale = server.read(text, 1)
        assert stale.source == "epoch-cache"
        assert stale.lag == 1
        assert set(stale.oids) == {"S1"}
        assert set(server.read(text, "fresh").oids) == {"S1", "S2"}
        assert server.violations == 0


class TestAsyncEpochServer:
    def test_concurrent_reads_and_writes(self):
        store, registry, core = build_env()
        oracle = QueryEvaluator(registry)
        server = AsyncEpochServer(core)
        text = "SELECT R.emp.name X"

        async def scenario():
            answers = await asyncio.gather(
                *[server.read(text, "any") for _ in range(16)]
            )
            store.add_atomic("C1", "name", "carol")
            await server.apply_batch([Insert("B", "C1")])
            fresh = await server.read(text, "fresh")
            await server.apply_batch([Delete("B", "C1")])
            final = await server.read(text, "fresh")
            return answers, fresh, final

        answers, fresh, final = asyncio.run(scenario())
        assert all(a.oids == {"A1", "B1"} for a in answers)
        assert set(fresh.oids) == {"A1", "B1", "C1"}
        assert set(final.oids) == oracle.evaluate_oids(text) == {"A1", "B1"}
        assert core.violations == 0

    def test_publish_passthrough(self):
        store, registry, core = build_env()
        server = AsyncEpochServer(core)

        async def scenario():
            entry = await server.publish()
            return entry

        entry = asyncio.run(scenario())
        assert entry.seq == 0
        assert server.stats()["published"] == 1
        assert server.freshness_report()["reads"] == 0
        assert server.hit_rate() == 0.0


class TestCatalogWiring:
    def test_enable_async_serving_publishes_after_apply_batch(self):
        catalog = ViewCatalog()
        store = catalog.store
        store.add_atomic("P1", "age", 60)
        store.add_set("ROOT", "root", ["P1"])
        catalog.create_database("DB", ["ROOT"])
        server = catalog.enable_async_serving(retention_capacity=3)
        core = server.core
        # Idempotent: every front door wraps the catalog's one server.
        assert catalog.enable_async_serving().core is core
        assert catalog.enable_serving() is core is catalog.server
        assert core.retention.capacity == 3
        first = core.read("SELECT ROOT.age X", "fresh")
        assert set(first.oids) == {"P1"}
        store.add_atomic("P2", "age", 40)
        catalog.apply_batch([Insert("ROOT", "P2")])
        # Direct catalog batches publish too: a bounded-staleness read
        # right after sees lag 0 without forcing a new epoch.
        answer = core.read("SELECT ROOT.age X", 0)
        assert set(answer.oids) == {"P1", "P2"}
        assert answer.lag == 0

    def test_views_are_maintained_before_epoch_publishes(self):
        catalog = ViewCatalog()
        store = catalog.store
        store.add_atomic("P1", "age", 60)
        store.add_atomic("P2", "age", 40)
        store.add_set("ROOT", "root", ["P1"])
        catalog.create_database("DB", ["ROOT"])
        catalog.define("define mview OLD as: SELECT ROOT.age X WHERE X > 50")
        server = catalog.enable_async_serving()
        core = server.core

        async def scenario():
            await server.apply_batch([Insert("ROOT", "P2")])
            return await server.read("SELECT ROOT.age X", "fresh")

        answer = asyncio.run(scenario())
        assert set(answer.oids) == {"P1", "P2"}
        assert catalog.materialized_views["OLD"].members() == {"P1"}
        # A view-referencing query declines the epoch path entirely.
        view_read = core.read("SELECT OLD.? X", "any")
        assert view_read.source == "interpreted"


def priced_catalog():
    """``root.c0`` over three items priced 60, 40 and 80, materialized
    view ``V`` over the items above 50, and the MVCC tier on."""
    catalog = ViewCatalog()
    store = catalog.store
    store.add_set("C0", "c0")
    for i, price in enumerate((60, 40, 80)):
        store.add_atomic(f"I{i}p", "price", price)
        store.add_set(f"I{i}", "item", [f"I{i}p"])
        store.insert_edge("C0", f"I{i}")
    store.add_set("root", "root", ["C0"])
    catalog.define(
        "define mview V as: SELECT root.c0.item X WHERE X.price > 50"
    )
    core = catalog.enable_async_serving().core
    core.checkpoint()  # the set-up build
    return catalog, core


def base_oids(catalog) -> set[str]:
    views = set(catalog.materialized_views)
    return {
        oid
        for oid in catalog.store.oids()
        if oid not in views and oid.split(".")[0] not in views
    }


class TestViewsOutsideTheEpochImage:
    def test_reentering_member_costs_no_rebuild(self):
        catalog, core = priced_catalog()
        snap = core.retention.manager
        rebuilds = snap.full_rebuilds
        text = "SELECT root.c0.item X WHERE X.price > 50"
        old = 60
        for price in (30, 90, 20, 70):
            catalog.apply_batch([Modify("I0p", old, price)])
            old = price
            assert catalog.materialized_views["V"].contains("I0") == (
                price > 50
            )
            answer = core.read(text, "fresh")
            assert set(answer.oids) == catalog.query_oids(text)
        assert snap.full_rebuilds == rebuilds
        assert snap.nrows == len(base_oids(catalog))
        assert "V.I0" in catalog.store
        assert core.retention.latest().view.row("V.I0") is None

    def test_drop_view_leaves_no_rows_and_costs_no_rebuild(self):
        catalog, core = priced_catalog()
        snap = core.retention.manager
        rebuilds = snap.full_rebuilds
        catalog.drop_view("V")
        catalog.apply_batch([Modify("I1p", 40, 45)])
        assert snap.full_rebuilds == rebuilds
        assert sorted(snap.oid_of) == sorted(catalog.store.oids())
        view = core.retention.latest().view
        assert all(view.row(oid) is not None for oid in catalog.store.oids())

    def test_view_defined_while_serving_stays_out(self):
        catalog, core = priced_catalog()
        snap = core.retention.manager
        rebuilds = snap.full_rebuilds
        catalog.define(
            "define mview W as: SELECT root.c0.item X WHERE X.price < 50"
        )
        catalog.apply_batch([Modify("I1p", 40, 30)])
        assert catalog.materialized_views["W"].members() == {"I1"}
        assert sorted(snap.oid_of) == sorted(base_oids(catalog))
        catalog.drop_view("W")
        catalog.apply_batch([Modify("I1p", 30, 35)])
        assert snap.full_rebuilds == rebuilds
        assert sorted(snap.oid_of) == sorted(base_oids(catalog))

    def test_fresh_read_through_a_database_grouping_a_view(self):
        catalog, core = priced_catalog()
        catalog.create_database("DB", ["V", "C0"])
        text = "SELECT DB.?.item X"
        assert set(core.read(text, "fresh").oids) == catalog.query_oids(text)
        catalog.apply_batch([Modify("I1p", 40, 70)])
        answer = core.read(text, "fresh")
        assert "V.I1" in answer.oids
        assert set(answer.oids) == catalog.query_oids(text)
        assert answer.source == "interpreted"


def person_catalog(**kwargs):
    catalog = ViewCatalog(**kwargs)
    person_db(catalog.store, tree=True)
    register_person_database(catalog)
    return catalog


class TestInterpretedReadsTakeTheCatalogPath:
    """A read the epochs cannot answer goes through the catalog's own
    query path: virtual views refreshed first, the label index probed."""

    def test_virtual_view_is_refreshed_before_a_fresh_read(self):
        catalog = person_catalog()
        catalog.define(
            "define view YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        core = catalog.enable_async_serving().core
        text = "SELECT YP.professor X"
        assert set(core.read(text, "fresh").oids) == {"P1"}
        catalog.store.modify_value("A1", 60)  # P1 leaves YP
        answer = core.read(text, "fresh")
        assert answer.source == "interpreted"
        assert set(answer.oids) == catalog.query_oids(text) == set()

    def test_interpreted_read_charges_what_the_catalog_charges(self):
        catalog = person_catalog(with_label_index=True)
        core = catalog.enable_async_serving().core
        text = "SELECT ROOT.professor X WHERE X.age > 40 ANS INT PERSON"
        with Meter(catalog.store.counters) as served:
            answer = core.read(text, "fresh")
        with Meter(catalog.store.counters) as queried:
            expected = catalog.query_oids(text)
        assert answer.source == "interpreted"
        assert set(answer.oids) == expected == {"P1"}
        assert served.delta.as_dict() == queried.delta.as_dict()
        # One charge ledger per query.  Select: read ROOT, probe it,
        # follow and read P1 and P2 (1 + 2 + 2).  WHERE sweep from
        # {P1, P2}: both already read; probe each, follow and read A1
        # (1 + 1), whose value is then free.  ANS INT reads PERSON (1).
        # 5 reads + 3 traversals = 8 (3 probes).
        assert served.delta.total_base_accesses() == 8
        assert served.delta.index_probes == 3
