"""Property-based tests for the Section 6 open-issue extensions.

* Aggregates a catalog defines (every kind, over a plain and over a
  union view) equal a from-scratch recomputation after every streamed
  update and every ``apply_batch``.
* Partial views a catalog defines keep every fragment copy exactly
  equal to base state, streamed and batched.
* The bulk screen is sound: a screened (declared-irrelevant) bulk never
  changes the view it was screened for.
"""

import random

import pytest
from hypothesis import given, settings

from tests.property.support import common_settings, drive
from hypothesis import strategies as st

from repro.gsdb import ObjectStore, ParentIndex
from repro.paths import PathExpression
from repro.query.ast import Comparison
from repro.views import (
    AggregateKind,
    PartialMaterializedView,
    SimpleViewMaintainer,
    ViewCatalog,
    ViewDefinition,
    compute_view_members,
)
from repro.warehouse import BulkUpdate, bulk_is_relevant, execute_bulk
from repro.workloads import random_labelled_tree

COMMON = common_settings(20)

DEF = "define mview V as: SELECT root0.a X WHERE X.b > 50"
NODES = 25
LABELS = ("a", "b", "c")
#: The branches of the union view the catalog properties define.
BRANCHES = (
    "define mview M as: SELECT root0.a X WHERE X.b > 50",
    "define mview M as: SELECT root0.b X WHERE X.a < 40",
    "define mview M as: SELECT root0.c X",
)
MODES = pytest.mark.parametrize(
    "batched", [False, True], ids=["streamed", "apply_batch"]
)


class TestAggregateProperties:
    @MODES
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 6),
        size=st.integers(1, 6),
        kind=st.sampled_from(list(AggregateKind)),
    )
    @settings(**COMMON)
    def test_aggregate_tracks_recomputation(
        self, batched, seed, rounds, size, kind
    ):
        store, _ = random_labelled_tree(nodes=NODES, labels=LABELS, seed=seed)
        catalog = ViewCatalog(store)
        catalog.define(DEF)
        catalog.define(ViewDefinition.union("M", BRANCHES))
        aggregates = [
            catalog.define_aggregate(f"AGG_{each.value}", "V", each)
            for each in AggregateKind
        ]
        aggregates.append(
            catalog.define_aggregate("AGG_M", "M", kind, value_path=("b",))
        )

        def check():
            assert all(aggregate.check() for aggregate in aggregates)
            assert all(report.ok for report in catalog.check_all().values())

        drive(catalog, seed, rounds, size, batched, check)


class TestPartialProperties:
    @MODES
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 6),
        size=st.integers(1, 6),
        depth=st.integers(1, 3),
    )
    @settings(**COMMON)
    def test_fragments_stay_exact(self, batched, seed, rounds, size, depth):
        store, _ = random_labelled_tree(nodes=NODES, labels=LABELS, seed=seed)
        catalog = ViewCatalog(store)
        partial = catalog.define_partial(DEF, depth=depth)
        count = catalog.define_aggregate("AGG", "V", AggregateKind.COUNT)

        def check():
            assert partial.check_fragments() == []
            assert partial.members() == compute_view_members(
                partial.definition, store
            )
            assert count.check()
            assert all(report.ok for report in catalog.check_all().values())

        drive(catalog, seed, rounds, size, batched, check)


def _random_payroll(rng: random.Random, people: int) -> ObjectStore:
    s = ObjectStore()
    names = ("Mark", "John", "Jane", "Mara")
    for i in range(people):
        s.add_atomic(f"n{i}", "name", rng.choice(names))
        s.add_atomic(f"s{i}", "salary", rng.randint(1, 100))
        s.add_set(f"e{i}", "person", [f"n{i}", f"s{i}"])
    s.add_set("ROOT", "company", [f"e{i}" for i in range(people)])
    return s


class TestBulkScreenSoundness:
    GUARD_NAMES = ("Mark", "John", "Jane")
    COND_CHOICES = (
        "define mview V as: SELECT ROOT.person X WHERE X.name = 'John'",
        "define mview V as: SELECT ROOT.person X WHERE X.salary > 50",
        "define mview V as: SELECT ROOT.person X WHERE X.name = 'Mark'",
        "define mview V as: SELECT ROOT.person X",
    )

    @given(
        seed=st.integers(0, 10_000),
        people=st.integers(3, 15),
        guard_name=st.sampled_from(GUARD_NAMES),
        def_index=st.integers(0, len(COND_CHOICES) - 1),
        delta=st.integers(-30, 30),
        depth=st.integers(1, 2),
    )
    @settings(**COMMON)
    def test_screened_bulk_never_changes_the_view(
        self, seed, people, guard_name, def_index, delta, depth
    ):
        rng = random.Random(seed)
        store = _random_payroll(rng, people)
        definition = ViewDefinition.parse(self.COND_CHOICES[def_index])
        bulk = BulkUpdate(
            owner_path=PathExpression.parse("person"),
            guard=Comparison(PathExpression.parse("name"), "=", guard_name),
            target_label="salary",
            transform=lambda v: v + delta,
        )
        if bulk_is_relevant(definition, bulk, fragment_depth=depth):
            return  # nothing to check: the screen made no promise

        index = ParentIndex(store)
        view = PartialMaterializedView(definition, store, depth=depth)
        index.ignore_view("V")
        store.subscribe(
            SimpleViewMaintainer(view, parent_index=index).handle  # type: ignore[arg-type]
        )
        view.load_members(compute_view_members(definition, store))
        store.subscribe(view.handle)

        members_before = view.members()
        values_before = {
            oid: (obj.value if (obj := view.delegate(oid)) is not None
                  and obj.is_atomic else None)
            for oid in view.copied_oids()
        }
        execute_bulk(store, "ROOT", bulk)
        assert view.members() == members_before
        values_after = {
            oid: (obj.value if (obj := view.delegate(oid)) is not None
                  and obj.is_atomic else None)
            for oid in view.copied_oids()
        }
        assert values_after == values_before
