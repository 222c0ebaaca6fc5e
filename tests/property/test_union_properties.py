"""Property: every view is the union of its branches.

Random trees, streamed and batched, through one catalog that mixes
plain views, OR views of two or three disjuncts (simple, conjunctive
and overlapping ones), unions of several select paths, a union of one
branch and an aggregate over a union; one union is recomputed
mid-stream.  After every step ``check_all()`` is ok for every view,
each view's members equal the union of
:func:`~tests.property.support.reference_answer` over its branches, and
each branch of a union supports exactly that branch's answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.views import AggregateKind, ViewCatalog, ViewDefinition
from repro.workloads import random_labelled_tree
from tests.property.support import common_settings, drive, reference_answer

COMMON = common_settings(20)

NODES = 25
PLAIN = (
    "define mview V as: SELECT root0.a X WHERE X.b > 50",
    "define mview P as: SELECT root0.b X",
)
OR_VIEWS = (
    "define mview O1 as: SELECT root0.a X WHERE X.b > 50 OR X.c < 30",
    "define mview O2 as: SELECT root0.* X "
    "WHERE X.b > 50 OR (X.a < 40 AND X.c > 20) OR X.c = 7",
    "define mview O3 as: SELECT root0.? X WHERE X.b > 40 OR X.b < 60",
    "define mview O4 as: SELECT root0.b X WHERE X > 30 OR X > 60",
    "define mview O5 as: SELECT root0.*.a X WHERE X.c < 50 OR X.b > 50",
)
UNIONS = {
    "M": (
        "define mview M as: SELECT root0.a X WHERE X.b > 50",
        "define mview M as: SELECT root0.b X WHERE X.a < 40",
        "define mview M as: SELECT root0.c X",
    ),
    "MO": (
        "define mview MO as: SELECT root0.c X WHERE X.a < 40 OR X.b > 60",
        "define mview MO as: SELECT root0.*.b X",
    ),
    "M1": ("define mview M1 as: SELECT root0.a.b X WHERE X.c > 50",),
}
MODES = pytest.mark.parametrize(
    "batched", [False, True], ids=["streamed", "apply_batch"]
)


class TestUnionViews:
    @MODES
    @given(
        seed=st.integers(0, 10_000),
        rounds=st.integers(1, 6),
        size=st.integers(1, 6),
        recompute_at=st.integers(1, 36),
        victim=st.sampled_from(["M", "MO", "O1", "O2", "O5"]),
        kind=st.sampled_from(list(AggregateKind)),
    )
    @settings(**COMMON)
    def test_views_equal_the_union_of_their_branches(
        self, batched, seed, rounds, size, recompute_at, victim, kind
    ):
        store, _ = random_labelled_tree(
            nodes=NODES, labels=("a", "b", "c"), seed=seed
        )
        catalog = ViewCatalog(store)
        for text in PLAIN + OR_VIEWS:
            catalog.define(text)
        for name, definitions in UNIONS.items():
            catalog.define(ViewDefinition.union(name, definitions))
        assert [
            len(catalog.maintainers[name]) for name in ("O1", "O2", "O4")
        ] == [2, 3, 2]
        assert [len(catalog.maintainers[name]) for name in UNIONS] == [3, 3, 1]
        aggregate = catalog.define_aggregate(
            "AGG", "M", kind, value_path=("b",)
        )
        steps = 0

        def check():
            nonlocal steps
            steps += 1
            if steps == recompute_at:
                assert catalog.recompute(victim) == (0, 0)
            reports = catalog.check_all()
            assert all(report.ok for report in reports.values()), {
                name: report.describe() for name, report in reports.items()
            }
            for name, view in catalog.materialized_views.items():
                truths = [
                    reference_answer(store, catalog.registry, branch.query)
                    for branch in view.definition.branches
                ]
                assert view.members() == set().union(*truths), name
                registrations = catalog.maintainers[name]
                if len(registrations) > 1:
                    supported = [m.view.members() for m in registrations]
                    assert supported == truths, name
            assert aggregate.check()

        check()
        drive(catalog, seed, rounds, size, batched, check, nodes=NODES)
