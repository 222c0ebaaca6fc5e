"""Property-based tests for the relational substrate.

* The flattened tables always mirror the store under random updates;
* counting IVM agrees with full re-evaluation;
* the relational engine and the native GSDB engine compute the same
  view membership (cross-engine agreement — the heart of E4).
"""

from hypothesis import given, settings

from tests.property.support import common_settings
from hypothesis import strategies as st

from repro.gsdb import ParentIndex
from repro.relational import RelationalMirror
from repro.views import (
    MaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
    populate_view,
)
from repro.workloads import UpdateStream, random_labelled_tree

COMMON = common_settings(20)

DEFS = (
    "define mview V as: SELECT root0.a X WHERE X.b > 50",
    "define mview V as: SELECT root0.a.b X WHERE X.c <= 30",
    "define mview V as: SELECT root0.b.a X",
)


class TestMirrorProperties:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(8, 40),
        steps=st.integers(1, 20),
        def_index=st.integers(0, len(DEFS) - 1),
    )
    @settings(**COMMON)
    def test_cross_engine_agreement(self, seed, nodes, steps, def_index):
        store, root = random_labelled_tree(
            nodes=nodes, labels=("a", "b", "c"), seed=seed
        )
        mirror = RelationalMirror(store)
        mirror.ignore_view("V")
        definition = ViewDefinition.parse(DEFS[def_index])
        mirror.register_view(definition)

        index = ParentIndex(store)
        native = MaterializedView(definition, store)
        populate_view(native)
        store.subscribe(
            SimpleViewMaintainer(native, parent_index=index).handle
        )

        stream = UpdateStream(
            store,
            seed=seed + 1,
            protected=frozenset({root}),
            protected_prefixes=("V",),
            labels_for_new=("a", "b", "c"),
        )
        stream.run(steps)

        assert native.members() == mirror.members("V")
        assert mirror.verify()

    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 25))
    @settings(**COMMON)
    def test_tables_mirror_store(self, seed, steps):
        store, root = random_labelled_tree(
            nodes=25, labels=("a", "b"), seed=seed
        )
        mirror = RelationalMirror(store)
        stream = UpdateStream(
            store,
            seed=seed + 1,
            protected=frozenset({root}),
            labels_for_new=("a", "b"),
        )
        stream.run(steps)
        assert mirror.flattener.verify_against_store()

    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 20))
    @settings(**COMMON)
    def test_counting_view_matches_reevaluation(self, seed, steps):
        store, root = random_labelled_tree(
            nodes=20, labels=("a", "b", "c"), seed=seed
        )
        mirror = RelationalMirror(store)
        view = mirror.register_view(ViewDefinition.parse(DEFS[0]))
        stream = UpdateStream(
            store,
            seed=seed + 1,
            protected=frozenset({root}),
            labels_for_new=("a", "b", "c"),
        )
        stream.run(steps)
        assert view.check_against_full_evaluation()
