"""Tests for the parent (inverse) and label indexes (paper Section 4.4)."""

import pytest

from repro.gsdb import LabelIndex, ObjectStore, ParentIndex
from repro.gsdb.gc import collect_garbage


@pytest.fixture
def store() -> ObjectStore:
    s = ObjectStore()
    s.add_atomic("A1", "age", 45)
    s.add_set("P1", "professor", ["A1"])
    s.add_set("ROOT", "person", ["P1"])
    return s


class TestParentIndex:
    def test_existing_edges_indexed(self, store):
        index = ParentIndex(store)
        assert index.parent("A1") == "P1"
        assert index.parent("P1") == "ROOT"
        assert index.parent("ROOT") is None

    def test_insert_maintains(self, store):
        index = ParentIndex(store)
        store.add_atomic("N1", "name", "x")
        store.insert_edge("P1", "N1")
        assert index.parent("N1") == "P1"

    def test_delete_maintains(self, store):
        index = ParentIndex(store)
        store.delete_edge("P1", "A1")
        assert index.parent("A1") is None

    def test_new_set_object_indexed_on_creation(self, store):
        index = ParentIndex(store)
        store.add_set("P2", "professor", ["A1"])
        assert index.parents("A1") == {"P1", "P2"}

    def test_multi_parent_raises_in_tree_mode(self, store):
        index = ParentIndex(store)
        store.add_set("P2", "professor", ["A1"])
        with pytest.raises(ValueError):
            index.parent("A1")

    def test_ignored_parent_excluded(self, store):
        index = ParentIndex(store)
        store.add_set("DB", "database", ["A1", "P1", "ROOT"])
        index.ignore_parent("DB")
        assert index.parent("A1") == "P1"
        assert index.parent("ROOT") is None

    def test_ignore_parent_before_creation(self, store):
        index = ParentIndex(store, ignore_parents={"DB"})
        store.add_set("DB", "database", ["A1"])
        assert index.parent("A1") == "P1"

    def test_ignore_view_prefix(self, store):
        index = ParentIndex(store)
        store.check_references = False
        store.add_set("MV", "mview", [])
        store.add_set("MV.P1", "professor", ["A1"])
        index.ignore_view("MV")
        assert index.parent("A1") == "P1"

    def test_ignore_prefix_applies_retroactively(self, store):
        store.check_references = False
        store.add_set("MV.P1", "professor", ["A1"])
        index = ParentIndex(store)
        assert index.parents("A1") == {"P1", "MV.P1"}
        index.ignore_prefix("MV.")
        assert index.parents("A1") == {"P1"}

    def test_ignore_prefix_must_be_a_dotted_namespace(self, store):
        index = ParentIndex(store)
        with pytest.raises(ValueError):
            index.ignore_prefix("MV")
        assert not index._is_ignored("MV1")

    def test_roots(self, store):
        index = ParentIndex(store)
        assert index.roots() == {"ROOT"}

    def test_has_parent(self, store):
        index = ParentIndex(store)
        assert index.has_parent("A1")
        assert not index.has_parent("ROOT")

    def test_probe_counted(self, store):
        index = ParentIndex(store)
        before = store.counters.index_probes
        index.parent("A1")
        index.parents("A1")
        assert store.counters.index_probes == before + 2


class TestDetachedCycles:
    """``root -> x -> y``, then ``insert(y, x)`` and ``delete(root, x)``:
    x and y form a cycle in which each has one parent."""

    @pytest.fixture
    def cycle(self):
        store = ObjectStore()
        store.add_set("y", "y", [])
        store.add_set("x", "x", ["y"])
        store.add_set("root", "root", ["x"])
        index = ParentIndex(store)
        store.insert_edge("y", "x")
        store.delete_edge("root", "x")
        return store, index

    def test_chain_stops_at_the_first_revisit(self, cycle):
        _, index = cycle
        assert index.chain_to_top("y") == (("y", "x"), False)

    def test_each_node_keeps_its_own_rotation(self, cycle):
        _, index = cycle
        index.chain_to_top("y")  # must not memoize ("x",) for x
        assert index.chain_to_top("x") == (("x", "y"), False)

    def test_tail_into_a_cycle_memoizes_up_to_its_entry(self, cycle):
        store, index = cycle
        store.add_set("t", "t", [])
        store.insert_edge("y", "t")
        assert index.chain_to_top("t") == (("t", "y", "x"), False)
        assert index.chain_to_top("y") == (("y", "x"), False)
        assert index.chain_to_top("x") == (("x", "y"), False)

    def test_lookups_outside_the_cycle_return_none(self, cycle):
        _, index = cycle
        assert index.memoized_chain("root", "y") is None
        assert index.memoized_path("root", "y") is None
        assert index.memoized_chain("x", "y") == ["x", "y"]


class TestChainsSurviveUpdates:
    """``root -> a1 -> b1 -> x1``, ``a1 -> b2 -> x2``, ``root -> a2 ->
    b3 -> x3``: an update drops only the chains through the OID it
    touches, and a miss splices onto its first memoized ancestor."""

    @pytest.fixture
    def tree(self):
        store = ObjectStore()
        for leaf in ("x1", "x2", "x3"):
            store.add_atomic(leaf, "x", 1)
        store.add_set("b1", "b", ["x1"])
        store.add_set("b2", "b", ["x2"])
        store.add_set("b3", "b", ["x3"])
        store.add_set("a1", "a", ["b1", "b2"])
        store.add_set("a2", "a", ["b3"])
        store.add_set("root", "root", ["a1", "a2"])
        return store, ParentIndex(store)

    def test_an_insert_elsewhere_keeps_the_chain(self, tree):
        store, index = tree
        index.chain_to_top("x1")
        store.add_atomic("y", "x", 2)
        store.insert_edge("b3", "y")
        hits = store.counters.chain_cache_hits
        assert index.chain_to_top("x1") == (("x1", "b1", "a1", "root"), False)
        assert store.counters.chain_cache_hits == hits + 1

    def test_a_move_drops_the_chains_below_the_child(self, tree):
        store, index = tree
        for leaf in ("x1", "x2", "x3"):
            index.chain_to_top(leaf)
        store.delete_edge("a1", "b2")
        assert "b2" not in index._chain_cache
        assert "x2" not in index._chain_cache
        assert index.chain_to_top("x2") == (("x2", "b2"), False)
        store.insert_edge("a2", "b2")
        assert index.chain_to_top("x2") == (("x2", "b2", "a2", "root"), False)
        assert index.memoized_path("root", "x1") == ["a", "b", "x"]

    def test_a_miss_splices_onto_the_first_memoized_ancestor(self, tree):
        store, index = tree
        index.chain_to_top("x1")
        before = store.counters.snapshot()
        assert index.chain_to_top("x2") == (("x2", "b2", "a1", "root"), False)
        spent = store.counters.delta_since(before)
        # Two nodes walked, two hops, one probe for the spliced suffix.
        assert (spent.object_reads, spent.edge_traversals) == (2, 2)
        assert spent.index_probes == 3
        assert (spent.chain_cache_misses, spent.chain_cache_hits) == (1, 0)
        assert index.chain_to_top("b2") == (("b2", "a1", "root"), False)
        assert store.counters.chain_cache_hits == 1

    def test_a_set_creation_drops_the_chains_of_its_children(self, tree):
        store, index = tree
        index.chain_to_top("x3")
        store.add_set("c", "c", ["b3"])
        assert index.chain_to_top("x3") == (("x3", "b3"), True)

    def test_removal_and_recreation_of_a_parent(self, tree):
        store, index = tree
        store.delete_edge("root", "a2")
        assert index.chain_to_top("x3") == (("x3", "b3", "a2"), False)
        store.remove_object("a2")  # its edge to b3 leaves with it
        assert index.chain_to_top("x3") == (("x3", "b3"), False)
        store.add_set("a2", "a", [])
        assert index.chain_to_top("x3") == (("x3", "b3"), False)
        store.insert_edge("a2", "b3")
        assert index.chain_to_top("x3") == (("x3", "b3", "a2"), False)

    def test_read_only_lookups_leave_the_memo_alone(self, tree):
        store, index = tree
        index.chain_to_top("b1")
        assert index.read_chain_to_top("x1") == (
            ("x1", "b1", "a1", "root"), False
        )
        assert "x1" not in index._chain_cache
        assert set(index._chain_cache) == {"b1", "a1", "root"}

    def test_pinned_misses_on_a_scripted_stream(self, tree):
        """Lookups between unrelated structural updates: every
        structural update used to drop the whole memo, so each lookup
        after one re-walked its chain to the top."""
        store, index = tree
        store.counters.reset()
        for step in range(6):
            leaf = f"y{step}"
            store.add_atomic(leaf, "x", step)
            store.insert_edge(("b1", "b2", "b3")[step % 3], leaf)
            index.chain_to_top("x1")
            index.chain_to_top(leaf)
            index.memoized_path("root", "x3")
        store.delete_edge("a1", "b2")
        store.insert_edge("a2", "b2")
        index.chain_to_top("x2")
        index.chain_to_top("y0")
        counters = store.counters
        assert (counters.chain_cache_misses, counters.chain_cache_hits) == (
            9, 11
        )
        assert (
            counters.object_reads,
            counters.index_probes,
            counters.edge_traversals,
        ) == (16, 35, 15)


class TestRemovedParents:
    def test_a_removed_parent_takes_its_out_edges_along(self):
        """``root -> P -> C``, ``root -> Q``; C moves under Q by an
        insert, P is cut off and garbage collected: C has one parent."""
        store = ObjectStore()
        store.add_atomic("C", "c", 1)
        store.add_set("P", "p", ["C"])
        store.add_set("Q", "q", [])
        store.add_set("root", "root", ["P", "Q"])
        index = ParentIndex(store)
        store.insert_edge("Q", "C")
        store.delete_edge("root", "P")
        assert collect_garbage(store, ["root"]) == {"P"}
        assert index.parents("C") == {"Q"}
        assert index.parent("C") == "Q"
        assert index.chain_to_top("C") == (("C", "Q", "root"), False)

    def test_removing_a_dotted_parent_forgets_its_record(self):
        store = ObjectStore()
        store.add_atomic("A1", "age", 45)
        store.add_set("MV.P1", "professor", ["A1"])
        index = ParentIndex(store)
        assert index._dotted == {"MV.": {"MV.P1": {"A1"}}}
        store.remove_object("MV.P1")
        assert index._dotted == {}
        assert index.parents("A1") == set()


class _Unscannable(dict):
    """A parent map whose iteration fails: a lookup by key is fine, a
    pass over the whole index is not."""

    def _scan(self, *args):
        raise AssertionError("the whole parent map was scanned")

    __iter__ = keys = values = items = _scan


class TestIgnorePrefixCost:
    """``ignore_prefix`` visits the parents under the prefix only."""

    @pytest.fixture
    def index(self):
        store = ObjectStore()
        store.check_references = False
        store.add_atomic("A1", "age", 45)
        store.add_set("P1", "professor", ["A1"])
        store.add_set("MVJ.P1", "professor", ["A1"])
        store.add_set("MV.P1", "professor", ["A1"])
        store.add_set("MV.P1.x", "professor", ["A1"])
        index = ParentIndex(store)
        index._parents = _Unscannable(index._parents)
        return index

    def test_a_prefix_with_nothing_indexed_under_it(self, index):
        index.ignore_prefix("MV2.")
        index.ignore_prefix("MV.P2.")
        assert index.parents("A1") == {"P1", "MVJ.P1", "MV.P1", "MV.P1.x"}

    def test_a_prefix_with_indexed_parents_under_it(self, index):
        index.ignore_prefix("MV.P1.")
        assert index.parents("A1") == {"P1", "MVJ.P1", "MV.P1"}
        index.ignore_view("MV")
        assert index.parents("A1") == {"P1", "MVJ.P1"}
        assert set(index._dotted) == {"MVJ."}


def _plain():
    store = ObjectStore()
    return store, lambda: ParentIndex(store)


@pytest.mark.parametrize("make", [_plain], ids=["plain"])
class TestIgnoredViews:
    """Which parents a view name ignores — and which it must not."""

    def _base(self, make):
        store, build = make()
        store.check_references = False
        store.add_atomic("A1", "age", 45)
        store.add_set("P1", "professor", ["A1"])
        return store, build

    def test_view_name_containing_a_dot(self, make):
        store, build = self._base(make)
        index = build()
        index.ignore_view("lab.MV")
        store.add_set("lab.MV", "mview", ["lab.MV.P1"])
        store.add_set("lab.MV.P1", "professor", ["A1"])
        store.add_set("lab.other", "professor", ["A1"])
        assert index.parents("A1") == {"P1", "lab.other"}
        assert index.parents("lab.MV.P1") == set()

    def test_mv1_beside_mv10(self, make):
        store, build = self._base(make)
        index = build()
        index.ignore_view("MV1")
        store.add_set("MV1.P1", "professor", ["A1"])
        store.add_set("MV10", "group", ["MV10.P1"])
        store.add_set("MV10.P1", "professor", ["A1"])
        assert index.parents("A1") == {"P1", "MV10.P1"}
        assert index.parents("MV10.P1") == {"MV10"}

    def test_ignoring_a_view_that_already_owns_delegates(self, make):
        store, build = self._base(make)
        store.add_set("MV", "group", ["MV.P1", "MV.P2"])
        store.add_set("MV.P1", "professor", ["A1"])
        store.add_set("MV.P2", "professor", ["A1"])
        store.add_set("MVX", "group", ["A1"])
        index = build()
        assert index.parents("A1") == {"P1", "MV.P1", "MV.P2", "MVX"}
        assert index.parents("MV.P1") == {"MV"}
        index.ignore_view("MV")
        # Exactly the view's own edges went; its neighbours' stayed.
        assert index.parents("A1") == {"P1", "MVX"}
        assert index.parents("MV.P1") == set()
        assert index.parent("P1") is None

    def test_unignore_round_trip(self, make):
        store, build = self._base(make)
        index = build()
        index.ignore_view("MV")
        store.add_set("MV.P1", "professor", ["A1"])
        assert index.parents("A1") == {"P1"}
        store.remove_object("MV.P1")
        index.unignore_view("MV")
        assert not index._is_ignored("MV")
        assert not index._is_ignored("MV.P1")
        # The name is an ordinary parent again ...
        store.add_set("MV.P1", "professor", [])
        store.insert_edge("MV.P1", "A1")
        assert index.parents("A1") == {"P1", "MV.P1"}
        # ... and can be ignored again, retroactively.
        index.ignore_view("MV")
        assert index.parents("A1") == {"P1"}


class TestLabelIndex:
    def test_existing_labels_indexed(self, store):
        index = LabelIndex(store)
        assert index.with_label("professor") == {"P1"}
        assert index.with_label("age") == {"A1"}
        assert index.with_label("nothing") == set()

    def test_non_unique_labels(self, store):
        index = LabelIndex(store)
        store.add_atomic("A2", "age", 20)
        assert index.with_label("age") == {"A1", "A2"}

    def test_labels_listing(self, store):
        index = LabelIndex(store)
        assert index.labels() == {"age", "professor", "person"}

    def test_forget(self, store):
        index = LabelIndex(store)
        index.forget("A1", "age")
        assert index.with_label("age") == set()
