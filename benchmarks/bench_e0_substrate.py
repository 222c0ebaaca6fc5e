"""E0 — substrate microbenchmarks.

Not a paper experiment: baseline timings of the primitives everything
else is built on (store mutation, constant-path traversal, NFA
evaluation, query parsing + evaluation, serialization round-trip), so
regressions in the substrate are visible independently of the
experiment-level numbers.
"""

import pytest

from repro.gsdb import ObjectStore, dump_store, load_store
from repro.paths import PathExpression, compile_expression
from repro.query import QueryEvaluator, parse_query
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.traversal import follow_path
from repro.workloads import TreeSpec, layered_tree, person_db, register_person_database


@pytest.fixture(scope="module")
def tree():
    return layered_tree(TreeSpec(depth=4, fanout=4, seed=101))


@pytest.mark.benchmark(group="e0-store")
def test_e0_insert_delete_roundtrip(benchmark):
    store = ObjectStore()
    store.add_set("root", "r", [])
    store.add_atomic("leaf", "v", 1)

    def op():
        store.insert_edge("root", "leaf")
        store.delete_edge("root", "leaf")

    benchmark(op)


@pytest.mark.benchmark(group="e0-store")
def test_e0_modify(benchmark):
    store = ObjectStore()
    store.add_atomic("a", "v", 0)
    counter = [0]

    def op():
        counter[0] += 1
        store.modify_value("a", counter[0])

    benchmark(op)


@pytest.mark.benchmark(group="e0-paths")
def test_e0_constant_path_traversal(benchmark, tree):
    store, root = tree
    benchmark(lambda: follow_path(store, root, ["l1", "l2", "l3", "l4"]))


@pytest.mark.benchmark(group="e0-paths")
def test_e0_wildcard_evaluation(benchmark, tree):
    store, root = tree
    nfa = compile_expression(PathExpression.parse("*.l4"))
    benchmark(lambda: nfa.evaluate_many(store, [root]))


@pytest.mark.benchmark(group="e0-query")
def test_e0_query_parse(benchmark):
    text = (
        "SELECT ROOT.professor X WHERE X.age > 40 AND X.name = 'John' "
        "WITHIN PERSON"
    )
    benchmark(lambda: parse_query(text))


@pytest.mark.benchmark(group="e0-query")
def test_e0_query_evaluate(benchmark):
    store = person_db()
    registry = DatabaseRegistry(store)
    register_person_database(registry)
    evaluator = QueryEvaluator(registry)
    query = parse_query("SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON")
    benchmark(lambda: evaluator.evaluate_oids(query))


@pytest.mark.benchmark(group="e0-serialization")
def test_e0_dump_load_roundtrip(benchmark, tree):
    store, _ = tree
    text = dump_store(store)

    benchmark(lambda: load_store(text))
