"""Known defects, reproduced: each test asserts the *correct*
behaviour and is a strict xfail while the defect stands.

A change that mends a defect makes its test pass, and strict mode then
fails the suite until the marker is removed — so every fix lands with
the reproduction that proves it.
"""

import pytest

from repro.gsdb import Insert, Modify
from repro.gsdb.serialization import dump_store
from repro.views import AggregateKind, ViewCatalog
from tests.views.test_catalog_extensions import priced_catalog


@pytest.mark.xfail(
    strict=True,
    reason=(
        "A failed apply_batch is half-applied: over priced_catalog with "
        "a SUM, apply_batch([Insert('root','C'), Modify('Ap',70,10), "
        "Modify('Zp',1,2)]) raises unknown object: 'Zp'; the view goes "
        "from {A, B} to {B}, Ap stays 10 and C stays linked, and check "
        "is ok: the views are consistent with a half-applied store."
    ),
)
def test_a_failed_batch_leaves_store_views_and_aggregates_as_before():
    catalog = priced_catalog()
    total = catalog.define_aggregate("TOTAL", "V", AggregateKind.SUM)
    view = catalog.materialized_views["V"]
    store_before = dump_store(catalog.store)
    assert view.members() == {"A", "B"}
    assert total.current_value() == 150
    with pytest.raises(Exception):
        catalog.apply_batch(
            [Insert("root", "C"), Modify("Ap", 70, 10), Modify("Zp", 1, 2)]
        )
    assert dump_store(catalog.store) == store_before
    assert view.members() == {"A", "B"}
    assert total.current_value() == 150
    assert catalog.check("V").ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The dispatcher's screen (PathContext.path_between -> "
        "ParentIndex._scan_chain) raises out of apply_batch after the "
        "store has applied an update that gives a node a second parent: "
        "with root -> x -> y, x labelled a and SELECT root.a X WHERE "
        "X.b > 5 defined with the default maintainer, "
        "apply_batch([Insert('y', 'x')]) raises ValueError: object 'x' "
        "has multiple parents; base is not a tree, with the edge already "
        "in the store."
    ),
)
def test_auto_views_survive_a_second_parent():
    catalog = ViewCatalog()
    store = catalog.store
    store.add_atomic("xb", "b", 9)
    store.add_set("y", "c", [])
    store.add_set("x", "a", ["xb", "y"])
    store.add_set("root", "root", ["x"])
    catalog.define("define mview V as: SELECT root.a X WHERE X.b > 5")
    catalog.define(
        "define mview O as: SELECT root.a X WHERE X.b > 5 OR X.c < 3"
    )
    catalog.apply_batch([Insert("y", "x")])
    reports = catalog.check_all()
    assert all(report.ok for report in reports.values()), reports
