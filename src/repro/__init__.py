"""repro — Graph Structured Views and Their Incremental Maintenance.

A from-scratch reproduction of Zhuge & Garcia-Molina (ICDE 1998):

* the OEM graph-structured data model with basic updates
  (:mod:`repro.gsdb`);
* paths and path expressions (:mod:`repro.paths`);
* the ``SELECT ... WHERE ... WITHIN ... ANS INT`` query language
  (:mod:`repro.query`);
* virtual and materialized views, Algorithm 1 incremental maintenance,
  and the Section 6 extended/DAG maintainers (:mod:`repro.views`);
* the relational-flattening baseline with counting IVM
  (:mod:`repro.relational`);
* the data-warehouse architecture with reporting levels, caching, and
  path knowledge (:mod:`repro.warehouse`);
* workloads and instrumentation (:mod:`repro.workloads`,
  :mod:`repro.instrumentation`).

``import repro`` loads the catalog's own layers only.  The warehouse
(``Warehouse``, ``Source``, ``SourceCapability``, ``ReportingLevel``,
``CachePolicy``) is imported from :mod:`repro.warehouse`, and the
serving tier and the columnar snapshot from their own packages.

Quickstart::

    from repro import ViewCatalog
    from repro.workloads import person_db, register_person_database

    catalog = ViewCatalog()
    person_db(catalog.store, tree=True)
    register_person_database(catalog.registry)
    catalog.define("define mview YP as: SELECT ROOT.professor X "
                   "WHERE X.age <= 45")
    catalog.store.insert_edge("P2", "A2")  # after creating A2
    sorted(catalog.materialized_views["YP"].members())
"""

from repro.errors import ReproError
from repro.gsdb import (
    DatabaseRegistry,
    Delete,
    Insert,
    LabelIndex,
    Modify,
    Object,
    ObjectStore,
    ParentIndex,
)
from repro.instrumentation import CostCounters, Meter
from repro.paths import Path, PathExpression
from repro.query import Query, QueryEvaluator, parse_query, parse_statement
from repro.views import (
    DagCountingMaintainer,
    ExtendedViewMaintainer,
    MaterializedView,
    SimpleViewMaintainer,
    SwizzleMode,
    ViewCatalog,
    ViewCluster,
    ViewDefinition,
    VirtualView,
    check_consistency,
)

__version__ = "1.0.0"

__all__ = [
    "CostCounters",
    "DagCountingMaintainer",
    "DatabaseRegistry",
    "Delete",
    "ExtendedViewMaintainer",
    "Insert",
    "LabelIndex",
    "MaterializedView",
    "Meter",
    "Modify",
    "Object",
    "ObjectStore",
    "ParentIndex",
    "Path",
    "PathExpression",
    "Query",
    "QueryEvaluator",
    "ReproError",
    "SimpleViewMaintainer",
    "SwizzleMode",
    "ViewCatalog",
    "ViewCluster",
    "ViewDefinition",
    "VirtualView",
    "check_consistency",
    "parse_query",
    "parse_statement",
]
