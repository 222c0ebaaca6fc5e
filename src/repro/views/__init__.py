"""Views over GSDBs — the paper's primary contribution (Sections 3–4, 6).

* :class:`~repro.views.definition.ViewDefinition` — parsed definitions,
  their union-of-branches form and classification (simple / extended).
* :class:`~repro.views.virtual.VirtualView` — query-result views.
* :class:`~repro.views.materialized.MaterializedView` — delegates with
  semantic OIDs, swizzling, edits.
* :class:`~repro.views.maintenance.SimpleViewMaintainer` — Algorithm 1.
* :class:`~repro.views.dispatcher.MaintenanceDispatcher` — the shared
  multi-view dispatcher (path sharing, screening, batch coalescing).
* :class:`~repro.views.extended.ExtendedViewMaintainer` — wildcard and
  conjunctive views on trees (Section 6 relaxation 1).
* :class:`~repro.views.dag.DagCountingMaintainer` — DAG bases via
  derivation counting (Section 6 relaxation 2).
* :class:`~repro.views.cluster.ViewCluster` — shared delegates.
* :class:`~repro.views.catalog.ViewCatalog` — the high-level façade.
"""

from repro.views.aggregate import AggregateKind, AggregateView
from repro.views.catalog import ViewCatalog
from repro.views.cluster import ClusterMemberView, ViewCluster
from repro.views.partial import PartialMaterializedView
from repro.views.consistency import (
    ConsistencyReport,
    assert_consistent,
    check_consistency,
)
from repro.views.dag import DagCountingMaintainer
from repro.views.definition import ViewDefinition
from repro.views.dispatcher import (
    MaintenanceDispatcher,
    PathContext,
    coalesce_updates,
)
from repro.views.extended import ExtendedViewMaintainer
from repro.views.maintenance import SimpleViewMaintainer
from repro.views.materialized import MaterializedView, SwizzleMode
from repro.views.recompute import (
    compute_view_members,
    populate_view,
    recompute_view,
)
from repro.views.virtual import VirtualView

__all__ = [
    "AggregateKind",
    "AggregateView",
    "ClusterMemberView",
    "PartialMaterializedView",
    "ConsistencyReport",
    "DagCountingMaintainer",
    "ExtendedViewMaintainer",
    "MaintenanceDispatcher",
    "MaterializedView",
    "PathContext",
    "SimpleViewMaintainer",
    "SwizzleMode",
    "ViewCatalog",
    "ViewCluster",
    "ViewDefinition",
    "VirtualView",
    "assert_consistent",
    "check_consistency",
    "coalesce_updates",
    "compute_view_members",
    "populate_view",
    "recompute_view",
]
