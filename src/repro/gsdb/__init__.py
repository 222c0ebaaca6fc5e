"""Graph structured database (GSDB) substrate — the paper's data model.

Objects follow the OEM model of Section 2: ``<OID, label, type, value>``.
The main entry points are:

* :class:`~repro.gsdb.object.Object` — one OEM object.
* :class:`~repro.gsdb.store.ObjectStore` — a mutable, logged collection.
* :class:`~repro.gsdb.database.DatabaseRegistry` — named databases/views.
* :class:`~repro.gsdb.indexes.ParentIndex` / ``LabelIndex`` — the inverse
  and label indexes of Section 4.4.
* :mod:`~repro.gsdb.traversal` — ``N.p``, ``path()``, ``ancestor()``,
  ``eval()``.

The columnar snapshot the serving tier publishes (``ColumnarSnapshot``,
``EpochView``, ``PublishedEpoch``, ``SnapshotRetention``) is imported
from :mod:`repro.gsdb.columnar`; this package does not load it.
"""

from repro.gsdb.gc import collect_garbage, reachable_from
from repro.gsdb.database import (
    DatabaseRegistry,
    difference,
    intersect,
    union,
)
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.gsdb.object import Object, infer_atomic_type
from repro.gsdb.oid import (
    OidGenerator,
    base_of_delegate,
    delegate_oid,
    is_delegate_of,
    split_delegate_oid,
)
from repro.gsdb.serialization import (
    dump_object,
    dump_store,
    dump_subtree,
    load_store,
    parse_object,
)
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Delete, Insert, Modify, Update, UpdateLog
from repro.gsdb.validation import Shape, validate_store

__all__ = [
    "DatabaseRegistry",
    "Delete",
    "Insert",
    "LabelIndex",
    "Modify",
    "Object",
    "ObjectStore",
    "OidGenerator",
    "ParentIndex",
    "Shape",
    "Update",
    "UpdateLog",
    "base_of_delegate",
    "collect_garbage",
    "delegate_oid",
    "difference",
    "dump_object",
    "dump_store",
    "dump_subtree",
    "infer_atomic_type",
    "intersect",
    "is_delegate_of",
    "load_store",
    "parse_object",
    "reachable_from",
    "split_delegate_oid",
    "union",
    "validate_store",
]
