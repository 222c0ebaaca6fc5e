"""Consistency checking: maintained view vs. recomputed reference.

The paper's correctness criterion (Section 4.3): "starting from an
initially correct materialized view, the view will be consistent with
the base data after processing each update.  That is, the delegates of
all view objects are in MV, and there are no extra objects in MV."
This module checks that — plus, since our delegates copy values, that
every delegate's value matches what the base object currently implies
(modulo swizzling and timestamp annotations).

Used pervasively by the test suite (including the hypothesis property
tests) and available to applications as a safety valve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ViewConsistencyError
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex
from repro.views.materialized import MaterializedView
from repro.views.recompute import compute_view_members


@dataclass
class ConsistencyReport:
    """Differences between a view's state and its definition's truth."""

    missing: set[str] = field(default_factory=set)  # should be in, is not
    extra: set[str] = field(default_factory=set)  # is in, should not be
    stale_values: set[str] = field(default_factory=set)  # wrong delegate value
    broken_delegates: set[str] = field(default_factory=set)  # object missing

    @property
    def ok(self) -> bool:
        return not (
            self.missing
            or self.extra
            or self.stale_values
            or self.broken_delegates
        )

    def describe(self) -> str:
        if self.ok:
            return "consistent"
        parts = []
        for name in ("missing", "extra", "stale_values", "broken_delegates"):
            oids = getattr(self, name)
            if oids:
                shown = ", ".join(sorted(oids)[:5])
                more = f" (+{len(oids) - 5} more)" if len(oids) > 5 else ""
                parts.append(f"{name}: {shown}{more}")
        return "; ".join(parts)


def check_consistency(
    view: MaterializedView,
    *,
    registry: DatabaseRegistry | None = None,
    label_index: LabelIndex | None = None,
    check_values: bool = True,
) -> ConsistencyReport:
    """Compare *view* against a from-scratch evaluation of its definition.

    Args:
        view: the materialized view to audit.
        registry: needed when the definition has scope clauses.
        label_index: passed to
            :func:`~repro.views.recompute.compute_view_members`.
        check_values: also verify each delegate's copied value (disable
            after manual edits such as
            :meth:`~repro.views.materialized.MaterializedView.strip_base_references`).
    """
    report = ConsistencyReport()
    truth = compute_view_members(
        view.definition,
        view.base_store,
        registry=registry,
        label_index=label_index,
    )
    members = view.members()
    report.missing = truth - members
    report.extra = members - truth

    # Structural check: value(MV) lists exactly the delegate OIDs.
    expected_delegates = {view.delegate_oid(m) for m in members}
    actual_delegates = view.delegates()
    if expected_delegates != actual_delegates:
        report.broken_delegates |= expected_delegates ^ actual_delegates

    if check_values:
        annotations = view.annotation_oids()
        for base_oid in sorted(members & truth):
            delegate = view.delegate(base_oid)
            if delegate is None:
                report.broken_delegates.add(view.delegate_oid(base_oid))
                continue
            expected = view.expected_delegate_value(base_oid)
            if delegate.is_set:
                actual = set(delegate.children()) - annotations
            else:
                actual = delegate.atomic_value()
            if actual != expected:
                report.stale_values.add(base_oid)
    return report


def assert_consistent(
    view: MaterializedView,
    *,
    registry: DatabaseRegistry | None = None,
    check_values: bool = True,
) -> None:
    """Raise :class:`ViewConsistencyError` unless the view is consistent."""
    report = check_consistency(
        view, registry=registry, check_values=check_values
    )
    if not report.ok:
        raise ViewConsistencyError(
            f"view {view.oid!r} inconsistent: {report.describe()}"
        )
