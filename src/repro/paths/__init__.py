"""Paths and path expressions (paper Section 2).

* :class:`~repro.paths.path.Path` — constant dotted-label paths.
* :class:`~repro.paths.expression.PathExpression` — regular expressions
  of paths with ``?`` and ``*`` wildcards (plus ``|`` alternation).
* :mod:`~repro.paths.automaton` — NFA compilation and ``N.e`` evaluation.
* :mod:`~repro.paths.kernel` — ``N.e`` over a frozen MVCC epoch.
* :mod:`~repro.paths.containment` — instance/containment decision
  procedures needed by the Section 6 extended maintainers.
"""

from repro.paths.automaton import PathNFA, compile_expression
from repro.paths.containment import (
    are_equivalent,
    containment_counterexample,
    intersection_witness,
    is_contained,
    is_empty_intersection,
    shortest_instance,
)
from repro.paths.kernel import evaluate_many_on_snapshot
from repro.paths.expression import (
    AnyLabelSegment,
    AnyPathSegment,
    LabelSegment,
    PathExpression,
)
from repro.paths.path import EMPTY_PATH, Path

__all__ = [
    "AnyLabelSegment",
    "AnyPathSegment",
    "EMPTY_PATH",
    "LabelSegment",
    "Path",
    "PathExpression",
    "PathNFA",
    "are_equivalent",
    "compile_expression",
    "containment_counterexample",
    "evaluate_many_on_snapshot",
    "intersection_witness",
    "is_contained",
    "is_empty_intersection",
    "shortest_instance",
]
