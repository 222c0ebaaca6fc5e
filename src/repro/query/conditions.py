"""Evaluation of WHERE conditions against a store.

``cond()`` semantics (paper Section 2): the function accepts the set of
atomic objects in ``X.cond_path_exp`` and returns true if *one* of
their values satisfies the condition — existential semantics.  Set
objects reached by the path never satisfy an atomic comparison.

Boolean connectives (our extension, anticipated by the paper's closing
remark in Section 2) evaluate compositionally on top of the atoms.

A condition is evaluated a candidate *set* at a time
(:func:`filter_candidates`): each Comparison/Exists leaf is one
multi-source sweep from every candidate, and the connectives are set
algebra over the results.  It is parameterised by the sweep and a value
reader, so the live store (:func:`filter_on_store`, over
:meth:`~repro.paths.automaton.PathNFA.evaluate_many` with one charge
ledger) and a frozen MVCC epoch (over the bitset kernel) share it; a
single candidate is the one-element set.

Every store helper takes an optional *label_index* and hands it to the
path evaluator: with one, condition paths resolve through its
children-by-label adjacency; without one, they scan out-edges.  Pass
an index only for the unscoped store it was built over.

Beside evaluation sit two sound, incomplete tests between conditions:
:func:`comparisons_disjoint` (no value satisfies both) screens updates,
and :func:`condition_implies` (every candidate satisfying one satisfies
the other) lets a query be answered from a materialized view.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

from repro.gsdb.indexes import LabelIndex
from repro.gsdb.store import ObjectStore
from repro.paths.automaton import ChargeLedger, compile_expression
from repro.paths.expression import PathExpression
from repro.query.ast import And, Comparison, Condition, Exists, Not, Or


def atomic_values_on_path(
    store: ObjectStore,
    start: str,
    path: PathExpression,
    *,
    label_index: LabelIndex | None = None,
) -> list:
    """Values of atomic objects in ``start.path`` (sorted by OID): one
    :meth:`~repro.paths.automaton.PathNFA.evaluate_many` sweep under
    one ledger, so reading a witness the sweep reached is free."""
    ledger = ChargeLedger()
    members = compile_expression(path).evaluate_many(
        store, (start,), label_index=label_index, charged=ledger
    )[start]
    reached = ledger.objects
    values = []
    for oid in sorted(members):
        obj = reached[oid] if oid in reached else ledger.touch(store, oid)
        if obj is not None and obj.is_atomic:
            values.append(obj.atomic_value())
    return values


def filter_candidates(
    candidates: set[str],
    condition: Condition,
    members: Callable[[set[str], PathExpression], dict[str, set[str]]],
    value: Callable[[str], object | None],
) -> set[str]:
    """The subset of *candidates* satisfying *condition*.

    *members* answers ``(candidates, path)`` with ``candidate.path``
    for every candidate in one sweep; *value* reads a reached object's
    atomic value (None for set or absent objects).  Each
    Comparison/Exists leaf costs a single sweep for the whole candidate
    set, and the boolean connectives become set algebra: ``any``/
    ``all``/``not`` per candidate map to union / progressive
    intersection / complement.  ``And`` narrows the candidate set
    before evaluating later operands and ``Or`` only re-tests the
    still-unsatisfied remainder: short-circuiting at set granularity.
    """
    if isinstance(condition, Comparison):
        reached = members(candidates, condition.path)
        satisfied = set()
        test = condition.test_value
        for candidate in candidates:
            for oid in reached[candidate]:
                witnessed = value(oid)
                if witnessed is not None and test(witnessed):
                    satisfied.add(candidate)
                    break
        return satisfied
    if isinstance(condition, Exists):
        reached = members(candidates, condition.path)
        return {c for c in candidates if reached[c]}
    if isinstance(condition, Not):
        return candidates - filter_candidates(
            candidates, condition.operand, members, value
        )
    if isinstance(condition, And):
        surviving = candidates
        for operand in condition.operands:
            if not surviving:
                break
            surviving = filter_candidates(surviving, operand, members, value)
        return surviving
    if isinstance(condition, Or):
        satisfied: set[str] = set()
        remaining = candidates
        for operand in condition.operands:
            if not remaining:
                break
            hits = filter_candidates(remaining, operand, members, value)
            satisfied |= hits
            remaining = remaining - hits
        return satisfied
    raise TypeError(f"unknown condition node: {condition!r}")


def filter_on_store(
    store: ObjectStore,
    candidates: set[str],
    condition: Condition,
    *,
    label_index: LabelIndex | None = None,
    charged: ChargeLedger | None = None,
) -> set[str]:
    """:func:`filter_candidates` over a store: one
    :meth:`~repro.paths.automaton.PathNFA.evaluate_many` sweep per
    leaf, all charged against *charged* (the evaluation's ledger, or a
    fresh one), so a witness the sweep reached is read for free."""
    ledger = ChargeLedger() if charged is None else charged
    reached = ledger.objects

    def members(starts: Iterable[str], path: PathExpression):
        return compile_expression(path).evaluate_many(
            store, starts, label_index=label_index, charged=ledger
        )

    def value(oid: str):
        obj = reached[oid] if oid in reached else ledger.touch(store, oid)
        return None if obj is None or obj.is_set else obj.value

    return filter_candidates(candidates, condition, members, value)


def comparisons_disjoint(first: Comparison, second: Comparison) -> bool:
    """Can no atomic value satisfy both comparisons?

    Sound, not complete: returns True only when disjointness is
    provable (same condition path, incompatible value constraints);
    False means "might overlap".  Used by update-query-aware screening
    (paper Section 6: a salary raise for the Marks cannot affect a view
    over the Johns).
    """
    if first.path != second.path:
        return False  # different witnesses could satisfy each
    return _value_ranges_disjoint(first, second)


def _value_ranges_disjoint(first: Comparison, second: Comparison) -> bool:
    a_op, a_lit = first.op, first.literal
    b_op, b_lit = second.op, second.literal
    if a_op == "=" and b_op == "=":
        return a_lit != b_lit
    if a_op == "=" and b_op in ("<", "<=", ">", ">=", "!="):
        return not second.test_value(a_lit)
    if b_op == "=" and a_op in ("<", "<=", ">", ">=", "!="):
        return not first.test_value(b_lit)
    try:
        if a_op in ("<", "<=") and b_op in (">", ">="):
            strict = a_op == "<" or b_op == ">"
            return b_lit > a_lit or (strict and b_lit >= a_lit)  # type: ignore[operator]
        if a_op in (">", ">=") and b_op in ("<", "<="):
            strict = a_op == ">" or b_op == "<"
            return a_lit > b_lit or (strict and a_lit >= b_lit)  # type: ignore[operator]
    except TypeError:
        return False
    return False


#: Ordering operators: (direction, strict).
_ORDERINGS = {
    "<": (-1, True),
    "<=": (-1, False),
    ">": (1, True),
    ">=": (1, False),
}


def comparison_implies(first: Comparison, second: Comparison) -> bool:
    """Does every value satisfying *first* also satisfy *second*?

    Sound, not complete: True only when provable for every schemaless
    atomic value (bool, int, float, NaN included, str, bytes), so
    ``price > 95`` implies ``price > 93`` but ``price > 95`` does not
    imply ``price >= 96`` (95.5).  Over one condition path, an
    existential witness of *first* is then one of *second*.  Used to
    answer a query from a materialized view its condition implies.
    """
    if first.path != second.path:
        return False  # a witness on one path says nothing of another
    try:
        return _value_implies(first, second)
    except re.error:  # a malformed ``matches`` pattern
        return False


def _value_implies(first: Comparison, second: Comparison) -> bool:
    a_op, a_lit = first.op, first.literal
    b_op, b_lit = second.op, second.literal
    if a_op == "=":
        # Only values equal to a_lit satisfy it, and an equal value
        # compares, contains and matches as a_lit does.
        return second.test_value(a_lit)
    if b_op == "!=":
        # A value equal to b_lit would make b_lit satisfy *first*.
        return not first.test_value(b_lit)
    if a_op == "!=":
        return False  # all but one value: only "!=" b_lit above
    if a_op == "contains" and b_op == "contains":
        return str(b_lit) in str(a_lit)
    if a_op == "matches" and b_op == "matches":
        return str(a_lit) == str(b_lit)
    if a_op not in _ORDERINGS or b_op not in _ORDERINGS:
        return False
    if _family(a_lit) != _family(b_lit):
        return False  # a value of a_lit's family never orders against b_lit
    (a_dir, a_strict), (b_dir, b_strict) = _ORDERINGS[a_op], _ORDERINGS[b_op]
    if a_dir != b_dir:
        return False  # a ray never lies inside an opposite one
    # v > a_lit implies v > b_lit iff a_lit >= b_lit; for ">=" against
    # ">" the bound must be strictly inside (mirrored for "<").
    low, high = (b_lit, a_lit) if a_dir > 0 else (a_lit, b_lit)
    if b_strict and not a_strict:
        return high > low  # type: ignore[operator]
    return high >= low  # type: ignore[operator]


def _family(literal: object) -> type:
    """The type a literal orders against: numbers (bool included)
    compare with each other, str and bytes only with themselves."""
    if isinstance(literal, (bool, int, float)):
        return float
    return type(literal)


def condition_implies(
    first: Condition | None, second: Condition | None
) -> bool:
    """Does *first* imply *second* for every candidate?

    Sound, not complete: True when *second* is absent, or when every
    conjunct of *second* is implied by some conjunct of *first*
    (:func:`comparison_implies`; a comparison or an ``EXISTS`` over a
    path also implies ``EXISTS`` over it).  ``Or`` and ``Not`` never
    imply anything.
    """
    if second is None:
        return True
    if first is None:
        return False
    have = _conjuncts(first)
    return all(
        any(_conjunct_implies(a, b) for a in have) for b in _conjuncts(second)
    )


def _conjuncts(condition: Condition) -> list[Condition]:
    if isinstance(condition, And):
        return [
            leaf for operand in condition.operands for leaf in _conjuncts(operand)
        ]
    return [condition]


def _conjunct_implies(first: Condition, second: Condition) -> bool:
    if isinstance(second, Exists):
        return (
            isinstance(first, (Comparison, Exists))
            and first.path == second.path
        )
    if isinstance(first, Comparison) and isinstance(second, Comparison):
        return comparison_implies(first, second)
    return False


def is_simple_condition(condition: Condition | None) -> bool:
    """True when the condition is a single comparison over a constant
    path — the class the simple-view maintainer (Algorithm 1) supports."""
    return (
        condition is None
        or (
            isinstance(condition, Comparison)
            and condition.path.is_constant
        )
    )
