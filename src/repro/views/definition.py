"""View definitions and their classification.

A view is defined by a query (paper Section 3.1).  The *simple views*
of Section 4.2 — the class Algorithm 1 maintains — are the restriction

    define mview MV as: SELECT ROOT.sel_path X WHERE cond(X.cond_path)

where ``sel_path`` and ``cond_path`` are constant paths (no wildcards)
and the base below ROOT is a tree.  :class:`ViewDefinition` normalizes a
parsed query into the pieces the maintainers consume and classifies it:

* ``is_simple`` — constant paths, at most one comparison condition, no
  scope clauses: handled by
  :class:`~repro.views.maintenance.SimpleViewMaintainer`.
* ``is_extended`` — conjunctions of comparisons and/or wildcard paths:
  handled by :class:`~repro.views.extended.ExtendedViewMaintainer`.
* anything else is maintainable only by recomputation.

Every definition is a union of conjunctive *branches* sharing one entry
point (:attr:`ViewDefinition.branches`, :mod:`repro.views.union`), each
classified as above.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from typing import Callable, Sequence

from repro.errors import ViewDefinitionError
from repro.gsdb.object import AtomicValue
from repro.paths.expression import PathExpression
from repro.paths.path import EMPTY_PATH, Path
from repro.query.ast import And, Comparison, Condition, Or, Query
from repro.query.parser import ViewDefinitionStatement, parse_statement


@dataclass(frozen=True)
class ViewDefinition:
    """A normalized view definition.

    Attributes:
        name: the view's name — also used as the view object's OID, so
            delegate OIDs read like the paper's (``MVJ.P1``).
        query: the defining query; None for a union of several select
            queries (:meth:`union`).
        materialized: ``define mview`` vs ``define view``.
        selects: a union's select queries, in order; empty when *query*
            defines the view.
    """

    name: str
    query: Query | None
    materialized: bool = True
    selects: tuple[Query, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "ViewDefinition":
        """Parse a ``define [m]view NAME as: SELECT ...`` statement."""
        statement = parse_statement(text)
        if not isinstance(statement, ViewDefinitionStatement):
            raise ViewDefinitionError(
                f"expected a view definition, got a bare query: {text!r}"
            )
        return cls(
            name=statement.name,
            query=statement.query,
            materialized=statement.materialized,
        )

    @classmethod
    def union(
        cls, name: str, definitions: Sequence["ViewDefinition | str"]
    ) -> "ViewDefinition":
        """The materialized view *name* selecting what any of
        *definitions* (sharing one entry point) selects: Section 6's
        "more than one select path".  A union of one is that query."""
        queries: list[Query] = []
        for definition in definitions:
            if isinstance(definition, str):
                definition = cls.parse(definition)
            queries.extend(definition.selects or (definition.query,))
        if not queries:
            raise ViewDefinitionError(
                f"union {name!r} needs at least one definition"
            )
        entries = sorted({query.entry for query in queries})
        if len(entries) > 1:
            raise ViewDefinitionError(
                f"the branches of {name!r} must share one entry point, "
                f"got {entries}"
            )
        if len(queries) == 1:
            return cls(name, queries[0])
        return cls(name, None, selects=tuple(queries))

    @cached_property
    def branches(self) -> tuple["ViewDefinition", ...]:
        """The conjunctive branches whose union this view is, in order:
        each select query's condition split into disjunctive normal
        form over ``OR``.  A query stays whole — its own only branch —
        without ``OR``, with a scope clause, or when a disjunct keeps
        ``NOT`` or ``EXISTS``."""
        query = self.query
        if query is None:
            return tuple(
                branch
                for select in self.selects
                for branch in replace(self, query=select, selects=()).branches
            )
        terms = None if query.within or query.ans_int else _dnf(query.condition)
        if terms is None or len(set(terms)) < 2:
            return (self,)
        return tuple(
            replace(self, query=replace(query, condition=condition))
            for condition in dict.fromkeys(
                term[0] if len(term) == 1 else And(term) for term in terms
            )
        )

    # -- classification ----------------------------------------------------

    @property
    def entry(self) -> str:
        """The ROOT entry point of the defining query."""
        return (self.query or self.selects[0]).entry

    @property
    def select_expression(self) -> PathExpression:
        return self._one_query().select_path

    @property
    def condition(self) -> Condition | None:
        return self._one_query().condition

    @property
    def is_simple(self) -> bool:
        """True for the Section 4.2 class maintained by Algorithm 1."""
        query = self.query
        if query is None or query.within or query.ans_int:
            return False
        if not query.select_path.is_constant:
            return False
        if query.condition is None:
            return True
        return (
            isinstance(query.condition, Comparison)
            and query.condition.path.is_constant
        )

    @property
    def is_extended(self) -> bool:
        """True for the Section 6 relaxations our extended maintainer
        accepts: wildcard paths and/or conjunctions of comparisons (no
        scope clauses, no OR/NOT/EXISTS)."""
        query = self.query
        if query is None or query.within or query.ans_int:
            return False
        condition = query.condition
        if condition is None or isinstance(condition, Comparison):
            return True
        return isinstance(condition, And) and all(
            isinstance(operand, Comparison) for operand in condition.operands
        )

    # -- simple-view accessors (Algorithm 1 inputs) --------------------------

    def _one_query(self) -> Query:
        if self.query is None:
            raise ViewDefinitionError(
                f"view {self.name!r} is a union of "
                f"{len(self.selects)} select queries"
            )
        return self.query

    def sel_path(self) -> Path:
        """The constant ``sel_path`` (simple views only)."""
        select_path = self._one_query().select_path
        if not select_path.is_constant:
            raise ViewDefinitionError(
                f"view {self.name!r} has a non-constant select path"
            )
        return select_path.as_path()

    def cond_path(self) -> Path:
        """The constant ``cond_path`` — empty when there is no WHERE."""
        condition = self._one_query().condition
        if condition is None:
            return EMPTY_PATH
        if not isinstance(condition, Comparison):
            raise ViewDefinitionError(
                f"view {self.name!r} has a compound condition"
            )
        if not condition.path.is_constant:
            raise ViewDefinitionError(
                f"view {self.name!r} has a non-constant condition path"
            )
        return condition.path.as_path()

    def predicate(self) -> Callable[[AtomicValue], bool]:
        """The value predicate ``cond()`` (constant-true when no WHERE).

        Note: with no WHERE clause the "condition" accepts *objects of
        any kind*, handled specially by the maintainers (members are the
        reached objects themselves, not atomic witnesses).
        """
        condition = self._one_query().condition
        if condition is None:
            return lambda _value: True
        if not isinstance(condition, Comparison):
            raise ViewDefinitionError(
                f"view {self.name!r} has a compound condition"
            )
        return condition.predicate()

    @property
    def has_condition(self) -> bool:
        return self._one_query().condition is not None

    def full_path(self) -> Path:
        """``sel_path.cond_path`` — the concatenation Algorithm 1 matches
        against ``path(ROOT, N1).label(N2).p``."""
        return self.sel_path() + self.cond_path()

    def full_expression(self) -> PathExpression:
        """``sel_path_exp . cond_path_exp`` for extended views."""
        query = self._one_query()
        condition = query.condition
        parts = [query.select_path]
        if isinstance(condition, Comparison):
            parts.append(condition.path)
        result = parts[0]
        for part in parts[1:]:
            result = result.concat(part)
        return result

    def require_simple(self) -> None:
        """Raise unless this definition is in the Algorithm 1 class."""
        if not self.is_simple:
            raise ViewDefinitionError(
                f"view {self.name!r} is not a simple view "
                f"(paper Section 4.2): {self}"
            )

    def __str__(self) -> str:
        keyword = "mview" if self.materialized else "view"
        body = " UNION ".join(map(str, self.selects or (self.query,)))
        return f"define {keyword} {self.name} as: {body}"


def _dnf(condition) -> list[tuple[Comparison, ...]] | None:
    """The conjunctions of comparisons whose disjunction *condition*
    is; None under ``NOT`` or ``EXISTS``, or without a condition."""
    if isinstance(condition, Comparison):
        return [(condition,)]
    if not isinstance(condition, (And, Or)):
        return None
    operands = [_dnf(operand) for operand in condition.operands]
    if None in operands:
        return None
    if isinstance(condition, Or):
        return [term for terms in operands for term in terms]
    return [sum(terms, ()) for terms in product(*operands)]
