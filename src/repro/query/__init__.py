"""The paper's query language (Section 2, expression 2.1).

``SELECT OBJ.sel_path_exp X WHERE cond(X.cond_path_exp) [WITHIN DB1]
[ANS INT DB2]`` — lexer, parser, condition evaluation, scoped query
evaluation, and the two strategies for querying virtual views
(Section 3.3).
"""

from repro.query.answer import ANSWER_LABEL, make_answer
from repro.query.ast import (
    And,
    Comparison,
    Condition,
    Exists,
    Not,
    Or,
    Query,
    condition_paths,
)
from repro.query.conditions import atomic_values_on_path, is_simple_condition
from repro.query.evaluator import QueryEvaluator, ScopedStore
from repro.query.parser import (
    ViewDefinitionStatement,
    parse_query,
    parse_statement,
)
from repro.query.rewrite import (
    Pipeline,
    Strategy,
    answer_over_virtual_view,
    rewrite_over_view,
)

__all__ = [
    "ANSWER_LABEL",
    "And",
    "Comparison",
    "Condition",
    "Exists",
    "Not",
    "Or",
    "Pipeline",
    "Query",
    "QueryEvaluator",
    "ScopedStore",
    "Strategy",
    "ViewDefinitionStatement",
    "answer_over_virtual_view",
    "atomic_values_on_path",
    "condition_paths",
    "is_simple_condition",
    "make_answer",
    "parse_query",
    "parse_statement",
    "rewrite_over_view",
]
