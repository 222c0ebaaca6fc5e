"""Property-based tests for the path machinery.

* NFA graph evaluation ≡ brute-force instance enumeration;
* instance matching ≡ membership in the evaluated set;
* containment decisions agree with sampled instances.
"""

from hypothesis import given, settings

from tests.property.support import common_settings
from hypothesis import strategies as st

from repro.gsdb.traversal import follow_path
from repro.paths import (
    PathExpression,
    compile_expression,
    is_contained,
    shortest_instance,
)
from repro.workloads import random_labelled_tree

COMMON = common_settings(40)

LABELS = ("a", "b", "c")

segment = st.sampled_from(["a", "b", "c", "?", "*", "a|b"])
expression_text = st.lists(segment, min_size=0, max_size=4).map(
    lambda segments: ".".join(segments)
)
path_labels = st.lists(st.sampled_from(LABELS), min_size=0, max_size=5)


class TestMatchingSemantics:
    @given(expr=expression_text, labels=path_labels)
    @settings(**COMMON)
    def test_nfa_accepts_iff_substitution_exists(self, expr, labels):
        """Cross-check the NFA against a direct recursive matcher."""
        expression = PathExpression.parse(expr)

        def brute(segments, remaining) -> bool:
            if not segments:
                return not remaining
            head, rest = segments[0], segments[1:]
            text = str(head)
            if text == "*":
                return any(
                    brute(rest, remaining[i:])
                    for i in range(len(remaining) + 1)
                )
            if not remaining:
                return False
            if text == "?" or remaining[0] in text.split("|"):
                return brute(rest, remaining[1:])
            return False

        assert expression.matches(labels) == brute(
            list(expression.segments), list(labels)
        )


class TestGraphEvaluation:
    @given(
        expr=expression_text,
        seed=st.integers(0, 5_000),
        nodes=st.integers(5, 40),
    )
    @settings(**COMMON)
    def test_nfa_equals_instance_union(self, expr, seed, nodes):
        """N.e must equal the union of N.p over all instances p —
        enumerated here by trying every label sequence up to the tree
        depth (trees are shallow enough to brute force)."""
        store, root = random_labelled_tree(
            nodes=nodes, labels=LABELS, seed=seed
        )
        expression = PathExpression.parse(expr)
        evaluated = compile_expression(expression).evaluate_many(
            store, [root]
        )[root]

        brute: set[str] = set()
        # A tree of n nodes has paths no longer than n; the feasibility
        # prune below keeps the search linear in distinct label paths.
        max_depth = nodes

        def walk(labels: list[str]) -> None:
            if expression.matches(labels):
                brute.update(follow_path(store, root, labels))
            if len(labels) >= max_depth:
                return
            for label in LABELS:
                extended = labels + [label]
                # Prune: once no node lies on the prefix, no extension
                # can reach anything either.
                if follow_path(store, root, extended):
                    walk(extended)

        walk([])
        assert evaluated == brute


class TestContainmentAgreesWithSampling:
    @given(inner=expression_text, outer=expression_text)
    @settings(**COMMON)
    def test_shortest_instance_respects_containment(self, inner, outer):
        inner_e = PathExpression.parse(inner)
        outer_e = PathExpression.parse(outer)
        contained = is_contained(inner_e, outer_e)
        witness = shortest_instance(inner_e)
        assert witness is not None
        if contained:
            assert outer_e.matches(witness)

    @given(expr=expression_text)
    @settings(**COMMON)
    def test_containment_reflexive(self, expr):
        e = PathExpression.parse(expr)
        assert is_contained(e, e)

    @given(a=expression_text, b=expression_text, c=expression_text)
    @settings(**COMMON)
    def test_containment_transitive(self, a, b, c):
        ea, eb, ec = map(PathExpression.parse, (a, b, c))
        if is_contained(ea, eb) and is_contained(eb, ec):
            assert is_contained(ea, ec)

    @given(inner=expression_text, outer=expression_text)
    @settings(**COMMON)
    def test_counterexample_is_valid(self, inner, outer):
        from repro.paths import containment_counterexample

        inner_e = PathExpression.parse(inner)
        outer_e = PathExpression.parse(outer)
        witness = containment_counterexample(inner_e, outer_e)
        if witness is None:
            assert is_contained(inner_e, outer_e)
        else:
            assert inner_e.matches(witness)
            assert not outer_e.matches(witness)
