"""Path expressions: regular expressions over label paths.

Paper Section 2: "A path expression is a regular expression of paths.
For example, ``*``, ``professor.*`` and ``professor.?`` are path
expressions.  A path is also a (constant) path expression."  A path
``p`` is an *instance* of expression ``e`` when the wildcards of ``e``
can be substituted by paths (for ``*``) or single labels (for ``?``) to
obtain ``p``; ``N.e`` is the union of ``N.p`` over all instances.

Grammar (dot-separated segments)::

    expression := segment ('.' segment)*   |   ''        (empty = ε)
    segment    := '*'                                    any path, incl. ε
                | '?'                                    exactly one label
                | name ('|' name)*                       label alternation

Label alternation (``professor|student``) is a convenience extension —
it stays within the regular-expressions-of-paths family the paper
allows.  Expressions compile to NFAs in :mod:`repro.paths.automaton`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.errors import PathSyntaxError
from repro.paths.path import Path


@dataclass(frozen=True, slots=True)
class LabelSegment:
    """Matches one edge whose target label is in *labels*."""

    labels: frozenset[str]

    def matches(self, label: str) -> bool:
        return label in self.labels

    def __str__(self) -> str:
        return "|".join(sorted(self.labels))


@dataclass(frozen=True, slots=True)
class AnyLabelSegment:
    """``?`` — matches exactly one edge, any label."""

    def matches(self, label: str) -> bool:
        return True

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True, slots=True)
class AnyPathSegment:
    """``*`` — matches any path, including the empty one."""

    def matches(self, label: str) -> bool:
        return True

    def __str__(self) -> str:
        return "*"


Segment = Union[LabelSegment, AnyLabelSegment, AnyPathSegment]


class PathExpression:
    """A parsed path expression — a sequence of segments.

    >>> e = PathExpression.parse("professor.*.age")
    >>> e.is_constant
    False
    >>> e.matches(Path.parse("professor.student.age"))
    True
    >>> e.matches(Path.parse("professor.age"))
    True
    >>> e.matches(Path.parse("secretary.age"))
    False
    """

    __slots__ = ("_segments", "_hash")

    def __init__(self, segments: Sequence[Segment] = ()) -> None:
        self._segments = tuple(segments)
        # Immutable, and hashed on every compile_expression lookup.
        self._hash = hash(self._segments)

    @classmethod
    def parse(cls, text: str) -> "PathExpression":
        """Parse dotted-segment syntax (see module docstring)."""
        text = text.strip()
        if not text:
            return cls(())
        segments: list[Segment] = []
        position = 0
        for raw in text.split("."):
            token = raw.strip()
            if not token:
                raise PathSyntaxError(text, position, "empty segment")
            if token == "*":
                segments.append(AnyPathSegment())
            elif token == "?":
                segments.append(AnyLabelSegment())
            else:
                labels = [name.strip() for name in token.split("|")]
                if any(not name or name in ("*", "?") for name in labels):
                    raise PathSyntaxError(
                        text, position, f"invalid segment {token!r}"
                    )
                segments.append(LabelSegment(frozenset(labels)))
            position += len(raw) + 1
        return cls(segments)

    @classmethod
    def from_path(cls, path: Path) -> "PathExpression":
        """Lift a constant path into an expression."""
        return cls(tuple(LabelSegment(frozenset((l,))) for l in path))

    # -- properties ------------------------------------------------------------

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    @property
    def is_constant(self) -> bool:
        """True when the expression is a plain path (no wildcards and no
        alternation) — the class Algorithm 1 supports directly."""
        return all(
            isinstance(seg, LabelSegment) and len(seg.labels) == 1
            for seg in self._segments
        )

    def as_path(self) -> Path:
        """Convert a constant expression back into a :class:`Path`.

        Raises:
            ValueError: if the expression contains wildcards.
        """
        if not self.is_constant:
            raise ValueError(f"not a constant path: {self}")
        return Path(
            tuple(next(iter(seg.labels)) for seg in self._segments)  # type: ignore[union-attr]
        )

    @property
    def min_length(self) -> int:
        """Length of the shortest instance path."""
        return sum(
            0 if isinstance(seg, AnyPathSegment) else 1
            for seg in self._segments
        )

    @property
    def has_star(self) -> bool:
        return any(isinstance(seg, AnyPathSegment) for seg in self._segments)

    def mentioned_labels(self) -> frozenset[str]:
        """All concrete labels appearing in the expression."""
        labels: set[str] = set()
        for seg in self._segments:
            if isinstance(seg, LabelSegment):
                labels.update(seg.labels)
        return frozenset(labels)

    # -- algebra -----------------------------------------------------------------

    def concat(self, other: "PathExpression") -> "PathExpression":
        """Concatenation — Algorithm 1 reasons about ``sel_path.cond_path``."""
        return PathExpression(self._segments + other._segments)

    def matches(self, path: Path | Sequence[str]) -> bool:
        """Instance test: is *path* an instance of this expression?

        Delegates to the compiled NFA (cached per expression).
        """
        from repro.paths.automaton import compile_expression

        labels = path.labels if isinstance(path, Path) else tuple(path)
        return compile_expression(self).accepts(labels)

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathExpression):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:
        return f"PathExpression({str(self)!r})"

    def __str__(self) -> str:
        return ".".join(str(seg) for seg in self._segments)
