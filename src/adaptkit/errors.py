"""Exception hierarchy shared by all adaptkit modules.

Parse-time errors carry the 1-based line number of the offending input
line; runtime errors do not.
"""

from __future__ import annotations


class AdaptError(Exception):
    """Base class for all adaptkit errors."""


class TypeMismatch(AdaptError):
    """A value's type (or domain) does not match what the target expects."""


class UnknownFeature(AdaptError):
    """A context feature was read before it was ever set."""


class MalformedStateFile(AdaptError):
    """A persisted state file has a bad line, duplicate key, or unparsable value."""


class UnknownElement(AdaptError):
    """A scene element id does not exist."""


class UnknownProperty(AdaptError):
    """A scene element has no property of the given name."""


class ParseError(AdaptError):
    """Base for line-oriented parse errors; ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class DslSyntaxError(ParseError):
    pass


class UnknownConditionRef(ParseError):
    pass


class DuplicateId(ParseError):
    pass


class ExprTypeError(ParseError):
    pass


class UnknownEffector(ParseError):
    pass


class UnknownCategory(ParseError):
    pass


class UnknownStepRef(ParseError):
    pass


class DuplicateStep(ParseError):
    pass


class DecreasingTimestamp(ParseError):
    pass


class DuplicateFeatureInEvent(ParseError):
    pass


class FeatureTypeChange(ParseError):
    """A scenario sets a feature to a value of another type than before."""


class ValidationFailed(AdaptError):
    """Engine construction refused: a name the rules or the workflow use does
    not resolve (dsl.unresolved)."""


class EvaluationError(AdaptError):
    """A condition could not be evaluated (unset feature, missing element)."""


class ActionError(AdaptError):
    """A rule action failed at execution time."""


class NonQuiescent(AdaptError):
    """An event's cascade did not settle within the cycle bound.

    ``trace`` holds the partial trace including the NONQUIESCENT terminator.
    """

    def __init__(self, depth: int, trace=None):
        super().__init__(f"cascade did not quiesce within {depth} cycles")
        self.depth = depth
        self.trace = trace
