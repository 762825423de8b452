"""Reference copies of the rule set's records as they were before they
became NamedTuples: frozen dataclasses whose equality and hashing leave
out ``line`` and ``reads``, and a ConditionDef that finds its reads when
none are given. test_dsl.py compares adaptkit's records against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from adaptkit.dsl import ActionCall, AdaptationCategory, Expr, check_expr


@dataclass(frozen=True)
class ConditionDef:
    id: str
    expr: Expr
    line: int = field(default=0, compare=False)
    # what the expression reads, as check_expr lists it; found when not given
    reads: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.reads is None:
            object.__setattr__(self, "reads", tuple(check_expr(self.expr)[1]))


@dataclass(frozen=True)
class RuleDef:
    id: str
    priority: int
    conditions: tuple[str, ...]
    actions: tuple[ActionCall, ...]
    category: AdaptationCategory
    line: int = field(default=0, compare=False)
