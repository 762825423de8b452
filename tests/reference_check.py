"""The reference type checker: the walk over a built expression tree that
``adaptkit.dsl`` ran after parsing each condition until its parser typed
the tree as it built it.

``check_expr`` visits each node once, operands left first, and returns the
expression's static type, its reads and its first type error, as
``adaptkit.dsl.check_expr`` does. It shares no typing code with the
package, so test_parse.py compares the two on every line it draws.
"""

from __future__ import annotations

from adaptkit.dsl import BoolOp, Compare, Dist, FeatureRef, Lit, Not, SceneRef
from adaptkit.scene import READABLE_PROPS
from adaptkit.values import type_name

_ORDERING_OPS = ("<", "<=", ">", ">=")


def check_expr(expr) -> tuple[str | None, list, str | None]:
    """The static type (None where only the run-time value tells), the reads
    (a FeatureId per feature reference and an (element, property) pair per
    scene reference, in reading order and with repeats) and the first
    static type error, or None."""
    reads: list = []
    errors: list[str] = []
    kind = _check(expr, reads, errors)
    return kind, reads, errors[0] if errors else None


def _check(expr, reads: list, errors: list[str]) -> str | None:
    if isinstance(expr, Lit):
        return type_name(expr.value)
    if isinstance(expr, FeatureRef):
        reads.append(expr.feature)
        return None
    if isinstance(expr, SceneRef):
        reads.append((expr.element, expr.prop))
        return READABLE_PROPS.get(expr.prop)
    if isinstance(expr, Compare):
        lt, rt = _check(expr.left, reads, errors), _check(expr.right, reads, errors)
        if lt is not None and rt is not None and lt != rt:
            errors.append(f"cannot compare {lt} with {rt}")
        if expr.op in _ORDERING_OPS:
            for t in (lt, rt):
                if t not in (None, "int", "float"):
                    errors.append(f"ordering comparison needs numbers, got {t}")
        return "bool"
    # each operand in turn, checked against the type the node needs
    if isinstance(expr, BoolOp):
        sides, want, kind, message = (expr.left, expr.right), "bool", "bool", f"{expr.op} needs bool operands"
    elif isinstance(expr, Not):
        sides, want, kind, message = (expr.operand,), "bool", "bool", "! needs a bool operand"
    elif isinstance(expr, Dist):
        sides, want, kind, message = (expr.a, expr.b), "vec3", "float", "dist() needs two vec3 arguments"
    else:
        raise AssertionError(f"unhandled expr node {expr!r}")
    for side in sides:
        t = _check(side, reads, errors)
        if t not in (None, want):
            errors.append(f"{message}, got {t}")
    return kind
