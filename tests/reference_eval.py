"""The reference evaluator: an expression's value, by walking its tree.

Written from README "Expressions" and the ``adaptkit.dsl`` module
docstring, apart from what ``dsl.compile_expr`` builds: it shares none of
the operator code the compiled evaluators run, value typing and equality
included, so a fault there shows as a difference between the two. test_compile.py, test_dsl.py,
test_acceptance.py and naive_engine.py evaluate with it.

Every operand of a node is evaluated, left first, before the node looks at
their types, so the first error met is the one raised:

- a feature never set raises UnknownFeature, a missing element
  UnknownElement, a property no element has UnknownProperty (the store's
  and the scene's own lookups);
- values of two types (bool, int, float, text, vec3; int is not float)
  meet in a comparison only as a TypeMismatch, ``cannot compare X with Y``;
- ``==`` and ``!=`` compare floats by their bits, so ``0.0 != -0.0``;
- ``< <= > >=`` take numbers only: ``ordering comparison needs numbers,
  got X``;
- ``&&`` and ``||`` take two bools: ``&& needs bool operands``;
- ``!`` takes a bool: ``! needs a bool operand``;
- ``dist(a, b)`` takes two vec3 values: ``dist() needs two vec3 values``.
  It is the Euclidean distance, inf where a square leaves the float range.
"""

from __future__ import annotations

import math
import struct

from adaptkit.dsl import BoolOp, Compare, Dist, FeatureRef, Lit, Not, SceneRef
from adaptkit.errors import TypeMismatch
from adaptkit.values import Vec3


def eval_expr(expr, store, scene):
    """The value of ``expr`` over ``store`` and ``scene`` as they are now."""
    match expr:
        case Lit(value):
            return value
        case FeatureRef(feature):
            return store.get_feature(feature)
        case SceneRef(element, prop):
            return scene.get_property(element, prop)
        case Not(operand):
            value = eval_expr(operand, store, scene)
            if type(value) is not bool:
                raise TypeMismatch("! needs a bool operand")
            return not value
        case BoolOp(op, left, right):
            x, y = eval_expr(left, store, scene), eval_expr(right, store, scene)
            if type(x) is not bool or type(y) is not bool:
                raise TypeMismatch(f"{op} needs bool operands")
            return (x and y) if op == "&&" else (x or y)
        case Compare(op, left, right):
            return _comparison(op, eval_expr(left, store, scene), eval_expr(right, store, scene))
        case Dist(a, b):
            p, q = eval_expr(a, store, scene), eval_expr(b, store, scene)
            if type(p) is not Vec3 or type(q) is not Vec3:
                raise TypeMismatch("dist() needs two vec3 values")
            return _euclidean(p, q)
    raise AssertionError(f"not an expression: {expr!r}")


# bool before int, as a bool is an int to isinstance
_KINDS = ((bool, "bool"), (int, "int"), (float, "float"), (str, "text"), (Vec3, "vec3"))


def _kind(value) -> str:
    for cls, name in _KINDS:
        if isinstance(value, cls):
            return name
    raise AssertionError(f"not a value: {value!r}")


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(kind: str, x, y) -> bool:
    if kind == "float":
        return _bits(x) == _bits(y)
    if kind == "vec3":
        return all(_bits(a) == _bits(b) for a, b in zip((x.x, x.y, x.z), (y.x, y.y, y.z)))
    return x == y


def _comparison(op: str, x, y) -> bool:
    kind = _kind(x)
    if kind != _kind(y):
        raise TypeMismatch(f"cannot compare {kind} with {_kind(y)}")
    if op == "==":
        return _same(kind, x, y)
    if op == "!=":
        return not _same(kind, x, y)
    if kind not in ("int", "float"):
        raise TypeMismatch(f"ordering comparison needs numbers, got {kind}")
    match op:
        case "<":
            return x < y
        case "<=":
            return x <= y
        case ">":
            return x > y
        case ">=":
            return x >= y
    raise AssertionError(f"not a comparison operator: {op!r}")


def _euclidean(p: Vec3, q: Vec3) -> float:
    # squares summed in x, y, z order, then one square root: the bits of
    # every distance a trace shows
    try:
        return math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2)
    except OverflowError:
        return math.inf
