"""Rule language: named boolean conditions wired to effector actions.

The file format is line-oriented ('#' starts a comment)::

    condition <id>: <expr>
    rule <id> [priority <int>] when <cond_id>[, <cond_id>...]
        do <action>[; <action>...] category <Category>

Expressions combine feature references (``env.* / user.* / platform.*``),
scene references (``scene.<element>.<property>``), literals, comparisons
(``< <= > >= == !=``), boolean connectives (``&& || !``) and the distance
function ``dist(a, b)``. There is no other arithmetic. Equality follows
the store's change detection: bitwise on floats, so no epsilons. Boolean
connectives evaluate both operands so unset features always surface.
Expressions nest at most MAX_DEPTH deep and MAX_HEIGHT high.
``eval_expr`` evaluates a tree by walking it; ``compile_expr`` turns one
into a closure that agrees with it, and is what the engine runs.

Actions come from a closed effector vocabulary; ``set_feature`` writes a
context feature and is what lets one rule's effects trigger another rule.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from ._lexer import OP, REF, Cursor, lines, text_of
from .context import ContextStore, FeatureId
from .errors import (
    DslSyntaxError,
    DuplicateId,
    ExprTypeError,
    TypeMismatch,
    UnknownCategory,
    UnknownConditionRef,
    UnknownEffector,
    UnknownFeature,
)
from .scene import READABLE_PROPS, WRITABLE, DetailLevel, Modality, SceneElement, SceneModel, distance
from .values import Value, Vec3, quote_text, type_name, values_equal


class AdaptationCategory(enum.Enum):
    STYLE = "Style"
    MODALITY = "Modality"
    SERVICE = "Service"
    CONTENT_PRESENTATION = "ContentPresentation"
    REAL_WORLD = "RealWorld"
    VIRTUAL_WORLD = "VirtualWorld"


# ---------------------------------------------------------------------------
# expression AST

@dataclass(frozen=True, slots=True)
class Lit:
    value: Value


@dataclass(frozen=True, slots=True)
class FeatureRef:
    feature: FeatureId


@dataclass(frozen=True, slots=True)
class SceneRef:
    element: str
    prop: str


@dataclass(frozen=True, slots=True)
class Compare:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class BoolOp:
    op: str  # '&&' | '||'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Dist:
    a: "Expr"
    b: "Expr"


Expr = Lit | FeatureRef | SceneRef | Compare | BoolOp | Not | Dist

_ORDERING_OPS = ("<", "<=", ">", ">=")
_COMPARE_OPS = _ORDERING_OPS + ("==", "!=")

# How deep an expression may nest. The parser takes about six frames per
# parenthesis, '!' or 'dist(' around a part, and a walk over the tree up to
# two per level of its height, so these keep both well inside the
# interpreter's default limit of 1000 frames.
MAX_DEPTH = 100  # parentheses, '!' and 'dist(' around any part
MAX_HEIGHT = 300  # the tree's height; a '&&' or '||' chain is one level per operator


def _nested(cur: Cursor, level: int, limit: int = MAX_DEPTH) -> int:
    if level > limit:
        raise DslSyntaxError(cur.lineno, f"expression nested deeper than {limit} levels")
    return level


def _higher(cur: Cursor, *heights: int) -> int:
    """The height of a node over subtrees of these heights."""
    return _nested(cur, max(heights) + 1, MAX_HEIGHT)


# Each parse function takes the nesting ``depth`` around it and returns the
# expression with its height (0 for a leaf).

def _parse_expr(cur: Cursor, depth: int = 0) -> tuple[Expr, int]:
    return _parse_or(cur, depth)


def _parse_or(cur: Cursor, depth: int) -> tuple[Expr, int]:
    left, height = _parse_and(cur, depth)
    while cur.at_op("||"):
        cur.next()
        right, rh = _parse_and(cur, depth)
        left, height = BoolOp("||", left, right), _higher(cur, height, rh)
    return left, height


def _parse_and(cur: Cursor, depth: int) -> tuple[Expr, int]:
    left, height = _parse_cmp(cur, depth)
    while cur.at_op("&&"):
        cur.next()
        right, rh = _parse_cmp(cur, depth)
        left, height = BoolOp("&&", left, right), _higher(cur, height, rh)
    return left, height


def _parse_cmp(cur: Cursor, depth: int) -> tuple[Expr, int]:
    left, height = _parse_unary(cur, depth)
    tok = cur.peek()
    if tok is not None and tok[OP] in _COMPARE_OPS:
        cur.next()
        right, rh = _parse_unary(cur, depth)
        return Compare(tok[OP], left, right), _higher(cur, height, rh)
    return left, height


def _parse_unary(cur: Cursor, depth: int) -> tuple[Expr, int]:
    if cur.at_op("!"):
        cur.next()
        operand, height = _parse_unary(cur, _nested(cur, depth + 1))
        return Not(operand), _higher(cur, height)
    return _parse_primary(cur, depth)


def _parse_primary(cur: Cursor, depth: int) -> tuple[Expr, int]:
    value = cur.literal()
    if value is not None:
        return Lit(Vec3(*value) if isinstance(value, tuple) else value), 0
    tok = cur.next()
    if tok[OP] == "(":
        inner = _parse_expr(cur, _nested(cur, depth + 1))
        cur.expect_op(")")
        return inner
    text = tok[REF]
    if text:
        parts = text.split(".")
        if text == "dist":
            cur.expect_op("(")
            a, ah = _parse_expr(cur, _nested(cur, depth + 1))
            cur.expect_op(",")
            b, bh = _parse_expr(cur, depth + 1)
            cur.expect_op(")")
            return Dist(a, b), _higher(cur, ah, bh)
        if len(parts) == 2 and parts[0] in ("env", "user", "platform"):
            try:
                return FeatureRef(FeatureId.parse(text)), 0
            except ValueError as e:
                raise DslSyntaxError(cur.lineno, str(e)) from None
        if len(parts) == 3 and parts[0] == "scene":
            if parts[2] not in READABLE_PROPS:
                raise ExprTypeError(
                    cur.lineno, f"scene property {parts[2]!r} is not readable in expressions"
                )
            return SceneRef(parts[1], parts[2]), 0
        raise DslSyntaxError(cur.lineno, f"unexpected identifier {text!r} in expression")
    raise DslSyntaxError(cur.lineno, f"unexpected token {text_of(tok)!r}")


# ---------------------------------------------------------------------------
# actions

@dataclass(frozen=True)
class ActionCall:
    """A bound effector invocation.

    ``element`` is set for scene effectors, ``feature`` for set_feature;
    ``value`` is the payload (None for clear_highlight).
    """

    effector: str
    element: str | None = None
    feature: FeatureId | None = None
    value: object = None


# effector -> scene property it writes (None: writes a context feature)
EFFECTOR_PROPERTY = {
    "set_visible": "visible",
    "set_text": "text",
    "set_text_size": "text_size",
    "set_detail": "detail",
    "set_modality": "modality",
    "set_billboard": "billboard",
    "highlight": "highlight",
    "clear_highlight": "highlight",
    "set_feature": None,
}


@dataclass(frozen=True)
class _Bare:
    """A bare identifier argument (element id or enum token)."""

    name: str


def _parse_action_arg(cur: Cursor):
    """A literal (a vector stays a tuple, so highlight can insist on ints),
    a feature id, or a bare identifier."""
    value = cur.literal()
    if value is not None:
        return value
    tok = cur.next()
    text = tok[REF]
    if text:
        parts = text.split(".")
        if len(parts) == 2 and parts[0] in ("env", "user", "platform"):
            try:
                return FeatureId.parse(text)
            except ValueError as e:
                raise DslSyntaxError(cur.lineno, str(e)) from None
        if len(parts) == 1:
            return _Bare(text)
    raise DslSyntaxError(cur.lineno, f"unexpected action argument {text_of(tok)!r}")


def _need_element(arg, lineno: int) -> str:
    if isinstance(arg, _Bare):
        return arg.name
    raise ExprTypeError(lineno, "expected an element id")


def _bind_action(effector: str, args: list, lineno: int) -> ActionCall:
    def arity(n):
        if len(args) != n:
            raise ExprTypeError(lineno, f"{effector} takes {n} argument(s), got {len(args)}")

    if effector in ("set_visible", "set_billboard"):
        arity(2)
        elem = _need_element(args[0], lineno)
        if not isinstance(args[1], bool):
            raise ExprTypeError(lineno, f"{effector} needs a bool value")
        return ActionCall(effector, element=elem, value=args[1])
    if effector == "set_text":
        arity(2)
        elem = _need_element(args[0], lineno)
        if not isinstance(args[1], str):
            raise ExprTypeError(lineno, "set_text needs a string value")
        return ActionCall(effector, element=elem, value=args[1])
    if effector == "set_text_size":
        arity(2)
        elem = _need_element(args[0], lineno)
        v = args[1]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ExprTypeError(lineno, "set_text_size needs a number")
        if not float(v) > 0:
            raise ExprTypeError(lineno, "text size must be positive")
        return ActionCall(effector, element=elem, value=float(v))
    if effector == "set_detail":
        arity(2)
        elem = _need_element(args[0], lineno)
        if not isinstance(args[1], _Bare):
            raise ExprTypeError(lineno, "set_detail needs full or reduced")
        try:
            level = DetailLevel(args[1].name)
        except ValueError:
            raise ExprTypeError(lineno, f"unknown detail level {args[1].name!r}") from None
        return ActionCall(effector, element=elem, value=level)
    if effector == "set_modality":
        if len(args) < 2:
            raise ExprTypeError(lineno, "set_modality needs an element and at least one modality")
        elem = _need_element(args[0], lineno)
        mods = set()
        for a in args[1:]:
            if not isinstance(a, _Bare):
                raise ExprTypeError(lineno, "set_modality arguments must be modality names")
            try:
                mods.add(Modality(a.name))
            except ValueError:
                raise ExprTypeError(lineno, f"unknown modality {a.name!r}") from None
        return ActionCall(effector, element=elem, value=frozenset(mods))
    if effector == "highlight":
        arity(2)
        elem = _need_element(args[0], lineno)
        t = args[1]
        if not isinstance(t, tuple) or not all(isinstance(c, int) and 0 <= c <= 255 for c in t):
            raise ExprTypeError(lineno, "highlight needs an (r,g,b) color with 0..255 components")
        return ActionCall(effector, element=elem, value=t)
    if effector == "clear_highlight":
        arity(1)
        elem = _need_element(args[0], lineno)
        return ActionCall(effector, element=elem, value=None)
    if effector == "set_feature":
        arity(2)
        if not isinstance(args[0], FeatureId):
            raise ExprTypeError(lineno, "set_feature needs a feature id")
        v = args[1]
        if isinstance(v, tuple):
            v = Vec3(*v)
        if isinstance(v, (_Bare, FeatureId)):
            raise ExprTypeError(lineno, "set_feature needs a literal value")
        return ActionCall(effector, feature=args[0], value=v)
    raise UnknownEffector(lineno, f"unknown effector {effector!r}")


# ---------------------------------------------------------------------------
# rule set

@dataclass(frozen=True)
class ConditionDef:
    id: str
    expr: Expr
    line: int = field(default=0, compare=False)
    # what the expression reads, as compile_expr lists it; found when not given
    reads: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.reads is None:
            object.__setattr__(self, "reads", tuple(compile_expr(self.expr).reads))


@dataclass(frozen=True)
class RuleDef:
    id: str
    priority: int
    conditions: tuple[str, ...]
    actions: tuple[ActionCall, ...]
    category: AdaptationCategory
    line: int = field(default=0, compare=False)


@dataclass(eq=True)
class RuleSet:
    conditions: list[ConditionDef]
    rules: list[RuleDef]

    def __post_init__(self):
        # lookup maps are derived, not fields, so equality stays structural
        self.condition_by_id = {c.id: c for c in self.conditions}
        self.rule_by_id = {r.id: r for r in self.rules}


def parse_rules(text: str) -> RuleSet:
    """Parse a rules file; definition order is preserved."""
    conditions: list[ConditionDef] = []
    rules: list[RuleDef] = []
    cond_ids: dict[str, int] = {}
    rule_ids: dict[str, int] = {}
    pending_refs: list[tuple[str, int]] = []  # (condition id, rule line)

    for lineno, tokens in lines(text):
        cur = Cursor(tokens, lineno)
        head = cur.next()
        if head[REF] == "condition":
            cid = cur.ident("a condition id")
            cur.expect_op(":")
            expr, _ = _parse_expr(cur)
            cur.expect_end("after expression")
            compiled = compile_expr(expr)
            if compiled.error is not None:
                raise ExprTypeError(lineno, compiled.error)
            if compiled.type not in (None, "bool"):
                raise ExprTypeError(lineno, f"condition {cid!r} must evaluate to bool")
            if cid in cond_ids:
                raise DuplicateId(lineno, f"duplicate condition id {cid!r}")
            cond_ids[cid] = lineno
            conditions.append(ConditionDef(cid, expr, line=lineno, reads=tuple(compiled.reads)))
        elif head[REF] == "rule":
            rid = cur.ident("a rule id")
            priority = 0
            if cur.at_ref("priority"):
                cur.next()
                priority = cur.literal()
                if type(priority) is not int:
                    raise DslSyntaxError(lineno, "priority needs an integer")
            if not cur.at_ref("when"):
                raise DslSyntaxError(lineno, "expected 'when'")
            cur.next()
            cond_refs = [cur.ident("a condition id")]
            while cur.at_op(","):
                cur.next()
                cond_refs.append(cur.ident("a condition id"))
            if not cur.at_ref("do"):
                raise DslSyntaxError(lineno, "expected 'do'")
            cur.next()
            actions = [_parse_one_action(cur)]
            while cur.at_op(";"):
                cur.next()
                actions.append(_parse_one_action(cur))
            if not cur.at_ref("category"):
                raise DslSyntaxError(lineno, "expected 'category'")
            cur.next()
            name = cur.next()[REF]
            if not name:
                raise DslSyntaxError(lineno, "expected a category name")
            try:
                category = AdaptationCategory(name)
            except ValueError:
                raise UnknownCategory(lineno, f"unknown category {name!r}") from None
            cur.expect_end("after category")
            if rid in rule_ids:
                raise DuplicateId(lineno, f"duplicate rule id {rid!r}")
            rule_ids[rid] = lineno
            for ref in cond_refs:
                pending_refs.append((ref, lineno))
            rules.append(
                RuleDef(rid, priority, tuple(cond_refs), tuple(actions), category, line=lineno)
            )
        else:
            raise DslSyntaxError(lineno, f"expected 'condition' or 'rule', got {text_of(head)!r}")

    for ref, rline in pending_refs:
        if ref not in cond_ids:
            raise UnknownConditionRef(rline, f"rule references unknown condition {ref!r}")
    return RuleSet(conditions, rules)


def _parse_one_action(cur: Cursor) -> ActionCall:
    name = cur.ident("an effector name")
    if name not in EFFECTOR_PROPERTY:
        raise UnknownEffector(cur.lineno, f"unknown effector {name!r}")
    cur.expect_op("(")
    args = []
    if not cur.at_op(")"):
        args.append(_parse_action_arg(cur))
        while cur.at_op(","):
            cur.next()
            args.append(_parse_action_arg(cur))
    cur.expect_op(")")
    return _bind_action(name, args, cur.lineno)


# ---------------------------------------------------------------------------
# evaluation

def eval_expr(expr: Expr, store: ContextStore, scene: SceneModel) -> Value:
    """Pure evaluation; raises UnknownFeature/UnknownElement/TypeMismatch.

    The reference evaluator: it walks the tree on every call. The engine
    evaluates compile_expr's closures, which must agree with it on every
    value and every error.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, FeatureRef):
        return store.get_feature(expr.feature)
    if isinstance(expr, SceneRef):
        return scene.get_property(expr.element, expr.prop)
    if isinstance(expr, Dist):
        return _dist(eval_expr(expr.a, store, scene), eval_expr(expr.b, store, scene))
    if isinstance(expr, Compare):
        return _compare(expr.op, eval_expr(expr.left, store, scene), eval_expr(expr.right, store, scene))
    if isinstance(expr, BoolOp):
        return _bool_op(expr.op, eval_expr(expr.left, store, scene), eval_expr(expr.right, store, scene))
    if isinstance(expr, Not):
        return _not(eval_expr(expr.operand, store, scene))
    raise AssertionError(f"unhandled expr node {expr!r}")


# What each operator does with its evaluated operands, for eval_expr and for
# compiled expressions alike.

def _dist(a: Value, b: Value) -> float:
    if not isinstance(a, Vec3) or not isinstance(b, Vec3):
        raise TypeMismatch("dist() needs two vec3 values")
    return distance(a, b)


_TEST = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compare(op: str, left: Value, right: Value) -> bool:
    lt, rt = type_name(left), type_name(right)
    if lt != rt:
        raise TypeMismatch(f"cannot compare {lt} with {rt}")
    if op == "==":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    if lt not in ("int", "float"):
        raise TypeMismatch(f"ordering comparison needs numbers, got {lt}")
    return _TEST[op](left, right)


def _bool_op(op: str, left: Value, right: Value) -> bool:
    if not isinstance(left, bool) or not isinstance(right, bool):
        raise TypeMismatch(f"{op} needs bool operands")
    return (left and right) if op == "&&" else (left or right)


def _not(value: Value) -> bool:
    if not isinstance(value, bool):
        raise TypeMismatch("! needs a bool operand")
    return not value


def _unset(feature: FeatureId) -> UnknownFeature:
    """What ContextStore.get_feature raises for a feature never set."""
    return UnknownFeature(f"feature {feature} was never set")


# ---------------------------------------------------------------------------
# compilation

class Compiled(NamedTuple):
    """What one walk over an expression finds."""

    type: str | None  # static type; None where only the run-time value tells
    # a FeatureId per feature reference and an (element, property) pair per
    # scene reference, in reading order and with repeats
    reads: list
    error: str | None  # the first static type error, as the parser reports it
    evaluate: Callable[[], Value] | None  # eval_expr(expr, store, scene), compiled
    # feature -> the dist() atoms through which alone the expression reads it
    guards: dict[FeatureId, tuple["_DistAtom", ...]]


def compile_expr(
    expr: Expr,
    store: ContextStore | None = None,
    scene: SceneModel | None = None,
    odometers: dict[FeatureId, "Odometer"] | None = None,
) -> Compiled:
    """Walk an expression once for its static type, read set and first type
    error, and, given a store and a scene, compile it against them.

    ``evaluate`` returns what eval_expr returns and raises what it raises,
    the same class with the same message, in the same order. Type checks
    are hoisted for the common shapes: ``source op constant``, with
    an ordering op, an int or float constant, and a feature, a scene
    property or ``dist(feature, scene.X.position)`` as the source, is one
    atom that compares a value of the constant's type in place, and ``&&``
    over comparisons skips its bool checks. Any other value or shape takes
    the operators' generic path, the one eval_expr takes. Elements are
    bound when compiling; one missing then is looked up on each evaluation.

    A dist() atom keeps its value for as long as the feature it reads
    cannot have crossed the constant (see _DistAtom); ``odometers`` holds
    the feature -> Odometer map its atoms share, and gains one for each
    feature not yet in it. ``guards`` lists, for each feature the
    expression reads only through such atoms, those atoms: a write to the
    feature cannot change the expression's value until one of them is due.
    """
    c = _Compiler(store, scene, {} if odometers is None else odometers)
    t, fn = c.walk(expr)
    if not c.build:
        return Compiled(t, c.reads, c.error, None, {})
    guards: dict = {}
    for atom in c.dist_atoms:
        guards.setdefault(atom.feature, []).append(atom)
    guards = {f: tuple(atoms) for f, atoms in guards.items() if c.reads.count(f) == len(atoms)}
    return Compiled(t, c.reads, c.error, c.evaluator(expr, fn), guards)


# nodes whose evaluators always return a bool or raise
_BOOL_NODES = (Compare, BoolOp, Not)


class _Compiler:
    def __init__(self, store: ContextStore | None, scene: SceneModel | None, odometers: dict):
        self.store = store
        self.scene = scene
        self.build = store is not None and scene is not None  # else types and reads only
        self.reads: list = []
        self.error: str | None = None
        self.odometers = odometers
        self.dist_atoms: list[_DistAtom] = []

    def fail(self, message: str) -> None:
        if self.error is None:
            self.error = message

    def walk(self, expr: Expr) -> tuple[str | None, Callable[[], Value] | None]:
        """The static type of ``expr`` and its evaluator. A leaf, or a dist()
        of two leaves, has none: its parent reads it in place, or asks
        ``evaluator`` for one. Without a store and a scene no node has one."""
        if isinstance(expr, Lit):
            return type_name(expr.value), None
        if isinstance(expr, FeatureRef):
            self.reads.append(expr.feature)
            return None, None
        if isinstance(expr, Compare):
            lt, lf = self.walk(expr.left)
            rt, rf = self.walk(expr.right)
            if lt is not None and rt is not None and lt != rt:
                self.fail(f"cannot compare {lt} with {rt}")
            if expr.op in _ORDERING_OPS:
                for t in (lt, rt):
                    if t not in (None, "int", "float"):
                        self.fail(f"ordering comparison needs numbers, got {t}")
            if not self.build:
                return "bool", None
            atom = self.atom(expr)
            if atom is not None:
                return "bool", atom.evaluate
            op, left, right = expr.op, self.evaluator(expr.left, lf), self.evaluator(expr.right, rf)
            return "bool", lambda: _compare(op, left(), right())
        if isinstance(expr, BoolOp):
            fns = self.operands((expr.left, expr.right), "bool", f"{expr.op} needs bool operands")
            if not self.build:
                return "bool", None
            if expr.op == "&&" and isinstance(expr.left, _BOOL_NODES) and isinstance(expr.right, _BOOL_NODES):
                return "bool", _Conjunction(*fns).evaluate
            op, left, right = expr.op, self.evaluator(expr.left, fns[0]), self.evaluator(expr.right, fns[1])
            return "bool", lambda: _bool_op(op, left(), right())
        if isinstance(expr, SceneRef):
            self.reads.append((expr.element, expr.prop))
            return READABLE_PROPS.get(expr.prop), None
        if isinstance(expr, Not):
            (fn,) = self.operands((expr.operand,), "bool", "! needs a bool operand")
            if not self.build:
                return "bool", None
            operand = self.evaluator(expr.operand, fn)
            return "bool", lambda: _not(operand())
        if isinstance(expr, Dist):
            fns = self.operands((expr.a, expr.b), "vec3", "dist() needs two vec3 arguments")
            if fns == [None, None] or not self.build:
                return "float", None
            a, b = self.evaluator(expr.a, fns[0]), self.evaluator(expr.b, fns[1])
            return "float", lambda: _dist(a(), b())
        raise AssertionError(f"unhandled expr node {expr!r}")

    def operands(self, sides: tuple, want: str, message: str) -> list:
        """Walk each operand in turn, checking its static type against ``want``."""
        fns = []
        for side in sides:
            t, fn = self.walk(side)
            if t not in (None, want):
                self.fail(f"{message}, got {t}")
            fns.append(fn)
        return fns

    def evaluator(self, expr: Expr, fn: Callable[[], Value] | None) -> Callable[[], Value]:
        """``fn``, or for a node walk gave none, an evaluator of its own."""
        if fn is not None:
            return fn
        if isinstance(expr, Lit):
            value = expr.value
            return lambda: value
        if isinstance(expr, FeatureRef):
            return partial(self.store.get_feature, expr.feature)
        if isinstance(expr, SceneRef):
            return partial(self.scene.get_property, expr.element, expr.prop)
        a, b = self.evaluator(expr.a, None), self.evaluator(expr.b, None)  # a dist() of two leaves
        return lambda: _dist(a(), b())

    def atom(self, expr: Compare) -> "_Atom | None":
        """``source op constant`` as one atom, for an ordering op and an int
        or float constant."""
        if expr.op not in _ORDERING_OPS or not isinstance(expr.right, Lit):
            return None
        source, const = expr.left, expr.right.value
        if type(const) is not int and type(const) is not float:
            return None
        if isinstance(source, FeatureRef):
            return _FeatureAtom(expr.op, const, self.store._values, source.feature)
        if isinstance(source, SceneRef) and source.prop != "position":
            element = self._element(source)
            if element is not None:
                return _SceneAtom(expr.op, const, element, source.prop)
        elif (
            isinstance(source, Dist)
            and isinstance(source.a, FeatureRef)
            and isinstance(source.b, SceneRef)
            and source.b.prop == "position"
            and type(const) is float  # else the distance always meets a type error
        ):
            element = self._element(source.b)
            if element is not None:
                feature = source.a.feature
                odometer = self.odometers.get(feature)
                if odometer is None:
                    odometer = self.odometers[feature] = Odometer()
                atom = _DistAtom(expr.op, const, self.store._values, feature, element, odometer)
                self.dist_atoms.append(atom)
                return atom
        return None

    def _element(self, ref: SceneRef) -> SceneElement | None:
        """The element a readable scene reference reads, if it exists now."""
        if ref.prop in READABLE_PROPS and self.scene.has_element(ref.element):
            return self.scene.element(ref.element)
        return None


class _Atom:
    """``source op constant``, the type check hoisted: a source value of the
    constant's exact type is compared in place, and any other goes through
    _compare."""

    __slots__ = ("op", "test", "const", "kind")

    def __init__(self, op: str, const: int | float):
        self.op = op
        self.test = _TEST[op]
        self.const = const
        self.kind = type(const)

    def slow(self, value: Value) -> bool:
        return _compare(self.op, value, self.const)


class _FeatureAtom(_Atom):
    __slots__ = ("values", "feature")

    def __init__(self, op, const, values: dict, feature: FeatureId):
        super().__init__(op, const)
        self.values = values  # the store's own map
        self.feature = feature

    def evaluate(self) -> bool:
        try:
            value = self.values[self.feature]
        except KeyError:
            raise _unset(self.feature) from None
        if type(value) is self.kind:
            return self.test(value, self.const)
        return self.slow(value)


class _SceneAtom(_Atom):
    __slots__ = ("element", "attr")

    def __init__(self, op, const, element: SceneElement, prop: str):
        super().__init__(op, const)
        self.element = element
        self.attr = WRITABLE[prop].attr

    def evaluate(self) -> bool:
        value = getattr(self.element, self.attr)
        if type(value) is self.kind:
            return self.test(value, self.const)
        return self.slow(value)


class Odometer:
    """How far a vec3 feature has travelled over the values seen of it.

    ``see`` adds the straight step from the last value seen to the one
    given, so ``total`` grows by at least the distance between any two
    values it saw (triangle inequality). Each step is inflated past the
    rounding of its computation and every sum is rounded up, so ``total``
    never falls short; a non-finite step, or a value that is not a Vec3,
    makes it inf for good. Values are compared by identity: the store
    keeps a value's object until a write changes the value.
    """

    __slots__ = ("last", "total")

    def __init__(self):
        self.last = None  # nothing seen yet: the first value adds no step
        self.total = 0.0

    def see(self, value) -> float:
        last = self.last
        if value is not last:
            self.last = value
            if last is not None:
                if type(value) is Vec3 and type(last) is Vec3:
                    step = math.hypot(value.x - last.x, value.y - last.y, value.z - last.z)
                    total = self.total + step * _STEP_UP
                else:
                    total = math.inf
                self.total = math.nextafter(total, math.inf) if total < math.inf else math.inf
        return self.total


_STEP_UP = 1.0 + 2.0**-48  # covers the rounding of a step's differences and hypot
_MARGIN = 1e-9  # relative to 1 + |r| + d: covers the rounding of computed distances
_FAR = 1e150  # distance() cannot overflow below this; safe regions stay below it


class _DistAtom(_Atom):
    """``dist(feature, scene.X.position) op r``, arguments in that order.

    A safe region: an atom that computed distance ``d`` keeps its value
    until the feature's odometer has gone past a deadline, the odometer's
    total then plus ``|d - r|`` less a margin for rounding. Element
    positions never change, and the distance moves no more than the
    feature does, so until then it cannot have reached ``r``. A
    non-finite ``d``, or a slack within the margin, sets no deadline, and
    a region ends short of distances of ``_FAR``, where a computed
    distance could overflow to inf.
    """

    __slots__ = ("values", "feature", "element", "odometer", "margin", "deadline", "value")

    def __init__(self, op, const, values: dict, feature: FeatureId, element: SceneElement, odometer: Odometer):
        super().__init__(op, const)
        self.values = values
        self.feature = feature
        self.element = element
        self.odometer = odometer
        self.margin = _MARGIN * (1.0 + abs(const))
        self.deadline = -math.inf  # due: nothing cached
        self.value = False

    def evaluate(self) -> bool:
        try:
            a = self.values[self.feature]
        except KeyError:
            raise _unset(self.feature) from None
        odometer = self.odometer
        total = odometer.total if a is odometer.last else odometer.see(a)
        if total < self.deadline:
            return self.value
        b = self.element.position
        if type(a) is Vec3 and type(b) is Vec3:
            d = distance(a, b)
            r = self.const
            value = self.value = self.test(d, r)
            slack = min(abs(d - r), _FAR - d) - (self.margin + _MARGIN * d)
            self.deadline = math.nextafter(total + slack, -math.inf) if slack > 0.0 else -math.inf
            return value
        return self.slow(_dist(a, b))


class _Conjunction:
    """``&&`` over evaluators that return a bool or raise, so that no bool
    check is left to make."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self) -> bool:
        return self.left() & self.right()  # both sides, left first


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # 'error' | 'warning'
    message: str
    line: int
    source: str = "rules"  # 'rules' | 'workflow'
    # False for an error a library engine still runs with: it fails only
    # when a rule makes the write, as an ActionError
    blocks_engine: bool = True


def validate(rules: RuleSet, scene: SceneModel | None = None, workflow=None) -> list[Diagnostic]:
    """Cross-check a rule set (and optional workflow) against a scene.

    Errors block engine construction, but for a feature that set_feature
    constants write with two types (the CLI refuses that too); warnings
    (static write-write conflicts, unreachable workflow steps) do not.
    """
    diags: list[Diagnostic] = []

    if scene is not None:
        for cond in rules.conditions:
            for ref in cond.reads:
                if isinstance(ref, tuple) and not scene.has_element(ref[0]):
                    diags.append(
                        Diagnostic(
                            "error",
                            f"condition {cond.id!r} references unknown element {ref[0]!r}",
                            cond.line,
                        )
                    )
        for rule in rules.rules:
            for action in rule.actions:
                if action.element is not None and not scene.has_element(action.element):
                    diags.append(
                        Diagnostic(
                            "error",
                            f"rule {rule.id!r} targets unknown element {action.element!r}",
                            rule.line,
                        )
                    )

    writers: dict[tuple[str, str], list[RuleDef]] = {}
    # feature -> the type of the first constant set_feature writes to it, and
    # that rule: a constant of another type would fail when its rule executes
    feature_types: dict[FeatureId, tuple[str, RuleDef]] = {}
    for rule in rules.rules:
        targets = set()
        for action in rule.actions:
            prop = EFFECTOR_PROPERTY[action.effector]
            if prop is not None:
                targets.add((action.element, prop))
                continue
            kind = type_name(action.value)
            first_kind, first = feature_types.setdefault(action.feature, (kind, rule))
            if kind != first_kind:
                diags.append(
                    Diagnostic(
                        "error",
                        f"set_feature writes {action.feature} as {first_kind} in rule {first.id!r}"
                        f" and as {kind} in rule {rule.id!r}",
                        rule.line,
                        blocks_engine=False,
                    )
                )
        for key in sorted(targets):
            writers.setdefault(key, []).append(rule)
    # one warning per property: its writers in the order they execute
    # (ascending priority, then definition order), at the last definition
    for (elem, prop), rlist in sorted(writers.items()):
        if len(rlist) > 1:
            names = ", ".join(f"{r.id} (priority {r.priority})" for r in sorted(rlist, key=lambda r: r.priority))
            diags.append(Diagnostic("warning", f"write-write conflict on {elem}.{prop}: {names}", rlist[-1].line))

    if workflow is not None:
        diags.extend(_validate_workflow(rules, scene, workflow))
    return diags


def _validate_workflow(rules: RuleSet, scene: SceneModel | None, workflow) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for step in workflow.steps:
        cond_ids = []
        if step.completion is not None:
            cond_ids.append(step.completion)
        cond_ids.extend(g for g, _ in step.transitions if g is not None)
        for cid in cond_ids:
            if cid not in rules.condition_by_id:
                diags.append(
                    Diagnostic(
                        "error",
                        f"step {step.id!r} references unknown condition {cid!r}",
                        step.line,
                        source="workflow",
                    )
                )
        if scene is not None and step.target is not None and not scene.has_element(step.target):
            diags.append(
                Diagnostic(
                    "error",
                    f"step {step.id!r} targets unknown element {step.target!r}",
                    step.line,
                    source="workflow",
                )
            )
    if scene is not None and not scene.has_element(workflow.INSTRUCTION_ELEMENT):
        diags.append(
            Diagnostic(
                "error",
                f"workflow needs an {workflow.INSTRUCTION_ELEMENT!r} element in the scene",
                workflow.line,
                source="workflow",
            )
        )
    for step in workflow.unreachable_steps():
        diags.append(
            Diagnostic(
                "warning",
                f"step {step.id!r} is unreachable from the initial step",
                step.line,
                source="workflow",
            )
        )
    return diags


# ---------------------------------------------------------------------------
# pretty printing

def _prec(expr: Expr) -> int:
    if isinstance(expr, BoolOp):
        return 1 if expr.op == "||" else 2
    if isinstance(expr, Compare):
        return 3
    if isinstance(expr, Not):
        return 4
    return 5


def _render_literal(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return quote_text(value)
    if isinstance(value, Vec3):
        return f"({value.x!r},{value.y!r},{value.z!r})"
    raise TypeMismatch(f"cannot render {value!r}")


def render_expr(expr: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    mine = _prec(expr)
    if isinstance(expr, Lit):
        s = _render_literal(expr.value)
    elif isinstance(expr, FeatureRef):
        s = str(expr.feature)
    elif isinstance(expr, SceneRef):
        s = f"scene.{expr.element}.{expr.prop}"
    elif isinstance(expr, Dist):
        s = f"dist({render_expr(expr.a)}, {render_expr(expr.b)})"
    elif isinstance(expr, Not):
        s = "!" + render_expr(expr.operand, mine)
    elif isinstance(expr, Compare):
        # comparisons do not chain: parenthesize comparison operands
        s = f"{render_expr(expr.left, mine, True)} {expr.op} {render_expr(expr.right, mine, True)}"
    else:
        s = f"{render_expr(expr.left, mine)} {expr.op} {render_expr(expr.right, mine, True)}"
    if mine < parent_prec or (mine == parent_prec and right_side):
        return f"({s})"
    return s


def _render_action(action: ActionCall) -> str:
    e = action.effector
    if e == "clear_highlight":
        return f"clear_highlight({action.element})"
    if e == "set_feature":
        return f"set_feature({action.feature}, {_render_literal(action.value)})"
    if e == "set_detail":
        return f"set_detail({action.element}, {action.value.value})"
    if e == "set_modality":
        names = [m.value for m in (Modality.VISUAL, Modality.AUDIO, Modality.VOICE_INPUT) if m in action.value]
        return f"set_modality({action.element}, {', '.join(names)})"
    if e == "highlight":
        r, g, b = action.value
        return f"highlight({action.element}, ({r},{g},{b}))"
    return f"{e}({action.element}, {_render_literal(action.value)})"


def pretty_print(rules: RuleSet) -> str:
    """Canonical rendering; parse(pretty_print(r)) is structurally equal to r."""
    lines = [f"condition {c.id}: {render_expr(c.expr)}" for c in rules.conditions]
    if rules.conditions and rules.rules:
        lines.append("")
    for r in rules.rules:
        prio = f" priority {r.priority}" if r.priority != 0 else ""
        conds = ", ".join(r.conditions)
        acts = "; ".join(_render_action(a) for a in r.actions)
        lines.append(f"rule {r.id}{prio} when {conds} do {acts} category {r.category.value}")
    return "".join(line + "\n" for line in lines)
