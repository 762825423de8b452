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

Actions come from a closed effector vocabulary; ``set_feature`` writes a
context feature and is what lets one rule's effects trigger another rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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
)
from .scene import READABLE_PROPS, DetailLevel, Modality, SceneModel, distance
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

@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class FeatureRef:
    feature: FeatureId


@dataclass(frozen=True)
class SceneRef:
    element: str
    prop: str


@dataclass(frozen=True)
class Compare:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOp:
    op: str  # '&&' | '||'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class Dist:
    a: "Expr"
    b: "Expr"


Expr = Lit | FeatureRef | SceneRef | Compare | BoolOp | Not | Dist

_ORDERING_OPS = ("<", "<=", ">", ">=")
_COMPARE_OPS = _ORDERING_OPS + ("==", "!=")


def _parse_expr(cur: Cursor) -> Expr:
    return _parse_or(cur)


def _parse_or(cur: Cursor) -> Expr:
    left = _parse_and(cur)
    while cur.at_op("||"):
        cur.next()
        left = BoolOp("||", left, _parse_and(cur))
    return left


def _parse_and(cur: Cursor) -> Expr:
    left = _parse_cmp(cur)
    while cur.at_op("&&"):
        cur.next()
        left = BoolOp("&&", left, _parse_cmp(cur))
    return left


def _parse_cmp(cur: Cursor) -> Expr:
    left = _parse_unary(cur)
    tok = cur.peek()
    if tok is not None and tok[OP] in _COMPARE_OPS:
        cur.next()
        right = _parse_unary(cur)
        return Compare(tok[OP], left, right)
    return left


def _parse_unary(cur: Cursor) -> Expr:
    if cur.at_op("!"):
        cur.next()
        return Not(_parse_unary(cur))
    return _parse_primary(cur)


def _parse_primary(cur: Cursor) -> Expr:
    value = cur.literal()
    if value is not None:
        return Lit(Vec3(*value) if isinstance(value, tuple) else value)
    tok = cur.next()
    if tok[OP] == "(":
        inner = _parse_expr(cur)
        cur.expect_op(")")
        return inner
    text = tok[REF]
    if text:
        parts = text.split(".")
        if text == "dist":
            cur.expect_op("(")
            a = _parse_expr(cur)
            cur.expect_op(",")
            b = _parse_expr(cur)
            cur.expect_op(")")
            return Dist(a, b)
        if len(parts) == 2 and parts[0] in ("env", "user", "platform"):
            try:
                return FeatureRef(FeatureId.parse(text))
            except ValueError as e:
                raise DslSyntaxError(cur.lineno, str(e)) from None
        if len(parts) == 3 and parts[0] == "scene":
            if parts[2] not in READABLE_PROPS:
                raise ExprTypeError(
                    cur.lineno, f"scene property {parts[2]!r} is not readable in expressions"
                )
            return SceneRef(parts[1], parts[2])
        raise DslSyntaxError(cur.lineno, f"unexpected identifier {text!r} in expression")
    raise DslSyntaxError(cur.lineno, f"unexpected token {text_of(tok)!r}")


# ---------------------------------------------------------------------------
# static typing (partial: feature types are unknown until runtime) and read sets

def _static_type(expr: Expr, lineno: int) -> str | None:
    if isinstance(expr, Lit):
        return type_name(expr.value)
    if isinstance(expr, FeatureRef):
        return None
    if isinstance(expr, SceneRef):
        return READABLE_PROPS[expr.prop]
    if isinstance(expr, Dist):
        for side in (expr.a, expr.b):
            t = _static_type(side, lineno)
            if t not in (None, "vec3"):
                raise ExprTypeError(lineno, f"dist() needs two vec3 arguments, got {t}")
        return "float"
    if isinstance(expr, Compare):
        lt = _static_type(expr.left, lineno)
        rt = _static_type(expr.right, lineno)
        if lt is not None and rt is not None and lt != rt:
            raise ExprTypeError(lineno, f"cannot compare {lt} with {rt}")
        if expr.op in _ORDERING_OPS:
            for t in (lt, rt):
                if t not in (None, "int", "float"):
                    raise ExprTypeError(lineno, f"ordering comparison needs numbers, got {t}")
        return "bool"
    if isinstance(expr, BoolOp):
        for side in (expr.left, expr.right):
            t = _static_type(side, lineno)
            if t not in (None, "bool"):
                raise ExprTypeError(lineno, f"{expr.op} needs bool operands, got {t}")
        return "bool"
    if isinstance(expr, Not):
        t = _static_type(expr.operand, lineno)
        if t not in (None, "bool"):
            raise ExprTypeError(lineno, f"! needs a bool operand, got {t}")
        return "bool"
    raise AssertionError(f"unhandled expr node {expr!r}")


def expr_inputs(expr: Expr):
    """Yield every input an expression reads, in reading order and with
    repeats: a FeatureId per feature reference and an (element, property)
    pair per scene reference."""
    if isinstance(expr, FeatureRef):
        yield expr.feature
    elif isinstance(expr, SceneRef):
        yield (expr.element, expr.prop)
    elif isinstance(expr, (Compare, BoolOp)):
        yield from expr_inputs(expr.left)
        yield from expr_inputs(expr.right)
    elif isinstance(expr, Not):
        yield from expr_inputs(expr.operand)
    elif isinstance(expr, Dist):
        yield from expr_inputs(expr.a)
        yield from expr_inputs(expr.b)


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
            expr = _parse_expr(cur)
            cur.expect_end("after expression")
            if _static_type(expr, lineno) not in (None, "bool"):
                raise ExprTypeError(lineno, f"condition {cid!r} must evaluate to bool")
            if cid in cond_ids:
                raise DuplicateId(lineno, f"duplicate condition id {cid!r}")
            cond_ids[cid] = lineno
            conditions.append(ConditionDef(cid, expr, line=lineno))
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
    """Pure evaluation; raises UnknownFeature/UnknownElement/TypeMismatch."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, FeatureRef):
        return store.get_feature(expr.feature)
    if isinstance(expr, SceneRef):
        return scene.get_property(expr.element, expr.prop)
    if isinstance(expr, Dist):
        a = eval_expr(expr.a, store, scene)
        b = eval_expr(expr.b, store, scene)
        if not isinstance(a, Vec3) or not isinstance(b, Vec3):
            raise TypeMismatch("dist() needs two vec3 values")
        return distance(a, b)
    if isinstance(expr, Compare):
        left = eval_expr(expr.left, store, scene)
        right = eval_expr(expr.right, store, scene)
        lt, rt = type_name(left), type_name(right)
        if lt != rt:
            raise TypeMismatch(f"cannot compare {lt} with {rt}")
        if expr.op == "==":
            return values_equal(left, right)
        if expr.op == "!=":
            return not values_equal(left, right)
        if lt not in ("int", "float"):
            raise TypeMismatch(f"ordering comparison needs numbers, got {lt}")
        if expr.op == "<":
            return left < right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">":
            return left > right
        return left >= right
    if isinstance(expr, BoolOp):
        left = eval_expr(expr.left, store, scene)
        right = eval_expr(expr.right, store, scene)
        if not isinstance(left, bool) or not isinstance(right, bool):
            raise TypeMismatch(f"{expr.op} needs bool operands")
        return (left and right) if expr.op == "&&" else (left or right)
    if isinstance(expr, Not):
        v = eval_expr(expr.operand, store, scene)
        if not isinstance(v, bool):
            raise TypeMismatch("! needs a bool operand")
        return not v
    raise AssertionError(f"unhandled expr node {expr!r}")


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # 'error' | 'warning'
    message: str
    line: int
    source: str = "rules"  # 'rules' | 'workflow'


def validate(rules: RuleSet, scene: SceneModel | None = None, workflow=None) -> list[Diagnostic]:
    """Cross-check a rule set (and optional workflow) against a scene.

    Errors block engine construction; warnings (static write-write
    conflicts, unreachable workflow steps) do not.
    """
    diags: list[Diagnostic] = []

    if scene is not None:
        for cond in rules.conditions:
            for ref in expr_inputs(cond.expr):
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
    for rule in rules.rules:
        targets = set()
        for action in rule.actions:
            prop = EFFECTOR_PROPERTY[action.effector]
            if prop is not None:
                targets.add((action.element, prop))
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
