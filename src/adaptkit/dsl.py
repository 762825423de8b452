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
``||`` binds loosest, then ``&&``, then the comparisons, which do not
chain (_PREC: the parser climbs it, render_expr reads it). Expressions
nest at most MAX_DEPTH deep and MAX_HEIGHT high. The parser makes one
leaf per distinct token text and types each node as it builds it, so a
condition's static type, reads and type errors come from its one parse
(``check_expr`` types a built tree by parsing its printed text);
``compile_expr`` is how an expression is evaluated: it turns every node
into a closure, once, and a comparison of a source with a number into an
atom, and lists what each operand reads.

Actions come from a closed effector vocabulary; ``set_feature`` writes a
context feature and is what lets one rule's effects trigger another rule.
Each distinct effector and argument text is bound once per parse: equal
constants written alike share one object (_read_actions).

Every line is read by token position: a line's heads, its expression and
its actions each take the line's tokens and an index, and the expression
and action readers return the index after what they read.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from ._lexer import expect, expect_end, ident, kind, lines, literal, tokenize
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
from .scene import DETAIL_LEVELS, MODALITIES, READABLE_PROPS, WRITABLE, SceneElement, SceneModel, distance
from .values import Value, Vec3, quote_text, type_name, values_equal


class AdaptationCategory(enum.Enum):
    STYLE = "Style"
    MODALITY = "Modality"
    SERVICE = "Service"
    CONTENT_PRESENTATION = "ContentPresentation"
    REAL_WORLD = "RealWorld"
    VIRTUAL_WORLD = "VirtualWorld"


_CATEGORIES = {c.value: c for c in AdaptationCategory}  # each by its name in a rules file


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

# the binary operators by precedence, for parsing and printing: a higher one
# binds tighter, and a comparison's operands are no binary nodes
_PREC = {"||": 1, "&&": 2, **dict.fromkeys(_ORDERING_OPS + ("==", "!="), 3)}

# How deep an expression may nest. The parser takes up to four frames per
# parenthesis or 'dist(' around a part and one per '!', and each walk over
# the tree (_build, render_expr) one per level of its height, so these keep
# all of them well inside the interpreter's default limit of 1000 frames.
MAX_DEPTH = 100  # parentheses, '!' and 'dist(' around any part
MAX_HEIGHT = 300  # the tree's height; a '&&' or '||' chain is one level per operator


def _nested(lineno: int, level: int, limit: int = MAX_DEPTH) -> int:
    if level > limit:
        raise DslSyntaxError(lineno, f"expression nested deeper than {limit} levels")
    return level


def _higher(lineno: int, *heights: int) -> int:
    """The height of a node over subtrees of these heights."""
    return _nested(lineno, max(heights) + 1, MAX_HEIGHT)


def _want(errors: list, t: str | None, want: str, message: str) -> None:
    """Record ``message`` unless an operand of static type ``t`` may be a ``want``."""
    if t is not None and t != want:
        errors.append(f"{message}, got {t}")


# The parser types what it builds. Each parse function reads a line's
# ``tokens`` from index ``i`` on, and takes the line's number, ``leaves``
# (see _leaf), lists to append the expression's reads and type errors to, in
# reading order, and the nesting ``depth`` around it. It returns the
# expression, its height (0 for a leaf), its static type, None where only
# the run-time value tells, and the index after the expression.

def _parse_expr(tokens: list, i: int, lineno: int, leaves: dict, reads: list, errors: list, depth: int = 0,
                lowest: int = 1) -> tuple[Expr, int, str | None, int]:
    """An expression of binary operators of precedence ``lowest`` or more,
    by precedence climbing: ``&&`` and ``||`` group to the left, and a
    comparison takes no comparison as its operand."""
    left, height, lt, i = _parse_operand(tokens, i, lineno, leaves, reads, errors, depth)
    highest = 3
    n = len(tokens)
    while i < n:
        op = tokens[i]
        prec = _PREC.get(op, 0)
        if prec < lowest or prec > highest:
            break
        if prec == 3:
            right, rh, rt, i = _parse_operand(tokens, i + 1, lineno, leaves, reads, errors, depth)
            left = Compare(op, left, right)
            if lt is not None and rt is not None and lt != rt:
                errors.append(f"cannot compare {lt} with {rt}")
            if op in _ORDERING_OPS:
                for t in (lt, rt):
                    if t not in (None, "int", "float"):
                        errors.append(f"ordering comparison needs numbers, got {t}")
        else:
            _want(errors, lt, "bool", f"{op} needs bool operands")
            right, rh, rt, i = _parse_expr(tokens, i + 1, lineno, leaves, reads, errors, depth, prec + 1)
            _want(errors, rt, "bool", f"{op} needs bool operands")
            left = BoolOp(op, left, right)
        height = _higher(lineno, height, rh)
        lt = "bool"
        highest = min(prec, 2)  # no comparison follows, nor anything tighter than this node
    return left, height, lt, i


def _parse_operand(tokens: list, i: int, lineno: int, leaves: dict, reads: list, errors: list,
                   depth: int) -> tuple[Expr, int, str | None, int]:
    """A leaf, ``dist(a, b)``, or an expression in parentheses or after ``!``."""
    if i >= len(tokens):
        raise DslSyntaxError(lineno, "unexpected end of line")
    tok = tokens[i]
    hit = leaves.get(tok)
    if hit is None:
        if tok == "!":
            operand, height, t, i = _parse_operand(tokens, i + 1, lineno, leaves, reads, errors,
                                                   _nested(lineno, depth + 1))
            _want(errors, t, "bool", "! needs a bool operand")
            return Not(operand), _higher(lineno, height), "bool", i
        if tok == "(":
            inner, height, t, i = _parse_expr(tokens, i + 1, lineno, leaves, reads, errors, _nested(lineno, depth + 1))
            return inner, height, t, expect(tokens, i, lineno, ")")
        if tok == "dist":
            i = expect(tokens, i + 1, lineno, "(")
            a, ah, t, i = _parse_expr(tokens, i, lineno, leaves, reads, errors, _nested(lineno, depth + 1))
            _want(errors, t, "vec3", "dist() needs two vec3 arguments")
            i = expect(tokens, i, lineno, ",")
            b, bh, t, i = _parse_expr(tokens, i, lineno, leaves, reads, errors, depth + 1)
            _want(errors, t, "vec3", "dist() needs two vec3 arguments")
            i = expect(tokens, i, lineno, ")")
            return Dist(a, b), _higher(lineno, ah, bh), "float", i
        hit = _leaf(tok, leaves, lineno)
    node, t, read = hit
    if read is not None:
        reads.append(read)
    return node, 0, t, i + 1


def _leaf(tok: str, leaves: dict, lineno: int) -> tuple:
    """What a token makes, as ``leaves`` keeps it: its leaf, a literal or a
    reference, the leaf's static type, and what it reads (None for a
    literal)."""
    value = literal(tok, lineno)
    parts = tok.split(".")
    if value is not None:
        leaf = Lit(Vec3(*value) if type(value) is tuple else value)
        hit = leaf, type_name(leaf.value), None
    elif kind(tok) != "ref":
        raise DslSyntaxError(lineno, f"unexpected token {tok!r}")
    elif len(parts) == 2 and parts[0] in ("env", "user", "platform"):
        try:
            feature = FeatureId.parse(tok)
        except ValueError as e:
            raise DslSyntaxError(lineno, str(e)) from None
        hit = FeatureRef(feature), None, feature
    elif len(parts) == 3 and parts[0] == "scene" and parts[2] in READABLE_PROPS:
        hit = SceneRef(parts[1], parts[2]), READABLE_PROPS[parts[2]], (parts[1], parts[2])
    elif len(parts) == 3 and parts[0] == "scene":
        raise ExprTypeError(lineno, f"scene property {parts[2]!r} is not readable in expressions")
    else:
        raise DslSyntaxError(lineno, f"unexpected identifier {tok!r} in expression")
    leaves[tok] = hit
    return hit


# ---------------------------------------------------------------------------
# actions

class ActionCall(NamedTuple):
    """A bound effector invocation.

    ``element`` is set for scene effectors, ``feature`` for set_feature;
    ``value`` is the payload (None for clear_highlight). The action reader
    builds it with ``tuple.__new__``, which skips the generated ``__new__``.
    """

    effector: str
    element: str | None = None
    feature: FeatureId | None = None
    value: object = None


_tuple_new = tuple.__new__


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


def _action_arg(tok: str, lineno: int, leaves: dict):
    """What an action argument's token reads as: a bare identifier (an
    element id or an enum name) as its text; a literal as its value, but a
    vector as a tuple, so highlight can insist on ints, and a text as a Lit,
    so it is no bare identifier; or a feature id as a FeatureRef (a bare
    FeatureId is a str, which a text check would take)."""
    value = literal(tok, lineno)
    if value is not None:
        return Lit(value) if type(value) is str else value
    if tok.isidentifier():
        return tok
    parts = tok.split(".")
    if len(parts) == 2 and parts[0] in ("env", "user", "platform"):
        return (leaves.get(tok) or _leaf(tok, leaves, lineno))[0]
    raise DslSyntaxError(lineno, f"unexpected action argument {tok!r}")


def _need_element(arg, lineno: int) -> str:
    if type(arg) is str:
        return arg
    raise ExprTypeError(lineno, "expected an element id")


def _bind_action(effector: str, args: list, lineno: int) -> ActionCall:
    """Bind an effector's arguments, as _action_arg reads them. A
    scene effector's constant is what the property's WRITABLE check
    accepts, as it returns it; set_detail and set_modality map names to
    their enums."""
    if effector == "set_modality":
        if len(args) < 2:
            raise ExprTypeError(lineno, "set_modality needs an element and at least one modality")
        elem = _need_element(args[0], lineno)
        mods = set()
        for a in args[1:]:
            if type(a) is not str:
                raise ExprTypeError(lineno, "set_modality arguments must be modality names")
            if a not in MODALITIES:
                raise ExprTypeError(lineno, f"unknown modality {a!r}")
            mods.add(MODALITIES[a])
        return ActionCall(effector, element=elem, value=frozenset(mods))
    n = 1 if effector == "clear_highlight" else 2
    if len(args) != n:
        raise ExprTypeError(lineno, f"{effector} takes {n} argument(s), got {len(args)}")
    if effector == "set_feature":
        if type(args[0]) is not FeatureRef:
            raise ExprTypeError(lineno, "set_feature needs a feature id")
        v = args[1]
        if type(v) is tuple:
            v = Vec3(*v)
        elif type(v) is Lit:
            v = v.value
        elif type(v) is str or type(v) is FeatureRef:
            raise ExprTypeError(lineno, "set_feature needs a literal value")
        return ActionCall(effector, feature=args[0].feature, value=v)
    elem = _need_element(args[0], lineno)
    v = args[1] if n == 2 else None
    if effector == "set_detail":
        if type(v) is not str:
            raise ExprTypeError(lineno, "set_detail needs full or reduced")
        if v not in DETAIL_LEVELS:
            raise ExprTypeError(lineno, f"unknown detail level {v!r}")
        return ActionCall(effector, element=elem, value=DETAIL_LEVELS[v])
    if type(v) is Lit:
        v = v.value
    elif type(v) is str:
        v = object()  # a bare identifier is no value, and no check takes this
    try:
        value = WRITABLE[EFFECTOR_PROPERTY[effector]].check(v)
    except TypeMismatch as e:
        raise ExprTypeError(lineno, f"{effector}: {e}") from None
    return ActionCall(effector, element=elem, value=value)


def _read_actions(tokens: list, i: int, lineno: int, leaves: dict, bound: dict) -> tuple[list, int]:
    """The actions ``name ( arg {, arg} ) {; ...}`` from ``tokens[i]`` on, an
    argument a token, read by position, and the index after them. ``bound``
    maps an effector and its texts after the element (all of set_feature's)
    to their binding, so a repeated constant is read and checked once per
    parse. An action it lacks, or whose element is no bare identifier, reads
    each argument, then its ``)``, then binds, raising in that order."""
    n = len(tokens)
    actions = []
    while True:
        if i >= n:
            raise DslSyntaxError(lineno, "unexpected end of line")
        name = tokens[i]
        if name not in EFFECTOR_PROPERTY:
            if not name.isidentifier():
                raise DslSyntaxError(lineno, f"expected an effector name, got {name!r}")
            raise UnknownEffector(lineno, f"unknown effector {name!r}")
        paren = tokens[i + 1] if i + 1 < n else None
        if paren != "(":
            raise DslSyntaxError(lineno, f"expected '(', got {paren!r}" if paren else "unexpected end of line")
        first = end = i + 2  # the element, set_feature's feature, or ')'; end: where ')' belongs
        if end >= n or tokens[end] != ")":
            end += 1
            while end < n and tokens[end] == ",":
                end += 2
        closed = end < n and tokens[end] == ")"
        key = (name, *tokens[first if name == "set_feature" else first + 1:end])
        action = bound.get(key) if closed else None
        if action is not None and name != "set_feature":
            elem = tokens[first]  # ')' if there is no argument, and no action in bound has none
            bare = elem.isidentifier() and elem != "true" and elem != "false"
            action = _tuple_new(ActionCall, (name, elem, None, action[3])) if bare else None
        if action is None:
            args = [_action_arg(tok, lineno, leaves) for tok in tokens[first:end:2]]
            if not closed:
                raise DslSyntaxError(lineno, f"expected ')', got {tokens[end]!r}" if end < n else "unexpected end of line")
            action = bound[key] = _bind_action(name, args, lineno)
        actions.append(action)
        i = end + 1
        if i >= n or tokens[i] != ";":
            return actions, i
        i += 1


# ---------------------------------------------------------------------------
# rule set

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
    leaves: dict[str, tuple] = {}  # token text -> its leaf, one per distinct text (_leaf)
    bound: dict[tuple, ActionCall] = {}  # an action's constant texts -> its binding (_read_actions)

    for lineno, tokens in lines(text):
        head = tokens[0]
        if head == "condition":
            cid = ident(tokens, 1, lineno, "a condition id")
            reads, errors = [], []
            expr, _, expr_type, i = _parse_expr(tokens, expect(tokens, 2, lineno, ":"), lineno, leaves, reads, errors)
            expect_end(tokens, i, lineno, "after expression")
            if errors:
                raise ExprTypeError(lineno, errors[0])
            if expr_type not in (None, "bool"):
                raise ExprTypeError(lineno, f"condition {cid!r} must evaluate to bool")
            if cid in cond_ids:
                raise DuplicateId(lineno, f"duplicate condition id {cid!r}")
            cond_ids[cid] = lineno
            conditions.append(ConditionDef(cid, expr, line=lineno, reads=tuple(reads)))
        elif head == "rule":
            rid = ident(tokens, 1, lineno, "a rule id")
            n = len(tokens)
            i = 2
            priority = 0
            if i < n and tokens[i] == "priority":
                priority = literal(tokens[i + 1], lineno) if i + 1 < n else None
                if type(priority) is not int:
                    raise DslSyntaxError(lineno, "priority needs an integer")
                i += 2
            if i >= n or tokens[i] != "when":
                raise DslSyntaxError(lineno, "expected 'when'")
            cond_refs = [ident(tokens, i + 1, lineno, "a condition id")]
            i += 2
            while i < n and tokens[i] == ",":
                cond_refs.append(ident(tokens, i + 1, lineno, "a condition id"))
                i += 2
            if i >= n or tokens[i] != "do":
                raise DslSyntaxError(lineno, "expected 'do'")
            actions, i = _read_actions(tokens, i + 1, lineno, leaves, bound)
            if i >= n or tokens[i] != "category":
                raise DslSyntaxError(lineno, "expected 'category'")
            if i + 1 == n:
                raise DslSyntaxError(lineno, "unexpected end of line")
            name = tokens[i + 1]
            category = _CATEGORIES.get(name)
            if category is None:
                if kind(name) != "ref":
                    raise DslSyntaxError(lineno, "expected a category name")
                raise UnknownCategory(lineno, f"unknown category {name!r}")
            expect_end(tokens, i + 2, lineno, "after category")
            if rid in rule_ids:
                raise DuplicateId(lineno, f"duplicate rule id {rid!r}")
            rule_ids[rid] = lineno
            for ref in cond_refs:
                pending_refs.append((ref, lineno))
            rules.append(
                RuleDef(rid, priority, tuple(cond_refs), tuple(actions), category, line=lineno)
            )
        else:
            raise DslSyntaxError(lineno, f"expected 'condition' or 'rule', got {head!r}")

    for ref, rline in pending_refs:
        if ref not in cond_ids:
            raise UnknownConditionRef(rline, f"rule references unknown condition {ref!r}")
    return RuleSet(conditions, rules)


# ---------------------------------------------------------------------------
# evaluation: what each operator does with its evaluated operands

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


# ---------------------------------------------------------------------------
# static typing

def check_expr(expr: Expr) -> tuple[str | None, list, str | None]:
    """An expression's static type (None where only the run-time value
    tells), its reads (a FeatureId per feature reference and an (element,
    property) pair per scene reference, in reading order, with repeats) and
    its first type error or None, as the parser finds them in its printed
    text (render_expr). So a tree no rules file can hold, such as one with a
    non-finite Lit, raises what parsing that text raises."""
    reads, errors = [], []
    tokens = tokenize(render_expr(expr), 0)
    _, _, expr_type, i = _parse_expr(tokens, 0, 0, {}, reads, errors)
    expect_end(tokens, i, 0, "after expression")
    return expr_type, reads, errors[0] if errors else None


# ---------------------------------------------------------------------------
# compilation

class Operand(NamedTuple):
    """An operand of a compiled expression: what makes it due. Writes to its
    keys do, and a write to a gate's feature does once that dist() atom is
    past its deadline (_DistAtom); other writes cannot change its value."""

    keys: tuple  # check_expr's reads of it, once each, less its gates' features
    gates: tuple["_DistAtom", ...]  # its dist() atoms on features it reads only through them


_ONE_OPERAND = (None,)  # the first_false of every one-operand expression: it has no false operand to keep


class Compiled(NamedTuple):
    """An expression compiled against a store and a scene."""

    evaluate: Callable[[], Value]  # the expression's value now; raises what evaluating it raises
    # the operands of the && chain at its top, left to right, or the
    # expression alone, and where the index of the first that returned false
    # is kept: a chain's own one-item list, which evaluate writes (None if
    # none did, or before the first evaluation), or _ONE_OPERAND for one
    operands: tuple[Operand, ...]
    first_false: list | tuple


def compile_expr(
    expr: Expr,
    store: ContextStore,
    scene: SceneModel,
    odometers: dict[FeatureId, "Odometer"] | None = None,
) -> Compiled:
    """Compile an expression against a store and a scene.

    ``evaluate`` reads the store and the scene as they are when called. It
    returns the expression's value, or raises the first error evaluating
    it meets: every operand of a node is evaluated, left first, before the
    node checks their types, so an operand's error comes before the node's
    own TypeMismatch. ``source op constant``, with an ordering op, an int
    or float constant, and a feature, a scene property or
    ``dist(feature, scene.X.position)`` as the source, is one atom that
    compares a value of the constant's type in place, its element bound
    (an element missing when compiling is looked up on each call, like any
    scene reference); a top-level ``&&`` chain between comparisons and
    connectives skips its bool checks. Every node is compiled once; none is
    walked again when evaluating.

    A dist() atom keeps its value for as long as the feature it reads
    cannot have crossed the constant (see _DistAtom); ``odometers`` holds
    the feature -> Odometer map its atoms share, and gains one for each
    feature not yet in it.

    Returns ``Compiled(evaluate, operands, first_false)``. The operands are
    those of the chain of ``&&`` nodes that compile at the top
    (_conjuncts), or the expression alone, each as an Operand: a feature
    it reads only through dist() atoms is gated by them, and every other
    input is a key. A chain's ``evaluate`` keeps the index of its first
    operand that returned false in ``first_false[0]``, a list of its own;
    one operand's ``first_false`` is the shared, immutable ``(None,)``.
    """
    if odometers is None:
        odometers = {}
    parts = []
    operands = []
    for node in _conjuncts(expr):
        atoms: list[_DistAtom] = []
        reads: list = []
        parts.append(_build(node, store, scene, odometers, atoms, reads))
        if atoms:
            features = [a.feature for a in atoms]
            gated = {f for f in features if reads.count(f) == features.count(f)}
            reads = [r for r in reads if r not in gated]
            atoms = [a for a in atoms if a.feature in gated]
        operands.append(Operand(tuple(dict.fromkeys(reads)), tuple(atoms)))
    first_false = [None] if len(parts) > 1 else _ONE_OPERAND
    evaluate = _chain(tuple(parts), first_false) if len(parts) > 1 else parts[0]
    return Compiled(evaluate, tuple(operands), first_false)


def _build(
    node: Expr, store: ContextStore, scene: SceneModel, odometers: dict, dist_atoms: list, reads: list
) -> Callable[[], Value]:
    """compile_expr's evaluator for ``node``; each dist() atom made is appended
    to ``dist_atoms``, and what the node reads to ``reads``, as check_expr
    lists it. A module function, not a closure that calls itself, so that
    compiling leaves no reference cycle for the collector."""
    if isinstance(node, Lit):
        value = node.value
        return lambda: value
    if isinstance(node, FeatureRef):
        reads.append(node.feature)
        return partial(store.get_feature, node.feature)
    if isinstance(node, SceneRef):
        reads.append((node.element, node.prop))
        return partial(scene.get_property, node.element, node.prop)  # finds an element added later
    if isinstance(node, Not):
        operand = _build(node.operand, store, scene, odometers, dist_atoms, reads)
        return lambda: _not(operand())
    if isinstance(node, Compare):
        atom = _atom(node, store, scene, odometers, reads)
        if atom is not None:
            if isinstance(atom, _DistAtom):
                dist_atoms.append(atom)
            return atom
    # two operands, both evaluated, left first, before the node checks them
    first, second = (node.a, node.b) if isinstance(node, Dist) else (node.left, node.right)
    left = _build(first, store, scene, odometers, dist_atoms, reads)
    right = _build(second, store, scene, odometers, dist_atoms, reads)
    if isinstance(node, Dist):
        return lambda: _dist(left(), right())
    op = node.op
    if isinstance(node, Compare):
        return lambda: _compare(op, left(), right())
    return lambda: _bool_op(op, left(), right())


def _chain(parts: tuple, first_false: list) -> Callable[[], bool]:
    """The evaluator of a compiled ``&&`` chain of ``parts``: it evaluates every
    operand, left first, as the nested ``&&`` nodes do, and keeps the index
    of the first that returned false in ``first_false[0]``, None if none
    did."""

    # bound as defaults, not closed over: one tuple where cells take an object each
    def evaluate(parts=parts, first_false=first_false) -> bool:
        false = None
        j = 0
        for part in parts:
            if not part() and false is None:
                false = j
            j += 1
        first_false[0] = false
        return false is None

    return evaluate


def _compiled_and(node: Expr) -> bool:
    """Whether compile_expr compiles ``node`` as an ``&&`` without bool checks:
    both its sides are nodes whose evaluators always return a bool or raise,
    by their class, as a scene reference's static type does not hold for a
    value assigned to its attribute directly."""
    return (isinstance(node, BoolOp) and node.op == "&&"
            and isinstance(node.left, (Compare, BoolOp, Not)) and isinstance(node.right, (Compare, BoolOp, Not)))


def _conjuncts(node: Expr) -> list[Expr]:
    """The operands of the compiled ``&&`` chain at the top of ``node``, left
    to right; ``[node]`` if it is no such ``&&``."""
    if _compiled_and(node):
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _atom(expr: Compare, store: ContextStore, scene: SceneModel, odometers: dict, reads: list) -> "_Atom | None":
    """``source op constant`` as one atom, for an ordering op, an int or float
    constant, and a source whose element, if it reads one, exists now; what
    an atom reads is appended to ``reads``."""
    if expr.op not in _ORDERING_OPS or not isinstance(expr.right, Lit):
        return None
    source, const = expr.left, expr.right.value
    if type(const) is not int and type(const) is not float:
        return None
    if isinstance(source, FeatureRef):
        reads.append(source.feature)
        return _FeatureAtom(expr.op, const, store, source.feature)
    if isinstance(source, SceneRef):
        if source.prop in READABLE_PROPS and source.prop != "position" and scene.has_element(source.element):
            reads.append((source.element, source.prop))
            return _SceneAtom(expr.op, const, scene.element(source.element), source.prop)
    elif (
        isinstance(source, Dist)
        and isinstance(source.a, FeatureRef)
        and isinstance(source.b, SceneRef)
        and source.b.prop == "position"
        and type(const) is float  # else the distance always meets a type error
        and scene.has_element(source.b.element)
    ):
        feature = source.a.feature
        odometer = odometers.get(feature)
        if odometer is None:
            odometer = odometers[feature] = Odometer()
        reads.append(feature)
        reads.append((source.b.element, "position"))
        return _DistAtom(expr.op, const, store, feature, scene.element(source.b.element), odometer)
    return None


class _Atom:
    """``source op constant``, the type check hoisted: a source value of the
    constant's exact type is compared in place, and any other goes through
    _compare. An atom is its own evaluator: calling it returns its value."""

    __slots__ = ("op", "test", "const", "kind")

    def __init__(self, op: str, const: int | float):
        self.op = op
        self.test = _TEST[op]
        self.const = const
        self.kind = type(const)

    def slow(self, value: Value) -> bool:
        return _compare(self.op, value, self.const)


class _FeatureAtom(_Atom):
    __slots__ = ("values", "store", "feature")

    def __init__(self, op, const, store: ContextStore, feature: FeatureId):
        super().__init__(op, const)
        self.values = store._values  # the store's own map
        self.store = store
        self.feature = feature

    def __call__(self) -> bool:
        try:
            value = self.values[self.feature]
        except KeyError:
            value = self.store.get_feature(self.feature)  # raises UnknownFeature
        if type(value) is self.kind:
            return self.test(value, self.const)
        return self.slow(value)


class _SceneAtom(_Atom):
    __slots__ = ("element", "attr")

    def __init__(self, op, const, element: SceneElement, prop: str):
        super().__init__(op, const)
        self.element = element
        self.attr = WRITABLE[prop].attr

    def __call__(self) -> bool:
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

    __slots__ = ("values", "store", "feature", "element", "odometer", "margin", "deadline", "value")

    def __init__(self, op, const, store: ContextStore, feature: FeatureId, element: SceneElement, odometer: Odometer):
        super().__init__(op, const)
        self.values = store._values
        self.store = store
        self.feature = feature
        self.element = element
        self.odometer = odometer
        self.margin = _MARGIN * (1.0 + abs(const))
        self.deadline = -math.inf  # due: nothing cached
        self.value = False

    def __call__(self) -> bool:
        try:
            a = self.values[self.feature]
        except KeyError:
            a = self.store.get_feature(self.feature)  # raises UnknownFeature
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


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # 'error' | 'warning'
    message: str
    line: int
    source: str = "rules"  # 'rules' | 'workflow'


def unresolved(rules: RuleSet, scene: SceneModel | None, workflow=None) -> list[Diagnostic]:
    """An error for each element and condition the rules or the workflow
    name that does not exist, and for a workflow without its instruction
    element: the rules' errors, then the workflow's. Elements are checked
    only with a scene. This is the one check an Engine makes."""
    diags: list[Diagnostic] = []
    if scene is not None:
        for cond in rules.conditions:
            for ref in cond.reads:
                if isinstance(ref, tuple) and not scene.has_element(ref[0]):
                    diags.append(Diagnostic(
                        "error", f"condition {cond.id!r} references unknown element {ref[0]!r}", cond.line))
        for rule in rules.rules:
            for action in rule.actions:
                if action.element is not None and not scene.has_element(action.element):
                    diags.append(Diagnostic(
                        "error", f"rule {rule.id!r} targets unknown element {action.element!r}", rule.line))
    if workflow is None:
        return diags
    for step in workflow.steps:
        cond_ids = []
        if step.completion is not None:
            cond_ids.append(step.completion)
        cond_ids.extend(g for g, _ in step.transitions if g is not None)
        for cid in cond_ids:
            if cid not in rules.condition_by_id:
                diags.append(Diagnostic(
                    "error", f"step {step.id!r} references unknown condition {cid!r}", step.line, "workflow"))
        if scene is not None and step.target is not None and not scene.has_element(step.target):
            diags.append(Diagnostic(
                "error", f"step {step.id!r} targets unknown element {step.target!r}", step.line, "workflow"))
    if scene is not None and not scene.has_element(workflow.INSTRUCTION_ELEMENT):
        diags.append(Diagnostic(
            "error", f"workflow needs an {workflow.INSTRUCTION_ELEMENT!r} element in the scene", workflow.line,
            "workflow"))
    return diags


def validate(rules: RuleSet, scene: SceneModel | None = None, workflow=None) -> list[Diagnostic]:
    """Cross-check a rule set (and optional workflow) against a scene.

    Only unresolved()'s errors block an engine; a feature that set_feature
    constants write with two types is an error only here. Warnings (static
    write-write conflicts, unreachable workflow steps) block nothing.
    """
    found = unresolved(rules, scene, workflow)
    diags = [d for d in found if d.source == "rules"]

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
                diags.append(Diagnostic("error", f"set_feature writes {action.feature} as {first_kind} in rule"
                                                 f" {first.id!r} and as {kind} in rule {rule.id!r}", rule.line))
        for key in sorted(targets):
            writers.setdefault(key, []).append(rule)
    # one warning per property: its writers in the order they execute
    # (ascending priority, then definition order), at the last definition
    for (elem, prop), rlist in sorted(writers.items()):
        if len(rlist) > 1:
            names = ", ".join(f"{r.id} (priority {r.priority})" for r in sorted(rlist, key=lambda r: r.priority))
            diags.append(Diagnostic("warning", f"write-write conflict on {elem}.{prop}: {names}", rlist[-1].line))

    diags.extend(d for d in found if d.source == "workflow")
    if workflow is not None:
        for step in workflow.unreachable_steps():
            diags.append(Diagnostic(
                "warning", f"step {step.id!r} is unreachable from the initial step", step.line, "workflow"))
    return diags


# ---------------------------------------------------------------------------
# pretty printing

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
    """``expr`` as the parser reads it back. Only a binary node is ever
    parenthesized: under ``!`` or a tighter operator (_PREC), and as the
    right operand of an equal one or either operand of a comparison."""
    if isinstance(expr, Lit):
        return _render_literal(expr.value)
    if isinstance(expr, FeatureRef):
        return str(expr.feature)
    if isinstance(expr, SceneRef):
        return f"scene.{expr.element}.{expr.prop}"
    if isinstance(expr, Dist):
        return f"dist({render_expr(expr.a)}, {render_expr(expr.b)})"
    if isinstance(expr, Not):
        return "!" + render_expr(expr.operand, 4)
    mine = _PREC[expr.op]
    # comparisons do not chain: a comparison's left operand is parenthesized too
    s = f"{render_expr(expr.left, mine, mine == 3)} {expr.op} {render_expr(expr.right, mine, True)}"
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
        names = [name for name, m in MODALITIES.items() if m in action.value]
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
