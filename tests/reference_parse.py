"""The reference lexer and expression parser: the seven-group tokenizer and
the three-level recursive descent that ``adaptkit`` used before its lexer
made a token its text and its parser climbed one precedence table.

``tokenize`` reads a line with one named group per token kind, so every
token is a 7-tuple of strings, all empty but its own kind's text. The
parser has one function per precedence level, ``||`` over ``&&`` over a
comparison, each looping over its own operators, and a comparison takes
one operand on each side, so comparisons do not chain. Both raise the
errors the package raises, with the same messages and line numbers, and
the parser builds the package's expression nodes (``adaptkit.dsl``'s
``Lit`` ... ``Dist``), so test_parse.py compares the two sides whole.

``parse_actions_line`` reads a rule line's actions as ``parse_rules`` did
before its action reader worked by token position: a cursor call per
token, ``_parse_one_action`` per action and ``_parse_action_arg`` per
argument, each argument bound afresh by ``adaptkit.dsl._bind_action``. It
reads the seven-group tokens with this module's own cursor.
"""

from __future__ import annotations

import math
import re

from adaptkit.context import FeatureId
from adaptkit.dsl import (
    _CATEGORIES,
    EFFECTOR_PROPERTY,
    MAX_DEPTH,
    MAX_HEIGHT,
    ActionCall,
    BoolOp,
    Compare,
    Dist,
    FeatureRef,
    Lit,
    Not,
    SceneRef,
    _bind_action,
)
from adaptkit.errors import DslSyntaxError, ExprTypeError, UnknownCategory, UnknownEffector
from adaptkit.scene import READABLE_PROPS
from adaptkit.values import Vec3

_NUM = r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_TOKEN_RE = re.compile(
    rf"""
    \s*
    (?:
      (?P<ref>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
    | (?P<num>{_NUM})
    | (?P<vec>\(\s*{_NUM}\s*,\s*{_NUM}\s*,\s*{_NUM}\s*\))
    | (?P<op><=|>=|==|!=|&&|\|\||[<>!(),:;=])
    | (?P<str>"(?:\\["\\]|[^"\\\r\n])*")
    | (?P<comment>\#.*)
    | (?P<bad>(?s:\S.*))
    )
    """,
    re.VERBOSE | re.ASCII,
)

KINDS = ("ref", "num", "vec", "op", "str", "comment", "bad")
REF, NUM, VEC, OP, STR, COMMENT, BAD = range(7)

_ORDERING_OPS = ("<", "<=", ">", ">=")
_COMPARE_OPS = _ORDERING_OPS + ("==", "!=")


def tokenize(text: str, lineno: int) -> list[tuple[str, ...]]:
    """The tokens of ``text`` as 7-tuples, a trailing comment included."""
    tokens = _TOKEN_RE.findall(text)
    if tokens and tokens[-1][BAD]:
        char = tokens[-1][BAD][0]
        if char == '"':
            raise DslSyntaxError(lineno, "unterminated string, or an escape other than \\\" and \\\\")
        raise DslSyntaxError(lineno, f"unexpected character {char!r}")
    return tokens


def text_of(tok: tuple[str, ...]) -> str:
    return "".join(tok)


def kind_of(tok: tuple[str, ...]) -> str:
    """The kind whose group holds the token's text."""
    return next(kind for kind, text in zip(KINDS, tok) if text)


def _number(text: str, lineno: int) -> int | float:
    value = float(text)
    if not math.isfinite(value):
        raise DslSyntaxError(lineno, f"number out of range: {text.strip()}")
    if "." in text or "e" in text or "E" in text:
        return value
    return int(text)


def _literal(tok: tuple[str, ...], lineno: int):
    if tok[NUM]:
        return _number(tok[NUM], lineno)
    if tok[VEC]:
        x, y, z = tok[VEC][1:-1].split(",")
        return (_number(x, lineno), _number(y, lineno), _number(z, lineno))
    if tok[STR]:
        return tok[STR][1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if tok[REF] == "true" or tok[REF] == "false":
        return tok[REF] == "true"
    return None


class _Cursor:
    def __init__(self, tokens: list[tuple[str, ...]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise DslSyntaxError(self.lineno, "unexpected end of line")
        self.i += 1
        return self.tokens[self.i - 1]

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[OP] == text

    def expect_op(self, text: str) -> None:
        tok = self.next()
        if tok[OP] != text:
            raise DslSyntaxError(self.lineno, f"expected {text!r}, got {text_of(tok)!r}")

    def ident(self, what: str) -> str:
        """An identifier without dots; ``what`` names it in the error."""
        tok = self.next()
        if not tok[REF] or "." in tok[REF]:
            raise DslSyntaxError(self.lineno, f"expected {what}, got {text_of(tok)!r}")
        return tok[REF]

    def expect_end(self, where: str) -> None:
        tok = self.peek()
        if tok is not None:
            raise DslSyntaxError(self.lineno, f"trailing input {where}: {text_of(tok)!r}")

    def literal(self):
        tok = self.peek()
        value = _literal(tok, self.lineno) if tok is not None else None
        if value is not None:
            self.i += 1
        return value


def parse_expr_line(text: str, lineno: int = 1) -> tuple[object, int]:
    """The expression a line holds, with its height, as the package's
    parser reads ``condition c: <text>`` after the colon."""
    tokens = tokenize(text, lineno)
    if tokens and tokens[-1][COMMENT]:
        tokens.pop()
    cur = _Cursor(tokens, lineno)
    result = _parse_or(cur, 0)
    cur.expect_end("after expression")
    return result


def _nested(cur: _Cursor, level: int, limit: int = MAX_DEPTH) -> int:
    if level > limit:
        raise DslSyntaxError(cur.lineno, f"expression nested deeper than {limit} levels")
    return level


def _higher(cur: _Cursor, *heights: int) -> int:
    return _nested(cur, max(heights) + 1, MAX_HEIGHT)


def _parse_or(cur: _Cursor, depth: int):
    left, height = _parse_and(cur, depth)
    while cur.at_op("||"):
        cur.next()
        right, rh = _parse_and(cur, depth)
        left, height = BoolOp("||", left, right), _higher(cur, height, rh)
    return left, height


def _parse_and(cur: _Cursor, depth: int):
    left, height = _parse_cmp(cur, depth)
    while cur.at_op("&&"):
        cur.next()
        right, rh = _parse_cmp(cur, depth)
        left, height = BoolOp("&&", left, right), _higher(cur, height, rh)
    return left, height


def _parse_cmp(cur: _Cursor, depth: int):
    left, height = _parse_unary(cur, depth)
    tok = cur.peek()
    if tok is not None and tok[OP] in _COMPARE_OPS:
        cur.next()
        right, rh = _parse_unary(cur, depth)
        return Compare(tok[OP], left, right), _higher(cur, height, rh)
    return left, height


def _parse_unary(cur: _Cursor, depth: int):
    if cur.at_op("!"):
        cur.next()
        operand, height = _parse_unary(cur, _nested(cur, depth + 1))
        return Not(operand), _higher(cur, height)
    return _parse_primary(cur, depth)


def _parse_primary(cur: _Cursor, depth: int):
    value = cur.literal()
    if value is not None:
        return Lit(Vec3(*value) if isinstance(value, tuple) else value), 0
    tok = cur.next()
    if tok[OP] == "(":
        inner = _parse_or(cur, _nested(cur, depth + 1))
        cur.expect_op(")")
        return inner
    text = tok[REF]
    if text:
        parts = text.split(".")
        if text == "dist":
            cur.expect_op("(")
            a, ah = _parse_or(cur, _nested(cur, depth + 1))
            cur.expect_op(",")
            b, bh = _parse_or(cur, depth + 1)
            cur.expect_op(")")
            return Dist(a, b), _higher(cur, ah, bh)
        if len(parts) == 2 and parts[0] in ("env", "user", "platform"):
            try:
                return FeatureRef(FeatureId.parse(text)), 0
            except ValueError as e:
                raise DslSyntaxError(cur.lineno, str(e)) from None
        if len(parts) == 3 and parts[0] == "scene":
            if parts[2] not in READABLE_PROPS:
                raise ExprTypeError(cur.lineno, f"scene property {parts[2]!r} is not readable in expressions")
            return SceneRef(parts[1], parts[2]), 0
        raise DslSyntaxError(cur.lineno, f"unexpected identifier {text!r} in expression")
    raise DslSyntaxError(cur.lineno, f"unexpected token {text_of(tok)!r}")


def parse_actions_line(line: str, lineno: int) -> tuple[ActionCall, ...]:
    """The actions of a rule line ``rule <id> when <cond> do ...``: every
    action after ``do``, then the category and the end of the line, checked
    as ``parse_rules`` checks them."""
    tokens = tokenize(line, lineno)
    if tokens and tokens[-1][COMMENT]:
        tokens.pop()
    cur = _Cursor(tokens, lineno)
    for head in ("rule", None, "when", None, "do"):
        tok = cur.next()
        assert head is None or tok[REF] == head, "the line's head is the test's own"
    actions = [_parse_one_action(cur)]
    while cur.at_op(";"):
        cur.next()
        actions.append(_parse_one_action(cur))
    tok = cur.peek()
    if tok is None or tok[REF] != "category":
        raise DslSyntaxError(lineno, "expected 'category'")
    cur.next()
    tok = cur.next()
    if tok[REF] not in _CATEGORIES:
        if not tok[REF]:
            raise DslSyntaxError(lineno, "expected a category name")
        raise UnknownCategory(lineno, f"unknown category {tok[REF]!r}")
    cur.expect_end("after category")
    return tuple(actions)


def _parse_action_arg(cur: _Cursor):
    """A bare identifier (an element id or an enum name) as its text; a
    literal as its value, but a vector as a tuple, so highlight can insist
    on ints, and a text as a Lit, so it is no bare identifier; or a feature
    id as a FeatureRef (a bare FeatureId is a str, which a text check would
    take)."""
    tok = cur.next()
    value = _literal(tok, cur.lineno)
    if value is not None:
        return Lit(value) if type(value) is str else value
    text = tok[REF]
    if text and "." not in text:
        return text
    parts = text.split(".")
    if len(parts) == 2 and parts[0] in ("env", "user", "platform"):
        try:
            return FeatureRef(FeatureId.parse(text))
        except ValueError as e:
            raise DslSyntaxError(cur.lineno, str(e)) from None
    raise DslSyntaxError(cur.lineno, f"unexpected action argument {text_of(tok)!r}")


def _parse_one_action(cur: _Cursor) -> ActionCall:
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
