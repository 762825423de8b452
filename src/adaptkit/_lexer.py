"""The one tokenizer behind every text format: rules, scene, workflow and
scenario files, and the values of state files.

One master regular expression, with a named group per token kind, reads a
line (the tokenizer recipe of the ``re`` documentation). The kinds are:

* ``ref``: an identifier, or several joined by dots (``env.luminance``);
* ``num``: ``-?digits[.digits][e[+-]digits]``, in ASCII digits;
* ``vec``: ``(x, y, z)``, three numbers;
* ``op``: ``<= >= == != && || < > ! ( ) , : ; =``;
* ``str``: a double-quoted string on one line (no CR or LF) whose only
  escapes are ``\\"`` and ``\\\\``;
* ``comment``: ``#`` outside a string, up to the end of the line;
* ``bad``: a character that starts no other kind, and the rest after it.

ASCII whitespace between tokens is free and yields no token; any other
space, such as U+00A0, is ``bad``. A token is the plain tuple
``re.findall`` makes of a match: one string per kind, in the order above,
all empty but its own kind's text. So ``tok[REF] == "rule"`` asks for the
identifier ``rule`` and ``tok[NUM]`` is the text of a number or empty. A
``bad`` token is a DslSyntaxError.

:func:`literal` is the one reader of literal values: integers and
floats (each must be finite as a float), ``true``/``false``, strings, and
``(x, y, z)`` vectors of three numbers.
"""

from __future__ import annotations

import math
import re

from .errors import DslSyntaxError

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
# Every match starts with the whitespace before its token, so findall
# yields one tuple per token and skips nothing but trailing whitespace.
# "bad" takes the rest of the text, so it can only be the last token. A
# vector is one token, not seven, and tokens are findall's tuples rather
# than (kind, text) pairs built in Python, because tokenizing is most of
# the cost of parsing; vec comes before op's "(".

# a token's index for each kind: findall puts group n at index n - 1
REF, NUM, VEC, OP, STR, COMMENT, BAD = (
    _TOKEN_RE.groupindex[kind] - 1 for kind in ("ref", "num", "vec", "op", "str", "comment", "bad")
)


def text_of(tok: tuple[str, ...]) -> str:
    """The source text of a token."""
    return "".join(tok)


def tokenize(text: str, lineno: int) -> list[tuple[str, ...]]:
    """The tokens of ``text``, a trailing comment included."""
    tokens = _TOKEN_RE.findall(text)
    if tokens and tokens[-1][BAD]:
        char = tokens[-1][BAD][0]
        if char == '"':
            raise DslSyntaxError(lineno, "unterminated string, or an escape other than \\\" and \\\\")
        raise DslSyntaxError(lineno, f"unexpected character {char!r}")
    return tokens


def lines(text: str):
    """Yield ``(lineno, tokens)`` for each line of ``text`` that holds a
    token, its comment dropped; line numbers are 1-based."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = tokenize(line, lineno)
        if tokens and tokens[-1][COMMENT]:
            tokens.pop()
        if tokens:
            yield lineno, tokens


def _number(text: str, lineno: int) -> int | float:
    """A float if written with '.' or an exponent, else an int; either way
    it must be finite as a float."""
    value = float(text)
    if not math.isfinite(value):
        raise DslSyntaxError(lineno, f"number out of range: {text.strip()}")
    if "." in text or "e" in text or "E" in text:
        return value
    return int(text)


def literal(tok: tuple[str, ...], lineno: int):
    """The value of a literal token: an int, a float, a bool, a str, or a
    vector as a tuple of three numbers, each int or float as written.
    None when the token is no literal."""
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


class Cursor:
    """One line's tokens with one token of lookahead; every error it raises
    carries the line number."""

    __slots__ = ("tokens", "lineno", "i")

    def __init__(self, tokens: list[tuple[str, ...]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self) -> tuple[str, ...] | None:
        i = self.i
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> tuple[str, ...]:
        i = self.i
        if i >= len(self.tokens):
            raise DslSyntaxError(self.lineno, "unexpected end of line")
        self.i = i + 1
        return self.tokens[i]

    def at_op(self, text: str) -> bool:
        i = self.i
        return i < len(self.tokens) and self.tokens[i][OP] == text

    def at_ref(self, text: str) -> bool:
        i = self.i
        return i < len(self.tokens) and self.tokens[i][REF] == text

    def expect_op(self, text: str) -> None:
        tok = self.next()
        if tok[OP] != text:
            raise DslSyntaxError(self.lineno, f"expected {text!r}, got {text_of(tok)!r}")

    def expect_end(self, where: str) -> None:
        tok = self.peek()
        if tok is not None:
            raise DslSyntaxError(self.lineno, f"trailing input {where}: {text_of(tok)!r}")

    def ident(self, what: str) -> str:
        """Read an identifier without dots; ``what`` names it in the error."""
        tok = self.next()
        name = tok[REF]
        if not name or "." in name:
            raise DslSyntaxError(self.lineno, f"expected {what}, got {text_of(tok)!r}")
        return name

    def literal(self):
        """Read a literal token (see :func:`literal`); None, consuming
        nothing, when the next token is no literal."""
        i = self.i
        value = literal(self.tokens[i], self.lineno) if i < len(self.tokens) else None
        if value is not None:
            self.i = i + 1
        return value
