"""The one tokenizer behind every text format: rules, scene, workflow and
scenario files, and the values of state files.

One regular expression with one group reads a line, and a token is its
text. Its kind is read from its first character:

* ``ref`` (a letter or ``_``): an identifier, or several joined by dots
  (``env.luminance``);
* ``num`` (a digit or ``-``): ``-?digits[.digits][e[+-]digits]``, in ASCII
  digits;
* ``vec`` (``(`` and more): ``(x, y, z)``, three numbers;
* ``op`` (anything else, ``(`` alone included): ``<= >= == != && || < > !
  ( ) , : ; =``;
* ``str`` (``"``): a double-quoted string on one line (no CR or LF) whose
  only escapes are ``\\"`` and ``\\\\``;
* ``comment`` (``#``): ``#`` outside a string, up to the end of the line.

ASCII whitespace between tokens is free and yields no token; any other
space, such as U+00A0, is an unexpected character. A character that
starts no token is a DslSyntaxError. Tokens of two kinds never have the
same text, so ``tok == "rule"`` asks for the identifier ``rule`` and
``tok == "("`` for the parenthesis.

:func:`literal` is the one reader of literal values: integers and
floats (each must be finite as a float), ``true``/``false``, strings, and
``(x, y, z)`` vectors of three numbers.
"""

from __future__ import annotations

import math
import re
import string

from .errors import DslSyntaxError

_NUM = r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_TOKEN = rf"""
      [A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*
    | {_NUM}
    | \(\s*{_NUM}\s*,\s*{_NUM}\s*,\s*{_NUM}\s*\)
    | <=|>=|==|!=|&&|\|\||[<>!(),:;=]
    | "(?:\\["\\]|[^"\\\r\n])*"
    | \#.*
"""
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|(?s:\S.*))", re.VERBOSE | re.ASCII)
_ONE_TOKEN_RE = re.compile(_TOKEN, re.VERBOSE | re.ASCII)
# The kinds come in the docstring's order; vec comes before op's "(". A
# match starts with the whitespace before its token, so findall yields one
# string per token, a vector included, and skips only trailing whitespace.
# The last alternative takes the rest of the text, so only the last token
# can be one that no kind matches, and then no kind matches it whole.

_KINDS = {
    **dict.fromkeys(string.ascii_letters + "_", "ref"),
    **dict.fromkeys(string.digits + "-", "num"),
    "(": "vec",
    '"': "str",
    "#": "comment",
}


def kind(tok: str) -> str:
    """The kind of a token from :func:`tokenize`, read from its first
    character: ``ref``, ``num``, ``vec``, ``op``, ``str`` or ``comment``."""
    return "op" if tok == "(" else _KINDS.get(tok[0], "op")


def tokenize(text: str, lineno: int) -> list[str]:
    """The tokens of ``text``, a trailing comment included."""
    tokens = _TOKEN_RE.findall(text)
    if tokens and _ONE_TOKEN_RE.fullmatch(tokens[-1]) is None:
        char = tokens[-1][0]
        if char == '"':
            raise DslSyntaxError(lineno, "unterminated string, or an escape other than \\\" and \\\\")
        raise DslSyntaxError(lineno, f"unexpected character {char!r}")
    return tokens


def lines(text: str):
    """Yield ``(lineno, tokens)`` for each line of ``text`` that holds a
    token, its comment dropped; line numbers are 1-based."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = tokenize(line, lineno)
        if tokens and tokens[-1][0] == "#":
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


def literal(tok: str, lineno: int):
    """The value of a literal token: an int, a float, a bool, a str, or a
    vector as a tuple of three numbers, each int or float as written.
    None when the token is no literal."""
    k = _KINDS.get(tok[0])
    if k == "num":
        return _number(tok, lineno)
    if k == "ref":
        return True if tok == "true" else False if tok == "false" else None
    if k == "str":
        return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if k == "vec" and tok != "(":
        x, y, z = tok[1:-1].split(",")
        return (_number(x, lineno), _number(y, lineno), _number(z, lineno))
    return None


class Cursor:
    """One line's tokens with one token of lookahead; every error it raises
    carries the line number."""

    __slots__ = ("tokens", "lineno", "i")

    def __init__(self, tokens: list[str], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self) -> str | None:
        i = self.i
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> str:
        i = self.i
        if i >= len(self.tokens):
            raise DslSyntaxError(self.lineno, "unexpected end of line")
        self.i = i + 1
        return self.tokens[i]

    def at(self, text: str) -> bool:
        """Whether the next token is ``text``."""
        i = self.i
        return i < len(self.tokens) and self.tokens[i] == text

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise DslSyntaxError(self.lineno, f"expected {text!r}, got {tok!r}")

    def expect_end(self, where: str) -> None:
        tok = self.peek()
        if tok is not None:
            raise DslSyntaxError(self.lineno, f"trailing input {where}: {tok!r}")

    def ident(self, what: str) -> str:
        """Read an identifier without dots; ``what`` names it in the error."""
        tok = self.next()
        if not tok.isidentifier():  # ASCII, so just [A-Za-z_][A-Za-z0-9_]*
            raise DslSyntaxError(self.lineno, f"expected {what}, got {tok!r}")
        return tok

    def literal(self):
        """Read a literal token (see :func:`literal`); None, consuming
        nothing, when the next token is no literal."""
        i = self.i
        value = literal(self.tokens[i], self.lineno) if i < len(self.tokens) else None
        if value is not None:
            self.i = i + 1
        return value
