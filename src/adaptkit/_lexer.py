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

Every format reads a line's tokens by index, and shares three checks of
``tokens[i]``, each raising at the line's number: :func:`expect` a given
text, :func:`ident` an identifier, and :func:`expect_end` that the line
ends before ``i``.
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


# A token that starts with one of these matches a kind whole; a last token
# that starts with '"', '-', '|', '&' or any other character may match none.
_WHOLE = frozenset(string.ascii_letters + string.digits + "_(#<>=!),:;")


def tokenize(text: str, lineno: int) -> list[str]:
    """The tokens of ``text``, a trailing comment included."""
    tokens = _TOKEN_RE.findall(text)
    if tokens and tokens[-1][0] not in _WHOLE and _ONE_TOKEN_RE.fullmatch(tokens[-1]) is None:
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


def expect(tokens: list[str], i: int, lineno: int, text: str) -> int:
    """The index after ``tokens[i]``, which must be ``text``."""
    if i >= len(tokens):
        raise DslSyntaxError(lineno, "unexpected end of line")
    if tokens[i] != text:
        raise DslSyntaxError(lineno, f"expected {text!r}, got {tokens[i]!r}")
    return i + 1


def ident(tokens: list[str], i: int, lineno: int, what: str) -> str:
    """``tokens[i]``, which must be an identifier without dots; ``what``
    names it in the error."""
    if i >= len(tokens):
        raise DslSyntaxError(lineno, "unexpected end of line")
    tok = tokens[i]
    if not tok.isidentifier():  # ASCII, so just [A-Za-z_][A-Za-z0-9_]*
        raise DslSyntaxError(lineno, f"expected {what}, got {tok!r}")
    return tok


def expect_end(tokens: list[str], i: int, lineno: int, where: str) -> None:
    """Refuse any token at ``i``: the line must end before it."""
    if i < len(tokens):
        raise DslSyntaxError(lineno, f"trailing input {where}: {tokens[i]!r}")
