"""Differential tests: the lexer and the expression parser against
reference_parse.py, the seven-group tokenizer and the three-level descent
they replaced.

Lines are drawn from token fragments, valid or not, joined with and
without spaces, and from expression shapes that chain, nest and mix
operators. On each line both lexers must give the same token texts and
kinds, and both parsers the same tree and height, or both raise the same
error class with the same message and line. A table adds the cases where
the two designs differ most: chained comparisons, operators the lexer
does not know, broken strings, and nesting at the limits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parse
from adaptkit import _lexer, dsl
from adaptkit.dsl import MAX_DEPTH, MAX_HEIGHT
from adaptkit.errors import AdaptError

LINE = 7  # any line number: every error must carry it

LEAVES = [
    "env.a", "env.b", "user.position", "platform.q", "env.A", "envx.a", "scene.e0.visible",
    "scene.e0.position", "scene.e0.text", "scene.e0.color", "scene.e0", "dist", "true", "false",
    "foo", "foo.bar", "a.b.c.d", "_x", "0", "1", "-2", "1.5", "-0.0", "1e3", "2.5E-1", "1e999",
    "(1,2,3)", "( 1 , 2.5 , -3 )", "(1e999,0,0)", '"a"', '""', '"a\\"b"', '"a\\\\"',
]
OPERATORS = ["<", "<=", ">", ">=", "==", "!=", "&&", "||", "!", "(", ")", ",", ":", ";", "="]
STRAYS = ["|", "&", "-", ".", "@", " ", "٣", "(1,2)", '"', '"a\\"', '"a\\n"', "# c", "#", "\t"]
fragments = st.sampled_from(LEAVES + OPERATORS + STRAYS)
separators = st.sampled_from(["", " ", "  "])
lines = st.lists(st.tuples(fragments, separators).map("".join), max_size=12).map("".join)

# expressions of every shape, chained comparisons and all, now and then
# broken by a stray fragment
BINARY = ["<", "<=", ">", ">=", "==", "!=", "&&", "||"]
exprs = st.recursive(
    st.sampled_from(LEAVES[:20]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(BINARY), inner).map(" ".join),
        inner.map(lambda s: "!" + s),
        inner.map(lambda s: f"({s})"),
        st.tuples(inner, inner).map(lambda p: f"dist({p[0]}, {p[1]})"),
        st.tuples(inner, st.sampled_from(STRAYS + OPERATORS)).map("".join),
    ),
    max_leaves=10,
)


def _outcome(fn):
    try:
        return "ok", fn()
    except AdaptError as e:  # a syntax or type error, never anything else
        return type(e).__name__, e.message, e.line


def _tokens(text: str):
    return [(_lexer.kind(tok), tok) for tok in _lexer.tokenize(text, LINE)]


def _reference_tokens(text: str):
    return [(reference_parse.kind_of(tok), reference_parse.text_of(tok))
            for tok in reference_parse.tokenize(text, LINE)]


def _parse(text: str):
    """The expression a line holds, as parse_rules reads it after
    ``condition c:``, with its height."""
    tokens = _lexer.tokenize(text, LINE)
    if tokens and _lexer.kind(tokens[-1]) == "comment":
        tokens.pop()
    cur = _lexer.Cursor(tokens, LINE)
    result = dsl._parse_expr(cur, {})
    cur.expect_end("after expression")
    return result


def _agree(text: str) -> None:
    assert _outcome(lambda: _tokens(text)) == _outcome(lambda: _reference_tokens(text))
    assert _outcome(lambda: _parse(text)) == _outcome(lambda: reference_parse.parse_expr_line(text, LINE))


@settings(max_examples=400, deadline=None)
@given(lines)
def test_the_lexers_and_parsers_agree_on_token_fragments(text):
    _agree(text)


@settings(max_examples=400, deadline=None)
@given(exprs)
def test_the_parsers_agree_on_expressions(text):
    _agree(text)


def _dist(k: int) -> str:
    return "dist(" * k + "user.position" + ", user.position)" * k + " < 1.0"


CASES = [
    "env.a < env.b < env.c",
    "(env.a < env.b == env.c)",
    "!env.a < env.b",
    "env.a && env.b < env.c == env.d",
    "env.a || env.b && env.c < env.d < 1",
    "env.a < 1 || env.b > 2 && !env.c",
    "env.a == (env.b < env.c)",
    "-x",
    "env.x > -1",
    "env.a | env.b",
    "env.a & env.b",
    "|",
    "&",
    '"a\\"',
    '"a" "b',
    '"a" "b"',
    "env.a < 1 # < 2",
    "",
    "!",
    "env.a <",
    "dist(user.position scene.e0.position)",
    "!" * MAX_DEPTH + "env.a",
    "!" * (MAX_DEPTH + 1) + "env.a",
    "(" * MAX_DEPTH + "env.a" + ")" * MAX_DEPTH,
    "(" * (MAX_DEPTH + 1) + "env.a" + ")" * (MAX_DEPTH + 1),
    _dist(MAX_DEPTH),
    _dist(MAX_DEPTH + 1),
    " && ".join(["env.a"] * (MAX_HEIGHT + 1)),
    " && ".join(["env.a"] * (MAX_HEIGHT + 2)),
    " || ".join(["env.a > 1"] * MAX_HEIGHT),
    " || ".join(["env.a > 1"] * (MAX_HEIGHT + 1)),
    "env.a || " * (MAX_HEIGHT - 1) + "env.b && env.c",
    "env.a || " * MAX_HEIGHT + "env.b && env.c",
]


@pytest.mark.parametrize("text", CASES, ids=[c if len(c) < 40 else c[:37] + "..." for c in CASES])
def test_the_lexers_and_parsers_agree_on_the_table(text):
    _agree(text)


def test_the_table_meets_both_outcomes():
    """The table holds lines both sides parse and lines both refuse, and
    the limits are met on both sides of each."""
    outcomes = [_outcome(lambda: _parse(text))[0] for text in CASES]
    assert outcomes.count("ok") >= 10 and outcomes.count("DslSyntaxError") >= 10
    assert _outcome(lambda: _parse(CASES[0])) == (
        "DslSyntaxError", "trailing input after expression: '<'", LINE)
