"""Differential tests: the lexer and the expression parser against
reference_parse.py, the seven-group tokenizer and the three-level descent
they replaced, and the parser's typing against reference_check.py, the
walk over the built tree that it replaced.

Lines are drawn from token fragments, valid or not, joined with and
without spaces, and from expression shapes that chain, nest and mix
operators. On each line both lexers must give the same token texts and
kinds, and both parsers the same tree and height, or both raise the same
error class with the same message and line. A table adds the cases where
the two designs differ most: chained comparisons, operators the lexer
does not know, broken strings, and nesting at the limits.

Typing draws expressions over leaves of every static type, well typed
and not, now and then followed by a stray fragment. ``parse_rules`` must
refuse a condition with the error class, message and line that the
reference parser and type checker give, or list the same reads; the
parser must find the reference's type, reads and first error; and
``check_expr`` must agree with the reference on every tree the reference
parser builds. A table pins each kind of type error, errors on both sides
of one node, and a type error before a syntax error on one line.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_check
import reference_parse
from adaptkit import _lexer, dsl
from adaptkit.dsl import MAX_DEPTH, MAX_HEIGHT
from adaptkit.errors import AdaptError, ExprTypeError

LINE = 7  # any line number: every error must carry it

LEAVES = [
    "env.a", "env.b", "user.position", "platform.q", "env.A", "envx.a", "scene.e0.visible",
    "scene.e0.position", "scene.e0.text", "scene.e0.color", "scene.e0", "dist", "true", "false",
    "foo", "foo.bar", "a.b.c.d", "_x", "0", "1", "-2", "1.5", "-0.0", "1e3", "2.5E-1", "1e999",
    "(1,2,3)", "( 1 , 2.5 , -3 )", "(1e999,0,0)", '"a"', '""', '"a\\"b"', '"a\\\\"',
]
OPERATORS = ["<", "<=", ">", ">=", "==", "!=", "&&", "||", "!", "(", ")", ",", ":", ";", "="]
STRAYS = ["|", "&", "-", ".", ".x", "@", " ", "٣", "(1,2)", '"', '"a\\"', '"a\\n"', "# c", "#", "\t"]
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
    ``condition c:``: its tree and height, then its static type, reads
    and first type error."""
    tokens = _lexer.tokenize(text, LINE)
    if tokens and _lexer.kind(tokens[-1]) == "comment":
        tokens.pop()
    cur = _lexer.Cursor(tokens, LINE)
    reads, errors = [], []
    tree, height, expr_type = dsl._parse_expr(cur, {}, reads, errors)
    cur.expect_end("after expression")
    return tree, height, expr_type, reads, errors[0] if errors else None


def _agree(text: str) -> None:
    assert _outcome(lambda: _tokens(text)) == _outcome(lambda: _reference_tokens(text))
    assert _outcome(lambda: _parse(text)[:2]) == _outcome(lambda: reference_parse.parse_expr_line(text, LINE))


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


# typing: leaves of each static type (None: a feature, whose type only its
# value tells), so that drawn expressions meet every type error
TYPED_LEAVES = {
    "bool": ["true", "false", "scene.e0.visible", "scene.e1.billboard"],
    "int": ["0", "1", "-2"],
    "float": ["1.5", "-0.0", "scene.e0.yaw", "scene.e1.text_size"],
    "text": ['"a"', '""', "scene.e0.text"],
    "vec3": ["(1,2,3)", "(1.0,0,-2.5)", "scene.e1.position"],
    None: ["env.a", "user.position", "platform.q"],
}
ALL_TYPED_LEAVES = [leaf for leaves in TYPED_LEAVES.values() for leaf in leaves]


def _typed_exprs(leaf_pool):
    return st.recursive(
        st.sampled_from(leaf_pool),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(BINARY), inner).map(" ".join),
            inner.map(lambda s: "!" + s),
            inner.map(lambda s: f"({s})"),
            st.tuples(inner, inner).map(lambda p: f"dist({p[0]}, {p[1]})"),
        ),
        max_leaves=8,
    )


# any mix of types, mostly ill typed; and well typed: comparisons of one
# type, connectives over them and distances between vectors
ill_typed = _typed_exprs(ALL_TYPED_LEAVES)
vec3s = st.sampled_from(TYPED_LEAVES["vec3"] + ["user.position"])
floats = st.one_of(
    st.sampled_from(TYPED_LEAVES["float"] + ["env.a"]),
    st.tuples(vec3s, vec3s).map(lambda p: f"dist({p[0]}, {p[1]})"),
)
comparisons = st.one_of(
    st.tuples(floats, st.sampled_from(BINARY[:6]), floats).map(" ".join),
    st.sampled_from(["text", "vec3", "bool"]).flatmap(
        lambda t: st.tuples(
            st.sampled_from(TYPED_LEAVES[t] + ["env.b"]), st.sampled_from(["==", "!="]),
            st.sampled_from(TYPED_LEAVES[t]),
        ).map(" ".join)
    ),
)
well_typed = st.recursive(
    st.one_of(comparisons, st.sampled_from(TYPED_LEAVES["bool"] + ["env.c"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["&&", "||"]), inner).map(" ".join),
        inner.map(lambda s: f"!({s})"),
        inner.map(lambda s: f"({s})"),
    ),
    max_leaves=6,
)
typing_lines = st.tuples(
    st.one_of(ill_typed, well_typed),
    st.one_of(st.just(""), st.sampled_from(STRAYS + OPERATORS + ALL_TYPED_LEAVES).map(lambda f: " " + f)),
).map("".join)


def _reference_typed(text: str):
    tree, _ = reference_parse.parse_expr_line(text, LINE)
    return reference_check.check_expr(tree)


def _rule_reads(text: str):
    """The reads of ``condition c: <text>`` on line LINE, as parse_rules
    lists them."""
    return dsl.parse_rules("\n" * (LINE - 1) + "condition c: " + text).conditions[0].reads


def _reference_rule_reads(text: str):
    """The same by the reference: a syntax error, then a type error, then a
    type that is no bool."""
    expr_type, reads, error = _reference_typed(text)
    if error is not None:
        raise ExprTypeError(LINE, error)
    if expr_type not in (None, "bool"):
        raise ExprTypeError(LINE, "condition 'c' must evaluate to bool")
    return tuple(reads)


def _agree_on_types(text: str) -> None:
    assert _outcome(lambda: _parse(text)[2:]) == _outcome(lambda: _reference_typed(text))
    assert _outcome(lambda: _rule_reads(text)) == _outcome(lambda: _reference_rule_reads(text))
    built = _outcome(lambda: reference_parse.parse_expr_line(text, LINE))
    if built[0] == "ok":
        tree = built[1][0]
        assert dsl.check_expr(tree) == reference_check.check_expr(tree)


@settings(max_examples=500, deadline=None)
@given(typing_lines)
def test_the_parser_types_like_the_reference(text):
    _agree_on_types(text)


TYPING_CASES = [
    # well typed, and typed but no bool
    "env.a",
    "env.a && scene.e0.visible || !env.b",
    "dist(user.position, scene.e1.position) < 1.5 && scene.e0.text == \"a\"",
    "env.a == env.a",
    "1",
    "dist(user.position, scene.e1.position)",
    "scene.e0.text",
    "(1,2,3)",
    # a text compared with a number
    '"a" == 1',
    "scene.e0.text != 2.5",
    "1 == scene.e0.text",
    # an ordering on bool, text or vec3
    "true < false",
    '"a" <= scene.e0.text',
    "(1,2,3) > scene.e1.position",
    "scene.e0.visible >= env.a",
    "env.a < (1,2,3)",
    # !, && or || on numbers
    "!1",
    "!scene.e0.yaw",
    "1 && true",
    "true || 2.5",
    "env.a && -2",
    # dist() on scalars
    "dist(1, 2) < 1.0",
    "dist(1.5, scene.e1.position) < 1.0",
    'dist(user.position, "a") > 0.5',
    # an error on each side of one node, and errors nested on both sides
    "1 && 2",
    "dist(1, true) < 1.0",
    '"a" < 1',
    '(1 < "a") || (true < 2)',
    '1 && (2 < "a")',
    '(1 == "a") && 2',
    "!(1 && 2)",
    "dist(1 < 2, dist(3, true)) < 1.0",
    "1 || 2 && 3",
    # a type error followed by a syntax error later on the line
    "1 && true )",
    '"a" < 1 <',
    "!1 @",
    "1 || true &&",
    'dist(1, 2) < 1.0 "',
    "1 && env.a == env.b == env.c",
    # an unreadable scene property is refused as it is read
    "scene.e0.color < 1",
    "1 && scene.e0.color",
]


@pytest.mark.parametrize("text", TYPING_CASES, ids=TYPING_CASES)
def test_the_parser_types_the_table_like_the_reference(text):
    _agree_on_types(text)


def test_the_typing_table_meets_every_outcome():
    """The table holds conditions parse_rules takes, refuses for a type
    error, refuses as no bool, and refuses for a syntax error, and the
    error on the left of an '&&' comes first."""
    outcomes = [_outcome(lambda: _rule_reads(text)) for text in TYPING_CASES]
    messages = [o[1] for o in outcomes if o[0] == "ExprTypeError"]
    assert sum(o[0] == "ok" for o in outcomes) >= 3
    assert sum(o[0] == "DslSyntaxError" for o in outcomes) >= 5
    assert "condition 'c' must evaluate to bool" in messages
    assert len(set(messages)) >= 10
    assert _outcome(lambda: _rule_reads('1 && (2 < "a")')) == (
        "ExprTypeError", "&& needs bool operands, got int", LINE)
