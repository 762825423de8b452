"""Rule language: parsing, typing, validation, evaluation, round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit import (
    ActionCall,
    ActionError,
    AdaptationCategory,
    ConditionDef,
    DetailLevel,
    DslSyntaxError,
    DuplicateId,
    ExprTypeError,
    FeatureId,
    Modality,
    RuleDef,
    RuleSet,
    SceneElement,
    SceneModel,
    UnknownCategory,
    UnknownConditionRef,
    UnknownEffector,
    UnknownElement,
    UnknownFeature,
    Vec3,
    init_engine,
    parse_rules,
    parse_scenario,
    parse_scene,
    parse_workflow,
    pretty_print,
    validate,
)
from adaptkit.cli import main
from adaptkit.dsl import BoolOp, Compare, Dist, FeatureRef, Lit, Not, SceneRef, compile_expr

import reference_records
from conftest import store_from
from reference_eval import eval_expr

PRINTER_RULES = """
condition dark: env.luminance < 0.05
rule AudioOutRule when dark do set_modality(instruction_panel, audio) category Modality
"""


class TestParseRules:
    def test_one_condition_one_rule(self):
        rs = parse_rules(PRINTER_RULES)
        assert len(rs.conditions) == 1 and len(rs.rules) == 1
        rule = rs.rules[0]
        assert rule.id == "AudioOutRule"
        assert rule.conditions == ("dark",)
        assert rule.category is AdaptationCategory.MODALITY
        assert rule.actions[0] == ActionCall(
            "set_modality", element="instruction_panel", value=frozenset({Modality.AUDIO})
        )

    def test_definition_order_preserved(self):
        rs = parse_rules(
            "condition b: env.x == true\n"
            "condition a: env.y == true\n"
            "rule R2 when b do set_visible(e, true) category Style\n"
            "rule R1 when a do set_visible(e, false) category Style\n"
        )
        assert [c.id for c in rs.conditions] == ["b", "a"]
        assert [r.id for r in rs.rules] == ["R2", "R1"]

    def test_priority_and_multiple_conditions_and_actions(self):
        rs = parse_rules(
            "condition a: env.x == true\n"
            "condition b: env.y == true\n"
            "rule R priority 7 when a, b do set_detail(e, reduced); set_text_size(e, 24) "
            "category ContentPresentation\n"
        )
        rule = rs.rules[0]
        assert rule.priority == 7
        assert rule.conditions == ("a", "b")
        assert [a.effector for a in rule.actions] == ["set_detail", "set_text_size"]
        assert rule.actions[1].value == 24.0

    def test_unknown_condition_ref(self):
        with pytest.raises(UnknownConditionRef) as exc:
            parse_rules("rule R when missing do set_visible(a, true) category Style\n")
        assert exc.value.line == 1

    def test_forward_reference_is_allowed(self):
        rs = parse_rules(
            "rule R when later do set_visible(a, true) category Style\n"
            "condition later: env.x == true\n"
        )
        assert rs.rules[0].conditions == ("later",)

    def test_dist_arity_type_error(self):
        with pytest.raises(ExprTypeError) as exc:
            parse_rules("condition c: dist(user.position, 3) > 1.0\n")
        assert exc.value.line == 1

    def test_duplicate_condition_id(self):
        with pytest.raises(DuplicateId) as exc:
            parse_rules("condition c: env.x == true\ncondition c: env.y == true\n")
        assert exc.value.line == 2

    def test_duplicate_rule_id(self):
        with pytest.raises(DuplicateId) as exc:
            parse_rules(
                "condition c: env.x == true\n"
                "rule R when c do set_visible(a, true) category Style\n"
                "rule R when c do set_visible(a, false) category Style\n"
            )
        assert exc.value.line == 3

    def test_unknown_effector(self):
        with pytest.raises(UnknownEffector) as exc:
            parse_rules(
                "condition c: env.x == true\nrule R when c do teleport(a) category Style\n"
            )
        assert exc.value.line == 2

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory) as exc:
            parse_rules(
                "condition c: env.x == true\n"
                "rule R when c do set_visible(a, true) category Sparkly\n"
            )
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "expr, limit",
        [
            ("!" * 3000 + "env.a", 100),
            ("(" * 3000 + "env.a" + ")" * 3000, 100),
            ("dist(" * 3000 + "user.position" + ", user.position)" * 3000 + " < 1.0", 100),
            ("!" * 101 + "env.a", 100),
            ("(" * 101 + "env.a" + ")" * 101, 100),
            (" && ".join(["env.a"] * 3000), 300),
            (" || ".join(["env.a"] * 302), 300),
            (" && ".join(["env.a > 1"] * 301), 300),
        ],
        ids=["not", "parentheses", "dist", "not-101", "parentheses-101", "chain", "chain-302", "compare-chain-301"],
    )
    def test_nesting_deeper_than_the_limit_is_a_syntax_error(self, expr, limit):
        with pytest.raises(DslSyntaxError, match=f"nested deeper than {limit} levels") as exc:
            parse_rules(f"condition ok: env.a\ncondition c: {expr}\n")
        assert exc.value.line == 2

    def test_nesting_up_to_the_limit_parses(self):
        for expr in (
            "!" * 100 + "env.a",
            "(" * 100 + "env.a" + ")" * 100,
            " || ".join(["env.a"] * 301),
            " && ".join(["env.a > 1"] * 300),
        ):
            (cond,) = parse_rules(f"condition c: {expr}\n").conditions
            assert parse_rules(pretty_print(RuleSet([cond], []))).conditions == [cond]

    def test_syntax_error_carries_line(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_rules("condition ok: env.x == true\ncondition broken env.y\n")
        assert exc.value.line == 2

    def test_condition_root_must_be_bool(self):
        with pytest.raises(ExprTypeError):
            parse_rules("condition c: dist(user.position, user.home)\n")

    def test_comparison_type_mismatch(self):
        with pytest.raises(ExprTypeError):
            parse_rules('condition c: env.luminance < "dark"\n')

    def test_ordering_needs_numbers(self):
        with pytest.raises(ExprTypeError):
            parse_rules('condition c: env.name < "zz"\n')

    def test_boolean_connectives_and_not(self):
        rs = parse_rules("condition c: !(env.a == true) && env.b == true || env.c == true\n")
        expr = rs.conditions[0].expr
        assert isinstance(expr, BoolOp) and expr.op == "||"

    def test_text_size_must_be_positive(self):
        with pytest.raises(ExprTypeError):
            parse_rules(
                "condition c: env.x == true\n"
                "rule R when c do set_text_size(a, 0) category Style\n"
            )

    def test_highlight_color_range_checked(self):
        with pytest.raises(ExprTypeError):
            parse_rules(
                "condition c: env.x == true\n"
                "rule R when c do highlight(a, (0,999,0)) category Style\n"
            )

    @pytest.mark.parametrize(
        "action",
        [
            "set_visible(e, 1)",
            "set_billboard(e, \"yes\")",
            "set_text(e, 3)",
            "set_text(e, env.x)",
            "set_visible(e, env.x)",
            "set_text_size(e, 0)",
            "highlight(e, (256,0,0))",
            "highlight(e, (1.0,0,0))",
            "set_detail(e, loud)",
            "set_modality(e, smell)",
            "clear_highlight(e, e)",
        ],
    )
    def test_bad_effector_constant_is_a_type_error_at_its_rule(self, action, tmp_path, capsys):
        text = f"condition c: env.x == true\n\nrule R when c do {action} category Style\n"
        with pytest.raises(ExprTypeError) as exc:
            parse_rules(text)
        assert exc.value.line == 3
        rules = tmp_path / "r.rules"
        rules.write_text(text)
        assert main(["check", "--rules", str(rules)]) == 2
        assert capsys.readouterr().err.startswith(f"{rules}:3: error: ")

    def test_set_feature_vec3_literal(self):
        rs = parse_rules(
            "condition c: env.x == true\n"
            "rule R when c do set_feature(user.spawn, (1.0,0.0,2.5)) category VirtualWorld\n"
        )
        action = rs.rules[0].actions[0]
        assert action.feature == FeatureId.parse("user.spawn")
        assert action.value == Vec3(1.0, 0.0, 2.5)

    @pytest.mark.parametrize(
        "text",
        [
            "condition c: env.x < 1e400\n",
            "condition c: dist(user.position, (0.0,-1e400,0.0)) > 1.0\n",
            "condition c: env.x == true\n"
            "rule R when c do set_text_size(a, 1e999) category Style\n",
        ],
    )
    def test_non_finite_number_is_a_syntax_error(self, text):
        with pytest.raises(DslSyntaxError) as exc:
            parse_rules(text)
        assert exc.value.line == text.count("\n")


class TestEvalExpr:
    """Each case evaluated by the reference and by what compile_expr builds."""

    def test_count_at_threshold(self):
        rs = parse_rules("condition c: user.app_use_count <= 5\n")
        store = store_from({"user.app_use_count": 5})
        assert eval_expr(rs.conditions[0].expr, store, SceneModel()) is True
        assert compile_expr(rs.conditions[0].expr, store, SceneModel()).evaluate() is True

    def test_distance_over_threshold(self):
        rs = parse_rules("condition c: dist(user.position, scene.printer.position) > 1.2\n")
        scene = SceneModel([SceneElement(id="printer", position=Vec3(0, 0, 0))])
        store = store_from({"user.position": Vec3(0, 0, 2)})
        assert eval_expr(rs.conditions[0].expr, store, scene) is True
        assert compile_expr(rs.conditions[0].expr, store, scene).evaluate() is True

    def test_luminance_below_threshold(self):
        rs = parse_rules("condition c: env.luminance < 0.05\n")
        store = store_from({"env.luminance": 0.5})
        assert eval_expr(rs.conditions[0].expr, store, SceneModel()) is False
        assert compile_expr(rs.conditions[0].expr, store, SceneModel()).evaluate() is False

    def test_unset_feature_raises(self):
        rs = parse_rules("condition c: env.missing == true\n")
        with pytest.raises(UnknownFeature):
            eval_expr(rs.conditions[0].expr, store_from({}), SceneModel())
        with pytest.raises(UnknownFeature):
            compile_expr(rs.conditions[0].expr, store_from({}), SceneModel()).evaluate()

    def test_missing_element_raises(self):
        rs = parse_rules("condition c: scene.ghost.visible == true\n")
        with pytest.raises(UnknownElement):
            eval_expr(rs.conditions[0].expr, store_from({}), SceneModel())
        with pytest.raises(UnknownElement):
            compile_expr(rs.conditions[0].expr, store_from({}), SceneModel()).evaluate()

    def test_evaluation_is_pure(self):
        rs = parse_rules("condition c: env.luminance < 0.05\n")
        store = store_from({"env.luminance": 0.5})
        store.drain_dirty()
        eval_expr(rs.conditions[0].expr, store, SceneModel())
        assert store.drain_dirty() == set()
        compile_expr(rs.conditions[0].expr, store, SceneModel()).evaluate()
        assert store.drain_dirty() == set()


def test_expr_inputs_in_reading_order():
    rs = parse_rules(
        "condition c: !(env.x > 1) && dist(user.position, scene.panel.position) < 2.0"
        " || scene.panel.visible == env.flag && env.x < 3\n"
    )
    assert rs.conditions[0].reads == (
        FeatureId.parse("env.x"),
        FeatureId.parse("user.position"),
        ("panel", "position"),
        ("panel", "visible"),
        FeatureId.parse("env.flag"),
        FeatureId.parse("env.x"),
    )
    # a condition built by hand finds its reads itself
    assert ConditionDef("c", rs.conditions[0].expr).reads == rs.conditions[0].reads


class TestValidate:
    SCENE = "element panel at (0.0,1.0,0.0)\n"

    def test_clean_fixture_is_empty(self):
        rs = parse_rules(
            "condition c: env.x == true\n"
            "rule R when c do set_visible(panel, true) category Style\n"
        )
        assert validate(rs, parse_scene(self.SCENE)) == []

    def test_repeats_and_undefined_conditions_are_errors_at_their_lines(self):
        """What parse_rules refuses in a text, validate reports for a rule set
        built in code, at each record's line, with the parser's messages."""
        cond = parse_rules("condition c: env.x == true\n").conditions[0]
        show = (ActionCall("set_visible", element="panel", value=True),)
        write = (ActionCall("set_text", element="panel", value="y"),)
        rs = RuleSet([cond, ConditionDef("c", cond.expr, line=4)], [
            RuleDef("R", 0, ("c",), show, AdaptationCategory.STYLE, line=5),
            RuleDef("R", 0, ("c", "nope"), write, AdaptationCategory.STYLE, line=6),
        ])
        assert [(d.severity, d.message, d.line) for d in validate(rs)] == [
            ("error", "duplicate condition id 'c'", 4),
            ("error", "duplicate rule id 'R'", 6),
            ("error", "rule references unknown condition 'nope'", 6),
        ]

    def test_action_on_missing_element_is_error(self):
        rs = parse_rules(
            "condition c: env.x == true\n"
            "rule R when c do set_visible(ghost, true) category Style\n"
        )
        diags = validate(rs, parse_scene(self.SCENE))
        assert [d.severity for d in diags] == ["error"]
        assert "ghost" in diags[0].message and diags[0].line == 2

    def test_condition_scene_ref_checked(self):
        rs = parse_rules("condition c: scene.ghost.visible == true\n")
        diags = validate(rs, parse_scene(self.SCENE))
        assert diags and diags[0].severity == "error"

    def test_write_write_conflict_is_warning_naming_both(self):
        rs = parse_rules(
            "condition c: env.x == true\n"
            "rule A priority 1 when c do set_text_size(panel, 24) category Style\n"
            "rule B priority 5 when c do set_text_size(panel, 30) category Style\n"
        )
        diags = validate(rs, parse_scene(self.SCENE))
        assert len(diags) == 1 and diags[0].severity == "warning"
        msg = diags[0].message
        assert "panel.text_size" in msg and "A" in msg and "B" in msg
        assert "priority 1" in msg and "priority 5" in msg

    def test_three_writers_give_one_warning_in_execution_order(self):
        rs = parse_rules(
            "condition c: env.x == true\n"
            "rule A priority 5 when c do set_text_size(panel, 24) category Style\n"
            "rule B priority 1 when c do set_text_size(panel, 30) category Style\n"
            "rule C priority 5 when c do set_text_size(panel, 36) category Style\n"
        )
        diags = validate(rs, parse_scene(self.SCENE))
        assert [(d.severity, d.line) for d in diags] == [("warning", 4)]
        assert diags[0].message == (
            "write-write conflict on panel.text_size: "
            "B (priority 1), A (priority 5), C (priority 5)"
        )

    @pytest.mark.parametrize("first, second, kinds", [
        ("1", "true", "int in rule 'R' and as bool"),
        ("1", "1.0", "int in rule 'R' and as float"),
        ('"on"', "(0.0,1.0,2.0)", "text in rule 'R' and as vec3"),
    ])
    def test_feature_written_with_two_types_is_error_naming_both(self, first, second, kinds):
        rs = parse_rules(
            "condition c: env.x == true\n"
            f"rule R when c do set_feature(env.y, {first}) category Style\n"
            "rule S when c do set_visible(panel, true) category Style\n"
            f"rule Q when c do set_feature(env.y, {second}) category Style\n"
        )
        diags = validate(rs, parse_scene(self.SCENE))
        assert [(d.severity, d.message, d.line) for d in diags] == [
            ("error", f"set_feature writes env.y as {kinds} in rule 'Q'", 4)
        ]
        # the engine still runs it, and the write of the second type fails there
        engine = init_engine(rs, parse_scene(self.SCENE), store_from({"env.x": False}))
        with pytest.raises(ActionError, match="rule 'Q': env.y holds"):
            engine.process_event([(FeatureId.parse("env.x"), True)])

    def test_feature_written_with_one_type_is_clean(self):
        rs = parse_rules(
            "condition c: env.x == true\n"
            "rule R when c do set_feature(env.y, 1); set_feature(env.z, false) category Style\n"
            "rule Q when c do set_feature(env.y, 2); set_feature(env.z, true) category Style\n"
        )
        assert validate(rs) == []

    def test_without_scene_skips_element_checks(self):
        rs = parse_rules(
            "condition c: env.x == true\n"
            "rule R when c do set_visible(ghost, true) category Style\n"
        )
        assert validate(rs, None) == []


# ---------------------------------------------------------------------------
# pretty-print round-trip property

RESERVED = {
    "condition", "rule", "priority", "when", "do", "category", "on", "goto",
    "until", "terminal", "step", "workflow", "scenario", "at", "set", "element",
    "true", "false", "dist", "env", "user", "platform", "scene",
}

idents = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in RESERVED
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
safe_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
texts = st.text(st.characters(blacklist_characters="\n\r"), max_size=12)
vec3s = st.builds(Vec3, finite_floats, finite_floats, finite_floats)
feature_refs = st.builds(
    lambda c, n: FeatureRef(FeatureId.parse(f"{c}.{n}")),
    st.sampled_from(["env", "user", "platform"]),
    idents,
)

_scene_prop_types = {"bool": "visible", "float": "text_size", "text": "text", "vec3": "position"}


def typed_leaf(tname: str):
    lits = {
        "bool": st.booleans().map(Lit),
        "int": safe_ints.map(Lit),
        "float": finite_floats.map(Lit),
        "text": texts.map(Lit),
        "vec3": vec3s.map(Lit),
    }
    options = [lits[tname], feature_refs]
    if tname in _scene_prop_types:
        options.append(st.builds(SceneRef, idents, st.just(_scene_prop_types[tname])))
    return st.one_of(*options)


def vec3_exprs():
    return typed_leaf("vec3")


def comparisons():
    def for_type(tname):
        ops = ["==", "!="] + (["<", "<=", ">", ">="] if tname in ("int", "float") else [])
        return st.builds(Compare, st.sampled_from(ops), typed_leaf(tname), typed_leaf(tname))

    plain = st.sampled_from(["bool", "int", "float", "text", "vec3"]).flatmap(for_type)
    with_dist = st.builds(
        Compare,
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        st.builds(Dist, vec3_exprs(), vec3_exprs()),
        finite_floats.map(Lit),
    )
    return st.one_of(plain, with_dist)


bool_exprs = st.recursive(
    st.one_of(st.booleans().map(Lit), feature_refs, comparisons()),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(BoolOp, st.sampled_from(["&&", "||"]), children, children),
    ),
    max_leaves=8,
)

detail_values = st.sampled_from(list(DetailLevel))
modality_sets = st.sets(st.sampled_from(list(Modality)), min_size=1).map(frozenset)
colors = st.tuples(
    st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
)
feature_ids = st.builds(
    lambda c, n: FeatureId.parse(f"{c}.{n}"), st.sampled_from(["env", "user", "platform"]), idents
)
literal_values = st.one_of(st.booleans(), safe_ints, finite_floats, texts, vec3s)

actions = st.one_of(
    st.builds(lambda e, v: ActionCall("set_visible", element=e, value=v), idents, st.booleans()),
    st.builds(lambda e, v: ActionCall("set_billboard", element=e, value=v), idents, st.booleans()),
    st.builds(lambda e, v: ActionCall("set_text", element=e, value=v), idents, texts),
    st.builds(
        lambda e, v: ActionCall("set_text_size", element=e, value=v),
        idents,
        st.floats(min_value=0.5, max_value=200, allow_nan=False),
    ),
    st.builds(lambda e, v: ActionCall("set_detail", element=e, value=v), idents, detail_values),
    st.builds(lambda e, v: ActionCall("set_modality", element=e, value=v), idents, modality_sets),
    st.builds(lambda e, v: ActionCall("highlight", element=e, value=v), idents, colors),
    st.builds(lambda e: ActionCall("clear_highlight", element=e, value=None), idents),
    st.builds(
        lambda f, v: ActionCall("set_feature", feature=f, value=v), feature_ids, literal_values
    ),
)


@st.composite
def rule_sets(draw):
    cond_ids = draw(st.lists(idents, min_size=1, max_size=4, unique=True))
    conditions = [ConditionDef(cid, draw(bool_exprs)) for cid in cond_ids]
    rule_ids = draw(
        st.lists(idents.map(lambda s: "r_" + s), min_size=0, max_size=3, unique=True)
    )
    rules = []
    for rid in rule_ids:
        refs = tuple(
            draw(st.lists(st.sampled_from(cond_ids), min_size=1, max_size=3, unique=True))
        )
        acts = tuple(draw(st.lists(actions, min_size=1, max_size=3)))
        rules.append(
            RuleDef(
                rid,
                draw(st.integers(-5, 5)),
                refs,
                acts,
                draw(st.sampled_from(list(AdaptationCategory))),
            )
        )
    return RuleSet(conditions, rules)


@settings(max_examples=200)
@given(rule_sets())
def test_pretty_print_round_trip(rs):
    assert parse_rules(pretty_print(rs)) == rs


@settings(max_examples=100)
@given(rule_sets(), st.integers(1, 9))
def test_records_behave_as_the_dataclasses_they_replaced(rs, line):
    """ConditionDef and RuleDef against the frozen dataclasses they replaced
    (tests/reference_records.py), over every pair of records from a rule set
    and its copies moved to another line or, for conditions, given other
    reads: equality, inequality and hashing leave out line and reads, a
    condition built without reads finds them, no attribute can be set, and
    a record equals no plain tuple, not even of its own fields."""
    records = [
        *rs.conditions, *rs.rules,
        *[ConditionDef(c.id, c.expr, line=line, reads=c.reads) for c in rs.conditions],
        *[ConditionDef(c.id, c.expr, reads=()) for c in rs.conditions],
        *[RuleDef(r.id, r.priority, r.conditions, r.actions, r.category, line=line) for r in rs.rules],
    ]

    def reference(record):
        if isinstance(record, ConditionDef):
            return reference_records.ConditionDef(record.id, record.expr, line=record.line, reads=record.reads)
        return reference_records.RuleDef(*record)

    for a in records:
        ra = reference(a)
        assert hash(a) == hash(ra)
        assert a != tuple(a) and not tuple(a) == a and not a == tuple(a)
        for name in (*a._fields, "other"):
            for record in (a, ra):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        for b in records:
            rb = reference(b)
            assert (a == b, a != b) == (ra == rb, ra != rb)
    for c in rs.conditions:
        built = ConditionDef(expr=c.expr, id=c.id, line=line)
        ref = reference_records.ConditionDef(expr=c.expr, id=c.id, line=line)
        assert tuple(built) == (ref.id, ref.expr, ref.line, ref.reads) == (c.id, c.expr, line, c.reads)


def test_round_trip_on_printer_fixture(fixtures_dir):
    text = (fixtures_dir / "printer" / "printer.rules").read_text()
    rs = parse_rules(text)
    assert parse_rules(pretty_print(rs)) == rs


def test_pretty_print_drops_comments():
    rs = parse_rules("# a comment\ncondition c: env.x == true  # inline\n")
    assert "#" not in pretty_print(rs)


# each format's parser, and a text whose second line holds a string literal
LINE_BREAK_STRINGS = {
    "rules": (parse_rules, 'condition c: env.x == true\nrule R when c do set_text(panel, "a{}b") category Style\n'),
    "scene": (parse_scene, 'element panel at (0.0,1.0,0.0)\nelement hints at (0,0,0) text "a{}b"\n'),
    "workflow": (parse_workflow, 'workflow w\nstep s "a{}b" target panel terminal\n'),
    "scenario": (parse_scenario, 'scenario s\nat 0 set env.t = "a{}b"\n'),
}


@pytest.mark.parametrize("fmt", sorted(LINE_BREAK_STRINGS))
def test_a_string_holds_no_line_break(fmt):
    """A string literal ends at CR or LF in every format, so such a literal
    is unterminated: no line break reaches a trace line."""
    parse, template = LINE_BREAK_STRINGS[fmt]
    parse(template.format(" "))
    for brk in ("\r", "\r\n"):
        with pytest.raises(DslSyntaxError, match="^line 2: unterminated string"):
            parse(template.format(brk))
