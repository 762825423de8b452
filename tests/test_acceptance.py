"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Golden traces under fixtures/ were derived by hand-simulating the
cycle semantics and are compared byte-exactly.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from hypothesis import given, settings

from adaptkit import (
    ActionCall,
    AdaptationCategory,
    ConditionDef,
    ContextCategory,
    ContextStore,
    DecreasingTimestamp,
    DetailLevel,
    DslSyntaxError,
    DuplicateFeatureInEvent,
    DuplicateId,
    DuplicateStep,
    ExprTypeError,
    FeatureId,
    NonQuiescent,
    RuleDef,
    RuleSet,
    SceneElement,
    SceneModel,
    UnknownCategory,
    UnknownConditionRef,
    UnknownEffector,
    UnknownStepRef,
    Vec3,
    compare_traces,
    init_engine,
    parse_rules,
    parse_scenario,
    parse_workflow,
    pretty_print,
)
from adaptkit.cli import main as cli_main
from adaptkit.dsl import Compare, FeatureRef, Lit
from adaptkit.workflow import GREEN

from conftest import FIXTURES, assert_same_lines, load_fixture_bundle, run_fixture
from reference_eval import eval_expr
from test_dsl import rule_sets
from test_scene import brute_force_best_yaw, facing_error

PRINTER = FIXTURES / "printer"
WAREHOUSE = FIXTURES / "warehouse"
CASCADE = FIXTURES / "cascade"


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS", flush=True)
            return result

        return wrapper

    return deco


def golden(rel: str) -> str:
    return (FIXTURES / rel).read_text(encoding="utf-8")


def assert_matches_golden(trace_text: str, rel: str) -> None:
    verdict = compare_traces(trace_text, golden(rel))
    assert verdict.match, (
        f"trace differs from {rel} at line {verdict.line}:\n"
        f"  expected: {verdict.expected}\n  actual:   {verdict.actual}"
    )


# ---------------------------------------------------------------------------
# 1. experience-level adaptation: first five uses show the hints


@criterion(1, "experience-level adaptation, first five uses")
def test_acceptance_1_experience_level(tmp_path, capsys):
    state = tmp_path / "app.state"
    started = time.perf_counter()
    traces = []
    for run in range(1, 7):
        out = tmp_path / f"run{run}.trace"
        code = cli_main(
            [
                "run",
                "--rules", str(PRINTER / "printer.rules"),
                "--scene", str(PRINTER / "printer.scene"),
                "--scenario", str(PRINTER / "first_uses.scenario"),
                "--state-file", str(state),
                "--trace", str(out),
            ]
        )
        assert code == 0
        traces.append(out.read_text())
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    hint_line = "PROP control_hints.visible false -> true  writer=ExperienceHintRule"
    for run, text in enumerate(traces[:5], start=1):
        assert hint_line in text, f"run {run} did not show the hints"
        assert_matches_golden(text, "printer/golden/first_uses_new.trace")
    assert hint_line not in traces[5], "run 6 must not show the hints"
    assert_matches_golden(traces[5], "printer/golden/first_uses_experienced.trace")
    assert state.read_text() == "user.app_use_count=6\n"
    assert elapsed < 1.0, f"six runs took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 2. view-angle adaptation: billboard keeps facing the moving user


@criterion(2, "view-angle adaptation, billboard facing")
def test_acceptance_2_view_angle():
    rules, scene, scenario, _ = load_fixture_bundle(
        "printer/printer.rules", "printer/printer.scene", "printer/face_user.scenario"
    )
    store = ContextStore()
    for fid, value in scenario.initial:
        store.set_feature(fid, value)
    engine = init_engine(rules, scene, store)
    user_feature = FeatureId(ContextCategory.USER, "position")

    def check_facing():
        user_pos = store.get_feature(user_feature)
        billboards = [el for el in scene.elements() if el.billboard]
        assert billboards, "the face-user rule must have made a billboard"
        for el in billboards:
            err = facing_error(el.yaw, el.position, user_pos)
            assert err < 1e-6, f"{el.id} off by {err} rad"
            best = brute_force_best_yaw(el.position, user_pos, step=1e-4)
            assert err <= facing_error(best, el.position, user_pos) + 1e-12

    check_facing()  # after the quiescent init at (0,0,5)
    for event in scenario.events:
        engine.process_event(list(event.sets))
        check_facing()
    assert_matches_golden(engine.trace.render(), "printer/golden/face_user.trace")


# ---------------------------------------------------------------------------
# 3. modality adaptation: dark switch to audio and back, byte-exact


@criterion(3, "modality adaptation, dark switch golden")
def test_acceptance_3_modality():
    trace = run_fixture(
        "printer/printer.rules", "printer/printer.scene", "printer/dark_switch.scenario"
    ).render()
    assert_matches_golden(trace, "printer/golden/dark_switch.trace")
    lines = trace.splitlines()
    executed = next(i for i, l in enumerate(lines) if l.endswith("RULE AudioOutRule EXECUTED"))
    unexecuted = next(
        i for i, l in enumerate(lines) if l.endswith("RULE AudioOutRule UNEXECUTED")
    )
    assert executed < unexecuted
    assert lines[unexecuted + 1].endswith(
        "PROP instruction_panel.modality audio -> visual  writer=AudioOutRule"
    )


# ---------------------------------------------------------------------------
# 4. distance adaptation: 1.2 m threshold is strictly greater-than


@criterion(4, "distance adaptation, 1.2 m strict threshold")
def test_acceptance_4_distance():
    trace = run_fixture(
        "printer/printer.rules", "printer/printer.scene", "printer/walk_away.scenario"
    ).render()
    assert_matches_golden(trace, "printer/golden/walk_away.trace")
    lines = trace.splitlines()
    # the event that puts the user exactly at 1.2 m must not trigger anything
    e1 = [l for l in lines if l.startswith("E1 ")]
    assert e1 == [
        "E1 C0 S0 EVENT set user.position = (0.000000,0.000000,1.200000)",
        "E1 C1 S0 QUIESCENT cycles=1",
    ]
    assert "PROP instruction_panel.detail full -> reduced  writer=DistanceDetailRule" in trace
    assert "PROP instruction_panel.text_size 14.000000 -> 24.000000" in trace
    assert "PROP instruction_panel.detail reduced -> full  writer=DistanceDetailRule" in trace
    assert "PROP instruction_panel.text_size 24.000000 -> 14.000000" in trace


# ---------------------------------------------------------------------------
# 5. warehouse workflows: single-order golden, exception branch


@criterion(5, "warehouse picking workflows")
def test_acceptance_5_warehouse():
    rules, scene, scenario, wf = load_fixture_bundle(
        "warehouse/warehouse.rules",
        "warehouse/warehouse.scene",
        "warehouse/single_order.scenario",
        "warehouse/single_order.workflow",
    )
    store = ContextStore()
    for fid, value in scenario.initial:
        store.set_feature(fid, value)
    engine = init_engine(rules, scene, store, wf)

    def greens():
        return [el.id for el in scene.elements() if el.highlight == GREEN]

    assert len(greens()) <= 1
    advances = 0
    for event in scenario.events:
        before = len(engine.trace)
        engine.process_event(list(event.sets))
        moved = [ev for ev in engine.trace.events[before:] if ev.kind == "workflow"]
        assert len(moved) == 1, "exactly one step per completion event"
        advances += len(moved)
        assert len(greens()) <= 1, "workflow highlight must stay exclusive"
    assert advances == 3
    assert engine.workflow.current_id == "done"
    assert_matches_golden(engine.trace.render(), "warehouse/golden/single_order.trace")

    # multi-order: the item_missing guard diverts to the exception branch
    exc_trace = run_fixture(
        "warehouse/warehouse.rules",
        "warehouse/warehouse.scene",
        "warehouse/multi_order_exception.scenario",
        "warehouse/multi_order.workflow",
    ).render()
    assert_matches_golden(exc_trace, "warehouse/golden/multi_order_exception.trace")
    assert "WORKFLOW step pick_first -> report_missing" in exc_trace

    # and stays on the default branch when the guard is false
    ok_trace = run_fixture(
        "warehouse/warehouse.rules",
        "warehouse/warehouse.scene",
        "warehouse/multi_order_complete.scenario",
        "warehouse/multi_order.workflow",
    ).render()
    assert_matches_golden(ok_trace, "warehouse/golden/multi_order_complete.trace")
    assert "WORKFLOW step pick_first -> goto_shelf_b2" in ok_trace


# ---------------------------------------------------------------------------
# 6. engine property suite: 1000+ generated cases per property, < 30 s


ENV = ContextCategory.ENVIRONMENT
FEATURES = [FeatureId(ENV, f"f{i}") for i in range(4)]
ELEMENTS = ("a_panel", "b_panel")


def _fresh_scene() -> SceneModel:
    return SceneModel(
        [
            SceneElement(id="a_panel", position=Vec3(0, 1, 0)),
            SceneElement(id="b_panel", position=Vec3(1, 1, 0), visible=False),
        ]
    )


def _conditions() -> list[ConditionDef]:
    return [
        ConditionDef(f"c{i}", Compare("==", FeatureRef(fid), Lit(True)))
        for i, fid in enumerate(FEATURES)
    ]


def _random_action(rng: random.Random) -> ActionCall:
    elem = rng.choice(ELEMENTS)
    kind = rng.randrange(4)
    if kind == 0:
        return ActionCall("set_visible", element=elem, value=rng.random() < 0.5)
    if kind == 1:
        return ActionCall("set_text", element=elem, value=f"t{rng.randrange(4)}")
    if kind == 2:
        return ActionCall("set_text_size", element=elem, value=float(rng.randrange(10, 40)))
    return ActionCall(
        "set_detail", element=elem, value=rng.choice([DetailLevel.FULL, DetailLevel.REDUCED])
    )


def _random_rules(rng: random.Random) -> RuleSet:
    conditions = _conditions()
    rules = []
    for i in range(rng.randint(1, 4)):
        conds = tuple(
            c.id for c in rng.sample(conditions, rng.randint(1, 2))
        )
        actions = tuple(_random_action(rng) for _ in range(rng.randint(1, 2)))
        rules.append(
            RuleDef(f"R{i}", rng.randint(-2, 5), conds, actions, AdaptationCategory.STYLE)
        )
    return RuleSet(conditions, rules)


def _random_events(rng: random.Random) -> list[list[tuple[FeatureId, bool]]]:
    events = []
    for _ in range(rng.randint(2, 4)):
        picked = rng.sample(FEATURES, rng.randint(1, 3))
        events.append([(fid, rng.random() < 0.5) for fid in picked])
    return events


def _run_case(rules: RuleSet, store_seed: list[bool], events) -> tuple:
    store = ContextStore()
    for fid, value in zip(FEATURES, store_seed):
        store.set_feature(fid, value)
    scene = _fresh_scene()
    engine = init_engine(rules, scene, store)
    for sets in events:
        engine.process_event(list(sets))
    return engine


@criterion(6, "engine property suite, 1000+ cases per property")
def test_acceptance_6_property_suite():
    started = time.perf_counter()
    n_cases = 1000

    # activation soundness + alternation + determinism + quiescence
    # idempotence, one generated case exercising all four
    rng = random.Random(0xC0FFEE)
    for case in range(n_cases):
        rules = _random_rules(rng)
        store_seed = [rng.random() < 0.5 for _ in FEATURES]
        events = _random_events(rng)

        engine = _run_case(rules, store_seed, events)
        # activation soundness at quiescence
        for rule in rules.rules:
            expected = all(
                eval_expr(rules.condition_by_id[c].expr, engine.store, engine.scene)
                for c in rule.conditions
            )
            assert engine.rule_active(rule.id) == expected, f"case {case}: {rule.id}"
        # exec/unexec alternation per rule
        seen: dict[str, str] = {}
        for ev in engine.trace:
            if ev.kind in ("rule_exec", "rule_unexec"):
                rid = ev.body.split()[1]
                if ev.kind == "rule_exec":
                    assert seen.get(rid) != "rule_exec", f"case {case}: double exec {rid}"
                else:
                    assert seen.get(rid) == "rule_exec", f"case {case}: unexec first {rid}"
                seen[rid] = ev.kind
        # determinism: an identical second run renders byte-identically
        engine2 = _run_case(rules, store_seed, events)
        assert_same_lines(engine.trace.render(), engine2.trace.render(), f"case {case}")
        # quiescence idempotence: an empty event adds exactly one line
        before = len(engine.trace)
        report = engine.process_event([])
        tail = engine.trace.events[before:]
        assert report.cycles == 1 and [ev.kind for ev in tail] == ["quiescent"], f"case {case}"

    # snapshot restore round-trip: execute then unexecute with no
    # interference returns every snapshot key to its prior value
    rng = random.Random(0xBEEF)
    for case in range(n_cases):
        conditions = _conditions()
        actions = tuple(_random_action(rng) for _ in range(rng.randint(1, 3)))
        rules = RuleSet(
            conditions, [RuleDef("R0", 0, ("c0",), actions, AdaptationCategory.STYLE)]
        )
        store = ContextStore()
        for fid in FEATURES:
            store.set_feature(fid, False)
        scene = _fresh_scene()
        engine = init_engine(rules, scene, store)
        baseline = {
            (el.id, prop): scene.get_property(el.id, prop)
            for el in scene.elements()
            for prop in ("visible", "text", "text_size", "detail")
        }
        engine.process_event([(FEATURES[0], True)])
        engine.process_event([(FEATURES[0], False)])
        after = {
            (el.id, prop): scene.get_property(el.id, prop)
            for el in scene.elements()
            for prop in ("visible", "text", "text_size", "detail")
        }
        assert after == baseline, f"case {case}: {after} != {baseline}"

    # priority conflict resolution vs a brute-force oracle over all
    # definition orders of 2..4 rules writing the same property
    rng = random.Random(0xFACADE)
    for case in range(n_cases):
        n = rng.randint(2, 4)
        priorities = [rng.randint(0, 3) for _ in range(n)]
        texts = [f"value_{i}" for i in range(n)]
        conditions = _conditions()
        base = [
            RuleDef(
                f"R{i}",
                priorities[i],
                ("c0",),
                (ActionCall("set_text", element="a_panel", value=texts[i]),),
                AdaptationCategory.STYLE,
            )
            for i in range(n)
        ]
        for perm in itertools.permutations(range(n)):
            ordered = [base[i] for i in perm]
            # oracle: enumerate writers, take max (priority, definition idx)
            winner_idx = max(range(n), key=lambda j: (ordered[j].priority, j))
            expected_text = ordered[winner_idx].actions[0].value
            rules = RuleSet(conditions, ordered)
            store = ContextStore()
            for fid in FEATURES:
                store.set_feature(fid, False)
            scene = _fresh_scene()
            engine = init_engine(rules, scene, store)
            engine.process_event([(FEATURES[0], True)])
            assert scene.element("a_panel").text == expected_text, (
                f"case {case} perm {perm}: priorities {[r.priority for r in ordered]}"
            )

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 7. cascade semantics: chained features and the oscillator bound


@criterion(7, "cascade semantics, chain and oscillator")
def test_acceptance_7_cascades(capsys):
    trace = run_fixture(
        "cascade/chain.rules", "cascade/chain.scene", "cascade/chain.scenario"
    ).render()
    assert_matches_golden(trace, "cascade/golden/chain.trace")
    e1 = [l for l in trace.splitlines() if l.startswith("E1 ")]
    assert e1[-1] == "E1 C3 S0 QUIESCENT cycles=3"  # hand-derived cycle count
    assert "E1 C2 S1 RULE ChainFollowerRule EXECUTED" in trace

    code = cli_main(
        [
            "run",
            "--rules", str(CASCADE / "oscillator.rules"),
            "--scene", str(CASCADE / "oscillator.scene"),
            "--scenario", str(CASCADE / "oscillator.scenario"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.strip().splitlines()
    assert lines[-1].endswith("NONQUIESCENT depth=16")
    assert max(int(l.split()[1][1:]) for l in lines) == 16


# ---------------------------------------------------------------------------
# 8. parser suite: round-trip property plus every documented error class


RULES_ERRORS = [
    ("condition broken env.x\n", DslSyntaxError, 1),
    ("condition ok: env.x == true\ncondition ok: env.y == true\n", DuplicateId, 2),
    ("rule R when ghost do set_visible(a, true) category Style\n", UnknownConditionRef, 1),
    ("condition c: dist(user.position, 3) > 1.0\n", ExprTypeError, 1),
    (
        "condition c: env.x == true\nrule R when c do explode(a) category Style\n",
        UnknownEffector,
        2,
    ),
    (
        "condition c: env.x == true\nrule R when c do set_visible(a, true) category Shiny\n",
        UnknownCategory,
        2,
    ),
]

WORKFLOW_ERRORS = [
    ('workflow w\nstep a "x" until c\n', DslSyntaxError, 2),
    ('workflow w\nstep a "x" until c goto ghost\n', UnknownStepRef, 2),
    ('workflow w\nstep a "x" terminal\nstep a "y" terminal\n', DuplicateStep, 3),
]

SCENARIO_ERRORS = [
    ("scenario s\nat 0 env.a = 1\n", DslSyntaxError, 2),
    ("scenario s\nat 9 set env.a = 1\nat 3 set env.a = 2\n", DecreasingTimestamp, 3),
    ("scenario s\nat 5 set env.a = 1\nat 5 set env.a = 2\n", DuplicateFeatureInEvent, 3),
]


@criterion(8, "parser suite, round-trip and error classes")
def test_acceptance_8_parsers():
    @settings(max_examples=300)
    @given(rule_sets())
    def roundtrip(rs):
        assert parse_rules(pretty_print(rs)) == rs

    roundtrip()

    for text, exc_type, line in RULES_ERRORS:
        try:
            parse_rules(text)
            raise AssertionError(f"no error for {text!r}")
        except exc_type as e:
            assert e.line == line, f"{exc_type.__name__}: line {e.line} != {line}"
    for text, exc_type, line in WORKFLOW_ERRORS:
        try:
            parse_workflow(text)
            raise AssertionError(f"no error for {text!r}")
        except exc_type as e:
            assert e.line == line, f"{exc_type.__name__}: line {e.line} != {line}"
    for text, exc_type, line in SCENARIO_ERRORS:
        try:
            parse_scenario(text)
            raise AssertionError(f"no error for {text!r}")
        except exc_type as e:
            assert e.line == line, f"{exc_type.__name__}: line {e.line} != {line}"

    # scenario parser accepts what the fixtures use
    sc = parse_scenario((PRINTER / "dark_switch.scenario").read_text())
    assert sc.id == "dark_switch" and len(sc.events) == 2

    # oscillation guard: the engine error for the non-quiescent fixture
    try:
        run_fixture(
            "cascade/oscillator.rules", "cascade/oscillator.scene", "cascade/oscillator.scenario"
        )
        raise AssertionError("oscillator quiesced unexpectedly")
    except NonQuiescent as e:
        assert e.depth == 16
