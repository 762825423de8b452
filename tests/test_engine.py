"""Engine semantics: init, condition lifecycle, rule undo, cascades."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import adaptkit

from adaptkit import (
    ActionCall,
    ActionError,
    AdaptationCategory,
    AdaptError,
    ContextStore,
    Engine,
    EvaluationError,
    FeatureId,
    NonQuiescent,
    RuleDef,
    RuleSet,
    SceneModel,
    ValidationFailed,
    Vec3,
    init_engine,
    parse_rules,
    parse_scenario,
    parse_scene,
    parse_workflow,
    pretty_print,
    run_scenario,
)

from adaptkit import engine as engine_module
from adaptkit import scene as scene_module
from adaptkit.engine import USER_POSITION as USER, Trace, TraceEvent
from adaptkit.scene import SceneElement, face_user_yaw
from adaptkit.values import float_bits

from conftest import (
    FIXTURES,
    assert_same_lines,
    bench_gen,
    engine_from_texts,
    fixture_text,
    run_fixture,
    scene_state,
    scene_states_equal,
    store_from,
)
from naive_engine import NaiveEngine

BASIC_SCENE = """
element panel at (0.0,1.0,0.0)
element hints at (0.0,1.2,0.0) visible false
"""


def basic_engine(initial: dict, rules_text: str, **kw) -> Engine:
    return engine_from_texts(rules_text, BASIC_SCENE, initial, **kw)


class TestInit:
    def test_empty_rule_set_trace_is_single_quiescent(self):
        engine = init_engine(RuleSet([], []), SceneModel(), ContextStore())
        assert engine.trace.render() == "E0 C1 S0 QUIESCENT cycles=1\n"

    def test_rule_already_satisfied_executes_during_init(self):
        engine = basic_engine(
            {"user.app_use_count": 1},
            "condition new_user: user.app_use_count <= 5\n"
            "rule HintRule when new_user do set_visible(hints, true) category Style\n",
        )
        assert engine.rule_active("HintRule")
        assert engine.scene.element("hints").visible is True
        assert "RULE HintRule EXECUTED" in engine.trace.render()

    def test_unset_feature_is_evaluation_error_at_init(self):
        with pytest.raises(EvaluationError):
            basic_engine(
                {},
                "condition c: env.never_set == true\n"
                "rule R when c do set_visible(panel, true) category Style\n",
            )

    def test_validation_errors_block_init(self):
        with pytest.raises(ValidationFailed):
            basic_engine(
                {"env.x": True},
                "condition c: env.x == true\n"
                "rule R when c do set_visible(ghost, true) category Style\n",
            )


class TestEvaluateCondition:
    RULES = "condition dark: env.luminance < 0.05\n"

    def fresh_engine(self, lum: float) -> Engine:
        # raw constructor: no init event, so first-evaluation semantics show
        return Engine(
            parse_rules(self.RULES), parse_scene(BASIC_SCENE), store_from({"env.luminance": lum})
        )

    def test_first_evaluation_counts_as_changed(self):
        engine = self.fresh_engine(0.01)
        assert engine.evaluate_condition("dark") == (True, True)
        assert engine.trace.events[-1].body == "COND dark -> true"

    def test_unchanged_reevaluation_emits_nothing(self):
        engine = self.fresh_engine(0.01)
        engine.evaluate_condition("dark")
        before = len(engine.trace)
        assert engine.evaluate_condition("dark") == (True, False)
        assert len(engine.trace) == before

    def test_flip_is_changed(self):
        engine = self.fresh_engine(0.01)
        engine.evaluate_condition("dark")
        engine.store.set_feature(FeatureId.parse("env.luminance"), 0.5)
        assert engine.evaluate_condition("dark") == (False, True)


class TestProcessEvent:
    def test_event_with_no_rules_quiesces_in_one_cycle(self):
        engine = init_engine(RuleSet([], []), SceneModel(), store_from({}))
        report = engine.process_event([(FeatureId.parse("env.luminance"), 0.5)])
        assert report.cycles == 1
        assert engine.trace.events[-2].body == "EVENT set env.luminance = 0.500000"
        assert engine.trace.events[-1].body == "QUIESCENT cycles=1"

    def test_feature_chain_cascades_across_cycles(self):
        engine = basic_engine(
            {"env.trigger": False, "env.flag": False},
            "condition t: env.trigger == true\n"
            "condition f: env.flag == true\n"
            "rule A when t do set_feature(env.flag, true) category Service\n"
            "rule B when f do set_visible(panel, false) category Style\n",
        )
        report = engine.process_event([(FeatureId.parse("env.trigger"), True)])
        assert report.cycles == 3
        exec_cycles = {
            ev.body.split()[1]: ev.cycle for ev in engine.trace if ev.kind == "rule_exec"
        }
        assert exec_cycles == {"A": 1, "B": 2}

    def test_quiescence_idempotence(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "rule R when c do set_visible(hints, true) category Style\n",
        )
        before = len(engine.trace)
        report = engine.process_event([])
        new = engine.trace.events[before:]
        assert report.cycles == 1
        assert [ev.kind for ev in new] == ["quiescent"]

    def test_oscillator_hits_cascade_bound(self):
        with pytest.raises(NonQuiescent) as exc:
            basic_engine(
                {"env.flag": False},
                "condition off: env.flag == false\n"
                "condition on: env.flag == true\n"
                "rule Up when off do set_feature(env.flag, true) category Service\n"
                "rule Down when on do set_feature(env.flag, false) category Service\n",
            )
        trace = exc.value.trace
        assert trace.events[-1].body == "NONQUIESCENT depth=16"
        assert max(ev.cycle for ev in trace.events) == 16

    def test_max_cascade_depth_is_configurable(self):
        with pytest.raises(NonQuiescent) as exc:
            basic_engine(
                {"env.flag": False},
                "condition off: env.flag == false\n"
                "condition on: env.flag == true\n"
                "rule Up when off do set_feature(env.flag, true) category Service\n"
                "rule Down when on do set_feature(env.flag, false) category Service\n",
                max_cascade_depth=4,
            )
        assert exc.value.trace.events[-1].body == "NONQUIESCENT depth=4"

    def test_simultaneous_sets_fire_conjunction_in_one_cycle(self):
        engine = basic_engine(
            {"env.a": False, "env.b": False},
            "condition ca: env.a == true\n"
            "condition cb: env.b == true\n"
            "rule Both when ca, cb do set_visible(hints, true) category Style\n",
        )
        engine.process_event(
            [(FeatureId.parse("env.a"), True), (FeatureId.parse("env.b"), True)]
        )
        execs = [ev for ev in engine.trace if ev.kind == "rule_exec"]
        assert len(execs) == 1 and execs[0].cycle == 1


class TestExecuteUnexecute:
    def test_snapshot_records_prior_values(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "rule R when c do set_visible(hints, true); set_text(hints, \"hi\") category Style\n",
        )
        assert engine.rule_snapshot("R") == {
            ("hints", "visible"): False,
            ("hints", "text"): "",
        }

    def test_noop_action_still_snapshots(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "rule R when c do set_visible(panel, true) category Style\n",
        )
        # visible was already true: RULE line, no PROP line, snapshot kept
        assert engine.rule_snapshot("R") == {("panel", "visible"): True}
        render = engine.trace.render()
        assert "RULE R EXECUTED" in render
        assert "PROP panel.visible" not in render

    def test_an_unknown_rule_id_raises(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "condition d: env.x == false\n"
            "rule R when c do set_visible(hints, true) category Style\n"
            "rule Q when d do set_visible(panel, false) category Style\n",
        )
        assert engine.rule_active("R") and not engine.rule_active("Q")
        assert engine.rule_snapshot("Q") == {}
        with pytest.raises(KeyError):
            engine.rule_active("nope")
        with pytest.raises(KeyError):
            engine.rule_snapshot("nope")

    def test_two_action_rule_props_in_action_order(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "rule R when c do set_text_size(panel, 24); set_detail(panel, reduced) category Style\n",
        )
        props = [ev.body for ev in engine.trace if ev.kind == "prop"]
        assert props == [
            "PROP panel.text_size 14.000000 -> 24.000000  writer=R",
            "PROP panel.detail full -> reduced  writer=R",
        ]

    def test_execute_unexecute_restores_scene_exactly(self):
        engine = basic_engine(
            {"env.x": False},
            "condition c: env.x == true\n"
            "rule R when c do set_text_size(panel, 24); set_detail(panel, reduced); "
            "set_modality(panel, audio, voice_input) category Style\n",
        )
        before = scene_state(engine.scene)
        engine.process_event([(FeatureId.parse("env.x"), True)])
        assert not scene_states_equal(scene_state(engine.scene), before)
        engine.process_event([(FeatureId.parse("env.x"), False)])
        assert scene_states_equal(scene_state(engine.scene), before)

    def test_ownership_skip_on_overwrite(self):
        # X wrote 14->24, then higher-priority Y wrote 24->30; X unexecutes:
        # no restore, and the unexec line records the skipped key.
        engine = basic_engine(
            {"env.x": False, "env.y": False},
            "condition cx: env.x == true\n"
            "condition cy: env.y == true\n"
            "rule X when cx do set_text_size(panel, 24) category Style\n"
            "rule Y priority 5 when cy do set_text_size(panel, 30) category Style\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        engine.process_event([(FeatureId.parse("env.y"), True)])
        assert engine.scene.element("panel").text_size == 30.0
        engine.process_event([(FeatureId.parse("env.x"), False)])
        assert engine.scene.element("panel").text_size == 30.0  # not clobbered
        unexec = [ev for ev in engine.trace if ev.kind == "rule_unexec"]
        assert unexec[-1].body == "RULE X UNEXECUTED skipped_restore=panel.text_size"

    def test_conflict_warnings_do_not_block_init(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "rule A when c do set_text_size(panel, 24) category Style\n"
            "rule B when c do set_text_size(panel, 30) category Style\n",
        )
        assert engine.scene.element("panel").text_size == 30.0

    def test_skipped_restore_lists_keys_lexicographically(self):
        engine = basic_engine(
            {"env.x": False, "env.y": False},
            "condition cx: env.x == true\n"
            "condition cy: env.y == true\n"
            "rule X when cx do set_text_size(panel, 24); set_text(panel, \"x\") category Style\n"
            "rule Y priority 5 when cy do set_text_size(panel, 30); set_text(panel, \"y\") category Style\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        engine.process_event([(FeatureId.parse("env.y"), True)])
        engine.process_event([(FeatureId.parse("env.x"), False)])
        unexec = [ev for ev in engine.trace if ev.kind == "rule_unexec"]
        assert unexec[-1].body == (
            "RULE X UNEXECUTED skipped_restore=panel.text,panel.text_size"
        )

    def test_owner_restore_after_skip(self):
        engine = basic_engine(
            {"env.x": False, "env.y": False},
            "condition cx: env.x == true\n"
            "condition cy: env.y == true\n"
            "rule X when cx do set_text_size(panel, 24) category Style\n"
            "rule Y priority 5 when cy do set_text_size(panel, 30) category Style\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        engine.process_event([(FeatureId.parse("env.y"), True)])
        engine.process_event([(FeatureId.parse("env.x"), False)])
        # Y still owns the property: its unexecute restores its own prior (24)
        engine.process_event([(FeatureId.parse("env.y"), False)])
        assert engine.scene.element("panel").text_size == 24.0

    def test_set_feature_first_write_traces_old_as_unset(self):
        engine = basic_engine(
            {"env.x": False},
            "condition c: env.x == true\n"
            "rule R when c do set_feature(env.fresh, 3) category Service\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        props = [ev.body for ev in engine.trace if ev.kind == "prop"]
        assert props == ["PROP env.fresh unset -> 3  writer=R"]

    def test_set_feature_writes_are_not_reverted(self):
        engine = basic_engine(
            {"env.x": False, "env.out": False},
            "condition c: env.x == true\n"
            "rule R when c do set_feature(env.out, true) category Service\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        engine.process_event([(FeatureId.parse("env.x"), False)])
        assert engine.store.get_feature(FeatureId.parse("env.out")) is True

    def test_alternation_starts_with_execute(self):
        engine = basic_engine(
            {"env.x": False},
            "condition c: env.x == true\n"
            "rule R when c do set_visible(hints, true) category Style\n",
        )
        for value in (True, False, True, False):
            engine.process_event([(FeatureId.parse("env.x"), value)])
        kinds = [ev.kind for ev in engine.trace if ev.kind.startswith("rule_")]
        assert kinds == ["rule_exec", "rule_unexec", "rule_exec", "rule_unexec"]


class TestConflictResolution:
    def test_highest_priority_lands_last(self):
        engine = basic_engine(
            {"env.x": False},
            "condition c: env.x == true\n"
            "rule Low priority 1 when c do set_text(panel, \"low\") category Style\n"
            "rule High priority 9 when c do set_text(panel, \"high\") category Style\n"
            "rule Mid priority 5 when c do set_text(panel, \"mid\") category Style\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        assert engine.scene.element("panel").text == "high"
        execs = [ev.body.split()[1] for ev in engine.trace if ev.kind == "rule_exec"]
        assert execs == ["Low", "Mid", "High"]

    def test_definition_index_breaks_ties(self):
        engine = basic_engine(
            {"env.x": False},
            "condition c: env.x == true\n"
            "rule First when c do set_text(panel, \"first\") category Style\n"
            "rule Second when c do set_text(panel, \"second\") category Style\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        assert engine.scene.element("panel").text == "second"

    def test_deactivations_precede_activations(self):
        engine = basic_engine(
            {"env.x": True, "env.y": False},
            "condition cx: env.x == true\n"
            "condition cy: env.y == true\n"
            "rule A when cx do set_text(panel, \"a\") category Style\n"
            "rule B when cy do set_text(panel, \"b\") category Style\n",
        )
        engine.process_event(
            [(FeatureId.parse("env.x"), False), (FeatureId.parse("env.y"), True)]
        )
        lines = [ev.body for ev in engine.trace if ev.kind.startswith("rule_")]
        assert lines[-2:] == ["RULE A UNEXECUTED", "RULE B EXECUTED"]
        assert engine.scene.element("panel").text == "b"


class TestBillboards:
    def test_billboard_refresh_reaims_on_user_motion(self):
        engine = basic_engine(
            {"platform.tracking": True, "user.position": Vec3(0.0, 0.0, 5.0)},
            "condition t: platform.tracking == true\n"
            "rule Face when t do set_billboard(panel, true) category Style\n",
        )
        engine.process_event([(FeatureId.parse("user.position"), Vec3(5.0, 0.0, 0.0))])
        yaws = [ev.body for ev in engine.trace if "panel.yaw" in ev.body]
        assert yaws and yaws[-1].endswith("writer=billboard")
        assert engine.scene.element("panel").yaw == pytest.approx(1.5707963267948966, abs=1e-12)

    def test_non_vec_user_position_skips_refresh(self):
        engine = basic_engine(
            {"platform.tracking": True, "user.position": Vec3(3.0, 0.0, 0.0)},
            "condition t: platform.tracking == true\n"
            "rule Face when t do set_billboard(panel, true) category Style\n",
        )
        # a scenario could retype nothing here; force an odd store directly
        engine.store._values[FeatureId.parse("user.position")] = 0.5
        report = engine.process_event([])
        assert report.cycles == 1

    def test_stationary_user_produces_no_yaw_churn(self):
        engine = basic_engine(
            {"platform.tracking": True, "user.position": Vec3(3.0, 0.0, 0.0)},
            "condition t: platform.tracking == true\n"
            "rule Face when t do set_billboard(panel, true) category Style\n",
        )
        before = len(engine.trace)
        report = engine.process_event([])
        assert report.cycles == 1
        assert [ev.kind for ev in engine.trace.events[before:]] == ["quiescent"]


def engine_pair(rules_text: str, scene_text: str, initial: dict) -> list[Engine]:
    """An Engine and a NaiveEngine, each on its own parse, after E0."""
    out = []
    for cls in (Engine, NaiveEngine):
        engine = cls(parse_rules(rules_text), parse_scene(scene_text), store_from(initial))
        engine.process_event([])
        out.append(engine)
    return out


class TestSkippedRestore:
    def test_repeated_skips_share_their_body(self):
        engines = engine_pair(
            "condition a: env.a == true\n"
            "rule A when a do set_text(panel, \"a\"); set_visible(hints, true) category Style\n",
            BASIC_SCENE, {"env.a": False})
        A = FeatureId.parse("env.a")
        bodies = []
        takes = [("panel", "text", "x")] * 2 + [("hints", "visible", False), ("panel", "text", "x")]
        for element, prop, value in takes:  # a caller takes a property the rule wrote
            for engine in engines:
                engine.process_event([(A, True)])
                engine.scene.write_property(element, prop, value, writer="caller")
                engine.process_event([(A, False)])
            assert_same_lines(engines[0].trace.render(), engines[1].trace.render())
            bodies.append(next(ev.body for ev in reversed(engines[0].trace.events)
                               if ev.kind == "rule_unexec"))
        assert bodies[0] == bodies[3] == "RULE A UNEXECUTED skipped_restore=panel.text"
        assert bodies[2] == "RULE A UNEXECUTED skipped_restore=hints.visible"
        assert bodies[1] is bodies[0] and bodies[3] is not bodies[0]


class TestRestoreOfTheHeldObject:
    """An unexecute makes no write_property call for an owned target that
    holds the very object its snapshot does: the write would be a no-op.
    Every other restore is still a call, and the trace is NaiveEngine's,
    which restores every owned target."""

    RULES = (
        "condition a: env.a == true\n"
        "condition b: env.b == true\n"
        "condition c: env.c == true\n"
        'rule A when a do set_text(panel, "ab"); set_visible(hints, false) category Style\n'
        'rule B when b do set_text(panel, "x") category Style\n'
        'rule C when c do set_text(panel, "ab") category Style\n'
    )
    INITIAL = {"env.a": False, "env.b": False, "env.c": False}

    @pytest.fixture
    def writes(self, monkeypatch):
        """(scene, element, property, writer) of every write_property call."""
        seen = []
        write = SceneModel.write_property

        def spy(self, element_id, prop, value, writer):
            seen.append((self, element_id, prop, writer))
            return write(self, element_id, prop, value, writer)

        monkeypatch.setattr(SceneModel, "write_property", spy)
        return seen

    @staticmethod
    def calls(writes, engine) -> list:
        return [call[1:] for call in writes if call[0] is engine.scene]

    def test_a_target_holding_its_snapshot_is_not_written(self, writes):
        engines = engine_pair(self.RULES, BASIC_SCENE, self.INITIAL)
        A = FeatureId.parse("env.a")
        for engine in engines:  # hints is already invisible: A's write there is a no-op
            engine.process_event([(A, True)])
        writes.clear()
        for engine in engines:
            engine.process_event([(A, False)])
        assert self.calls(writes, engines[0]) == [("panel", "text", "A")]
        assert self.calls(writes, engines[1]) == [("hints", "visible", "A"), ("panel", "text", "A")]
        assert_same_lines(engines[0].trace.render(), engines[1].trace.render())
        assert engines[0].scene.element("panel").text == ""

    def test_three_writers_trace_as_the_reference(self, writes):
        engines = engine_pair(self.RULES, BASIC_SCENE, self.INITIAL)
        a, b, c = (FeatureId.parse(f"env.{x}") for x in "abc")
        steps = [
            [(a, True)],
            [(b, True)],
            [(b, False)],  # B restores A's own "ab" object
            [(c, True)],  # a no-op write: C's snapshot is the object the panel holds
            [(c, False)],  # so C's restore makes no call
            "caller",  # another writer sets the text away, then back to an equal other object
            [(a, False)],  # A still owns it: restored with a call; hints holds its snapshot
        ]
        for step in steps:
            for engine in engines:
                if step == "caller":
                    engine.scene.write_property("panel", "text", "x", writer="caller")
                    engine.scene.write_property("panel", "text", "".join(["a", "b"]), writer="caller")
                    engine.process_event([])
                else:
                    engine.process_event(step)
        assert_same_lines(engines[0].trace.render(), engines[1].trace.render())
        assert scene_states_equal(scene_state(engines[0].scene), scene_state(engines[1].scene))
        made = Counter(self.calls(writes, engines[0]))
        assert Counter(self.calls(writes, engines[1])) - made == Counter(
            [("panel", "text", "C"), ("hints", "visible", "A")])
        assert not made - Counter(self.calls(writes, engines[1]))


class TestBillboardPass:
    """The billboard list the scene keeps and the yaw text the engine
    reuses, against NaiveEngine (every element checked, every value
    rendered, in every cycle) and face_user_yaw."""

    SCENE = (
        "element panel at (0.0,1.0,0.0) billboard true\n"
        "element shelf at (-1.0,0.5,3.0) billboard true\n"
        "element sign at (2.0,1.0,1.0)\n"
    )
    RULES = (
        "condition on: env.on == true\n"
        "condition off: env.off == true\n"
        "rule On when on do set_billboard(sign, true) category Style\n"
        "rule Off when off do set_billboard(panel, false) category Style\n"
    )
    START = {"env.on": False, "env.off": False, "user.position": Vec3(1.0, 1.6, 5.0)}

    def engines(self):
        return engine_pair(self.RULES, self.SCENE, self.START)

    @staticmethod
    def step(engines, fn, event=True) -> None:
        """Apply fn to both engines; they must agree on the trace and the
        scene, and after an event every billboard must face the user as
        face_user_yaw says."""
        for engine in engines:
            fn(engine)
        fast, naive = engines
        assert_same_lines(fast.trace.render(), naive.trace.render())
        assert scene_states_equal(scene_state(fast.scene), scene_state(naive.scene))
        if not event:
            return
        user = fast.store.get_feature(USER)
        for el in fast.scene.elements():
            want = face_user_yaw(el.position, user)
            if el.billboard and want is not None:
                assert float_bits(el.yaw) == float_bits(want)

    @staticmethod
    def move(x, z):
        return lambda engine: engine.process_event([(USER, Vec3(x, 1.6, z))])

    @staticmethod
    def event(**flags):
        return lambda engine: engine.process_event(
            [(FeatureId.parse(f"env.{name}"), value) for name, value in flags.items()])

    def test_added_billboard_is_aimed(self):
        engines = self.engines()
        self.step(engines, self.move(3.0, 4.0))
        self.step(engines, lambda e: e.scene.add_element(
            SceneElement(id="board", position=Vec3(1.0, 2.0, -2.0), billboard=True)), event=False)
        self.step(engines, lambda e: e.process_event([]))  # the same position: only board turns
        assert engines[0].trace.events[-2].body.startswith("PROP board.yaw 0.000000 -> ")
        self.step(engines, self.move(-2.0, 1.0))
        assert engines[0].scene.element("board").yaw != 0.0

    def test_rules_turn_billboards_on_and_off(self):
        engines = self.engines()
        self.step(engines, self.move(3.0, 4.0))
        self.step(engines, self.event(on=True))  # sign turns in the cycle On executes
        assert engines[0].scene.element("sign").yaw != 0.0
        self.step(engines, self.move(2.5, 4.0))
        self.step(engines, self.event(off=True))
        panel_yaw = engines[0].scene.element("panel").yaw
        self.step(engines, self.move(-3.0, 2.0))
        assert engines[0].scene.element("panel").yaw == panel_yaw  # no longer a billboard
        self.step(engines, self.event(on=False))  # sign stops: On restores billboard false
        sign_yaw = engines[0].scene.element("sign").yaw
        self.step(engines, self.move(-3.0, 6.0))
        assert engines[0].scene.element("sign").yaw == sign_yaw
        self.step(engines, self.event(off=False))  # panel turns again
        self.step(engines, self.move(4.0, -1.0))

    def test_library_billboard_writes_are_seen(self):
        engines = self.engines()
        self.step(engines, self.move(3.0, 4.0))
        self.step(engines, lambda e: e.scene.write_property("sign", "billboard", True, writer="caller"),
                  event=False)
        self.step(engines, lambda e: e.process_event([]))
        assert engines[0].trace.events[-2].body.startswith("PROP sign.yaw 0.000000 -> ")
        self.step(engines, self.move(-1.0, 2.0))
        self.step(engines, lambda e: e.scene.write_property("panel", "billboard", False, writer="caller"),
                  event=False)
        panel_yaw = engines[0].scene.element("panel").yaw
        self.step(engines, self.move(-3.0, 0.5))
        assert engines[0].scene.element("panel").yaw == panel_yaw

    def test_yaw_written_between_reaims_is_the_old_value(self):
        # no effector writes a yaw, so a library call stands in for other writers
        engines = self.engines()
        self.step(engines, self.move(3.0, 4.0))
        self.step(engines, lambda e: e.scene.write_property("panel", "yaw", 1.0, writer="caller"), event=False)
        self.step(engines, self.move(2.0, 4.0))
        lines = [ev.body for ev in engines[0].trace.events if ev.body.startswith("PROP panel.yaw")]
        assert lines[-1].startswith("PROP panel.yaw 1.000000 -> ")
        self.step(engines, self.move(1.0, 4.0))

    def test_each_reaim_renders_only_the_new_yaws(self, monkeypatch):
        """A billboard line's old yaw is the new yaw of the element's last
        billboard line: its text is reused, not rendered again."""
        rendered = []
        spec = scene_module.WRITABLE["yaw"]
        monkeypatch.setitem(scene_module.WRITABLE, "yaw",
                            spec._replace(render=lambda v: rendered.append(v) or spec.render(v)))
        engine = self.engines()[0]
        assert len(rendered) == 4  # E0 turns both billboards: the parsed yaws are rendered
        rendered.clear()
        engine.process_event([(USER, Vec3(2.0, 1.6, 4.0))])
        assert len(rendered) == 2
        engine.scene.write_property("panel", "yaw", 1.0, writer="caller")
        rendered.clear()
        engine.process_event([(USER, Vec3(1.0, 1.6, 4.0))])
        assert len(rendered) == 3  # panel's old yaw is the caller's


class TestDependencyDriven:
    RULES = (
        "condition a: env.x > 1.0\n"
        "condition b: env.y > 1.0\n"
        "condition c: env.x < 5.0 && env.y < 5.0\n"
        "condition d: scene.panel.visible\n"
        "rule R when b do set_visible(panel, false) category Style\n"
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        """(cycle, condition id) of every evaluate_condition call."""
        seen = []
        cycle = [0]
        begin, evaluate = Trace.begin_cycle, Engine.evaluate_condition

        def begin_spy(self, event, k):
            cycle[0] = k
            return begin(self, event, k)

        def spy(self, cond_id):
            seen.append((cycle[0], cond_id))
            return evaluate(self, cond_id)

        monkeypatch.setattr(Trace, "begin_cycle", begin_spy)
        monkeypatch.setattr(Engine, "evaluate_condition", spy)
        return seen

    def test_e0_evaluates_every_condition(self, calls):
        basic_engine({"env.x": 2.0, "env.y": 0.5}, self.RULES)
        assert calls == [(1, "a"), (1, "b"), (1, "c"), (1, "d")]

    def test_feature_write_evaluates_only_its_readers(self, calls):
        engine = basic_engine({"env.x": 2.0, "env.y": 0.5}, self.RULES)
        calls.clear()
        report = engine.process_event([(FeatureId.parse("env.y"), 0.7)])
        assert report.cycles == 1
        assert calls == [(1, "b"), (1, "c")]

    def test_rule_scene_write_evaluates_its_readers_next_cycle(self, calls):
        engine = basic_engine({"env.x": 2.0, "env.y": 0.5}, self.RULES)
        calls.clear()
        report = engine.process_event([(FeatureId.parse("env.y"), 2.0)])
        assert engine.rule_active("R") and engine.cond_last["d"] is False
        assert report.cycles == 3
        assert calls == [(1, "b"), (1, "c"), (2, "d")]

    def test_a_scene_write_no_condition_reads_evaluates_nothing(self, calls):
        engine = basic_engine(
            {"env.x": 2.0, "user.position": Vec3(0.0, 0.0, 5.0)},
            "condition a: env.x > 1.0\n"
            "condition near: dist(user.position, scene.panel.position) < 2.0\n",
        )
        calls.clear()
        engine.scene.write_property("panel", "visible", False, writer="caller")
        engine.process_event([])
        assert calls == []

    def test_a_library_scene_write_evaluates_its_readers(self, calls):
        engine = basic_engine({"env.x": 2.0}, "condition v: scene.panel.visible == true\n")
        calls.clear()
        engine.scene.write_property("panel", "visible", False, writer="caller")
        engine.process_event([])
        assert calls == [(1, "v")]
        assert engine.cond_last["v"] is False and engine.trace.events[-2].body == "COND v -> false"

    def test_call_outside_the_loop_makes_the_next_cycle_full(self, calls):
        engine = basic_engine({"env.x": 2.0, "env.y": 0.5}, self.RULES)
        engine.store.set_feature(FeatureId.parse("env.y"), 2.0)
        engine.evaluate_condition("b")  # flips b, so no later evaluation sees it change
        calls.clear()
        engine.process_event([])
        assert engine.rule_active("R")
        assert [cid for cycle, cid in calls if cycle == 1] == ["a", "b", "c", "d"]

    def test_error_makes_the_next_cycle_full(self, calls):
        engine = basic_engine(
            {"env.x": 2.0, "env.y": 0.5},
            self.RULES + "rule Bad when a, b do set_feature(env.x, true) category Style\n",
        )
        with pytest.raises(ActionError):
            engine.process_event([(FeatureId.parse("env.y"), 2.0)])
        calls.clear()
        with pytest.raises(ActionError):  # Bad is still inactive with a and b true
            engine.process_event([])
        assert [cid for cycle, cid in calls if cycle == 1] == ["a", "b", "c", "d"]

    def test_one_element_sort_per_cycle(self, monkeypatch):
        engine = basic_engine(
            {"env.y": 0.5, "user.position": Vec3(0.0, 0.0, 5.0)},
            "condition b: env.y > 1.0\n"
            "rule R when b do set_billboard(panel, true) category Style\n",
        )
        sorts = []
        elements = SceneModel.elements
        monkeypatch.setattr(SceneModel, "elements", lambda self: sorts.append(1) or elements(self))
        report = engine.process_event([(FeatureId.parse("env.y"), 2.0)])
        assert len(sorts) == report.cycles


class TestDiagnostics:
    """An engine checks only that the elements and conditions its rules and
    workflow name exist (dsl.unresolved); it never calls validate."""

    SCENE = BASIC_SCENE + 'element instruction_panel at (0.0,1.6,0.5) text ""\n'
    WORKFLOW = 'workflow w\nstep s1 "x" target panel until c goto fin\nstep fin "y" terminal\n'

    @pytest.fixture(autouse=True)
    def no_validate(self, monkeypatch):
        """validate fails wherever the package binds it."""
        validate = sys.modules["adaptkit.dsl"].validate
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "adaptkit" and getattr(module, "validate", None) is validate:
                monkeypatch.setattr(module, "validate", lambda *a: pytest.fail("validate called"))

    def test_engine_never_validates(self):
        rules, scene = parse_rules("condition c: env.x == true\n"), parse_scene(self.SCENE)
        workflow = parse_workflow(self.WORKFLOW)
        Engine(rules, scene, store_from({"env.x": True}), workflow)
        init_engine(rules, scene, store_from({"env.x": True}), workflow)
        scenario = parse_scenario("scenario s\nat 0 set env.x = false\nat 5 set env.x = true\n")
        assert run_scenario(rules, scene, scenario, workflow).render().endswith("QUIESCENT cycles=2\n")

    @pytest.mark.parametrize(
        "rules_text, workflow_text, scene_text, message",
        [
            ("condition c: scene.ghost.visible == true\n", None, SCENE,
             "condition 'c' references unknown element 'ghost'"),
            ("condition c: env.x == true\nrule R when c do set_visible(nope, true) category Style\n", None, SCENE,
             "rule 'R' targets unknown element 'nope'"),
            ("condition c: env.x == true\n", 'workflow w\nstep s1 "x" until nocond goto fin\nstep fin "y" terminal\n',
             SCENE, "step 's1' references unknown condition 'nocond'"),
            ("condition c: env.x == true\n", WORKFLOW.replace("panel", "zz"), SCENE,
             "step 's1' targets unknown element 'zz'"),
            ("condition c: env.x == true\n", WORKFLOW, BASIC_SCENE,
             "workflow needs an 'instruction_panel' element in the scene"),
        ],
        ids=["condition-element", "rule-element", "step-condition", "step-target", "instruction-panel"],
    )
    def test_each_unresolved_name_blocks_init(self, rules_text, workflow_text, scene_text, message):
        workflow = parse_workflow(workflow_text) if workflow_text else None
        with pytest.raises(ValidationFailed) as info:
            init_engine(parse_rules(rules_text), parse_scene(scene_text), store_from({"env.x": True}), workflow)
        assert str(info.value) == message

    def test_all_unresolved_names_in_one_message(self):
        rules = parse_rules(
            "condition a: scene.ghost.visible == true\n"
            "rule R when a do set_visible(nope, true) category Style\n"
        )
        workflow = parse_workflow('workflow w\nstep s1 "x" target zz until nocond goto fin\nstep fin "y" terminal\n')
        with pytest.raises(ValidationFailed) as info:
            Engine(rules, parse_scene(BASIC_SCENE), ContextStore(), workflow)
        assert str(info.value) == (
            "condition 'a' references unknown element 'ghost'; rule 'R' targets unknown element 'nope'; "
            "step 's1' references unknown condition 'nocond'; step 's1' targets unknown element 'zz'; "
            "workflow needs an 'instruction_panel' element in the scene"
        )

    @pytest.mark.parametrize("fault", ["undefined-condition", "repeated-rule", "repeated-condition"])
    def test_a_rule_set_the_parser_refuses_blocks_init(self, fault):
        """A rule set built in code can name a condition it does not define or
        repeat an id, which no rules file can. The engine refuses it with the
        message parse_rules raises for the set's printed text, so a second
        rule R can no longer run on the first one's condition."""
        parsed = parse_rules("condition c: env.x == true\n")
        show = ActionCall("set_visible", element="hints", value=True)
        rules = {
            "undefined-condition": RuleSet(
                parsed.conditions, [RuleDef("R", 0, ("c", "nope"), (show,), AdaptationCategory.STYLE)]),
            "repeated-rule": RuleSet(parsed.conditions, [
                RuleDef("R", 0, ("c",), (show,), AdaptationCategory.STYLE),
                RuleDef("R", 0, ("c",), (ActionCall("set_text", element="panel", value="y"),),
                        AdaptationCategory.STYLE)]),
            "repeated-condition": RuleSet(parsed.conditions * 2, []),
        }[fault]
        with pytest.raises(AdaptError) as refused:
            parse_rules(pretty_print(rules))
        message = str(refused.value).partition(": ")[2]
        with pytest.raises(ValidationFailed) as info:
            init_engine(rules, parse_scene(self.SCENE), store_from({"env.x": True}))
        assert str(info.value) == message

    def test_feature_of_two_types_builds_and_fails_at_the_write(self):
        rules = parse_rules(
            "condition c: env.x == true\n"
            "rule S when c do set_feature(env.f, 1) category Style\n"
            "rule T when c do set_feature(env.f, 1.0) category Style\n"
        )
        Engine(rules, parse_scene(BASIC_SCENE), store_from({"env.x": True}))
        with pytest.raises(ActionError, match="rule 'T': env.f holds int, cannot set float"):
            init_engine(rules, parse_scene(BASIC_SCENE), store_from({"env.x": True}))


def test_trace_indices_strictly_increase():
    engine = basic_engine(
        {"env.x": False, "env.luminance": 0.5},
        "condition c: env.x == true\n"
        "condition dark: env.luminance < 0.05\n"
        "rule R when c do set_visible(hints, true) category Style\n",
    )
    engine.process_event([(FeatureId.parse("env.x"), True)])
    engine.process_event([(FeatureId.parse("env.luminance"), 0.01)])
    triples = [(ev.event, ev.cycle, ev.seq) for ev in engine.trace]
    assert triples == sorted(set(triples))


def test_determinism_double_run_byte_equality():
    def run():
        engine = basic_engine(
            {"env.x": False, "env.luminance": 0.5},
            "condition c: env.x == true\n"
            "condition dark: env.luminance < 0.05\n"
            "rule R when c do set_visible(hints, true) category Style\n"
            "rule D when dark do set_modality(panel, audio) category Modality\n",
        )
        engine.process_event([(FeatureId.parse("env.x"), True)])
        engine.process_event([(FeatureId.parse("env.luminance"), 0.01)])
        engine.process_event([(FeatureId.parse("env.x"), False)])
        return engine.trace.render()

    assert run() == run()


# A subprocess replay of two fixtures, of the benchmark's head-tracking
# walk cut to its first 60 events and of its cascade churn cut to its
# first 10, which drain the most features and scene properties per cycle;
# it prints the SHA-256 of the four traces.
REPLAY = """
import dataclasses, hashlib, importlib.util, sys
from pathlib import Path
from adaptkit import parse_rules, parse_scenario, parse_scene, parse_workflow, run_scenario
root = Path(sys.argv[1])
spec = importlib.util.spec_from_file_location("bench_gen", root / "bench" / "gen.py")
gen = sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
spec.loader.exec_module(gen)
walk, churn = gen.gen_tracking_stream(1), gen.gen_cascade_churn(1)
read = lambda name: (root / "fixtures" / name).read_text(encoding="utf-8")
digest = hashlib.sha256()
for rules, scene, workflow, scenario, events in (
    (read("warehouse/warehouse.rules"), read("warehouse/warehouse.scene"), read("warehouse/multi_order.workflow"),
     read("warehouse/multi_order_exception.scenario"), None),
    (read("cascade/chain.rules"), read("cascade/chain.scene"), None, read("cascade/chain.scenario"), None),
    (walk.rules, walk.scene, walk.workflow, walk.scenario, 60),
    (churn.rules, churn.scene, churn.workflow, churn.scenario, 10),
):
    parsed = parse_scenario(scenario)
    parsed = dataclasses.replace(parsed, events=parsed.events[:events])
    workflow = workflow and parse_workflow(workflow)
    trace = run_scenario(parse_rules(rules), parse_scene(scene), parsed, workflow=workflow)
    digest.update(trace.render().encode())
print(digest.hexdigest())
"""


def test_traces_do_not_depend_on_the_hash_seed():
    """String hashes, and so set and dict orders, change with PYTHONHASHSEED;
    the engine's tables are built from sets and dicts, its traces must not."""
    env = {**os.environ, "PYTHONPATH": str(Path(adaptkit.__file__).resolve().parent.parent)}
    digests = [
        subprocess.run([sys.executable, "-c", REPLAY, str(FIXTURES.parent)], env={**env, "PYTHONHASHSEED": seed},
                       capture_output=True, text=True, check=True).stdout
        for seed in ("0", "99")
    ]
    assert digests[0] == digests[1] and len(digests[0]) == 65


def _tracking_walk(cls, events: int = 60):
    """An engine of ``cls`` after E0 of the benchmark's tracking_stream at
    seed 1, and that walk's first ``events`` events."""
    walk = bench_gen().gen_tracking_stream(1)
    scenario = parse_scenario(walk.scenario)
    store = ContextStore()
    for feature, value in scenario.initial:
        store.set_feature(feature, value)
    engine = cls(parse_rules(walk.rules), parse_scene(walk.scene), store, parse_workflow(walk.workflow))
    engine.process_event([])
    return engine, scenario.events[:events]


def test_a_false_operand_keeps_its_chain_from_being_evaluated(monkeypatch):
    """Each reading_signNN condition is ``dist(user.position,
    scene.signNN.position) < 2.5 && scene.signNN.yaw > 3.2``, and the
    billboard pass writes every sign's yaw in each event. While the user is
    out of reach of a sign, its false dist() operand keeps those writes from
    making it due: the walk evaluates at most four conditions per event,
    and writes the trace of the loop that evaluates them all."""
    engine, events = _tracking_walk(Engine)
    calls = []
    evaluate = Engine.evaluate_condition
    monkeypatch.setattr(Engine, "evaluate_condition",
                        lambda self, cond_id: calls.append(cond_id) or evaluate(self, cond_id))
    for event in events:
        engine.process_event(list(event.sets))
    monkeypatch.undo()
    assert len(calls) <= 4 * len(events)
    naive, _ = _tracking_walk(NaiveEngine)
    for event in events:
        naive.process_event(list(event.sets))
    assert_same_lines(engine.trace.render(), naive.trace.render())


def test_a_gated_operand_keeps_its_chain_from_being_evaluated(monkeypatch):
    """``c``'s first operand reads user.position only through dist(), and
    its second reads it directly. While the first is false and inside its
    safe region, a position write does not make ``c`` due, though the
    second operand reads the position: a walk of 40 steps through the
    radius around s evaluates ``c`` at the steps inside it and a few others,
    and writes the trace of the loop that evaluates it at every step."""
    rules = (
        "condition c: dist(user.position, scene.s.position) < 1.0 && user.position != (9.0,9.0,9.0)\n"
        "rule R when c do set_visible(s, false) category Style\n"
    )
    walk = [Vec3(6.0 - 0.3 * k, 0.0, 0.0) for k in range(1, 41)]
    engines = engine_pair(rules, "element s at (0.0,0.0,0.0)\n", {"user.position": Vec3(6.0, 0.0, 0.0)})
    calls = []
    evaluate = Engine.evaluate_condition
    monkeypatch.setattr(Engine, "evaluate_condition",
                        lambda self, cond_id: calls.append(cond_id) or evaluate(self, cond_id))
    for position in walk:
        engines[0].process_event([(USER, position)])
    monkeypatch.undo()
    for position in walk:
        engines[1].process_event([(USER, position)])
    assert_same_lines(engines[0].trace.render(), engines[1].trace.render())
    inside = sum(abs(p.x) < 1.0 for p in walk)
    assert inside == 7 and len(calls) <= inside + 6, calls


def test_a_gate_of_an_operand_that_is_not_watched_makes_nothing_due(monkeypatch):
    """``c``'s first operand, ``scene.s.visible == false``, stays false, and
    its second reads user.position only through dist(). While the first is
    false, a position write does not make ``c`` due, even where the walk
    crosses the radius around s and the dist() atom is past its deadline:
    after E0 the walk evaluates ``c`` never, and writes the trace of the
    loop that evaluates it at every step."""
    rules = (
        "condition c: scene.s.visible == false && dist(user.position, scene.s.position) < 1.0\n"
        "rule R when c do set_text(s, \"near\") category Style\n"
    )
    walk = [Vec3(6.0 - 0.3 * k, 0.0, 0.0) for k in range(1, 41)]
    engines = engine_pair(rules, "element s at (0.0,0.0,0.0)\n", {"user.position": Vec3(6.0, 0.0, 0.0)})
    calls = []
    evaluate = Engine.evaluate_condition
    monkeypatch.setattr(Engine, "evaluate_condition",
                        lambda self, cond_id: calls.append(cond_id) or evaluate(self, cond_id))
    for position in walk:
        engines[0].process_event([(USER, position)])
    monkeypatch.undo()
    for position in walk:
        engines[1].process_event([(USER, position)])
    assert_same_lines(engines[0].trace.render(), engines[1].trace.render())
    assert sum(abs(p.x) < 1.0 for p in walk) == 7 and calls == []


def test_an_operand_that_reads_a_feature_directly_is_not_gated_on_it():
    """``c`` is one operand that reads user.position through dist() and
    directly. Its dist() atom stays false far inside its safe region, yet
    each position write makes ``c`` due, and it turns true where the
    direct read matches, as in the loop that evaluates it at every step."""
    rules = (
        "condition c: dist(user.position, scene.s.position) > 100.0 || user.position == (5.0,0.0,0.0)\n"
        "rule R when c do set_visible(s, false) category Style\n"
    )
    engines = engine_pair(rules, "element s at (0.0,0.0,0.0)\n", {"user.position": Vec3(4.0, 0.0, 0.0)})
    for x in (4.5, 5.0, 5.5):
        for engine in engines:
            engine.process_event([(USER, Vec3(x, 0.0, 0.0))])
    assert_same_lines(engines[0].trace.render(), engines[1].trace.render())
    assert [ev.body for ev in engines[0].trace.events if ev.kind == "cond"] == [
        "COND c -> false", "COND c -> true", "COND c -> false"]


class TestFailingAction:
    """A rule whose third action fails: the partial trace, with its S
    numbers, must be the reference loop's, and so must the lines emitted
    after the failure in the same cycle."""

    RULES = (
        "condition c: env.go == true\n"
        "rule R when c do set_text(panel, \"x\"); set_visible(hints, true); set_feature(env.flag, 1);"
        " set_visible(panel, false) category Style\n"
    )

    def _engines(self):
        from naive_engine import NaiveEngine

        engines = []
        for cls in (Engine, NaiveEngine):
            store = store_from({"env.go": False, "env.flag": True})
            engine = cls(parse_rules(self.RULES), parse_scene(BASIC_SCENE), store)
            engine.process_event([])
            engines.append(engine)
        return engines

    def test_partial_trace_matches_reference(self):
        engines = self._engines()
        for engine in engines:
            with pytest.raises(ActionError, match="env.flag holds bool"):
                engine.process_event([(FeatureId.parse("env.go"), True)])
        fast, naive = (e.trace.render() for e in engines)
        assert fast == naive
        assert fast.endswith(
            "E1 C1 S1 RULE R EXECUTED\n"
            'E1 C1 S2 PROP panel.text "" -> "x"  writer=R\n'
            "E1 C1 S3 PROP hints.visible false -> true  writer=R\n"
        )
        for engine in engines:  # a caller retries the rule in the same cycle
            engine.scene.write_property("panel", "text", "", "caller")
            with pytest.raises(ActionError):
                engine.execute_rule("R")
        fast, naive = (e.trace.render() for e in engines)
        assert fast == naive
        assert fast.endswith('E1 C1 S4 RULE R EXECUTED\nE1 C1 S5 PROP panel.text "" -> "x"  writer=R\n')


class TestSequenceNumbers:
    """A line's S counts the lines since its cycle began, and a line written
    outside process_event continues the last cycle (E0 C0 before any). The
    traces are written out, apart from NaiveEngine's own numbering."""

    def test_outside_flip_continues_the_last_cycle(self):
        engine = basic_engine(
            {"env.x": False, "env.y": 0.0},
            "condition c: env.x == true\n"
            "rule R when c do set_visible(hints, true) category Style\n",
        )
        engine.process_event([(FeatureId.parse("env.y"), 1.0)])
        engine.store.set_feature(FeatureId.parse("env.x"), True)
        assert engine.evaluate_condition("c") == (True, True)
        assert engine.trace.render() == (
            "E0 C1 S0 COND c -> false\n"
            "E0 C2 S0 QUIESCENT cycles=2\n"
            "E1 C0 S0 EVENT set env.y = 1.000000\n"
            "E1 C1 S0 QUIESCENT cycles=1\n"
            "E1 C1 S1 COND c -> true\n"
        )

    def test_line_after_a_failed_execute_follows_its_partial_lines(self):
        engine = basic_engine({"env.go": False, "env.flag": True}, TestFailingAction.RULES)
        with pytest.raises(ActionError, match="env.flag holds bool"):
            engine.execute_rule("R")
        engine.store.set_feature(FeatureId.parse("env.go"), True)
        assert engine.evaluate_condition("c") == (True, True)
        assert engine.trace.render() == (
            "E0 C1 S0 COND c -> false\n"
            "E0 C2 S0 QUIESCENT cycles=2\n"
            "E0 C2 S1 RULE R EXECUTED\n"
            'E0 C2 S2 PROP panel.text "" -> "x"  writer=R\n'
            "E0 C2 S3 PROP hints.visible false -> true  writer=R\n"
            "E0 C2 S4 COND c -> true\n"
        )

    def test_outside_unexecute_numbers_its_restores_and_the_next_event_restarts(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "rule R when c do set_visible(hints, true); set_text(panel, \"a\") category Style\n",
        )
        engine.unexecute_rule("R")
        engine.process_event([])
        assert engine.trace.render() == (
            "E0 C1 S0 COND c -> true\n"
            "E0 C1 S1 RULE R EXECUTED\n"
            "E0 C1 S2 PROP hints.visible false -> true  writer=R\n"
            'E0 C1 S3 PROP panel.text "" -> "a"  writer=R\n'
            "E0 C2 S0 QUIESCENT cycles=2\n"
            "E0 C2 S1 RULE R UNEXECUTED\n"
            "E0 C2 S2 PROP hints.visible true -> false  writer=R\n"
            'E0 C2 S3 PROP panel.text "a" -> ""  writer=R\n'
            "E1 C1 S0 RULE R EXECUTED\n"
            "E1 C1 S1 PROP hints.visible false -> true  writer=R\n"
            'E1 C1 S2 PROP panel.text "" -> "a"  writer=R\n'
            "E1 C2 S0 QUIESCENT cycles=2\n"
        )


def test_trace_render_is_each_line_rendered(monkeypatch):
    engine = basic_engine(
        {"env.x": False},
        "condition c: env.x == true\n"
        "rule R when c do set_visible(hints, true); set_text(panel, \"a b\") category Style\n",
    )
    engine.process_event([(FeatureId.parse("env.x"), True)])
    lines = "".join(ev.render() + "\n" for ev in engine.trace)
    assert_same_lines(engine.trace.render(), lines)
    for chunk in (1, 2, 3):  # 8 lines: chunks that divide them, and one that leaves a part
        monkeypatch.setattr(engine_module, "RENDER_CHUNK", chunk)
        assert_same_lines(engine.trace.render(), lines, f"chunk {chunk}")


def _appended_trace() -> tuple[Trace, list[TraceEvent]]:
    """A Trace built through its own appends, and its lines numbered here:
    lines before any cycle (E0 C0), empty cycles, two of them begun at one
    line and one at the end, cycles of every length up to one straddling a
    whole chunk, and more than two chunks in all."""
    chunk = engine_module.RENDER_CHUNK
    trace, expected = Trace(), []
    for s in range(2):
        trace.append(f"EVENT set env.x = {s}")
        expected.append(TraceEvent(0, 0, s, f"EVENT set env.x = {s}"))
    sizes = [0, 0, 3, 1, chunk + 5, 0, 2] + [i % 37 for i in range(150)] + [chunk - 1, 0]
    for k, size in enumerate(sizes):
        event, cycle = k // 4, k % 4
        trace.begin_cycle(event, cycle)
        for s in range(size):
            body = f"PROP x.text {k} {s}"
            trace.append(body)
            expected.append(TraceEvent(event, cycle, s, body))
    assert len(expected) > 2 * chunk
    return trace, expected


def test_trace_render_longer_than_a_chunk():
    assert Trace().render() == ""
    trace, expected = _appended_trace()
    assert list(trace) == expected
    assert_same_lines(trace.render(), "".join(ev.render() + "\n" for ev in expected))
    assert_same_lines(trace.render(), "".join(ev.render() + "\n" for ev in trace))


class TestTraceEventsView:
    """``Trace.events`` is a read-only sequence of the trace's lines, each a
    TraceEvent made when it is read."""

    def test_length_indexing_and_iteration(self):
        trace, expected = _appended_trace()
        events = trace.events
        assert len(events) == len(trace) == len(expected)
        assert [events[i] for i in range(len(expected))] == expected
        assert [events[i] for i in range(-len(expected), 0)] == expected
        assert list(events) == list(iter(events)) == expected
        assert list(reversed(events)) == expected[::-1]
        assert type(events[0]) is TraceEvent and events[0].render() == "E0 C0 S0 EVENT set env.x = 0"
        for i in (len(expected), -len(expected) - 1, 10**9):
            with pytest.raises(IndexError):
                events[i]

    def test_slices(self):
        trace, expected = _appended_trace()
        n, chunk = len(expected), engine_module.RENDER_CHUNK
        for sl in (slice(None), slice(5, 9), slice(chunk - 3, chunk + 3), slice(-10, None),
                   slice(None, 4), slice(9, 5), slice(n, n + 5), slice(-n - 5, 3),
                   slice(1, n, 3), slice(None, None, 7), slice(None, None, -1), slice(n, 2, -5)):
            assert trace.events[sl] == expected[sl], sl

    def test_read_only_and_live(self):
        trace, expected = _appended_trace()
        events = trace.events
        assert not hasattr(events, "append") and not hasattr(events, "extend")
        with pytest.raises(TypeError):
            events[0] = expected[1]
        with pytest.raises(TypeError):
            del events[0]
        trace.append("QUIESCENT cycles=3")
        assert len(events) == len(expected) + 1
        assert events[-1] == TraceEvent(39, 2, 0, "QUIESCENT cycles=3")


def test_render_grows_the_text_in_place():
    """The guard on the trace's memory. Events 1-10 of cascade_churn seed 1
    build the rules' plans and fill the line caches; over events 11-20 the
    heap grows by less than 40 bytes a line (a body that repeats is shared,
    so a line costs its list slot; a record per line, a 4-tuple, cost about
    90). Trace.render then allocates at most 1.2 times the text: the text,
    grown in place, and one chunk of lines."""
    w = bench_gen().gen_cascade_churn(1)
    scenario = parse_scenario(w.scenario)
    store = ContextStore()
    for feature, value in scenario.initial:
        store.set_feature(feature, value)
    tracemalloc.start()
    try:
        engine = init_engine(parse_rules(w.rules), parse_scene(w.scene), store, parse_workflow(w.workflow))
        for event in scenario.events[:10]:
            engine.process_event(list(event.sets))
        lines, size = len(engine.trace), tracemalloc.get_traced_memory()[0]
        for event in scenario.events[10:20]:
            engine.process_event(list(event.sets))
        lines, size = len(engine.trace) - lines, tracemalloc.get_traced_memory()[0] - size
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = engine.trace.render()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert lines > 5000 and size / lines < 40
    assert len(engine.trace) > 10 * engine_module.RENDER_CHUNK and peak <= 1.2 * len(text)


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_the_engine_keeps_few_objects_for_the_collector():
    """The guard on what set-up leaves the collector to scan, on wide_rules
    seed 1 (1000 conditions and rules). Engine(...) keeps at most 4 tracked
    objects per condition: an atom is its own evaluator, and only an ``&&``
    chain has a first_false list. E0 keeps at most 7.5 per plan it builds:
    a plan's steps and targets are their own PROP sites."""
    w = bench_gen().gen_wide_rules(1)
    rules, scene, workflow = parse_rules(w.rules), parse_scene(w.scene), parse_workflow(w.workflow)
    scenario = parse_scenario(w.scenario)
    store = ContextStore()
    for feature, value in scenario.initial:
        store.set_feature(feature, value)
    before = _tracked_objects()
    engine = Engine(rules, scene, store, workflow)
    built = _tracked_objects()
    engine.process_event([])
    after = _tracked_objects()
    assert built - before <= 4 * len(rules.conditions)
    assert len(engine._plans) > 100 and after - built <= 7.5 * len(engine._plans)


def test_parsing_leaves_few_objects_for_the_collector():
    """The guard on what parse_rules leaves the collector to scan, on
    wide_rules seed 1 (1000 conditions and rules): at most 7.76 tracked
    objects per rule, the figure when ConditionDef and RuleDef were frozen
    dataclasses, so the records that replaced them add no collector work."""
    text = bench_gen().gen_wide_rules(1).rules
    before = _tracked_objects()
    rules = parse_rules(text)
    after = _tracked_objects()
    assert len(rules.rules) == 1000 and after - before <= 7.76 * len(rules.rules)


KINDS = {"event", "cond", "rule_exec", "rule_unexec", "prop", "workflow", "quiescent", "nonquiescent"}

# each fixture golden and what replays it: rules, scene, scenario, workflow, initial store
GOLDENS = {
    "cascade/golden/chain.trace": (
        "cascade/chain.rules", "cascade/chain.scene", "cascade/chain.scenario", None, {}),
    **{
        f"printer/golden/{name}.trace": (
            "printer/printer.rules", "printer/printer.scene", f"printer/{scenario}.scenario", None, initial)
        for name, scenario, initial in (
            ("dark_switch", "dark_switch", {}),
            ("face_user", "face_user", {}),
            ("first_uses_new", "first_uses", {"user.app_use_count": 1}),
            ("first_uses_experienced", "first_uses", {"user.app_use_count": 6}),
            ("walk_away", "walk_away", {}),
        )
    },
    **{
        f"warehouse/golden/{scenario}.trace": (
            "warehouse/warehouse.rules", "warehouse/warehouse.scene", f"warehouse/{scenario}.scenario",
            f"warehouse/{workflow}.workflow", {})
        for scenario, workflow in (
            ("single_order", "single_order"),
            ("multi_order_complete", "multi_order"),
            ("multi_order_exception", "multi_order"),
        )
    },
}


class TestLineKind:
    """A line's kind is read from its body, so a golden's text and a
    replay's records classify alike."""

    def test_a_trace_event_is_its_numbers_and_its_body(self):
        assert TraceEvent._fields == ("event", "cycle", "seq", "body")
        assert TraceEvent(1, 2, 3, "RULE R EXECUTED").kind == "rule_exec"

    @pytest.mark.parametrize(
        "body, kind",
        [
            ("EVENT set env.x = 1.000000", "event"),
            ("COND c -> true", "cond"),
            ("RULE R EXECUTED", "rule_exec"),
            ("RULE R UNEXECUTED", "rule_unexec"),
            ("RULE R UNEXECUTED skipped_restore=a.text", "rule_unexec"),
            ("RULE UNEXECUTED EXECUTED", "rule_exec"),
            ("RULE EXECUTED UNEXECUTED", "rule_unexec"),
            ("RULE EXECUTED UNEXECUTED skipped_restore=a.text", "rule_unexec"),
            ('PROP a.text "RULE R UNEXECUTED" -> ""  writer=UNEXECUTED', "prop"),
            ("PROP env.flag false -> true  writer=EXECUTED", "prop"),
            ("WORKFLOW step s0 -> s1", "workflow"),
            ("QUIESCENT cycles=2", "quiescent"),
            ("NONQUIESCENT depth=16", "nonquiescent"),
            ("RULE", "rule"),
            ("RULE R", "rule"),
            ("", ""),
        ],
    )
    def test_each_body_form(self, body, kind):
        assert engine_module.line_kind(body) == kind

    def test_rules_named_like_the_rule_words(self):
        engine = basic_engine(
            {"env.x": True},
            "condition c: env.x == true\n"
            "rule EXECUTED when c do set_text(panel, \"a\") category Style\n"
            "rule UNEXECUTED when c do set_visible(hints, true) category Style\n",
        )
        engine.scene.write_property("panel", "text", "b", "caller")
        start = len(engine.trace)
        assert engine.unexecute_rule("EXECUTED") is None
        assert engine.unexecute_rule("UNEXECUTED") is None
        assert engine.execute_rule("UNEXECUTED") is None
        assert [(ev.body, ev.kind) for ev in engine.trace.events[start:] if ev.body.startswith("RULE")] == [
            ("RULE EXECUTED UNEXECUTED skipped_restore=panel.text", "rule_unexec"),
            ("RULE UNEXECUTED UNEXECUTED", "rule_unexec"),
            ("RULE UNEXECUTED EXECUTED", "rule_exec"),
        ]

    def test_fixture_goldens(self):
        assert sorted(GOLDENS) == sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.glob("*/golden/*.trace"))
        for golden, (rules, scene, scenario, workflow, initial) in GOLDENS.items():
            text = fixture_text(golden)
            kinds = [engine_module.line_kind(line.split(" ", 3)[3]) for line in text.splitlines()]
            assert set(kinds) <= KINDS, golden
            trace = run_fixture(rules, scene, scenario, workflow, store=store_from(initial))
            assert_same_lines(trace.render(), text, golden)
            assert [ev.kind for ev in trace] == kinds, golden


class TestSharedLineText:
    """PROP write sites and conditions keep the text of the last line they
    emitted and reuse it while the values are the same objects; equal values
    that are other objects get their own text."""

    RULES = (
        "condition c: env.x == true\n"
        "condition d: env.y == true\n"
        "rule R when c do set_text(panel, \"on\") category Style\n"
        "rule W when d do set_text(panel, \"mid\") category Style\n"
    )

    @staticmethod
    def props(engine, start=0):
        return [ev.body for ev in engine.trace.events[start:] if ev.kind == "prop"]

    @staticmethod
    def spy(monkeypatch, prop):
        """The values WRITABLE[prop].render is called with from now on."""
        rendered = []
        spec = scene_module.WRITABLE[prop]
        monkeypatch.setitem(scene_module.WRITABLE, prop,
                            spec._replace(render=lambda v: rendered.append(v) or spec.render(v)))
        return rendered

    def test_an_old_value_equal_to_the_last_new_one_renders_apart(self):
        engine = basic_engine(
            {"env.x": False, "env.f": 1.0},
            "condition c: env.x == true\n"
            "rule R when c do set_feature(env.f, 0.0) category Style\n",
        )
        x, f = FeatureId.parse("env.x"), FeatureId.parse("env.f")
        engine.process_event([(x, True)])
        engine.process_event([(x, False), (f, -0.0)])
        engine.process_event([(x, True)])
        assert self.props(engine) == [
            "PROP env.f 1.000000 -> 0.000000  writer=R",
            "PROP env.f -0.000000 -> 0.000000  writer=R",
        ]

    def test_a_workflow_advance_renders_only_its_new_values(self, monkeypatch):
        """The instruction's and the cleared highlight's old values are the
        new values of their last workflow lines: their text is reused."""
        texts, highlights = self.spy(monkeypatch, "text"), self.spy(monkeypatch, "highlight")
        engine = engine_from_texts(
            "condition a: env.a == true\n",
            'element marker at (0.0,0.0,0.0)\nelement instruction_panel at (0.0,1.6,0.5) text ""\n',
            {"env.a": False},
            'workflow w\nstep one "Do one" target marker until a goto two\nstep two "Do two" terminal\n',
        )
        assert len(texts) == 2 and len(highlights) == 2  # E0 applies step one: old and new rendered
        texts.clear()
        highlights.clear()
        start = len(engine.trace)
        engine.process_event([(FeatureId.parse("env.a"), True)])
        assert self.props(engine, start) == [
            'PROP instruction_panel.text "Do one" -> "Do two"  writer=workflow',
            "PROP marker.highlight (0,255,0) -> none  writer=workflow",
        ]
        assert texts == ["Do two"] and highlights == [None]

    def test_a_restore_renders_only_the_value_it_replaced(self, monkeypatch):
        rendered = self.spy(monkeypatch, "text")
        engine = basic_engine({"env.x": False, "env.y": False}, self.RULES)
        x = FeatureId.parse("env.x")
        engine.scene.write_property("panel", "text", "idle", "caller")
        for _ in range(2):
            engine.process_event([(x, True)])
            engine.process_event([(x, False)])
        rendered.clear()
        engine.process_event([(x, True)])
        assert rendered == []  # the step's values are the same objects as last time
        other_on = "".join(["o", "n"])
        engine.scene.write_property("panel", "text", "tmp", "caller")
        engine.scene.write_property("panel", "text", other_on, "caller")
        engine.process_event([(x, False)])
        # it restores the object its last restore line restored
        assert len(rendered) == 1 and rendered[0] is other_on
        assert self.props(engine)[-1] == 'PROP panel.text "on" -> "idle"  writer=R'

    def test_signed_zero_olds_of_a_feature_render_apart(self):
        engine = basic_engine(
            {"env.x": False, "env.f": -0.0},
            "condition c: env.x == true\n"
            "rule R when c do set_feature(env.f, 1.0) category Style\n",
        )
        x, f = FeatureId.parse("env.x"), FeatureId.parse("env.f")
        for zero in (-0.0, 0.0, -0.0):
            engine.process_event([(x, False), (f, zero)])
            engine.process_event([(x, True)])
        assert self.props(engine) == [
            "PROP env.f -0.000000 -> 1.000000  writer=R",
            "PROP env.f 0.000000 -> 1.000000  writer=R",
            "PROP env.f -0.000000 -> 1.000000  writer=R",
        ]

    def test_restore_after_another_writer_shows_the_new_snapshot(self):
        engine = basic_engine({"env.x": False, "env.y": False}, self.RULES)
        x, y = FeatureId.parse("env.x"), FeatureId.parse("env.y")
        for sets in ([(x, True)], [(x, False)], [(y, True)], [(x, True)], [(x, False)]):
            engine.process_event(sets)
        assert self.props(engine) == [
            'PROP panel.text "" -> "on"  writer=R',
            'PROP panel.text "on" -> ""  writer=R',
            'PROP panel.text "" -> "mid"  writer=W',
            'PROP panel.text "mid" -> "on"  writer=R',
            'PROP panel.text "on" -> "mid"  writer=R',
        ]

    def test_equal_values_that_are_other_objects_get_their_own_text(self):
        engine = basic_engine({"env.x": False, "env.y": False}, self.RULES)
        x = FeatureId.parse("env.x")

        def rewrite(parts):  # an outside writer leaves an equal text, another object
            engine.scene.write_property("panel", "text", "tmp", "caller")
            engine.scene.write_property("panel", "text", "".join(parts), "caller")

        def toggle(while_active=None):
            start = len(engine.trace)
            engine.process_event([(x, True)])
            if while_active:
                rewrite(while_active)
            engine.process_event([(x, False)])
            return self.props(engine, start)

        rewrite(["id", "le"])
        first = toggle()
        rewrite(["i", "dle"])
        second = toggle()  # the write replaces, and the restore writes, another "idle"
        third = toggle()  # the same objects as the second time
        fourth = toggle(while_active=["o", "n"])  # the restore replaces another "on"
        assert first == second == third == fourth == [
            'PROP panel.text "idle" -> "on"  writer=R',
            'PROP panel.text "on" -> "idle"  writer=R',
        ]
        assert first[0] is not second[0] and first[1] is not second[1]
        assert third[0] is second[0] and third[1] is second[1]
        assert fourth[0] is third[0] and fourth[1] is not third[1]

    def test_a_second_toggle_reuses_the_first_toggles_bodies(self):
        engine = engine_from_texts(
            fixture_text("cascade/chain.rules"), fixture_text("cascade/chain.scene"),
            {"env.trigger": False, "env.flag": False},
        )
        trigger, flag = FeatureId.parse("env.trigger"), FeatureId.parse("env.flag")
        rounds = []
        for _ in range(2):
            start = len(engine.trace)
            engine.process_event([(trigger, True)])
            engine.process_event([(trigger, False), (flag, False)])
            rounds.append([ev for ev in engine.trace.events[start:] if ev.kind != "event"])
        first, second = rounds
        assert [ev[1:] for ev in first] == [ev[1:] for ev in second]
        assert {ev.body.split()[0] for ev in first} == {"COND", "RULE", "PROP", "QUIESCENT"}
        assert all(a.body is b.body for a, b in zip(first, second))
