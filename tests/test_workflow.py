"""Workflow engine: parsing, step application, guarded advancement."""

from __future__ import annotations

import pytest

from adaptkit import (
    DslSyntaxError,
    DuplicateStep,
    FeatureId,
    UnknownStepRef,
    init_engine,
    parse_rules,
    parse_scene,
    parse_workflow,
)
from adaptkit.workflow import GREEN, apply_step

from conftest import store_from

WAREHOUSE_SCENE = """
element shelf_A1 at (0.0,0.0,0.0)
element shelf_B2 at (2.0,0.0,0.0)
element instruction_panel at (0.0,1.6,0.5) text ""
"""

FLAG_RULES = """
condition s1_done: env.s1 == true
condition s2_done: env.s2 == true
condition s3_done: env.s3 == true
condition oops: env.oops == true
"""

CHAIN_WORKFLOW = """
workflow chain
step one "Do one" target shelf_A1 until s1_done goto two
step two "Do two" target shelf_B2 until s2_done goto three
step three "Do three" until s3_done goto fin
step fin "All done" terminal
"""


def flags(s1=False, s2=False, s3=False, oops=False):
    return {"env.s1": s1, "env.s2": s2, "env.s3": s3, "env.oops": oops}


def build(initial: dict, workflow_text: str = CHAIN_WORKFLOW):
    return init_engine(
        parse_rules(FLAG_RULES),
        parse_scene(WAREHOUSE_SCENE),
        store_from(initial),
        parse_workflow(workflow_text),
    )


class TestParseWorkflow:
    def test_two_step_fixture(self):
        wf = parse_workflow(
            "workflow pick\n"
            'step go "Walk" target shelf_A1 until s1_done goto fin\n'
            'step fin "Done" terminal\n'
        )
        assert len(wf.steps) == 2
        assert wf.initial_id == "go"
        assert wf.steps[0].transitions == ((None, "fin"),)

    def test_goto_missing_step(self):
        with pytest.raises(UnknownStepRef) as exc:
            parse_workflow('workflow w\nstep a "x" until s1_done goto nowhere\n')
        assert exc.value.line == 2

    def test_step_without_transition_or_terminal(self):
        with pytest.raises(DslSyntaxError):
            parse_workflow('workflow w\nstep a "x" until s1_done\n')

    def test_duplicate_step(self):
        with pytest.raises(DuplicateStep) as exc:
            parse_workflow(
                'workflow w\nstep a "x" until s1_done goto a\nstep a "y" terminal\n'
            )
        assert exc.value.line == 3

    def test_guarded_transitions_keep_order(self):
        wf = parse_workflow(
            "workflow w\n"
            'step a "x" until s1_done on oops goto b on s2_done goto c goto d\n'
            'step b "b" terminal\nstep c "c" terminal\nstep d "d" terminal\n'
        )
        assert wf.steps[0].transitions == (("oops", "b"), ("s2_done", "c"), (None, "d"))

    def test_terminal_with_transitions_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_workflow('workflow w\nstep a "x" until s1_done goto a terminal\n')

    def test_missing_header(self):
        with pytest.raises(DslSyntaxError):
            parse_workflow('step a "x" terminal\n')

    @pytest.mark.parametrize("text, line", [("# c\n\nworkflow w\n", 3), ("workflow w  # no steps\n\n", 1),
                                            ("", 1), ("# c\n\n", 1)])
    def test_a_workflow_without_steps_is_refused_at_its_header(self, text, line):
        """At the header's line once a header was read, else at line 1."""
        with pytest.raises(DslSyntaxError) as exc:
            parse_workflow(text)
        assert (exc.value.message, exc.value.line) == ("a workflow needs a header and at least one step", line)


def test_missing_instruction_panel_blocks_init():
    from adaptkit import ValidationFailed

    with pytest.raises(ValidationFailed):
        init_engine(
            parse_rules(FLAG_RULES),
            parse_scene("element shelf_A1 at (0.0,0.0,0.0)\n"),
            store_from(flags()),
            parse_workflow('workflow w\nstep a "x" target shelf_A1 until s1_done goto b\nstep b "y" terminal\n'),
        )


class TestApplyStep:
    def test_initial_step_writes_text_and_highlight(self):
        scene = parse_scene(WAREHOUSE_SCENE)
        wf = parse_workflow(CHAIN_WORKFLOW)
        writes = apply_step(wf, scene)
        assert [(w.element_id, w.prop) for w in writes] == [
            ("instruction_panel", "text"),
            ("shelf_A1", "highlight"),
        ]
        assert scene.element("shelf_A1").highlight == GREEN

    def test_step_without_target_writes_only_text(self):
        scene = parse_scene(WAREHOUSE_SCENE)
        wf = parse_workflow('workflow w\nstep solo "Just read this" terminal\n')
        writes = apply_step(wf, scene)
        assert [(w.element_id, w.prop) for w in writes] == [("instruction_panel", "text")]

    def test_reapply_is_noop(self):
        scene = parse_scene(WAREHOUSE_SCENE)
        wf = parse_workflow(CHAIN_WORKFLOW)
        apply_step(wf, scene)
        assert apply_step(wf, scene) == []


class TestAdvance:
    def test_single_unguarded_transition(self):
        engine = build(flags())
        engine.process_event([(FeatureId.parse("env.s1"), True)])
        assert engine.workflow.current_id == "two"
        assert engine.scene.element("shelf_B2").highlight == GREEN
        assert engine.scene.element("shelf_A1").highlight is None

    def test_completion_false_no_advance(self):
        engine = build(flags())
        engine.process_event([(FeatureId.parse("env.oops"), True)])
        assert engine.workflow.current_id == "one"

    def test_exception_guard_wins_when_true(self):
        wf_text = (
            "workflow w\n"
            'step pick "Pick" target shelf_A1 until s1_done on oops goto report goto next_one\n'
            'step next_one "Next" terminal\n'
            'step report "Report the problem" terminal\n'
        )
        engine = build(flags(), wf_text)
        engine.process_event(
            [(FeatureId.parse("env.s1"), True), (FeatureId.parse("env.oops"), True)]
        )
        assert engine.workflow.current_id == "report"

    def test_first_true_guard_wins(self):
        wf_text = (
            "workflow w\n"
            'step a "A" until s1_done on s2_done goto b on s3_done goto c goto d\n'
            'step b "B" terminal\nstep c "C" terminal\nstep d "D" terminal\n'
        )
        engine = build(flags(s2=True, s3=True), wf_text)
        engine.process_event([(FeatureId.parse("env.s1"), True)])
        assert engine.workflow.current_id == "b"

    def test_no_true_guard_and_no_default_stays(self):
        wf_text = (
            "workflow w\n"
            'step a "A" until s1_done on oops goto b\n'
            'step b "B" terminal\n'
        )
        engine = build(flags(s1=True), wf_text)
        engine.process_event([])
        assert engine.workflow.current_id == "a"

    def test_three_step_chain_resolves_one_step_per_cycle(self):
        # all completions pre-true at init: the 3-step chain takes three
        # working cycles (apply, advance, advance) plus a quiescent one
        wf_text = (
            "workflow w\n"
            'step one "One" target shelf_A1 until s1_done goto two\n'
            'step two "Two" target shelf_B2 until s2_done goto fin\n'
            'step fin "Done" terminal\n'
        )
        engine = build(flags(s1=True, s2=True, s3=True), wf_text)
        trace = engine.trace.events
        assert trace[-1].body == "QUIESCENT cycles=4"
        moved = [ev.cycle for ev in trace if ev.kind == "workflow"]
        assert moved == [2, 3]
        assert engine.workflow.current_id == "fin"

    def test_terminal_absorption(self):
        engine = build(flags(s1=True, s2=True, s3=True))
        engine.process_event([])
        before = len(engine.trace)
        engine.process_event([(FeatureId.parse("env.s1"), False)])
        engine.process_event([(FeatureId.parse("env.s1"), True)])
        new = engine.trace.events[before:]
        assert all(ev.kind != "workflow" for ev in new)

    def test_highlight_exclusivity_after_each_event(self):
        engine = build(flags())
        for name, value in (("env.s1", True), ("env.s2", True), ("env.s3", True)):
            engine.process_event([(FeatureId.parse(name), value)])
            greens = [
                el.id for el in engine.scene.elements() if el.highlight == GREEN
            ]
            assert len(greens) <= 1
