"""Step-based guidance workflows: sequences with guarded exclusive branches.

A workflow drives the instruction content of the scene: each step writes
its instruction text to the ``instruction_panel`` element and puts a green
highlight box on its target element (clearing the previous step's one).
Advancement is condition-driven: when the current step's completion
condition holds, the first transition whose guard holds is taken; an
unguarded transition acts as the default branch and must come last.
Terminal steps never advance.

File format ('#' comments)::

    workflow <id>
    step <id> "<instruction>" [target <element>] until <condition_id>
        [on <condition_id> goto <step_id>]... [goto <step_id>] [terminal]

``until`` may be omitted on terminal steps only, and terminal steps may
not declare transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._lexer import expect_end, ident, lines, literal
from .errors import DslSyntaxError, DuplicateStep, EvaluationError, UnknownStepRef
from .scene import PropertyWrite, SceneModel

GREEN: tuple[int, int, int] = (0, 255, 0)


@dataclass(frozen=True)
class WorkflowStep:
    id: str
    instruction: str
    target: str | None
    completion: str | None  # condition id; None only on terminal steps
    transitions: tuple[tuple[str | None, str], ...]  # (guard condition id, next step)
    terminal: bool
    line: int = field(default=0, compare=False)


class Workflow:
    """Parsed workflow plus its runtime cursor (current step, applied flag)."""

    INSTRUCTION_ELEMENT = "instruction_panel"

    def __init__(self, workflow_id: str, steps: list[WorkflowStep], line: int = 0):
        self.id = workflow_id
        self.steps = steps
        self.step_by_id = {s.id: s for s in steps}
        self.initial_id = steps[0].id
        self.line = line
        self.reset()

    def reset(self) -> None:
        self.current_id = self.initial_id
        self.applied = False
        self._prev_target: str | None = None

    def current_step(self) -> WorkflowStep:
        return self.step_by_id[self.current_id]

    def unreachable_steps(self) -> list[WorkflowStep]:
        seen = {self.initial_id}
        frontier = [self.initial_id]
        while frontier:
            step = self.step_by_id[frontier.pop()]
            for _, nxt in step.transitions:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return [s for s in self.steps if s.id not in seen]


def apply_step(workflow: Workflow, scene: SceneModel) -> list[PropertyWrite]:
    """Write the current step's guidance into the scene.

    Emits, in order: the instruction text, the green highlight on the
    step's target, and the clearing of the previous step's highlight.
    No-op writes are suppressed; a step re-targeting the same element
    causes no highlight churn.
    """
    step = workflow.current_step()
    writes = []
    w = scene.write_property(
        workflow.INSTRUCTION_ELEMENT, "text", step.instruction, writer="workflow"
    )
    if w is not None:
        writes.append(w)
    prev = workflow._prev_target
    if step.target is not None and step.target != prev:
        w = scene.write_property(step.target, "highlight", GREEN, writer="workflow")
        if w is not None:
            writes.append(w)
    if prev is not None and prev != step.target:
        w = scene.write_property(prev, "highlight", None, writer="workflow")
        if w is not None:
            writes.append(w)
    workflow._prev_target = step.target
    workflow.applied = True
    return writes


def advance(workflow: Workflow, scene: SceneModel, cond_values: dict) -> tuple | None:
    """Advance one step if the completion condition holds.

    Returns (from_id, to_id, writes) or None. The caller is expected to
    invoke it at most once per engine cycle so chained completions resolve
    across cascade cycles.
    """
    step = workflow.current_step()
    if step.terminal:
        return None
    value = _cond_value(cond_values, step.completion)
    if not value:
        return None
    for guard, nxt in step.transitions:
        if guard is None or _cond_value(cond_values, guard):
            workflow.current_id = nxt
            writes = apply_step(workflow, scene)
            return (step.id, nxt, writes)
    return None


def _cond_value(cond_values: dict, cond_id: str) -> bool:
    try:
        return cond_values[cond_id]
    except KeyError:
        raise EvaluationError(f"workflow condition {cond_id!r} was not evaluated") from None


def parse_workflow(text: str) -> Workflow:
    """Parse a workflow file; the first step is the initial one."""
    wf_id: str | None = None
    wf_line = 0
    steps: list[WorkflowStep] = []
    step_lines: dict[str, int] = {}
    pending_refs: list[tuple[str, int]] = []

    for lineno, tokens in lines(text):
        head = tokens[0]
        n = len(tokens)
        if head == "workflow":
            if wf_id is not None:
                raise DslSyntaxError(lineno, "duplicate 'workflow' header")
            wf_id = ident(tokens, 1, lineno, "a workflow id")
            wf_line = lineno
            expect_end(tokens, 2, lineno, "after workflow id")
            continue
        if head != "step":
            raise DslSyntaxError(lineno, f"expected 'workflow' or 'step', got {head!r}")
        if wf_id is None:
            raise DslSyntaxError(lineno, "'workflow <id>' header must come first")

        sid = ident(tokens, 1, lineno, "a step id")
        instruction = literal(tokens[2], lineno) if n > 2 else None
        if not isinstance(instruction, str):
            raise DslSyntaxError(lineno, "step needs a quoted instruction")
        i = 3
        target = None
        if i < n and tokens[i] == "target":
            target = ident(tokens, i + 1, lineno, "an element id")
            i += 2
        completion = None
        if i < n and tokens[i] == "until":
            completion = ident(tokens, i + 1, lineno, "a condition id")
            i += 2
        transitions: list[tuple[str | None, str]] = []
        while i < n and tokens[i] == "on":
            guard = ident(tokens, i + 1, lineno, "a condition id")
            if i + 2 == n or tokens[i + 2] != "goto":
                raise DslSyntaxError(lineno, "expected 'goto' after the guard")
            transitions.append((guard, ident(tokens, i + 3, lineno, "a step id")))
            i += 4
        # the unguarded default branch, if any, comes last by construction
        if i < n and tokens[i] == "goto":
            transitions.append((None, ident(tokens, i + 1, lineno, "a step id")))
            i += 2
        terminal = i < n and tokens[i] == "terminal"
        expect_end(tokens, i + terminal, lineno, "after the step")

        if terminal and transitions:
            raise DslSyntaxError(lineno, "terminal steps cannot declare transitions")
        if not terminal and not transitions:
            raise DslSyntaxError(lineno, "a step needs a transition or 'terminal'")
        if not terminal and completion is None:
            raise DslSyntaxError(lineno, "non-terminal steps need 'until <condition_id>'")
        if sid in step_lines:
            raise DuplicateStep(lineno, f"duplicate step id {sid!r}")
        step_lines[sid] = lineno
        for _, nxt in transitions:
            pending_refs.append((nxt, lineno))
        steps.append(
            WorkflowStep(sid, instruction, target, completion, tuple(transitions), terminal, line=lineno)
        )

    if wf_id is None or not steps:
        raise DslSyntaxError(wf_line or 1, "a workflow needs a header and at least one step")
    for ref, lineno in pending_refs:
        if ref not in step_lines:
            raise UnknownStepRef(lineno, f"goto references unknown step {ref!r}")
    return Workflow(wf_id, steps, line=wf_line)
