"""Reference oracle: the engine loop that evaluates every condition, with
reference_eval.py's tree-walking ``eval_expr``, checks every rule and
re-aims every billboard in every cycle, and rules that look up and
render every property they write each time they execute and unexecute.

``Engine`` evaluates only the conditions whose inputs changed, with
conditions compiled once and distance comparisons kept while the user
cannot have crossed them, checks only the rules of conditions that
flipped, runs rules from plans built once, and re-aims billboards only
when something moved; the differential tests compare the two on whole
traces. Everything but condition evaluation, the loop, the rule
transitions and the rule states they keep (``rule_active``,
``rule_snapshot``), the billboard pass, the trace and every PROP line is
inherited. PROP lines render scene values with the copies in
reference_props.py, not with the renderers of scene.WRITABLE that the
engine uses. The trace is a list of TraceEvents numbered here, each line's
S its count of lines since its cycle began, and rendered here, so a fault
in Trace's numbering, indexing or rendering shows as a difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from adaptkit.context import ChangeFlag
from adaptkit.dsl import EFFECTOR_PROPERTY
from adaptkit.engine import USER_POSITION, CycleReport, Engine, TraceEvent
from adaptkit.errors import (
    ActionError,
    EvaluationError,
    NonQuiescent,
    TypeMismatch,
    UnknownElement,
    UnknownFeature,
    UnknownProperty,
)
from adaptkit.scene import face_user_yaw, prop_values_equal
from adaptkit.values import Vec3, render_value

from reference_eval import eval_expr
from reference_props import WRITABLE as REFERENCE_PROPS


@dataclass
class _RuleState:
    active: bool = False
    # (element, property) -> value before this rule executed / value it wrote
    snapshot: dict = field(default_factory=dict)
    written: dict = field(default_factory=dict)


class ReferenceTrace:
    """A trace as a list of TraceEvents, each rendered on its own, and
    numbered as it is appended: a line's S is its count of lines since its
    cycle began."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._event = self._cycle = 0
        self._start = 0  # the trace length when the current cycle began

    def begin_cycle(self, event: int, cycle: int) -> None:
        self._event, self._cycle = event, cycle
        self._start = len(self.events)

    def append(self, body: str) -> None:
        events = self.events
        events.append(TraceEvent(self._event, self._cycle, len(events) - self._start, body))

    def __len__(self):
        return len(self.events)

    def render(self) -> str:
        return "".join(ev.render() + "\n" for ev in self.events)


class NaiveEngine(Engine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rule_states = {r.id: _RuleState() for r in self.rules.rules}
        self.trace = ReferenceTrace()

    def _emit_props(self, writes) -> None:  # the workflow's writes
        for write in writes:
            self._emit_prop(write)

    def rule_active(self, rule_id: str) -> bool:
        return self._rule_states[rule_id].active

    def rule_snapshot(self, rule_id: str) -> dict:
        return dict(self._rule_states[rule_id].snapshot)

    def _emit_prop(self, write) -> None:
        render = REFERENCE_PROPS[write.prop][1]
        old, new = render(write.old), render(write.new)
        self.trace.append(f"PROP {write.element_id}.{write.prop} {old} -> {new}  writer={write.writer}")

    def evaluate_condition(self, cond_id: str) -> tuple[bool, bool]:
        cond = self.rules.condition_by_id[cond_id]
        try:
            value = eval_expr(cond.expr, self.store, self.scene)
        except (UnknownFeature, UnknownElement, UnknownProperty, TypeMismatch) as e:
            raise EvaluationError(f"condition {cond.id!r}: {e}") from e
        if not isinstance(value, bool):
            raise EvaluationError(f"condition {cond.id!r} did not evaluate to a bool")
        changed = self.cond_last[cond_id] is None or self.cond_last[cond_id] != value
        self.cond_last[cond_id] = value
        if changed:
            self.trace.append(f"COND {cond_id} -> {'true' if value else 'false'}")
        return value, changed

    def execute_rule(self, rule_id: str):
        rule = self.rules.rule_by_id[rule_id]
        state = self._rule_states[rule_id]
        assert not state.active, f"rule {rule_id} is already active"
        snapshot = {}
        for action in rule.actions:
            prop = EFFECTOR_PROPERTY[action.effector]
            if prop is None:
                continue
            key = (action.element, prop)
            if key not in snapshot:
                try:
                    snapshot[key] = self.scene.get_property(*key)
                except (UnknownElement, UnknownProperty) as e:
                    raise ActionError(f"rule {rule_id!r}: {e}") from e
        self.trace.append(f"RULE {rule_id} EXECUTED")
        for action in rule.actions:
            self._apply_action(rule, action)
        state.active = True
        state.snapshot = snapshot
        state.written = {key: self.scene.get_property(*key) for key in snapshot}

    def _apply_action(self, rule, action) -> None:
        if action.effector == "set_feature":
            old = (
                self.store.get_feature(action.feature)
                if self.store.has_feature(action.feature)
                else None
            )
            try:
                flag = self.store.set_feature(action.feature, action.value)
            except TypeMismatch as e:
                raise ActionError(f"rule {rule.id!r}: {e}") from e
            if flag is ChangeFlag.CHANGED:
                old_text = "unset" if old is None else render_value(old)
                self.trace.append(f"PROP {action.feature} {old_text} -> {render_value(action.value)}"
                                  f"  writer={rule.id}")
            return
        prop = EFFECTOR_PROPERTY[action.effector]
        try:
            write = self.scene.write_property(action.element, prop, action.value, writer=rule.id)
        except (UnknownElement, UnknownProperty, TypeMismatch) as e:
            raise ActionError(f"rule {rule.id!r}: {e}") from e
        if write is not None:
            self._emit_prop(write)

    def unexecute_rule(self, rule_id: str):
        state = self._rule_states[rule_id]
        assert state.active, f"rule {rule_id} is not active"
        restores = []
        skipped = []
        for key in sorted(state.snapshot, key=lambda k: f"{k[0]}.{k[1]}"):
            current = self.scene.get_property(*key)
            if prop_values_equal(current, state.written[key]):
                restores.append((key, state.snapshot[key]))
            else:
                skipped.append(key)
        suffix = ""
        if skipped:
            suffix = " skipped_restore=" + ",".join(f"{e}.{p}" for e, p in skipped)
        self.trace.append(f"RULE {rule_id} UNEXECUTED{suffix}")
        for (element, prop), old in restores:
            write = self.scene.write_property(element, prop, old, writer=rule_id)
            if write is not None:
                self._emit_prop(write)
        state.active = False
        state.snapshot = {}
        state.written = {}

    def _process_event(self, sets) -> CycleReport:
        e = self._next_event
        self._next_event += 1
        self.trace.begin_cycle(e, 0)
        for feature, value in sets:
            self.store.set_feature(feature, value)
            self.trace.append(f"EVENT set {feature} = {render_value(value)}")
        self.store.drain_dirty()  # event writes are inputs, not cycle activity

        for k in range(1, self.max_cascade_depth + 1):
            self.trace.begin_cycle(e, k)
            activity = False

            cond_values: dict[str, bool] = {}
            for cond in self.rules.conditions:
                value, changed = self.evaluate_condition(cond.id)
                cond_values[cond.id] = value
                activity = activity or changed

            deactivate = []
            activate = []
            for index, rule in enumerate(self.rules.rules):
                state = self._rule_states[rule.id]
                all_true = all(cond_values[c] for c in rule.conditions)
                if state.active and not all_true:
                    deactivate.append((rule.priority, index, rule.id))
                elif not state.active and all_true:
                    activate.append((rule.priority, index, rule.id))
            for _, _, rule_id in sorted(deactivate, reverse=True):
                self.unexecute_rule(rule_id)
                activity = True
            for _, _, rule_id in sorted(activate):
                self.execute_rule(rule_id)
                activity = True

            if any(el.billboard for el in self.scene.elements()) and self.store.has_feature(
                USER_POSITION
            ):
                user_pos = self.store.get_feature(USER_POSITION)
                if isinstance(user_pos, Vec3):
                    for write in self._aim_billboards(user_pos):
                        self._emit_prop(write)
                        activity = True

            if self.workflow is not None:
                activity = self._workflow_phase(cond_values) or activity

            if self.store.drain_dirty():
                activity = True

            if not activity:
                self.trace.append(f"QUIESCENT cycles={k}")
                return CycleReport(cycles=k)

        self.trace.append(f"NONQUIESCENT depth={self.max_cascade_depth}")
        raise NonQuiescent(self.max_cascade_depth, trace=self.trace)

    def _aim_billboards(self, user_pos: Vec3) -> list:
        """Every billboard re-aimed in id order, in every cycle: no skip."""
        writes = []
        for el in self.scene.elements():
            if el.billboard:
                yaw = face_user_yaw(el.position, user_pos)
                if yaw is not None:
                    write = self.scene.write_property(el.id, "yaw", yaw, writer="billboard")
                    if write is not None:
                        writes.append(write)
        return writes
