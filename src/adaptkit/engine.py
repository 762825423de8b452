"""The adaptation engine: a deterministic monitor/decide/act loop.

Each incoming event (a batch of context writes) is processed in numbered
cascade cycles until the system is quiet. A cycle, in order:

1. evaluate the conditions in definition order (a trace line is emitted
   only when a condition's value changed, including its first evaluation);
2. from those values, pick rules to deactivate (active, some condition
   false) and rules to activate (inactive, all conditions true);
3. unexecute deactivating rules in descending (priority, definition index);
4. execute activating rules in ascending (priority, definition index), so
   with conflicting writes the highest-priority rule's value lands last;
5. re-aim billboard elements at the user's position;
6. let the workflow apply its initial step or advance at most one step;
7. if the cycle produced no condition change, no rule transition, and no
   property or feature write, emit QUIESCENT and stop.

Executing a rule snapshots the prior value of every scene property its
actions write; unexecuting restores a snapshot entry only while the
property still holds the value this rule wrote (otherwise the restore is
skipped and noted on the trace line — another writer owns it now).
Feature writes made through set_feature are traced but never reverted.

If an event is still active after ``max_cascade_depth`` cycles the trace
is terminated with NONQUIESCENT and the run fails.

Evaluation is dependency-driven. Each condition's inputs (features and
scene properties) are indexed once, at construction. A cycle re-evaluates
only the conditions that read an input written since their last
evaluation -- context writes as the store's dirty set reports them, scene
writes as SceneModel.write_property logs them -- and checks only the rules
that list a condition whose value changed. Features are never unset and
never change type, elements are never removed, and evaluation is pure and
evaluates both sides of ``&&``/``||``, so every other condition would
evaluate to the value it already has and every other rule would keep its
state: the trace is the one a loop over all conditions and rules writes.
The first cycle after construction, after an exception escaped
process_event, or after evaluate_condition, execute_rule or unexecute_rule
was called from outside process_event evaluates every condition and checks
every rule. Scene state must change through SceneModel.write_property: an
attribute assigned directly on a SceneElement is not seen.

Trace lines are byte-stable: ``E<event> C<cycle> S<seq> <body>`` with the
sequence number restarting at 0 in each cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import ChangeFlag, ContextCategory, ContextStore, FeatureId
from .dsl import EFFECTOR_PROPERTY, Diagnostic, RuleDef, RuleSet, eval_expr, expr_inputs, validate
from .errors import (
    ActionError,
    AdaptError,
    EvaluationError,
    NonQuiescent,
    TypeMismatch,
    UnknownElement,
    UnknownFeature,
    UnknownProperty,
    ValidationFailed,
)
from .scene import SceneModel, prop_values_equal, render_prop_value
from .values import Value, Vec3, render_value
from .workflow import Workflow, advance as workflow_advance, apply_step

USER_POSITION = FeatureId(ContextCategory.USER, "position")

DEFAULT_MAX_CASCADE_DEPTH = 16

KIND_EVENT = "event"
KIND_COND = "cond"
KIND_RULE_EXEC = "rule_exec"
KIND_RULE_UNEXEC = "rule_unexec"
KIND_PROP = "prop"
KIND_WORKFLOW = "workflow"
KIND_QUIESCENT = "quiescent"
KIND_NONQUIESCENT = "nonquiescent"


@dataclass(frozen=True)
class TraceEvent:
    event: int
    cycle: int
    seq: int
    kind: str
    body: str

    def render(self) -> str:
        return f"E{self.event} C{self.cycle} S{self.seq} {self.body}"


class Trace:
    """Append-only event log with byte-exact rendering."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def render(self) -> str:
        return "".join(ev.render() + "\n" for ev in self.events)


@dataclass(frozen=True)
class CycleReport:
    cycles: int


@dataclass
class _RuleState:
    active: bool = False
    # (element, property) -> value before this rule executed / value it wrote
    snapshot: dict = field(default_factory=dict)
    written: dict = field(default_factory=dict)


class Engine:
    """One engine instance drives one scene; not reentrant."""

    def __init__(
        self,
        rules: RuleSet,
        scene: SceneModel,
        store: ContextStore,
        workflow: Workflow | None = None,
        max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
        diagnostics: list[Diagnostic] | None = None,
    ):
        """``diagnostics`` are ``validate(rules, scene, workflow)``'s, when the
        caller has them already; without them the engine validates."""
        if diagnostics is None:
            diagnostics = validate(rules, scene, workflow)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            raise ValidationFailed("; ".join(d.message for d in errors))
        self.rules = rules
        self.scene = scene
        self.store = store
        self.workflow = workflow
        self.max_cascade_depth = max_cascade_depth
        self.trace = Trace()
        self.cond_last: dict[str, bool | None] = {c.id: None for c in rules.conditions}
        self._rule_states: dict[str, _RuleState] = {r.id: _RuleState() for r in rules.rules}
        self._rule_index = {r.id: i for i, r in enumerate(rules.rules)}
        # input (FeatureId or (element, property)) -> indices of the conditions
        # reading it; condition id -> indices of the rules listing it
        self._readers = _index(
            (key, i) for i, c in enumerate(rules.conditions) for key in expr_inputs(c.expr)
        )
        self._listed_by = _index(
            (cid, j) for j, r in enumerate(rules.rules) for cid in r.conditions
        )
        self._full_cycle = True  # the next cycle evaluates everything
        self._busy = False  # inside process_event
        self._next_event = 0
        self._event = 0
        self._cycle = 0
        self._seq = 0

    # -- trace plumbing ----------------------------------------------------

    def _emit(self, kind: str, body: str) -> TraceEvent:
        ev = TraceEvent(self._event, self._cycle, self._seq, kind, body)
        self._seq += 1
        self.trace.events.append(ev)
        return ev

    def _begin_cycle(self, k: int) -> None:
        self._cycle = k
        self._seq = 0

    # -- conditions ----------------------------------------------------------

    def rule_active(self, rule_id: str) -> bool:
        return self._rule_states[rule_id].active

    def rule_snapshot(self, rule_id: str) -> dict:
        """Copy of the (element, property) -> prior value map; empty when inactive."""
        return dict(self._rule_states[rule_id].snapshot)

    def evaluate_condition(self, cond_id: str) -> tuple[bool, bool]:
        """Evaluate one condition; returns (value, changed).

        The first evaluation always counts as changed. A COND trace line
        is emitted only on change.
        """
        if not self._busy:
            self._full_cycle = True
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
            self._emit(KIND_COND, f"COND {cond_id} -> {'true' if value else 'false'}")
        return value, changed

    # -- rule lifecycle ------------------------------------------------------

    def execute_rule(self, rule_id: str) -> list[TraceEvent]:
        """Snapshot, apply actions in order, mark active. RULE then PROP lines."""
        if not self._busy:
            self._full_cycle = True
        rule = self.rules.rule_by_id[rule_id]
        state = self._rule_states[rule_id]
        assert not state.active, f"rule {rule_id} is already active"
        emitted_from = len(self.trace)
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
        self._emit(KIND_RULE_EXEC, f"RULE {rule_id} EXECUTED")
        for action in rule.actions:
            self._apply_action(rule, action)
        state.active = True
        state.snapshot = snapshot
        state.written = {key: self.scene.get_property(*key) for key in snapshot}
        return self.trace.events[emitted_from:]

    def _apply_action(self, rule: RuleDef, action) -> None:
        if action.effector == "set_feature":
            old: Value | None = (
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
                self._emit(
                    KIND_PROP,
                    f"PROP {action.feature} {old_text} -> {render_value(action.value)}"
                    f"  writer={rule.id}",
                )
            return
        prop = EFFECTOR_PROPERTY[action.effector]
        try:
            write = self.scene.write_property(action.element, prop, action.value, writer=rule.id)
        except (UnknownElement, UnknownProperty, TypeMismatch) as e:
            raise ActionError(f"rule {rule.id!r}: {e}") from e
        if write is not None:
            self._emit_prop(write)

    def _emit_prop(self, write) -> None:
        old = render_prop_value(write.prop, write.old)
        new = render_prop_value(write.prop, write.new)
        self._emit(
            KIND_PROP,
            f"PROP {write.element_id}.{write.prop} {old} -> {new}  writer={write.writer}",
        )

    def unexecute_rule(self, rule_id: str) -> list[TraceEvent]:
        """Restore snapshotted properties this rule still owns; mark inactive."""
        if not self._busy:
            self._full_cycle = True
        state = self._rule_states[rule_id]
        assert state.active, f"rule {rule_id} is not active"
        emitted_from = len(self.trace)
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
        self._emit(KIND_RULE_UNEXEC, f"RULE {rule_id} UNEXECUTED{suffix}")
        for (element, prop), old in restores:
            write = self.scene.write_property(element, prop, old, writer=rule_id)
            if write is not None:
                self._emit_prop(write)
        state.active = False
        state.snapshot = {}
        state.written = {}
        return self.trace.events[emitted_from:]

    # -- the loop --------------------------------------------------------------

    def process_event(self, sets: list[tuple[FeatureId, Value]]) -> CycleReport:
        """Apply one batch of context writes and run cycles to quiescence."""
        self._busy = True
        try:
            return self._process_event(sets)
        except BaseException as e:
            self._full_cycle = True  # the failed cycle may have stopped anywhere
            if isinstance(e, AdaptError) and getattr(e, "trace", None) is None:
                e.trace = self.trace
            raise
        finally:
            self._busy = False

    def _process_event(self, sets) -> CycleReport:
        e = self._next_event
        self._next_event += 1
        self._event = e
        self._begin_cycle(0)
        for feature, value in sets:
            self.store.set_feature(feature, value)
            self._emit(KIND_EVENT, f"EVENT set {feature} = {render_value(value)}")
        # event writes (and any made since the last event) are inputs, not cycle activity
        features = self.store.drain_dirty()

        conditions = self.rules.conditions
        rules = self.rules.rules
        for k in range(1, self.max_cascade_depth + 1):
            self._begin_cycle(k)
            full, self._full_cycle = self._full_cycle, False
            props = self.scene.drain_dirty()

            if full:
                cond_ids = range(len(conditions))
            else:
                readers = self._readers
                cond_ids = sorted({i for key in (*features, *props) for i in readers.get(key, ())})
            flipped = []
            for i in cond_ids:
                cond_id = conditions[i].id
                if self.evaluate_condition(cond_id)[1]:
                    flipped.append(cond_id)
            activity = bool(flipped)

            if full:
                rule_ids = range(len(rules))
            else:
                listed_by = self._listed_by
                rule_ids = sorted({j for cid in flipped for j in listed_by.get(cid, ())})
            deactivate = []
            activate = []
            for j in rule_ids:
                rule = rules[j]
                state = self._rule_states[rule.id]
                all_true = all(self.cond_last[c] for c in rule.conditions)
                if state.active and not all_true:
                    deactivate.append(rule)
                elif not state.active and all_true:
                    activate.append(rule)
            order = lambda r: (r.priority, self._rule_index[r.id])
            for rule in sorted(deactivate, key=order, reverse=True):
                self.unexecute_rule(rule.id)
                activity = True
            for rule in sorted(activate, key=order):
                self.execute_rule(rule.id)
                activity = True

            if self.store.has_feature(USER_POSITION):
                user_pos = self.store.get_feature(USER_POSITION)
                if isinstance(user_pos, Vec3):  # a non-vec position cannot aim anything
                    for write in self.scene.refresh_billboards(user_pos):
                        self._emit_prop(write)
                        activity = True

            if self.workflow is not None:
                activity = self._workflow_phase(self.cond_last) or activity

            features = self.store.drain_dirty()
            if features:
                activity = True  # rules wrote context features this cycle

            if not activity:
                self._emit(KIND_QUIESCENT, f"QUIESCENT cycles={k}")
                return CycleReport(cycles=k)

        self._emit(KIND_NONQUIESCENT, f"NONQUIESCENT depth={self.max_cascade_depth}")
        raise NonQuiescent(self.max_cascade_depth, trace=self.trace)

    def _workflow_phase(self, cond_values: dict[str, bool]) -> bool:
        if not self.workflow.applied:
            writes = apply_step(self.workflow, self.scene)
            for write in writes:
                self._emit_prop(write)
            return True
        moved = workflow_advance(self.workflow, self.scene, cond_values)
        if moved is None:
            return False
        from_id, to_id, writes = moved
        self._emit(KIND_WORKFLOW, f"WORKFLOW step {from_id} -> {to_id}")
        for write in writes:
            self._emit_prop(write)
        return True


def _index(pairs) -> dict:
    """(key, index) pairs, indices ascending -> key: tuple of distinct indices."""
    out: dict = {}
    for key, i in pairs:
        found = out.setdefault(key, [])
        if not found or found[-1] != i:
            found.append(i)
    return {key: tuple(found) for key, found in out.items()}


def init_engine(
    rules: RuleSet,
    scene: SceneModel,
    store: ContextStore,
    workflow: Workflow | None = None,
    max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
    diagnostics: list[Diagnostic] | None = None,
) -> Engine:
    """Build an engine and immediately process the initialization event (E0).

    Rules whose conditions already hold execute during initialization,
    before the first scenario event. ``diagnostics`` are passed to Engine.
    """
    engine = Engine(rules, scene, store, workflow, max_cascade_depth, diagnostics)
    engine.process_event([])
    return engine
