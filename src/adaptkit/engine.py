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

Rules run from plans. The first time a rule executes, its actions are
resolved into a plan: each scene property it writes, as the SceneElement
and attribute that hold it, in restore order (sorted by
``element.property``), and every constant it writes, as the property's
check stores it. A constant the check refuses is kept as written, so its
write raises the same error at the same point whenever it runs. What a
rule leaves in a target is the checked constant of its last write there,
so the plan holds that too, and unexecuting compares each target against
it. Executing snapshots by reading those attributes. A rule is active
while the engine holds its snapshot, from after its last action to after
its restores, and nothing is kept for a rule until its first execute.
Every write still goes through SceneModel.write_property or
ContextStore.set_feature, whose change logs drive the evaluation below; an
applied scene write costs that one call and one append of its line's body
to the trace. A restore of the very object a target holds makes no call:
it would change nothing. Elements are never removed or replaced, so a
plan's element objects stay the scene's.

Repeated lines share their text. Each PROP write site keeps its last
line's values, new-value text and body (_Line). A plan step is its own
site, as is a plan target for its restores (_Step and _Target extend
_Line), and each (element, property) the billboard pass or the workflow
writes has one. A line whose values are the same objects as its site's last
reuses the body; otherwise each value is rendered, unless it is the last
line's new value, whose text is reused (_prop_body). So a step renders
its constant once, a billboard's old yaw is its last new yaw, and a
restore or workflow line renders only what changed. Reuse goes by
identity, never by equality: equal values can render apart (``-0.0`` and
``0.0``), while one object, held by the cache, renders one way. A rule's
``skipped_restore`` body is kept on its plan with the targets it skipped
and reused while an unexecute skips the same ones. A condition's COND
body for each value is made at its first change after its first
evaluation and reused after that, and a QUIESCENT body once per cycle
count. Each cache holds one entry per step, target, rule, element,
condition value or cycle count reached, so none grows with the length of
a run.

Conditions are compiled once, at construction, by dsl.compile_expr, which
lists the inputs each operand reads as it compiles it. A comparison of a
feature, a scene property or a distance with a number is an atom, an
object called as it is, with its type check hoisted; every other node is
a closure around what it holds, so no evaluation walks the tree. A
compiled condition evaluates every operand, left first, before a node
checks their types, and raises the first error met; the tests check it
against tests/reference_eval.py, a tree walk. Scene elements are bound
when compiling, which holds because elements are never removed or
replaced. An engine is never built over a missing element: every element
a condition or rule names must exist (dsl.unresolved).

If an event is still active after ``max_cascade_depth`` cycles the trace
is terminated with NONQUIESCENT and the run fails.

Evaluation is dependency-driven. Each condition's inputs (features and
scene properties) are indexed at construction. A cycle re-evaluates
only the conditions that read an input written since their last
evaluation -- context writes as the store's dirty set reports them, scene
writes as SceneModel.write_property logs them, looked up only if some
condition reads a writable scene property -- and checks only the rules
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

Distance thresholds have safe regions. Each feature a
``dist(feature, scene.X.position) op r`` atom reads has one Odometer,
shared by its atoms, that sums how far the feature's value moved; an atom
that found distance ``d`` keeps its value until the odometer has gone
``|d - r|`` further, less a rounding margin (dsl._DistAtom).

compile_expr returns a condition as its operands: those of the ``&&``
chain at its top, or the whole condition. Each says what makes it due
(dsl.Operand): a write to one of its keys, or to a feature it reads only
through dist() atoms, its gates, once one of those atoms is past its
deadline. So on a head-tracking stream a position step re-tests only the
thresholds it may have crossed. The index of inputs to conditions is
built once, at construction, with an entry for every operand of every
condition; a chain's evaluation keeps the index of its first false
operand in its own cell (Compiled.first_false), and every one-operand
condition shares one immutable (None,). A hit counts only while that is
None or is the operand whose entry was hit, so a chain that was false at
its last evaluation waits for its first false operand alone: the watched
literal of Chaff (Moskewicz et al., DAC 2001). The chain stays false
until that operand is due. No error hides there: every operand evaluated
then without one, features keep their type and stay set
(ContextStore.set_feature), WRITABLE fixes scene property types and
positions are fixed. A condition never evaluated, or whose evaluation
raised, is evaluated in a full cycle first.

Billboards are re-aimed only when the user's position is another object
than at the last complete re-aim, or a yaw or billboard property was
written since (SceneModel.refresh_billboards); the engine still calls the
re-aim in every cycle.

Trace lines are byte-stable: ``E<event> C<cycle> S<seq> <body>`` with the
sequence number restarting at 0 in each cycle. The engine writes a line
with Trace.append(body) and begins each cycle with
Trace.begin_cycle(event, cycle). The trace keeps what a line adds, its
body, and once per cycle the line the cycle begins at with its event and
cycle numbers; a line's S is its offset from that line. Trace.events
makes a TraceEvent of the four when a line is read, and Trace.render
formats a cycle's head once per chunk; a TraceEvent's ``kind`` is read
from its body (line_kind).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

from .context import ChangeFlag, ContextStore, FeatureId
from .dsl import EFFECTOR_PROPERTY, Odometer, RuleSet, compile_expr, unresolved
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
from .scene import WRITABLE, SceneElement, SceneModel, prop_values_equal
from .values import Value, Vec3, render_value
from .workflow import Workflow, advance as workflow_advance, apply_step

USER_POSITION = FeatureId.parse("user.position")

DEFAULT_MAX_CASCADE_DEPTH = 16

RENDER_CHUNK = 1024  # trace lines Trace.render joins at a time

_FIRST_LINE = itemgetter(0)  # a cycle record's first line


def line_kind(body: str) -> str:
    """A trace line's kind: its body's first word, lowercased, except that a
    RULE line with a third word is rule_exec or rule_unexec by it."""
    words = body.split(" ", 3)
    if words[0] == "RULE" and len(words) > 2:
        return "rule_exec" if words[2] == "EXECUTED" else "rule_unexec"
    return words[0].lower()


class TraceEvent(NamedTuple):
    """One trace line: its numbers and its body. ``Trace.events`` makes one
    each time a line is read; the trace keeps only the body."""

    event: int
    cycle: int
    seq: int
    body: str

    @property
    def kind(self) -> str:
        return line_kind(self.body)

    def render(self) -> str:
        return f"E{self.event} C{self.cycle} S{self.seq} {self.body}"


def _parts(cycles: list, lo: int, hi: int):
    """Each cycle's share of lines ``lo`` to ``hi - 1``, in order, as
    ``(first line, event, cycle, from, to)``. A line belongs to the last
    cycle begun at or before it; cycles begun at one index are all but the
    last empty."""
    k = bisect_right(cycles, lo, key=_FIRST_LINE) - 1
    last = len(cycles) - 1
    while lo < hi:
        start, e, c = cycles[k]
        end = hi if k == last else min(cycles[k + 1][0], hi)
        yield start, e, c, lo, end
        lo = end
        k += 1


class TraceEvents(Sequence):
    """A read-only view of a Trace's lines: ``len``, indexing, slices (a
    list) and iteration, each line a TraceEvent made when it is read."""

    __slots__ = ("_bodies", "_cycles")

    def __init__(self, bodies: list[str], cycles: list[tuple[int, int, int]]):
        self._bodies = bodies
        self._cycles = cycles

    def __len__(self) -> int:
        return len(self._bodies)

    def __getitem__(self, i):
        n = len(self._bodies)
        if isinstance(i, slice):
            lines = range(*i.indices(n))
            if lines.step == 1:
                return list(self._read(lines.start, lines.stop))
            return [self[j] for j in lines]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace index out of range")
        start, e, c = self._cycles[bisect_right(self._cycles, i, key=_FIRST_LINE) - 1]
        return TraceEvent(e, c, i - start, self._bodies[i])

    def __iter__(self):
        return self._read(0, len(self._bodies))

    def _read(self, lo: int, hi: int):
        bodies = self._bodies
        for start, e, c, a, b in _parts(self._cycles, lo, hi):
            for i in range(a, b):
                yield TraceEvent(e, c, i - start, bodies[i])


class Trace:
    """Event log with byte-exact rendering. It keeps each line's body, in
    order, and one ``(first line, event, cycle)`` record per cycle, which
    begin_cycle adds. A line's E and C are those of the last cycle begun at
    or before it (E0 C0 before any), and its S number is its offset from
    that cycle's first line. So the trace is append-only: removing or
    inserting a line would misnumber the lines after it."""

    def __init__(self):
        self._bodies: list[str] = []
        self._cycles: list[tuple[int, int, int]] = [(0, 0, 0)]
        # append(body) adds a line to the current cycle. It is the list's
        # own method, so a line costs one call into C and one list slot.
        self.append = self._bodies.append
        self.events = TraceEvents(self._bodies, self._cycles)

    def begin_cycle(self, event: int, cycle: int) -> None:
        """Number the lines appended from now on ``E<event> C<cycle>``, from S0."""
        self._cycles.append((len(self._bodies), event, cycle))

    def __len__(self):
        return len(self._bodies)

    def __iter__(self):
        return iter(self.events)

    def render(self) -> str:
        """Every line as TraceEvent.render() writes it, each ended by a newline.
        Lines are joined ``RENDER_CHUNK`` at a time, so no more than that
        many line strings are alive at once besides the text, and each
        part of a cycle formats its ``E<event> C<cycle> S`` head once."""
        bodies, cycles = self._bodies, self._cycles
        n = len(bodies)
        text = ""
        for lo in range(0, n, RENDER_CHUNK):
            lines = []
            for start, e, c, a, b in _parts(cycles, lo, min(lo + RENDER_CHUNK, n)):
                head = f"E{e} C{c} S"
                lines += [f"{head}{s} {body}\n" for s, body in enumerate(bodies[a:b], a - start)]
            # CPython grows a str in place when ``+=`` stores it back into
            # the only name bound to it, a local, so the text is never
            # copied and render needs one chunk beyond it. PEP 8 warns
            # against relying on this; test_render_grows_the_text_in_place
            # pins it. A second reference to ``text``, or a name that is not
            # a local, makes each += a copy of the whole text.
            text += "".join(lines)
        return text


@dataclass(frozen=True)
class CycleReport:
    cycles: int


_UNSEEN = object()  # the value a line cache holds before its first line


@dataclass(slots=True)
class _Line:
    """A PROP write site and its last line, ``PROP label old -> new  writer=writer``."""

    label: str  # the written target, as the trace names it
    render: Callable[[object], str]
    writer: str
    old: object = _UNSEEN
    new: object = _UNSEEN
    new_text: str = ""
    body: str = ""


@dataclass(slots=True, kw_only=True)
class _Target(_Line):
    """A scene property a rule writes, resolved for direct reads, and the site of its restores."""

    element_id: str
    prop: str
    element: SceneElement
    attr: str  # the property's SceneElement attribute
    written: object = None  # the checked constant of the rule's last write to it


@dataclass(slots=True, kw_only=True)
class _Step(_Line):
    """A rule action, ready to run, and its PROP site: a scene write (feature None) or a feature write."""

    feature: FeatureId | None = None
    element_id: str | None = None
    prop: str | None = None
    value: object  # for a scene write, as its check stores it (unless the check refuses it)


@dataclass(slots=True)
class _Plan:
    """How a rule executes and unexecutes, built the first time it executes.
    The rule's snapshot, while it is active, is aligned with ``targets``."""

    steps: tuple[_Step, ...]
    targets: tuple[_Target, ...]  # in restore order: by label
    executed: str  # the RULE line bodies
    unexecuted: str
    # the target indices whose restore the last skipping unexecute skipped,
    # and that unexecute's RULE line body
    skipped: list[int] | None = None
    skipped_body: str = ""


class Engine:
    """One engine instance drives one scene; not reentrant."""

    def __init__(
        self,
        rules: RuleSet,
        scene: SceneModel,
        store: ContextStore,
        workflow: Workflow | None = None,
        max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
    ):
        """Raises ValidationFailed when a name the rules or the workflow use
        does not resolve (dsl.unresolved); the engine checks nothing else."""
        errors = unresolved(rules, scene, workflow)
        if errors:
            raise ValidationFailed("; ".join(d.message for d in errors))
        self.rules = rules
        self.scene = scene
        self.store = store
        self.workflow = workflow
        self.max_cascade_depth = max_cascade_depth
        self.trace = Trace()
        self.cond_last: dict[str, bool | None] = {c.id: None for c in rules.conditions}
        # rule id -> the values its plan's targets held before it executed,
        # aligned with them: a rule is active iff it has an entry
        self._active: dict[str, tuple] = {}
        self._plans: dict[str, _Plan] = {}  # rule id -> its plan, made when it first executes
        odometers: dict[FeatureId, Odometer] = {}  # one per feature, shared by its dist() atoms
        compiled = [compile_expr(c.expr, store, scene, odometers) for c in rules.conditions]
        self._evaluators = {c.id: k.evaluate for c, k in zip(rules.conditions, compiled)}
        # What makes each condition due, built here and never changed:
        # _readers maps an input (FeatureId or (element, property)) to an
        # (i, cell, j) entry for each operand j of condition i that has it
        # as a key, cell being i's first_false, and _guarded maps a feature
        # to its odometer and a (gate, i, cell, j) entry for each gate on it.
        readers: dict[object, list] = {}
        guarded: dict[FeatureId, tuple[Odometer, list]] = {}
        for i, k in enumerate(compiled):
            cell = k.first_false
            for j, operand in enumerate(k.operands):
                for key in operand.keys:
                    readers.setdefault(key, []).append((i, cell, j))
                for gate in operand.gates:
                    guarded.setdefault(gate.feature, (gate.odometer, []))[1].append((gate, i, cell, j))
        self._readers = {key: tuple(entries) for key, entries in readers.items()}
        # whether a scene write can make a condition due: positions are never written
        self._reads_scene = any(isinstance(key, tuple) and key[1] in WRITABLE for key in readers)
        self._guarded = {f: (odometer, tuple(gates)) for f, (odometer, gates) in guarded.items()}
        listed_by: dict[str, list[int]] = {}
        for j, r in enumerate(rules.rules):
            for cid in dict.fromkeys(r.conditions):
                listed_by.setdefault(cid, []).append(j)
        # condition id -> the indices of the rules listing it
        self._listed_by = {cid: tuple(js) for cid, js in listed_by.items()}
        self._full_cycle = True  # the next cycle evaluates everything
        self._next_event = 0
        # line bodies made once and shared by every line that repeats them:
        # COND bodies by value (False, True), then condition id; QUIESCENT
        # bodies by cycle count
        self._cond_bodies: tuple[dict[str, str], dict[str, str]] = ({}, {})
        self._quiescent: dict[int, str] = {}
        # property -> element id -> the _Line of the billboard pass's or the
        # workflow's writes there; the pass writes only yaw and the workflow
        # only text and highlight, so each line has one writer
        self._lines: dict[str, dict[str, _Line]] = {}

    # -- trace plumbing ----------------------------------------------------

    def _emit_props(self, writes) -> None:
        """A PROP line for each applied billboard or workflow write, from the
        _Line of its (property, element)."""
        append = self.trace.append
        last_prop = None
        for element_id, prop, old, new, writer in writes:
            if prop is not last_prop:  # a billboard pass writes only yaws
                lines = self._lines.setdefault(prop, {})
                last_prop = prop
            line = lines.get(element_id)
            if line is None:
                line = lines[element_id] = _Line(f"{element_id}.{prop}", WRITABLE[prop].render, writer)
            append(_prop_body(line, old, new))

    # -- conditions ----------------------------------------------------------

    def rule_active(self, rule_id: str) -> bool:
        """Whether the rule is active; KeyError for an id the rules do not define."""
        if rule_id not in self.rules.rule_by_id:
            raise KeyError(rule_id)
        return rule_id in self._active

    def rule_snapshot(self, rule_id: str) -> dict:
        """Copy of the (element, property) -> prior value map; empty when inactive."""
        if not self.rule_active(rule_id):
            return {}
        targets = self._plans[rule_id].targets
        return {(t.element_id, t.prop): v for t, v in zip(targets, self._active[rule_id])}

    def evaluate_condition(self, cond_id: str) -> tuple[bool, bool]:
        """Evaluate one condition; returns (value, changed).

        The first evaluation always counts as changed. A COND trace line
        is emitted only on change.
        """
        self._full_cycle = True
        evaluate = self._evaluators[cond_id]
        try:
            value = evaluate()
        except (UnknownFeature, UnknownElement, UnknownProperty, TypeMismatch) as e:
            raise EvaluationError(f"condition {cond_id!r}: {e}") from e
        if not isinstance(value, bool):
            raise EvaluationError(f"condition {cond_id!r} did not evaluate to a bool")
        last = self.cond_last[cond_id]
        changed = last is None or last != value
        self.cond_last[cond_id] = value
        if changed:
            bodies = self._cond_bodies[value]
            body = bodies.get(cond_id)
            if body is None:
                body = f"COND {cond_id} -> {'true' if value else 'false'}"
                if last is not None:  # a first evaluation's line comes once: not worth an entry
                    bodies[cond_id] = body
            self.trace.append(body)
        return value, changed

    # -- rule lifecycle ------------------------------------------------------

    def execute_rule(self, rule_id: str) -> None:
        """Snapshot, apply actions in order, mark active. RULE then PROP lines."""
        self._full_cycle = True
        assert rule_id not in self._active, f"rule {rule_id} is already active"
        plan = self._plans.get(rule_id)
        if plan is None:
            plan = self._plans[rule_id] = self._plan(rule_id)
        append = self.trace.append
        snapshot = tuple([getattr(t.element, t.attr) for t in plan.targets])
        append(plan.executed)
        write_property = self.scene.write_property
        store = self.store
        for step in plan.steps:
            feature, value = step.feature, step.value
            try:
                if feature is None:
                    write = write_property(step.element_id, step.prop, value, rule_id)
                    if write is None:
                        continue
                    old = write.old
                else:
                    old = store._values.get(feature)
                    if store.set_feature(feature, value) is not ChangeFlag.CHANGED:
                        continue
            except (UnknownElement, UnknownProperty, TypeMismatch) as err:
                raise ActionError(f"rule {rule_id!r}: {err}") from err
            append(step.body if old is step.old and value is step.new else _prop_body(step, old, value))
        self._active[rule_id] = snapshot

    def _plan(self, rule_id: str) -> _Plan:
        """Resolve a rule's targets and check its constant values once."""
        rule = self.rules.rule_by_id[rule_id]
        steps = []
        targets: dict[tuple[str, str], _Target] = {}
        for action in rule.actions:
            prop = EFFECTOR_PROPERTY[action.effector]
            if prop is None:
                steps.append(_Step(action.feature, _render_prior, rule_id, feature=action.feature, value=action.value))
                continue
            spec = WRITABLE[prop]
            label = f"{action.element}.{prop}"
            target = targets.get((action.element, prop))
            if target is None:
                target = targets[action.element, prop] = _Target(
                    label, spec.render, rule_id, element_id=action.element, prop=prop,
                    element=self.scene.element(action.element), attr=spec.attr)
            target.written = _checked_constant(spec.check, action.value)
            steps.append(_Step(label, spec.render, rule_id, element_id=action.element, prop=prop,
                               value=target.written))
        order = tuple(sorted(targets.values(), key=lambda t: t.label))
        return _Plan(tuple(steps), order, f"RULE {rule_id} EXECUTED", f"RULE {rule_id} UNEXECUTED")

    def unexecute_rule(self, rule_id: str) -> None:
        """Restore snapshotted properties this rule still owns; mark inactive."""
        self._full_cycle = True
        snapshot = self._active.get(rule_id)
        assert snapshot is not None, f"rule {rule_id} is not active"
        plan = self._plans[rule_id]
        targets = plan.targets
        restores = []
        skipped = []
        for i, t in enumerate(targets):
            current = getattr(t.element, t.attr)
            if current is t.written or prop_values_equal(current, t.written):
                if current is not snapshot[i]:  # the write of the object it holds would be a no-op
                    restores.append(i)
            else:
                skipped.append(i)
        body = plan.unexecuted
        if skipped:
            if skipped != plan.skipped:
                plan.skipped = skipped
                labels = ",".join([targets[i].label for i in skipped])
                plan.skipped_body = f"{body} skipped_restore={labels}"
            body = plan.skipped_body
        append = self.trace.append
        append(body)
        write_property = self.scene.write_property
        for i in restores:
            t = targets[i]
            write = write_property(t.element_id, t.prop, snapshot[i], rule_id)
            if write is None:
                continue
            old, new = write.old, write.new
            append(t.body if old is t.old and new is t.new else _prop_body(t, old, new))
        del self._active[rule_id]

    # -- the loop --------------------------------------------------------------

    def process_event(self, sets: list[tuple[FeatureId, Value]]) -> CycleReport:
        """Apply one batch of context writes and run cycles to quiescence."""
        try:
            return self._process_event(sets)
        except BaseException as e:
            self._full_cycle = True  # the failed cycle may have stopped anywhere
            if isinstance(e, AdaptError) and getattr(e, "trace", None) is None:
                e.trace = self.trace
            raise

    def _process_event(self, sets) -> CycleReport:
        e = self._next_event
        self._next_event += 1
        trace = self.trace
        trace.begin_cycle(e, 0)
        for feature, value in sets:
            self.store.set_feature(feature, value)
            trace.append(f"EVENT set {feature} = {render_value(value)}")
        # event writes (and any made since the last event) are inputs, not cycle activity
        features = self.store.drain_dirty()

        conditions = self.rules.conditions
        rules = self.rules.rules
        for k in range(1, self.max_cascade_depth + 1):
            trace.begin_cycle(e, k)
            full = self._full_cycle
            props = self.scene.drain_dirty()  # drained every cycle, read only if a condition can see it

            if full:
                cond_ids = range(len(conditions))
            else:
                # a hit counts while its chain has no false operand or it
                # is the first false one; only gates past their deadline can flip
                readers = self._readers
                keys = (*features, *props) if self._reads_scene else features
                due = {i for key in keys for i, cell, j in readers.get(key, ())
                       if cell[0] is None or cell[0] == j}
                for feature in features:
                    guard = self._guarded.get(feature)
                    if guard is not None:
                        odometer, gates = guard
                        total = odometer.see(self.store._values[feature])
                        due.update([i for gate, i, cell, j in gates
                                    if (cell[0] is None or cell[0] == j) and total >= gate.deadline])
                cond_ids = sorted(due)
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
            active_rules = self._active
            cond_value = self.cond_last.__getitem__
            for j in rule_ids:
                rule = rules[j]
                all_true = all(map(cond_value, rule.conditions))
                if rule.id in active_rules:
                    if not all_true:
                        deactivate.append(j)
                elif all_true:
                    activate.append(j)
            order = lambda j: (rules[j].priority, j)
            for j in sorted(deactivate, key=order, reverse=True):
                self.unexecute_rule(rules[j].id)
                activity = True
            for j in sorted(activate, key=order):
                self.execute_rule(rules[j].id)
                activity = True
            # the calls above set it too: only a call from outside process_event outlives its cycle
            self._full_cycle = False

            user_pos = self.store._values.get(USER_POSITION)
            if isinstance(user_pos, Vec3):  # an unset or non-vec position cannot aim anything
                writes = self.scene.refresh_billboards(user_pos)
                if writes:
                    self._emit_props(writes)
                    activity = True

            if self.workflow is not None:
                activity = self._workflow_phase(self.cond_last) or activity

            features = self.store.drain_dirty()
            if features:
                activity = True  # rules wrote context features this cycle

            if not activity:
                body = self._quiescent.get(k)
                if body is None:
                    body = self._quiescent[k] = f"QUIESCENT cycles={k}"
                trace.append(body)
                return CycleReport(cycles=k)

        trace.append(f"NONQUIESCENT depth={self.max_cascade_depth}")
        raise NonQuiescent(self.max_cascade_depth, trace=self.trace)

    def _workflow_phase(self, cond_values: dict[str, bool]) -> bool:
        if not self.workflow.applied:
            self._emit_props(apply_step(self.workflow, self.scene))
            return True
        moved = workflow_advance(self.workflow, self.scene, cond_values)
        if moved is None:
            return False
        from_id, to_id, writes = moved
        self.trace.append(f"WORKFLOW step {from_id} -> {to_id}")
        self._emit_props(writes)
        return True


def _prop_body(line: _Line, old, new) -> str:
    """The body of the next PROP line at ``line``'s site, which ``line`` then
    keeps. Values are matched by identity: ``-0.0`` and ``0.0`` render apart."""
    last = line.new
    if old is line.old and new is last:
        return line.body
    text = line.new_text
    old_text = text if old is last else line.render(old)
    if new is not last:
        text = line.new_text = line.render(new)
        line.new = new
    line.old = old
    line.body = body = f"PROP {line.label} {old_text} -> {text}  writer={line.writer}"
    return body


def _checked_constant(check, value):
    """An action's constant value as its write stores it. A value its check
    refuses is kept as it is: that write raises the check's error whenever
    it runs."""
    try:
        return check(value)
    except TypeMismatch:
        return value


def _render_prior(value) -> str:
    """A feature's value before a set_feature action: ``unset`` if it had none."""
    return "unset" if value is None else render_value(value)


def init_engine(
    rules: RuleSet,
    scene: SceneModel,
    store: ContextStore,
    workflow: Workflow | None = None,
    max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
) -> Engine:
    """Build an engine and immediately process the initialization event (E0).

    Rules whose conditions already hold execute during initialization,
    before the first scenario event.
    """
    engine = Engine(rules, scene, store, workflow, max_cascade_depth)
    engine.process_event([])
    return engine
