"""Deterministic replay: scripted context events in, byte-exact trace out.

A scenario file scripts the sensor feed::

    scenario <id>
    at <ms> set <feature> = <value>     # '#' comments allowed

Consecutive lines with the same timestamp form one event and are applied
atomically before any condition evaluation. The t=0 block seeds the store
before the engine initializes. Timestamps order events but never appear
in traces, so runs are wall-clock independent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest

from ._lines import logical_lines
from .context import ContextStore, FeatureId
from .dsl import Diagnostic, RuleSet
from .engine import DEFAULT_MAX_CASCADE_DEPTH, Trace, init_engine
from .errors import (
    DecreasingTimestamp,
    DslSyntaxError,
    DuplicateFeatureInEvent,
    TypeMismatch,
)
from .scene import SceneModel
from .values import Value, parse_value
from .workflow import Workflow


@dataclass(frozen=True)
class ScenarioEvent:
    t: int  # milliseconds
    sets: tuple[tuple[FeatureId, Value], ...]


@dataclass(frozen=True)
class Scenario:
    id: str
    initial: tuple[tuple[FeatureId, Value], ...]
    events: tuple[ScenarioEvent, ...]


_HEADER_RE = re.compile(r"scenario\s+([A-Za-z_][A-Za-z0-9_]*)$")
_SET_RE = re.compile(r"at\s+(\d+)\s+set\s+(\S+)\s*=\s*(.+)$")


def parse_scenario(text: str) -> Scenario:
    scenario_id: str | None = None
    blocks: list[list] = []  # [t, [(feature, value), ...], {features seen}]
    last_t = -1

    for lineno, line in logical_lines(text):
        if scenario_id is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise DslSyntaxError(lineno, "expected 'scenario <id>' header")
            scenario_id = m.group(1)
            continue
        m = _SET_RE.match(line)
        if not m:
            raise DslSyntaxError(lineno, "expected 'at <ms> set <feature> = <value>'")
        t = int(m.group(1))
        try:
            feature = FeatureId.parse(m.group(2))
        except ValueError as e:
            raise DslSyntaxError(lineno, str(e)) from None
        try:
            value = parse_value(m.group(3).strip())
        except (ValueError, TypeMismatch) as e:
            raise DslSyntaxError(lineno, str(e)) from None
        if t < last_t:
            raise DecreasingTimestamp(lineno, f"timestamp {t} after {last_t}")
        if t > last_t:
            blocks.append([t, [], set()])
            last_t = t
        _, sets, seen = blocks[-1]
        if feature in seen:
            raise DuplicateFeatureInEvent(lineno, f"{feature} set twice at t={t}")
        seen.add(feature)
        sets.append((feature, value))

    if scenario_id is None:
        raise DslSyntaxError(1, "expected 'scenario <id>' header")
    initial: tuple = ()
    events = []
    for t, sets, _ in blocks:
        if t == 0:
            initial = tuple(sets)
        else:
            events.append(ScenarioEvent(t, tuple(sets)))
    return Scenario(scenario_id, initial, tuple(events))


def run_scenario(
    rules: RuleSet,
    scene: SceneModel,
    scenario: Scenario,
    workflow: Workflow | None = None,
    store: ContextStore | None = None,
    max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
    diagnostics: list[Diagnostic] | None = None,
) -> Trace:
    """Replay a scenario against fresh engine state and return the trace.

    The t=0 block is written to the store before engine initialization, so
    it never produces EVENT lines. Engine errors propagate with the
    partial trace attached to the exception. ``diagnostics`` are passed to
    the Engine, which validates only without them.
    """
    if store is None:
        store = ContextStore()
    for feature, value in scenario.initial:
        store.set_feature(feature, value)
    engine = init_engine(rules, scene, store, workflow, max_cascade_depth, diagnostics)
    for event in scenario.events:
        engine.process_event(list(event.sets))
    return engine.trace


@dataclass(frozen=True)
class Verdict:
    match: bool
    line: int | None = None  # 1-based first differing line
    expected: str | None = None
    actual: str | None = None


def _normalize(text: str) -> list[str]:
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = text.rstrip("\n")
    return text.split("\n") if text else []


def compare_traces(actual: str, golden: str) -> Verdict:
    """Byte comparison after normalizing line endings and trailing newlines."""
    actual_lines = _normalize(actual)
    golden_lines = _normalize(golden)
    for i, (got, want) in enumerate(zip_longest(actual_lines, golden_lines), start=1):
        if got != want:
            return Verdict(False, line=i, expected=want, actual=got)
    return Verdict(True)
